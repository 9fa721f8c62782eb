// The Rottnest metadata table (paper §IV): a transactional record of which
// index files exist and which Parquet data files each one covers. The paper
// implements it as a Delta table; here it shares the same TxnLog machinery
// as the data lake, giving the same transactional insert/delete semantics.
#ifndef ROTTNEST_LAKE_METADATA_TABLE_H_
#define ROTTNEST_LAKE_METADATA_TABLE_H_

#include <string>
#include <vector>

#include "common/clock.h"
#include "lake/txn_log.h"

namespace rottnest::lake {

/// One committed index file.
struct IndexEntry {
  std::string index_path;  ///< Object key of the index file.
  std::string index_type;  ///< "trie", "fm", "ivfpq", or "keyword".
  std::string column;      ///< Indexed column name.
  std::vector<std::string> covered_files;  ///< Data files it indexes.
  uint64_t rows = 0;                       ///< Rows covered.
  Micros created_micros = 0;               ///< Commit-time store clock.
};

/// The registry's ActionCompactor: reconciles addIndex/removeIndex into
/// the live entry set, preserving unknown actions in order.
Status CompactMetaActions(const std::vector<Json>& in,
                          std::vector<Json>* out);

/// Transactional index registry under `<prefix>/_meta`.
class MetadataTable {
 public:
  MetadataTable(objectstore::ObjectStore* store, const std::string& prefix)
      : store_(store), log_(store, prefix + "/_meta") {
    log_.SetCompactor(CompactMetaActions);
  }

  /// Atomically inserts `added` and deletes the entries whose index_path is
  /// in `removed`. One commit — concurrent calls serialize through the log.
  Result<Version> Update(const std::vector<IndexEntry>& added,
                         const std::vector<std::string>& removed);

  /// All currently committed entries: a one-log TxnLog::ReplayAll with
  /// its requests on `io` (inline when null).
  Result<std::vector<IndexEntry>> ReadAll(ThreadPool* io = nullptr);

  /// The live entries a replay of the registry log produced (an empty set
  /// for an empty log; the error of any other failed replay), in index
  /// path order. The one materializer of the registry log: a full replay
  /// builds the set from nothing, a catch-up (ReplayTask::caught_up)
  /// applies its entries to `held`, the set at ReplayTask::since.
  static Result<std::vector<IndexEntry>> EntriesFrom(
      const ReplayTask& replayed,
      const std::vector<IndexEntry>* held = nullptr);

  /// Checkpoints the registry log (see Table::Checkpoint).
  Result<Version> Checkpoint() { return log_.WriteCheckpoint(); }

  /// Truncates the registry log (see Table::TruncateLog).
  Result<size_t> TruncateLog(Version keep_versions) {
    return log_.Truncate(keep_versions);
  }

  /// Mirrors the log's `meta.*` counters into `registry` (nullptr stops).
  void AttachMetrics(obs::MetricsRegistry* registry) {
    log_.AttachMetrics(registry);
  }

  TxnLog& log() { return log_; }

 private:
  objectstore::ObjectStore* store_;
  TxnLog log_;
};

}  // namespace rottnest::lake

#endif  // ROTTNEST_LAKE_METADATA_TABLE_H_
