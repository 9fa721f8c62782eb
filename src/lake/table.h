// The data lake table: Parquet-style immutable data files + a transaction
// log, supporting append, snapshot reads (time travel), file compaction,
// row deletes via deletion vectors, and vacuum — every operation the
// Rottnest protocol must stay consistent against (paper §IV).
#ifndef ROTTNEST_LAKE_TABLE_H_
#define ROTTNEST_LAKE_TABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "format/types.h"
#include "format/writer.h"
#include "lake/deletion_vector.h"
#include "lake/txn_log.h"
#include "objectstore/object_store.h"

namespace rottnest::lake {

/// One live data file in a snapshot.
struct DataFile {
  std::string path;     ///< Object key of the data file.
  uint64_t rows = 0;    ///< Total rows (before deletion-vector filtering).
  uint64_t bytes = 0;   ///< Object size.
  std::string dv_path;  ///< Deletion-vector object key; empty if none.
};

/// A point-in-time view of the table: the manifest the paper's `search`
/// plans against.
struct Snapshot {
  Version version = -1;
  format::Schema schema;
  std::vector<DataFile> files;

  /// True if `path` is a live data file in this snapshot.
  bool ContainsFile(const std::string& path) const;

  /// The DataFile for `path`, or nullptr.
  const DataFile* FindFile(const std::string& path) const;

  uint64_t TotalRows() const;
  uint64_t TotalBytes() const;

  /// Canonical byte-stable serialization (version, schema, files in path
  /// order) — the equivalence oracle for replay-from-0 vs checkpoint+suffix.
  std::string DebugString() const;
};

/// A transactional table rooted at `<root>/` in an object store:
///   <root>/_log/<version>.json   transaction log
///   <root>/data/<id>.lake        data files
///   <root>/dv/<id>.dv            deletion vectors
class Table {
 public:
  /// Creates a new table (commits version 0 with the schema).
  static Result<std::unique_ptr<Table>> Create(
      objectstore::ObjectStore* store, std::string root,
      format::Schema schema,
      format::WriterOptions writer_options = format::WriterOptions{});

  /// Opens an existing table (reads the schema from the log).
  static Result<std::unique_ptr<Table>> Open(objectstore::ObjectStore* store,
                                             std::string root);

  /// Appends a batch as one new data file. Returns the committed version.
  Result<Version> Append(const format::RowBatch& batch);

  /// Reads the snapshot at `version` (< 0 means latest): a one-log
  /// TxnLog::ReplayAll with its requests on `io` (inline when null).
  Result<Snapshot> GetSnapshot(Version version = -1,
                               ThreadPool* io = nullptr);

  /// The snapshot a replay of this table's log produced (its error, if
  /// the replay failed) — for callers that resolve several logs at once.
  /// The one materializer of the table log: a full replay builds the
  /// snapshot from nothing, a catch-up (ReplayTask::caught_up) applies its
  /// entries to `held`, the snapshot at ReplayTask::since.
  Result<Snapshot> SnapshotFrom(const ReplayTask& replayed,
                                const Snapshot* held = nullptr) const;

  /// Merges data files smaller than `small_file_bytes` into one file
  /// (dropping rows masked by deletion vectors). No-op if fewer than two
  /// qualify. Returns the committed version, or the current latest if
  /// nothing was compacted.
  Result<Version> CompactFiles(uint64_t small_file_bytes);

  /// Deletes rows where `predicate(column_value_index)` is true, evaluated
  /// over `column`; commits per-file deletion vectors. Returns the version.
  Result<Version> DeleteWhere(
      const std::string& column,
      const std::function<bool(const format::ColumnVector&, size_t)>&
          predicate);

  /// Physically removes data/dv objects that are not referenced by the
  /// latest snapshot and are older than `retention_micros` (store clock).
  /// Returns the number of objects removed.
  Result<size_t> Vacuum(Micros retention_micros);

  /// Writes a checkpoint of the reconciled table state at the current
  /// latest version (see lake/checkpoint.h); cold GetSnapshot then reads
  /// checkpoint + suffix instead of replaying from 0. Returns the
  /// checkpointed version.
  Result<Version> Checkpoint();

  /// Deletes log entries covered by the newest checkpoint, keeping at
  /// least the `keep_versions` most recent. Time travel below the floor
  /// fails with a typed NotFound("version truncated ..."). Returns the
  /// number of entries deleted; InvalidArgument without a checkpoint.
  Result<size_t> TruncateLog(Version keep_versions);

  /// Mirrors the log's `meta.*` counters into `registry` (nullptr stops).
  void AttachMetrics(obs::MetricsRegistry* registry) {
    log_.AttachMetrics(registry);
  }

  /// Loads the deletion vector of `file` (empty vector if none).
  Status ReadDeletionVector(const DataFile& file, DeletionVector* out);

  objectstore::ObjectStore* store() { return store_; }
  const std::string& root() const { return root_; }
  const format::Schema& schema() const { return schema_; }
  const format::WriterOptions& writer_options() const {
    return writer_options_;
  }
  TxnLog& log() { return log_; }

 private:
  Table(objectstore::ObjectStore* store, std::string root,
        format::Schema schema, format::WriterOptions writer_options);

  /// Writes `batch` as a data file object and returns its DataFile record.
  Result<DataFile> WriteDataFile(const format::RowBatch& batch);

  std::string NewObjectName(const char* dir, const char* ext);

  objectstore::ObjectStore* store_;
  std::string root_;
  format::Schema schema_;
  format::WriterOptions writer_options_;
  TxnLog log_;
  uint64_t name_counter_ = 0;
};

/// The table's ActionCompactor: reconciles add/remove into the live file
/// set, keeps the latest metaData, and preserves unknown actions in order
/// (forward compatibility). Replay-equivalent to the input for any suffix.
Status CompactTableActions(const std::vector<Json>& in,
                           std::vector<Json>* out);

/// Serializes a schema into the log's metaData action payload.
Json SchemaToJson(const format::Schema& schema);

/// Inverse of SchemaToJson.
Status SchemaFromJson(const Json& j, format::Schema* out);

}  // namespace rottnest::lake

#endif  // ROTTNEST_LAKE_TABLE_H_
