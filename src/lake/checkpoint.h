// Crash-safe checkpoints for the transaction log (metadata plane).
//
// A checkpoint is a single JSON object at "<prefix>/<version>.checkpoint.json"
// holding the log's compacted action state at that version plus a Hash64
// checksum (same integrity discipline as index component files). A pointer
// object "<prefix>/_last_checkpoint" names the newest checkpoint and the log
// retention floor. Write ordering is crash-safe by construction:
//
//   1. the checkpoint object lands via PutIfAbsent (atomic, first writer
//      wins, a concurrent writer at the same version is benign);
//   2. only then does the pointer move (a plain overwrite Put that never
//      regresses either field).
//
// A crash between the two leaves an orphan checkpoint the LIST fallback can
// still discover; a torn/corrupt/missing checkpoint or pointer degrades to
// full replay — readers are never wrong, only slower. Log truncation uses the
// reverse ordering (pointer's retention floor first, then entry deletes) so a
// reader can always distinguish "version truncated by retention" from a lost
// object.
#ifndef ROTTNEST_LAKE_CHECKPOINT_H_
#define ROTTNEST_LAKE_CHECKPOINT_H_

#include <functional>
#include <string>
#include <vector>

#include "common/json.h"
#include "objectstore/object_store.h"

namespace rottnest::lake {

using Version = int64_t;

/// Rewrites a replayed action stream into an equivalent compacted one
/// (reconciled adds/removes, latest metaData, unknown actions preserved in
/// order for forward compatibility). Must satisfy: for any suffix S,
/// replay(compact(A) + S) == replay(A + S).
using ActionCompactor =
    std::function<Status(const std::vector<Json>&, std::vector<Json>*)>;

/// A validated checkpoint: the compacted action state at `version`.
struct CheckpointData {
  Version version = -1;
  std::vector<Json> actions;
};

/// The "_last_checkpoint" pointer contents.
struct CheckpointPointer {
  Version version = -1;         ///< Newest checkpoint (or -1 if none named).
  Version truncated_before = 0; ///< Log entries below this may be deleted.
};

/// Reads and writes checkpoint objects under one log prefix. Stateless apart
/// from the store handle; safe to use from concurrent readers/writers.
class Checkpointer {
 public:
  /// `store` is not owned and must outlive the checkpointer.
  Checkpointer(objectstore::ObjectStore* store, std::string log_prefix);

  /// Object key of the checkpoint at `version`.
  std::string KeyFor(Version version) const;

  const std::string& pointer_key() const { return pointer_key_; }

  /// Writes the checkpoint object (PutIfAbsent; a concurrent identical
  /// writer's AlreadyExists is success) and then advances the pointer.
  Status Write(Version version, const std::vector<Json>& actions);

  /// Overwrites the checkpoint object in place (repair path for a rotten
  /// checkpoint at the current tail) and re-advances the pointer.
  Status Rewrite(Version version, const std::vector<Json>& actions);

  /// Reads and validates one checkpoint. Corruption (with the offending
  /// key) on parse/checksum/shape mismatch.
  Result<CheckpointData> Read(Version version) const;

  /// Validates a fetched checkpoint body (the parse half of Read), so a
  /// caller can fetch it in a concurrent wave and parse on its own thread.
  Result<CheckpointData> Parse(Version version, const Buffer& body) const;

  /// Reads the pointer. NotFound if absent, Corruption if unparseable.
  Result<CheckpointPointer> ReadPointer() const;

  /// Parses a fetched pointer body (the parse half of ReadPointer).
  Result<CheckpointPointer> ParsePointer(const Buffer& body) const;

  /// Moves the pointer monotonically: neither field ever regresses. Pass
  /// `truncated_before` < 0 to keep the current retention floor.
  Status AdvancePointer(Version version, Version truncated_before);

  /// The LIST walk behind a pointer that cannot serve: the newest
  /// checkpoint at or below `max_version` (< 0 = unbounded) that validates,
  /// tried newest first, skipping `skip` (a version already found rotten;
  /// pass -1 for none). Never returns Corruption — an unusable checkpoint
  /// is skipped, and NotFound means "replay from 0". Other errors are the
  /// LIST's own.
  Result<CheckpointData> NewestUsable(Version max_version,
                                      Version skip) const;

  /// Versions of all checkpoint objects under the prefix (sorted ascending;
  /// includes orphans and rotten ones — existence only, no validation).
  Result<std::vector<Version>> List() const;

  /// Deletes the checkpoint object at `version` (idempotent).
  Status Delete(Version version);

  /// True if `key` is a checkpoint object key under this prefix; fills
  /// `version` from the basename.
  static bool ParseCheckpointKey(const std::string& key, Version* version);

 private:
  std::string EncodeBody(Version version,
                         const std::vector<Json>& actions) const;

  objectstore::ObjectStore* store_;
  std::string prefix_;
  std::string pointer_key_;
};

}  // namespace rottnest::lake

#endif  // ROTTNEST_LAKE_CHECKPOINT_H_
