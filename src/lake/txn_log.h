// Versioned transaction log on object storage, in the style of Delta Lake's
// _delta_log. A commit writes JSON-lines of actions to
// "<prefix>/<20-digit version>.json" with a conditional put; the first
// writer of a version wins and losers retry on the next version. Strong
// read-after-write consistency (provided by the object store) makes the
// latest version discoverable with a LIST.
//
// Cold-read cost is bounded by checkpoints (see lake/checkpoint.h): Replay
// resolves the newest usable checkpoint at or below the target version and
// reads only the log suffix past it, so recovery is O(commits since last
// checkpoint) instead of O(all commits). Truncate deletes pre-checkpoint
// entries; reads past the retention floor fail with a typed
// NotFound("version truncated ...") rather than a half-replayed state.
//
// Replay is two dependent rounds of concurrent requests, not a chain
// (paper §V-B: depth is what costs on object storage):
//
//   wave 1: HEAD(hint), HEAD(hint + 1) and the `_last_checkpoint` GET;
//   wave 2: the checkpoint GET plus every suffix-entry GET.
//
// A reader that already holds the state at some version (ReplayTask::since)
// catches up instead of replaying: wave 1 is only the two tail HEADs, and
// if the tail has not moved nothing more is issued. If it moved, wave 2
// GETs just the entries (since, tail], which the caller applies to its held
// state. A new entry gone to retention falls back to the full replay
// above, so a catch-up of "latest" never fails for truncation.
//
// ReplayAll runs the waves of several logs together (the table log and the
// index registry of one query plan), so a plan waits two rounds, not the
// eight of a serial walk, and a steady-state catch-up waits one. Requests
// run on a caller-supplied I/O executor; without one they run inline, in
// the same waves. Only store calls run on the executor — every parse
// happens on the caller. The rare paths keep their serial walks: a hint
// miss LISTs or HEADs forward, a torn pointer, rotten checkpoint or pointer
// beyond the target walks the checkpoint LIST.
#ifndef ROTTNEST_LAKE_TXN_LOG_H_
#define ROTTNEST_LAKE_TXN_LOG_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "lake/checkpoint.h"
#include "objectstore/object_store.h"
#include "objectstore/retry.h"

namespace rottnest::obs {
class Counter;
class MetricsRegistry;
}  // namespace rottnest::obs

namespace rottnest::lake {

/// Per-replay accounting, for tests and the metadata bench.
struct ReplayStats {
  uint64_t entry_gets = 0;        ///< Log-entry GETs issued.
  bool used_checkpoint = false;   ///< Replay started from a checkpoint.
  Version checkpoint_version = -1;
};

class TxnLog;

/// One log's part in a replay (see TxnLog::ReplayAll). The caller sets
/// `log`, `version` and `since`; the replay fills the rest.
struct ReplayTask {
  TxnLog* log = nullptr;
  Version version = -1;  ///< Target version; < 0 means latest.
  /// The version whose state the caller holds (-1 = none). With a "latest"
  /// target, the replay then catches up: it reads only the entries
  /// (since, tail], and sets `caught_up`. Ignored for explicit versions.
  Version since = -1;
  Status status;         ///< OK, or why the replay failed.
  Version replayed = -1;       ///< The version actually read, when OK.
  /// True when `actions` are only the entries (since, replayed] — none
  /// when the tail has not moved — to apply to the held state; false when
  /// they are all actions of [0, replayed] in commit order.
  bool caught_up = false;
  std::vector<Json> actions;
  ReplayStats stats;

  /// The held state is still the latest: a catch-up found no new entry.
  bool unchanged() const { return caught_up && replayed == since; }
};

/// Pre-resolved `meta.*` metric handles (see obs/metrics.h); all null when
/// metrics are off. Shared across logs attached to one registry — the
/// metadata plane is reported as one surface.
struct LogMetrics {
  obs::Counter* checkpoint_writes = nullptr;
  obs::Counter* checkpoint_hits = nullptr;
  obs::Counter* checkpoint_misses = nullptr;
  obs::Counter* checkpoint_fallbacks = nullptr;
  obs::Counter* replay_gets = nullptr;
  obs::Counter* tail_probes = nullptr;
  obs::Counter* truncated_reads = nullptr;
  /// Log entries a catch-up applied to held state.
  obs::Counter* state_entries_applied = nullptr;
  /// Replays that rebuilt a log's state from a checkpoint or version 0,
  /// including a catch-up that fell back to one.
  obs::Counter* state_full_replays = nullptr;
};

/// Resolves the `meta.*` handle set (nullptr-safe).
LogMetrics ResolveLogMetrics(obs::MetricsRegistry* registry);

/// Versioned action log under `prefix` in `store`.
class TxnLog {
 public:
  /// Neither argument is owned; `store` must outlive the log.
  TxnLog(objectstore::ObjectStore* store, std::string prefix)
      : store_(store), prefix_(std::move(prefix)), ckpt_(store, prefix_) {}

  /// Attempts to commit `actions` as `version`. Fails with AlreadyExists if
  /// another writer committed that version first.
  Status Commit(Version version, const std::vector<Json>& actions);

  /// Commits `actions` at the next available version, retrying on
  /// conflicts. Each conflict re-lists the log to land on the real tail
  /// (not a blind probe), backing off per the commit policy (see
  /// SetCommitBackoff). Returns the committed version.
  Result<Version> CommitNext(const std::vector<Json>& actions);

  /// Configures contention backoff for CommitNext. `policy` shapes the
  /// waits; `sleep` performs them (pass objectstore::SimulatedSleeper in
  /// simulations so backoff advances simulated time, or leave empty for an
  /// eager retry loop).
  void SetCommitBackoff(objectstore::RetryPolicy policy,
                        objectstore::SleepFn sleep) {
    commit_policy_ = policy;
    sleep_ = std::move(sleep);
  }

  /// Highest committed version, or NotFound if the log is empty. Uses the
  /// last tail this instance observed as a probe hint (see the overload).
  Result<Version> LatestVersion(ThreadPool* io = nullptr);

  /// Like LatestVersion, but probes forward from `hint` (a version the
  /// caller believes committed): HEAD(hint) and HEAD(hint + 1) in one
  /// concurrent wave on `io` (inline when null), then further HEADs only
  /// when the tail moved on. A hint miss — entry absent (e.g. truncated)
  /// or the tail more than a probe window ahead — falls back to the LIST.
  Result<Version> LatestVersion(Version hint, ThreadPool* io = nullptr);

  /// Reads the actions of one version. A malformed or short body fails
  /// with Corruption naming the offending key.
  Status ReadVersion(Version version, std::vector<Json>* actions);

  /// Reads all actions of versions [0, version] in commit order, seeding
  /// from the newest usable checkpoint at or below the target when one
  /// exists (equivalent by the ActionCompactor contract). version < 0
  /// means latest. Returns the version actually read. Reading a version
  /// below the retention floor fails with NotFound("version truncated...").
  /// A one-task ReplayAll: two waves of requests on `io` (inline if null).
  Result<Version> Replay(Version version, std::vector<Json>* actions,
                         ReplayStats* stats = nullptr,
                         ThreadPool* io = nullptr);

  /// Replays every task's log (each as Replay would, or as a catch-up
  /// from ReplayTask::since) in two shared waves: wave 1 probes every
  /// log's tail and reads the pointer of each full replay, wave 2 reads
  /// every checkpoint, suffix entry and catch-up entry, all concurrently on
  /// `io` (inline when null). A catch-up whose tail has not moved issues
  /// nothing in wave 2. A task's failure is its own `status`; the others
  /// still complete.
  static void ReplayAll(const std::vector<ReplayTask*>& tasks,
                        ThreadPool* io);

  /// Writes a checkpoint of the log's compacted state at the current
  /// latest version and advances the `_last_checkpoint` pointer. Returns
  /// the checkpointed version. Safe under concurrent commits: the
  /// checkpoint names the version it replayed, never a moving tail.
  /// `overwrite` replaces an existing (possibly rotten) checkpoint object
  /// at that version in place — the Repair path.
  Result<Version> WriteCheckpoint(bool overwrite = false);

  /// Deletes log entries superseded by the newest checkpoint, keeping at
  /// least the `keep_versions` most recent versions. The retention floor
  /// in the `_last_checkpoint` pointer moves first (crash-safe: a partial
  /// delete pass is indistinguishable from a finished one to readers).
  /// Returns the number of entries deleted. InvalidArgument if no
  /// checkpoint exists yet.
  Result<size_t> Truncate(Version keep_versions);

  /// Installs the action compactor used by WriteCheckpoint (see
  /// lake/checkpoint.h). Not thread-safe; install before concurrent use.
  void SetCompactor(ActionCompactor compactor) {
    compactor_ = std::move(compactor);
  }

  /// Disables checkpoint consultation in Replay (full replay from 0) —
  /// for equivalence tests and the metadata bench.
  void set_use_checkpoints(bool on) {
    use_checkpoints_.store(on, std::memory_order_relaxed);
  }

  /// Starts mirroring checkpoint/replay counters into `registry` under
  /// `meta.*` (pass nullptr to stop). Attach before concurrent use.
  void AttachMetrics(obs::MetricsRegistry* registry) {
    metrics_ = ResolveLogMetrics(registry);
  }

  Checkpointer& checkpointer() { return ckpt_; }

  const std::string& prefix() const { return prefix_; }

 private:
  struct Request;    // One store call of a wave (txn_log.cc).
  struct TailProbe;  // Wave-1 tail discovery from a hint.
  struct Resolve;    // One ReplayTask's state across the waves.

  /// Issues one wave of requests on `io` (inline when null).
  static void Issue(const std::vector<Request*>& wave, ThreadPool* io);

  std::string KeyFor(Version version) const;

  /// Like LatestVersion but returns -1 (not an error) for an empty log.
  Result<Version> LatestVersionOrMinusOne(Version hint, ThreadPool* io);

  /// The serial tail walk from `known` (a committed version): up to
  /// `budget` HEADs forward, then the LIST.
  Result<Version> ProbeForward(Version known, int budget);

  /// The highest version a LIST of the log names (-1 for none).
  Result<Version> ListTail();
  Version TailOfListing(const std::vector<objectstore::ObjectMeta>& listing);

  /// Parses one fetched log entry, appending its actions.
  Status ParseEntry(Version version, const Buffer& body,
                    std::vector<Json>* actions) const;

  void NoteTail(Version version);

  objectstore::ObjectStore* store_;
  std::string prefix_;
  Checkpointer ckpt_;
  ActionCompactor compactor_;
  objectstore::RetryPolicy commit_policy_;
  objectstore::SleepFn sleep_;
  std::atomic<Version> tail_hint_{-1};
  std::atomic<bool> use_checkpoints_{true};
  LogMetrics metrics_;
};

}  // namespace rottnest::lake

#endif  // ROTTNEST_LAKE_TXN_LOG_H_
