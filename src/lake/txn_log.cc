#include "lake/txn_log.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>

#include "obs/metrics.h"
#include "objectstore/read_batch.h"

namespace rottnest::lake {

namespace {

constexpr int kMaxCommitRetries = 32;

/// Forward HEAD probes past the hint before giving up and LISTing — a
/// burst of more than this many unseen commits falls back to the LIST.
constexpr int kMaxTailProbes = 16;

/// Entry GETs per wave. A steady-state suffix fits in one; a long replay
/// (no checkpoint) runs in waves of this size, and a target past the tail
/// stops at the first wave that misses instead of issuing them all.
constexpr Version kEntriesPerWave = 256;

/// Parses a log-entry basename ("<20 digits>.json" exactly — checkpoint
/// objects share the prefix but carry a ".checkpoint.json" suffix).
bool ParseEntryBasename(const std::string& base, Version* version) {
  if (base.size() != 25 || base.compare(20, 5, ".json") != 0) return false;
  for (int i = 0; i < 20; ++i) {
    if (!std::isdigit(static_cast<unsigned char>(base[i]))) return false;
  }
  *version = std::strtoll(base.c_str(), nullptr, 10);
  return true;
}

}  // namespace

LogMetrics ResolveLogMetrics(obs::MetricsRegistry* registry) {
  LogMetrics m;
  if (!registry) return m;
  m.checkpoint_writes = registry->GetCounter("meta.checkpoint.writes");
  m.checkpoint_hits = registry->GetCounter("meta.checkpoint.hits");
  m.checkpoint_misses = registry->GetCounter("meta.checkpoint.misses");
  m.checkpoint_fallbacks = registry->GetCounter("meta.checkpoint.fallbacks");
  m.replay_gets = registry->GetCounter("meta.replay_gets");
  m.tail_probes = registry->GetCounter("meta.tail_probes");
  m.truncated_reads = registry->GetCounter("meta.truncated_reads");
  m.state_entries_applied =
      registry->GetCounter("meta.state.entries_applied");
  m.state_full_replays = registry->GetCounter("meta.state.full_replays");
  return m;
}

std::string TxnLog::KeyFor(Version version) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020lld",
                static_cast<long long>(version));
  return prefix_ + "/" + buf + ".json";
}

void TxnLog::NoteTail(Version version) {
  Version cur = tail_hint_.load(std::memory_order_relaxed);
  while (version > cur &&
         !tail_hint_.compare_exchange_weak(cur, version,
                                           std::memory_order_relaxed)) {
  }
}

Status TxnLog::Commit(Version version, const std::vector<Json>& actions) {
  std::string body;
  for (const Json& a : actions) {
    body += a.Dump();
    body.push_back('\n');
  }
  Status s = store_->PutIfAbsent(KeyFor(version), Slice(body));
  if (s.ok()) NoteTail(version);
  return s;
}

Result<Version> TxnLog::CommitNext(const std::vector<Json>& actions) {
  ROTTNEST_ASSIGN_OR_RETURN(
      Version latest,
      LatestVersionOrMinusOne(tail_hint_.load(std::memory_order_relaxed),
                              nullptr));
  Version candidate = latest + 1;
  Random rng(commit_policy_.jitter_seed ^ Hash64(Slice(prefix_)));
  for (int attempt = 0; attempt < kMaxCommitRetries; ++attempt) {
    Status s = Commit(candidate, actions);
    if (s.ok()) return candidate;
    if (!s.IsAlreadyExists()) return s;
    // Lost the race for `candidate`. Back off (contention signal), then
    // re-resolve the real tail rather than probing versions blindly
    // — under heavy contention a blind `latest + 1 + attempt` walk issues
    // one failed conditional put per intervening commit.
    if (sleep_) {
      sleep_(commit_policy_.BackoffFor(attempt + 1, &rng));
    }
    ROTTNEST_ASSIGN_OR_RETURN(latest,
                              LatestVersionOrMinusOne(candidate, nullptr));
    candidate = std::max(candidate + 1, latest + 1);
  }
  return Status::Aborted("commit contention exceeded retry budget");
}

// ---------------------------------------------------------------------------
// Waves

/// One store call of a wave. Only Issue() runs on an executor thread;
/// everything that interprets the answer runs on the caller.
struct TxnLog::Request {
  enum class Op { kHead, kGet, kList };

  objectstore::ObjectStore* store = nullptr;
  Op op = Op::kGet;
  std::string key;  ///< Object key, or the prefix of a LIST.
  Status status;
  Buffer body;
  std::vector<objectstore::ObjectMeta> listing;

  Request() = default;
  Request(objectstore::ObjectStore* s, Op o, std::string k)
      : store(s), op(o), key(std::move(k)) {}

  void Issue() {
    switch (op) {
      case Op::kHead: {
        objectstore::ObjectMeta meta;
        status = store->Head(key, &meta);
        break;
      }
      case Op::kGet:
        status = store->Get(key, &body);
        break;
      case Op::kList:
        status = store->List(key, &listing);
        break;
    }
  }
};

void TxnLog::Issue(const std::vector<Request*>& wave, ThreadPool* io) {
  objectstore::IssueWave(io, wave.size(),
                         [&](size_t i) { wave[i]->Issue(); });
}

/// Tail discovery's share of wave 1: HEAD(hint) and HEAD(hint + 1) when a
/// hint is known, else the LIST. Resolve() reads the answers; only a tail
/// that moved past hint + 1 or a missing hint entry costs more rounds.
struct TxnLog::TailProbe {
  Version hint = -1;
  Request at_hint, past_hint, list;

  void Plan(TxnLog* log, Version h, std::vector<Request*>* wave) {
    hint = h;
    if (hint >= 0) {
      at_hint = {log->store_, Request::Op::kHead, log->KeyFor(hint)};
      past_hint = {log->store_, Request::Op::kHead, log->KeyFor(hint + 1)};
      wave->push_back(&at_hint);
      wave->push_back(&past_hint);
    } else {
      list = {log->store_, Request::Op::kList, log->prefix_ + "/"};
      wave->push_back(&list);
    }
  }

  /// Highest committed version, or -1 for an empty log.
  Result<Version> Resolve(TxnLog* log) {
    if (hint < 0) {
      ROTTNEST_RETURN_NOT_OK(list.status);
      return log->TailOfListing(list.listing);
    }
    obs::Add(log->metrics_.tail_probes, 2);
    // Hint entry absent (e.g. truncated by retention): fall back to LIST.
    if (at_hint.status.IsNotFound()) return log->ListTail();
    ROTTNEST_RETURN_NOT_OK(at_hint.status);
    if (past_hint.status.IsNotFound()) {
      log->NoteTail(hint);
      return hint;
    }
    ROTTNEST_RETURN_NOT_OK(past_hint.status);
    return log->ProbeForward(hint + 1, kMaxTailProbes - 1);
  }
};

/// One ReplayTask across the waves of ReplayAll.
struct TxnLog::Resolve {
  ReplayTask* task = nullptr;
  TxnLog* log = nullptr;
  bool catch_up = false;  ///< Reads only (task->since, target].
  bool use_checkpoints = false;
  TailProbe tail;   ///< Wave 1, when the target is "latest".
  Request pointer;  ///< Wave 1, when a full replay has checkpoints on.
  Version target = -1;
  /// The pointer as read; version -1 when absent or unreadable. A readable
  /// pointer tells "entry removed by retention" from "never committed".
  CheckpointPointer ptr;
  Request checkpoint;        ///< Wave 2: the pointed-to checkpoint.
  Version pointed = -1;      ///< Version `checkpoint` fetches, or -1.
  Version start = 0;         ///< First log entry applied.
  std::map<Version, Request> entries;  ///< Fetched entries, by version.

  bool failed() const { return !task->status.ok(); }

  void PlanWave1(ReplayTask* t, std::vector<Request*>* wave) {
    task = t;
    log = t->log;
    task->status = Status::OK();
    task->replayed = -1;
    task->caught_up = false;
    task->actions.clear();
    task->stats = ReplayStats();
    target = task->version;
    catch_up = target < 0 && task->since >= 0;
    use_checkpoints = !catch_up &&
                      log->use_checkpoints_.load(std::memory_order_relaxed);
    if (!catch_up) obs::Increment(log->metrics_.state_full_replays);
    if (target < 0) {
      Version hint = log->tail_hint_.load(std::memory_order_relaxed);
      tail.Plan(log, catch_up ? std::max(hint, task->since) : hint, wave);
    }
    if (use_checkpoints) {
      pointer = {log->store_, Request::Op::kGet,
                 log->ckpt_.pointer_key()};
      wave->push_back(&pointer);
    }
  }

  void PlanWave2(std::vector<Request*>* wave) {
    if (target < 0) {
      auto latest = tail.Resolve(log);
      if (!latest.ok()) {
        task->status = latest.status();
        return;
      }
      if (latest.value() < 0) {
        task->status = Status::NotFound("empty log: " + log->prefix_);
        return;
      }
      target = latest.value();
    }
    if (catch_up) {
      // Only the entries past the held state; none if the tail stayed.
      target = std::max(target, task->since);
      start = task->since + 1;
      PlanEntries(start, wave);
      return;
    }
    if (use_checkpoints) ChooseCheckpoint();
    if (pointed >= 0) {
      checkpoint = {log->store_, Request::Op::kGet,
                    log->ckpt_.KeyFor(pointed)};
      wave->push_back(&checkpoint);
    }
    PlanEntries(start, wave);
  }

  /// Steady path: the pointer names a checkpoint at or below the target,
  /// fetched in wave 2 beside the suffix. Otherwise the LIST walk runs now.
  void ChooseCheckpoint() {
    if (pointer.status.IsNotFound()) {
      // No pointer was ever written: assume no checkpoints. An orphan
      // checkpoint missed here only costs replay time.
      obs::Increment(log->metrics_.checkpoint_misses);
      return;
    }
    bool fault = !pointer.status.ok();  // Store failure reading it.
    if (!fault) {
      auto parsed = log->ckpt_.ParsePointer(pointer.body);
      if (parsed.ok()) {
        ptr = parsed.value();
        if (ptr.version >= 0 && ptr.version <= target) {
          pointed = ptr.version;
          start = pointed + 1;
          return;
        }
      } else {
        fault = true;  // Torn pointer.
      }
    }
    // Walk reasons: a faulted pointer, or a pointer past the target (time
    // travel, or a checkpoint that landed after the tail probe) — only the
    // former counts as a fallback.
    Walk(fault, /*skip=*/-1);
  }

  void Walk(bool fell_back, Version skip) {
    start = 0;
    auto found = log->ckpt_.NewestUsable(target, skip);
    if (found.ok()) {
      Seed(std::move(found.value()));
    } else if (found.status().IsNotFound()) {
      obs::Increment(log->metrics_.checkpoint_misses);
    } else {
      // Store-level failure while consulting checkpoints: degrade to full
      // replay rather than failing the read (never wrong, only slower).
      fell_back = true;
    }
    if (fell_back) obs::Increment(log->metrics_.checkpoint_fallbacks);
  }

  void Seed(CheckpointData data) {
    task->actions = std::move(data.actions);
    task->stats.used_checkpoint = true;
    task->stats.checkpoint_version = data.version;
    start = data.version + 1;
    obs::Increment(log->metrics_.checkpoint_hits);
  }

  /// Queues GETs for the entries from `from` on that are not fetched yet:
  /// up to kEntriesPerWave of them, stopping at the target or at the first
  /// entry already fetched.
  void PlanEntries(Version from, std::vector<Request*>* wave) {
    for (Version v = from; v <= target && v < from + kEntriesPerWave &&
                           entries.count(v) == 0;
         ++v) {
      Request& r = entries[v];
      r = {log->store_, Request::Op::kGet, log->KeyFor(v)};
      wave->push_back(&r);
      ++task->stats.entry_gets;
      obs::Increment(log->metrics_.replay_gets);
    }
  }

  void Finish(ThreadPool* io) {
    if (pointed >= 0) {
      auto data = checkpoint.status.ok()
                      ? log->ckpt_.Parse(pointed, checkpoint.body)
                      : Result<CheckpointData>(checkpoint.status);
      if (data.ok()) {
        Seed(std::move(data.value()));
      } else {
        // Pointed-to checkpoint missing or rotten: walk the others.
        Walk(/*fell_back=*/true, /*skip=*/pointed);
      }
    }
    for (Version v = start; v <= target; ++v) {
      auto it = entries.find(v);
      if (it == entries.end()) {
        // Past the first wave's window, or below a rotten checkpoint.
        std::vector<Request*> more;
        PlanEntries(v, &more);
        Issue(more, io);
        it = entries.find(v);
      }
      const Request& r = it->second;
      if (r.status.IsNotFound() && catch_up) {
        FallBack(io);
        return;
      }
      if (r.status.IsNotFound() && ptr.version >= 0 &&
          ptr.truncated_before > v) {
        obs::Increment(log->metrics_.truncated_reads);
        task->status = Status::NotFound(
            "version truncated: " + r.key +
            " removed by log retention (truncated_before=" +
            std::to_string(ptr.truncated_before) + ")");
        return;
      }
      task->status = r.status;
      if (task->status.ok()) {
        task->status = log->ParseEntry(v, r.body, &task->actions);
      }
      if (failed()) return;
    }
    log->NoteTail(target);
    task->replayed = target;
    task->caught_up = catch_up;
    if (catch_up) {
      obs::Add(log->metrics_.state_entries_applied,
               static_cast<uint64_t>(target - task->since));
    }
  }

  /// A catch-up entry went to log retention: replays the latest state in
  /// full instead, which the checkpoint that retention requires covers.
  void FallBack(ThreadPool* io) {
    ReplayTask full;
    full.log = log;
    ReplayAll({&full}, io);
    task->status = std::move(full.status);
    task->replayed = full.replayed;
    task->caught_up = false;
    task->actions = std::move(full.actions);
    task->stats.entry_gets += full.stats.entry_gets;
    task->stats.used_checkpoint = full.stats.used_checkpoint;
    task->stats.checkpoint_version = full.stats.checkpoint_version;
  }
};

void TxnLog::ReplayAll(const std::vector<ReplayTask*>& tasks,
                       ThreadPool* io) {
  std::vector<Resolve> resolves(tasks.size());
  std::vector<Request*> wave;
  for (size_t i = 0; i < tasks.size(); ++i) {
    resolves[i].PlanWave1(tasks[i], &wave);
  }
  Issue(wave, io);
  wave.clear();
  for (Resolve& r : resolves) r.PlanWave2(&wave);
  Issue(wave, io);
  for (Resolve& r : resolves) {
    if (!r.failed()) r.Finish(io);
  }
}

Result<Version> TxnLog::Replay(Version version, std::vector<Json>* actions,
                               ReplayStats* stats, ThreadPool* io) {
  ReplayTask task;
  task.log = this;
  task.version = version;
  ReplayAll({&task}, io);
  *actions = std::move(task.actions);
  if (stats != nullptr) *stats = task.stats;
  if (!task.status.ok()) return task.status;
  return task.replayed;
}

// ---------------------------------------------------------------------------
// Tail discovery

Result<Version> TxnLog::LatestVersion(ThreadPool* io) {
  return LatestVersion(tail_hint_.load(std::memory_order_relaxed), io);
}

Result<Version> TxnLog::LatestVersion(Version hint, ThreadPool* io) {
  ROTTNEST_ASSIGN_OR_RETURN(Version v, LatestVersionOrMinusOne(hint, io));
  if (v < 0) return Status::NotFound("empty log: " + prefix_);
  return v;
}

Result<Version> TxnLog::LatestVersionOrMinusOne(Version hint,
                                                ThreadPool* io) {
  TailProbe probe;
  std::vector<Request*> wave;
  probe.Plan(this, hint, &wave);
  Issue(wave, io);
  return probe.Resolve(this);
}

Result<Version> TxnLog::ProbeForward(Version known, int budget) {
  Version v = known;
  for (int probe = 0; probe < budget; ++probe) {
    objectstore::ObjectMeta meta;
    Status next = store_->Head(KeyFor(v + 1), &meta);
    obs::Increment(metrics_.tail_probes);
    if (next.IsNotFound()) {
      NoteTail(v);
      return v;
    }
    ROTTNEST_RETURN_NOT_OK(next);
    ++v;
  }
  // Tail moved more than a probe window past the hint: LIST instead.
  return ListTail();
}

Result<Version> TxnLog::ListTail() {
  std::vector<objectstore::ObjectMeta> listing;
  ROTTNEST_RETURN_NOT_OK(store_->List(prefix_ + "/", &listing));
  return TailOfListing(listing);
}

Version TxnLog::TailOfListing(
    const std::vector<objectstore::ObjectMeta>& listing) {
  Version latest = -1;
  for (const auto& obj : listing) {
    // Keys are zero-padded so lexicographic order == numeric order; parse
    // the basename defensively anyway.
    size_t slash = obj.key.rfind('/');
    std::string base = obj.key.substr(slash + 1);
    Version v = -1;
    // A checkpoint proves its version committed even after the entry was
    // truncated — a fully truncated log must still report its true tail,
    // or the next commit would try to reuse a burned version number.
    if (!ParseEntryBasename(base, &v) &&
        !Checkpointer::ParseCheckpointKey(base, &v)) {
      continue;
    }
    if (v > latest) latest = v;
  }
  if (latest >= 0) NoteTail(latest);
  return latest;
}

Status TxnLog::ReadVersion(Version version, std::vector<Json>* actions) {
  Buffer body;
  ROTTNEST_RETURN_NOT_OK(store_->Get(KeyFor(version), &body));
  actions->clear();
  return ParseEntry(version, body, actions);
}

Status TxnLog::ParseEntry(Version version, const Buffer& body,
                          std::vector<Json>* actions) const {
  std::string text(body.begin(), body.end());
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    auto parsed = Json::Parse(line);
    if (!parsed.ok()) {
      // Malformed or short body (torn write, bit rot): surface as typed
      // Corruption naming the key, never a raw parse error.
      return Status::Corruption("malformed log entry " + KeyFor(version) +
                                ": " + parsed.status().message());
    }
    actions->push_back(std::move(parsed.value()));
  }
  return Status::OK();
}

Result<Version> TxnLog::WriteCheckpoint(bool overwrite) {
  std::vector<Json> actions;
  ROTTNEST_ASSIGN_OR_RETURN(Version version, Replay(-1, &actions));
  std::vector<Json> compacted;
  if (compactor_) {
    ROTTNEST_RETURN_NOT_OK(compactor_(actions, &compacted));
  } else {
    compacted = std::move(actions);
  }
  ROTTNEST_RETURN_NOT_OK(overwrite ? ckpt_.Rewrite(version, compacted)
                                   : ckpt_.Write(version, compacted));
  obs::Increment(metrics_.checkpoint_writes);
  return version;
}

Result<size_t> TxnLog::Truncate(Version keep_versions) {
  if (keep_versions < 0) {
    return Status::InvalidArgument("keep_versions must be >= 0");
  }
  ROTTNEST_ASSIGN_OR_RETURN(Version latest, LatestVersion());
  auto pr = ckpt_.ReadPointer();
  if (!pr.ok() || pr.value().version < 0) {
    return Status::InvalidArgument(
        "cannot truncate " + prefix_ +
        " without a checkpoint (write one first)");
  }
  CheckpointPointer ptr = pr.value();
  // Never delete entries the newest checkpoint does not cover, and keep
  // the most recent `keep_versions` entries for bounded time travel.
  Version desired = latest - keep_versions + 1;
  Version floor = std::min(ptr.version + 1, desired);
  if (desired < ptr.version + 1) {
    // The retention window reaches below the newest checkpoint. A version v
    // is replayable only from a checkpoint at or below it, so the floor must
    // land on a checkpoint boundary: pick the newest checkpoint cv <= desired
    // and stop at cv + 1 (version cv itself stays readable checkpoint-only).
    // No such checkpoint means nothing can be safely deleted yet.
    ROTTNEST_ASSIGN_OR_RETURN(std::vector<Version> ckpts, ckpt_.List());
    Version seed = -1;
    for (Version cv : ckpts) {
      if (cv <= desired && cv > seed) seed = cv;
    }
    if (seed < 0) return size_t{0};
    floor = std::min(seed + 1, desired);
  }
  if (floor <= 0 || floor <= ptr.truncated_before) return size_t{0};
  // Retention floor moves FIRST: once it lands, readers classify missing
  // entries below it as truncated, so a crash mid-delete leaves the log
  // fully readable (some entries just die later).
  ROTTNEST_RETURN_NOT_OK(ckpt_.AdvancePointer(ptr.version, floor));
  std::vector<objectstore::ObjectMeta> listing;
  ROTTNEST_RETURN_NOT_OK(store_->List(prefix_ + "/", &listing));
  size_t deleted = 0;
  for (const auto& obj : listing) {
    size_t slash = obj.key.rfind('/');
    Version v = -1;
    if (!ParseEntryBasename(obj.key.substr(slash + 1), &v)) continue;
    if (v >= floor) continue;
    ROTTNEST_RETURN_NOT_OK(store_->Delete(obj.key));
    ++deleted;
  }
  return deleted;
}

}  // namespace rottnest::lake
