// Object storage abstraction: the S3 substrate Rottnest runs on.
//
// The protocol's correctness (paper §IV-D) relies on exactly two storage
// properties, both provided here:
//   1. strong read-after-write consistency (a Get after a successful Put
//      observes the object; List observes committed objects), and
//   2. a single global clock stamping object creation times (used by the
//      vacuum timeout rule).
// Additionally, PutIfAbsent provides the conditional-put primitive used to
// commit transaction-log versions (as in Delta on S3 with conditional
// writes). No atomic rename is required anywhere.
#ifndef ROTTNEST_OBJECTSTORE_OBJECT_STORE_H_
#define ROTTNEST_OBJECTSTORE_OBJECT_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/slice.h"
#include "common/status.h"

namespace rottnest::obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
}  // namespace rottnest::obs

namespace rottnest::objectstore {

/// Metadata for a stored object.
struct ObjectMeta {
  std::string key;
  uint64_t size = 0;
  Micros created_micros = 0;  ///< Store-clock creation time.
};

/// A byte range [offset, offset + length) of one object.
struct ByteRange {
  uint64_t offset = 0;
  uint64_t length = 0;
};

/// Aggregate request counters, used for cost accounting ($ per request) and
/// throughput-cap analysis (5500 GET RPS per prefix). The cache_* fields are
/// populated only by CachingStore (zero elsewhere): hits are reads served
/// without touching the backing store, so on a CachingStore the gets/heads
/// counters reflect *physical* requests (misses) only.
struct IoStats {
  std::atomic<uint64_t> gets{0};
  std::atomic<uint64_t> puts{0};
  std::atomic<uint64_t> lists{0};
  std::atomic<uint64_t> deletes{0};
  std::atomic<uint64_t> heads{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> cache_hits{0};       ///< Reads served from cache.
  std::atomic<uint64_t> cache_misses{0};     ///< Reads that hit the store.
  std::atomic<uint64_t> cache_evictions{0};  ///< Entries aged out by budget.
  /// Concurrent misses coalesced onto another client's in-flight fetch
  /// (single-flight dedup in CachingStore); each saved one backing GET.
  std::atomic<uint64_t> cache_coalesced{0};
  /// Misses served from the wave ledger (CachingStore::BeginWave/EndWave —
  /// the serving layer's GET batching): an earlier member of the same GET
  /// wave already fetched the range, so this read paid no backing request
  /// even though the LRU had no (or no longer any) entry for it.
  std::atomic<uint64_t> cache_wave_hits{0};
  /// Ranges a GetRun served beyond the first of its run. The caller issued
  /// (and traced) the run as ONE read, while each of its ranges still
  /// counts one outcome above (hit, miss, coalesced or wave hit), so
  /// traced reads == outcomes - cache_run_merged.
  std::atomic<uint64_t> cache_run_merged{0};
  /// Resident cache payload bytes — a gauge owned by the cache, not a
  /// monotonic counter; excluded from Reset().
  std::atomic<uint64_t> cache_bytes{0};

  void Reset() {
    gets = puts = lists = deletes = heads = 0;
    bytes_read = bytes_written = 0;
    cache_hits = cache_misses = cache_evictions = cache_coalesced = 0;
    cache_wave_hits = cache_run_merged = 0;
  }
};

/// Pre-resolved metric handles mirroring IoStats, emitted at the exact
/// sites the stats counters increment — so for any store the registry's
/// `store.<name>.*` counters exactly equal its IoStats (the reconciliation
/// property tests assert). All handles null when metrics are off; emission
/// is then a single branch, no allocation (see obs/metrics.h).
struct StoreMetrics {
  obs::Counter* gets = nullptr;
  obs::Counter* puts = nullptr;
  obs::Counter* lists = nullptr;
  obs::Counter* deletes = nullptr;
  obs::Counter* heads = nullptr;
  obs::Counter* bytes_read = nullptr;
  obs::Counter* bytes_written = nullptr;
  obs::Counter* cache_hits = nullptr;
  obs::Counter* cache_misses = nullptr;
  obs::Counter* cache_evictions = nullptr;
  obs::Counter* cache_coalesced = nullptr;
  obs::Counter* cache_wave_hits = nullptr;
  obs::Counter* cache_run_merged = nullptr;
  obs::Histogram* get_bytes = nullptr;  ///< Per-GET payload distribution.
};

/// Resolves the `store.<name>.*` handle set in `registry` (nullptr-safe:
/// returns all-null handles for a null registry).
StoreMetrics ResolveStoreMetrics(obs::MetricsRegistry* registry,
                                 const std::string& name);

/// Abstract object store. Implementations must be thread-safe.
class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  /// Stores (or overwrites) `key`.
  virtual Status Put(const std::string& key, Slice data) = 0;

  /// Stores `key` only if it does not exist; AlreadyExists otherwise.
  /// This is the commit primitive for transaction logs.
  virtual Status PutIfAbsent(const std::string& key, Slice data) = 0;

  /// Reads the whole object.
  virtual Status Get(const std::string& key, Buffer* out) = 0;

  /// Byte-range read of [offset, offset+length). Reading past the end is
  /// truncated (like HTTP range requests); offset == size yields an empty
  /// buffer (a zero-length suffix read); only offset > size is
  /// InvalidArgument.
  virtual Status GetRange(const std::string& key, uint64_t offset,
                          uint64_t length, Buffer* out) = 0;

  /// Reads several ranges of ONE object that form a single run: distinct,
  /// sorted by offset, each starting at or before the end of the ranges
  /// before it (byte-adjacent or overlapping — gap 0, so the run's span
  /// holds no byte that no range asked for). `out` aligns with `ranges`.
  /// The default issues one GetRange over the span and splits it, so the
  /// run costs one request and no extra bytes; a decorator that keys state
  /// per range (the client cache) overrides it. On error the contents of
  /// `out` are unspecified.
  virtual Status GetRun(const std::string& key,
                        const std::vector<ByteRange>& ranges,
                        std::vector<Buffer>* out);

  /// Serves [offset, offset+length) of `key` into `out` only when this
  /// store holds it in memory (a client-cache hit) and returns true; false
  /// means a read would need a request. Lets a batch serve resident ranges
  /// first and coalesce only the rest. The default holds nothing.
  virtual bool GetCached(const std::string& key, uint64_t offset,
                         uint64_t length, Buffer* out) {
    return false;
  }

  /// Object metadata without the body.
  virtual Status Head(const std::string& key, ObjectMeta* out) = 0;

  /// Lists all objects whose key starts with `prefix`, sorted by key.
  virtual Status List(const std::string& prefix,
                      std::vector<ObjectMeta>* out) = 0;

  /// Deletes the object. Deleting a missing key succeeds (idempotent).
  virtual Status Delete(const std::string& key) = 0;

  /// Store clock (global; stamps created_micros).
  virtual const Clock& clock() const = 0;

  /// Cumulative request counters.
  virtual const IoStats& stats() const = 0;
};

/// Failure injection hook: called before each mutating/reading operation
/// with the op name ("put", "get", ...) and key; returning non-OK makes the
/// operation fail with that status. Used by protocol crash tests.
using FailurePoint =
    std::function<Status(const std::string& op, const std::string& key)>;

/// Advances time during a wait (retry backoff, injected latency).
/// Simulations pass SimulatedSleeper(&clock); production blocks the thread.
using SleepFn = std::function<void(Micros)>;

/// A SleepFn that advances `clock` instead of blocking — waits consume
/// simulated time, keeping chaos tests instant and deterministic.
SleepFn SimulatedSleeper(SimulatedClock* clock);

/// In-memory object store with strong read-after-write consistency.
///
/// All operations are linearizable (single mutex). Object creation times
/// come from the injected Clock, giving simulations a deterministic global
/// clock.
class InMemoryObjectStore : public ObjectStore {
 public:
  /// `clock` must outlive the store.
  explicit InMemoryObjectStore(const Clock* clock) : clock_(clock) {}

  Status Put(const std::string& key, Slice data) override;
  Status PutIfAbsent(const std::string& key, Slice data) override;
  Status Get(const std::string& key, Buffer* out) override;
  Status GetRange(const std::string& key, uint64_t offset, uint64_t length,
                  Buffer* out) override;
  Status Head(const std::string& key, ObjectMeta* out) override;
  Status List(const std::string& prefix,
              std::vector<ObjectMeta>* out) override;
  Status Delete(const std::string& key) override;

  const Clock& clock() const override { return *clock_; }
  const IoStats& stats() const override { return stats_; }
  IoStats& mutable_stats() { return stats_; }

  /// Installs (or clears, with nullptr semantics via empty function) the
  /// failure-injection hook.
  void SetFailurePoint(FailurePoint fp) {
    std::lock_guard<std::mutex> lock(mu_);
    failure_point_ = std::move(fp);
  }

  /// Starts mirroring every IoStats increment into `registry` under
  /// `store.<name>.*` (pass nullptr to stop). Not thread-safe against
  /// in-flight operations; attach before use.
  void AttachMetrics(obs::MetricsRegistry* registry,
                     const std::string& name = "memory") {
    metrics_ = ResolveStoreMetrics(registry, name);
  }

  /// Total bytes currently stored (for storage-cost accounting).
  uint64_t TotalBytes() const;

  /// Number of objects currently stored.
  size_t ObjectCount() const;

 private:
  struct Entry {
    Buffer data;
    Micros created_micros = 0;
  };

  Status MaybeFail(const char* op, const std::string& key);

  const Clock* clock_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> objects_;
  FailurePoint failure_point_;
  IoStats stats_;
  StoreMetrics metrics_;
};

}  // namespace rottnest::objectstore

#endif  // ROTTNEST_OBJECTSTORE_OBJECT_STORE_H_
