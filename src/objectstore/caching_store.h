// Client-side read-through cache for object storage (the Airphant lesson:
// object-store indexes are only competitive when the hot index blocks stop
// being re-fetched on every query).
//
// CachingStore is an ObjectStore decorator with a sharded (N-way,
// mutex-per-shard) LRU over byte-range reads, keyed on (key, offset, length)
// and bounded by a byte budget split evenly across shards. It is safe by
// construction for the Rottnest workload: index files and data files are
// immutable once uploaded, so a cached range can never go stale — entries
// are never invalidated by content change, and keys removed by vacuum
// simply age out of the LRU. The two mutation paths that *could* break that
// assumption (an overwriting Put, a Delete) defensively drop the key's
// entries anyway, so the decorator stays a faithful ObjectStore even for
// non-Rottnest callers.
//
// What is cached:
//   * GetRange(key, offset, length)  — keyed exactly on the request triple;
//   * Get(key)                       — keyed as (key, 0, kWholeObject);
//   * GetRun(key, ranges)            — one entry PER RANGE (page), exactly
//                                      as if each were a GetRange: resident
//                                      pages are served one by one, and only
//                                      runs of adjacent misses coalesce into
//                                      one physical GET, split back into
//                                      per-page entries (never one entry
//                                      per run — a run-keyed entry would
//                                      duplicate pages already resident);
//   * Head(key)                      — object metadata, tiny entries that
//                                      spare the open-path HEAD round-trip.
// Lists always pass through (they observe mutable namespace state).
//
// Placement in the store stack (see DESIGN.md "Client-side caching & search
// fan-out"): the cache sits ABOVE RetryingStore/FaultInjectingStore —
//     CachingStore -> RetryingStore -> FaultInjectingStore -> backing store
// — so hits skip the retry machinery entirely and misses inherit its fault
// absorption; a fault-injected read error is returned, never cached.
//
// Accounting: stats() exposes this decorator's own IoStats, where gets /
// heads / bytes_read count only *physical* requests forwarded to the inner
// store and cache_hits / cache_misses / cache_evictions / cache_bytes count
// cache events. Thread-safe throughout; misses fetch without holding any
// shard mutex, so concurrent readers only serialize on bookkeeping.
#ifndef ROTTNEST_OBJECTSTORE_CACHING_STORE_H_
#define ROTTNEST_OBJECTSTORE_CACHING_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "objectstore/object_store.h"

namespace rottnest::objectstore {

/// Cache shape knobs.
struct CacheOptions {
  uint64_t capacity_bytes = 64ull << 20;  ///< Total payload budget.
  size_t shards = 16;                     ///< Independent LRU shards.
  bool cache_heads = true;                ///< Also cache Head() metadata.
  /// Byte cap on the wave ledger (BeginWave/EndWave); past it, further
  /// fetches of the wave are simply not recorded (still correct, the
  /// coalescing just stops growing). Separate from capacity_bytes: the
  /// ledger must hold a wave's shared blocks even when the LRU is tiny.
  uint64_t wave_ledger_bytes = 64ull << 20;
};

/// Sharded read-through LRU cache over an ObjectStore. `inner` must outlive
/// the decorator.
class CachingStore : public ObjectStore {
 public:
  CachingStore(ObjectStore* inner, CacheOptions options);

  // Cached read paths.
  Status Get(const std::string& key, Buffer* out) override;
  Status GetRange(const std::string& key, uint64_t offset, uint64_t length,
                  Buffer* out) override;
  Status GetRun(const std::string& key, const std::vector<ByteRange>& ranges,
                std::vector<Buffer>* out) override;
  bool GetCached(const std::string& key, uint64_t offset, uint64_t length,
                 Buffer* out) override;
  Status Head(const std::string& key, ObjectMeta* out) override;

  // Pass-through (writes invalidate the key's entries defensively).
  Status Put(const std::string& key, Slice data) override;
  Status PutIfAbsent(const std::string& key, Slice data) override;
  Status List(const std::string& prefix,
              std::vector<ObjectMeta>* out) override;
  Status Delete(const std::string& key) override;

  const Clock& clock() const override { return inner_->clock(); }
  const IoStats& stats() const override { return stats_; }

  // ---- Wave-level coalescing (the serving layer's GET batching) --------
  // Single-flight (above) dedups misses that are in flight at the same
  // instant; a GET WAVE widens that window to a whole batch of queries.
  // Between BeginWave() and the matching EndWave() the cache keeps a side
  // ledger of every payload fetched from the inner store; a miss whose key
  // is in the ledger is served from it WITHOUT a physical request — even
  // if the LRU already evicted the entry — and counted in
  // IoStats::cache_wave_hits. Waves nest (refcounted); the ledger drops
  // when the last one ends. Failed fetches are never recorded, so a
  // breaker/outage/deadline failure still propagates to every query that
  // needed the range (per-query error semantics are unchanged). The
  // serving engine serializes its waves, so one store-wide ledger IS
  // wave-scoped coalescing; concurrent non-wave readers simply join it.

  void BeginWave();
  void EndWave();
  /// Entries currently held by the wave ledger (0 outside any wave).
  size_t WaveLedgerEntries() const;

  /// Drops every cached entry (budget and shards unchanged).
  void Clear();

  /// Drops all entries of `key` (any offset/length, plus its Head entry).
  void Invalidate(const std::string& key);

  /// Current resident payload bytes / entry count across all shards.
  uint64_t ResidentBytes() const;
  size_t EntryCount() const;

  const CacheOptions& options() const { return options_; }
  ObjectStore* inner() { return inner_; }

  /// Mirrors every IoStats increment (including cache hit/miss/eviction
  /// events) into `registry` under `store.<name>.*`. Attach before use.
  void AttachMetrics(obs::MetricsRegistry* registry,
                     const std::string& name = "cache") {
    metrics_ = ResolveStoreMetrics(registry, name);
  }

 private:
  /// Sentinel length marking a whole-object Get() entry.
  static constexpr uint64_t kWholeObject = ~0ull;
  /// Sentinel offset marking a Head() metadata entry.
  static constexpr uint64_t kHeadEntry = ~0ull;

  struct EntryKey {
    std::string key;
    uint64_t offset = 0;
    uint64_t length = 0;
    bool operator==(const EntryKey& o) const {
      return offset == o.offset && length == o.length && key == o.key;
    }
  };
  struct EntryKeyHash {
    size_t operator()(const EntryKey& k) const;
  };
  struct Entry {
    EntryKey key;
    Buffer data;        ///< Range/whole-object payload.
    ObjectMeta meta;    ///< Head payload (offset == kHeadEntry entries).
    uint64_t charge = 0;
  };
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  ///< Front = most recently used.
    std::unordered_map<EntryKey, std::list<Entry>::iterator, EntryKeyHash>
        index;
    uint64_t bytes = 0;
  };

  /// One in-flight backing fetch, shared by every concurrent miss on the
  /// same EntryKey (single-flight dedup): the first misser becomes the
  /// leader and fetches; the rest wait here and are served the leader's
  /// result without issuing their own GET. Fixes the thundering herd a
  /// hedge-amplified fan-out would otherwise send through a cold cache.
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
    Buffer data;
    ObjectMeta meta;
  };

  /// One wave-ledger record: the payload a leader fetched during the
  /// current wave (data for Get/GetRange keys, meta for Head keys).
  struct WaveEntry {
    Buffer data;
    ObjectMeta meta;
  };

  Shard& ShardFor(const EntryKey& k);
  /// Looks `k` up in its shard; on hit promotes to MRU and copies out.
  bool Lookup(const EntryKey& k, Buffer* data, ObjectMeta* meta);
  /// Runs the miss path for `k` with single-flight dedup. The leader calls
  /// `fetch` (which does its own physical-stats accounting) and populates
  /// the cache; coalesced followers wait and copy the leader's result.
  Status MissFetch(EntryKey k, Buffer* data_out, ObjectMeta* meta_out,
                   const std::function<Status(Buffer*, ObjectMeta*)>& fetch);
  /// Single-flight registration for a miss on `k`: returns the flight and
  /// sets *leader when this caller must fetch (and later Complete) it;
  /// otherwise counts a coalesced miss and the caller must Await it.
  std::shared_ptr<InFlight> Claim(const EntryKey& k, bool* leader);
  /// Publishes a leader's result to the followers of `flight` and retires
  /// it. A leader must complete every flight it leads before it awaits any
  /// other flight, so no two readers can wait on each other.
  void Complete(const EntryKey& k, InFlight* flight, const Status& s,
                const Buffer* data, const ObjectMeta* meta);
  /// Waits for the leader of `flight` and copies its result out.
  static Status Await(InFlight* flight, Buffer* data, ObjectMeta* meta);
  /// Counts one physical GET of `bytes` (stats and metrics mirror).
  void RecordPhysicalGet(uint64_t bytes);
  /// Inserts (or refreshes) `k`, charging its payload and evicting LRU
  /// entries past the shard budget.
  void Insert(EntryKey k, const Buffer* data, const ObjectMeta* meta);
  void EvictLocked(Shard& shard);
  /// Serves `k` from the wave ledger if a wave is open and holds it.
  bool WaveLookup(const EntryKey& k, Buffer* data, ObjectMeta* meta);
  /// Records a successful leader fetch into the open wave's ledger (no-op
  /// outside a wave or past the ledger byte cap).
  void WaveRecord(const EntryKey& k, const Buffer* data,
                  const ObjectMeta* meta);

  ObjectStore* inner_;
  CacheOptions options_;
  uint64_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::mutex flights_mu_;
  std::unordered_map<EntryKey, std::shared_ptr<InFlight>, EntryKeyHash>
      flights_;
  mutable std::mutex wave_mu_;
  int wave_depth_ = 0;        ///< Open BeginWave() nestings.
  uint64_t wave_bytes_ = 0;   ///< Ledger payload bytes held.
  std::unordered_map<EntryKey, WaveEntry, EntryKeyHash> wave_ledger_;
  mutable IoStats stats_;
  StoreMetrics metrics_;
};

}  // namespace rottnest::objectstore

#endif  // ROTTNEST_OBJECTSTORE_CACHING_STORE_H_
