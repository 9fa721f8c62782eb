// Unit tests for the sharded read-through CachingStore: read-through
// semantics, LRU capacity enforcement, hit/miss/evict accounting, shard
// behavior, invalidation, error paths, concurrent readers (the latter
// doubles as the TSan target — see .github/workflows/sanitize.yml), and
// GetRun: adjacent misses coalesce into one GET while entries stay keyed
// per page.
#include "objectstore/caching_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "format/page.h"
#include "format/reader.h"
#include "objectstore/fault_injection.h"
#include "objectstore/object_store.h"
#include "objectstore/read_batch.h"

namespace rottnest::objectstore {
namespace {

Buffer Bytes(const std::string& s) { return Buffer(s.begin(), s.end()); }

class CachingStoreTest : public ::testing::Test {
 protected:
  void PutObject(const std::string& key, size_t size, char fill = 'x') {
    std::string v(size, fill);
    ASSERT_TRUE(inner_.Put(key, Slice(v)).ok());
  }

  SimulatedClock clock_;
  InMemoryObjectStore inner_{&clock_};
};

TEST_F(CachingStoreTest, ReadThroughServesRepeatsFromCache) {
  PutObject("a", 100);
  CachingStore cache(&inner_, {});

  Buffer first, second;
  ASSERT_TRUE(cache.GetRange("a", 10, 20, &first).ok());
  ASSERT_TRUE(cache.GetRange("a", 10, 20, &second).ok());
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), 20u);

  // One physical GET; the repeat was a hit.
  EXPECT_EQ(inner_.stats().gets.load(), 1u);
  EXPECT_EQ(cache.stats().gets.load(), 1u);
  EXPECT_EQ(cache.stats().cache_hits.load(), 1u);
  EXPECT_EQ(cache.stats().cache_misses.load(), 1u);
}

TEST_F(CachingStoreTest, DistinctRangesAreDistinctEntries) {
  PutObject("a", 100);
  CachingStore cache(&inner_, {});

  Buffer out;
  ASSERT_TRUE(cache.GetRange("a", 0, 10, &out).ok());
  ASSERT_TRUE(cache.GetRange("a", 0, 20, &out).ok());  // Different length.
  ASSERT_TRUE(cache.GetRange("a", 5, 10, &out).ok());  // Different offset.
  ASSERT_TRUE(cache.Get("a", &out).ok());              // Whole object.
  EXPECT_EQ(cache.stats().cache_misses.load(), 4u);
  EXPECT_EQ(cache.EntryCount(), 4u);

  // Each repeats as its own hit.
  ASSERT_TRUE(cache.GetRange("a", 0, 10, &out).ok());
  ASSERT_TRUE(cache.Get("a", &out).ok());
  EXPECT_EQ(cache.stats().cache_hits.load(), 2u);
}

TEST_F(CachingStoreTest, WholeObjectGetRoundTrips) {
  ASSERT_TRUE(inner_.Put("k", Slice(Bytes("hello world"))).ok());
  CachingStore cache(&inner_, {});
  Buffer a, b;
  ASSERT_TRUE(cache.Get("k", &a).ok());
  ASSERT_TRUE(cache.Get("k", &b).ok());
  EXPECT_EQ(a, Bytes("hello world"));
  EXPECT_EQ(b, Bytes("hello world"));
  EXPECT_EQ(inner_.stats().gets.load(), 1u);
}

TEST_F(CachingStoreTest, CapacityEvictsLeastRecentlyUsed) {
  for (int i = 0; i < 8; ++i) PutObject("k" + std::to_string(i), 1000);
  CacheOptions opts;
  opts.shards = 1;  // One LRU so eviction order is fully observable.
  // Room for ~3 entries of ~1066 charge (payload + key + overhead).
  opts.capacity_bytes = 3400;
  CachingStore cache(&inner_, opts);

  Buffer out;
  ASSERT_TRUE(cache.Get("k0", &out).ok());
  ASSERT_TRUE(cache.Get("k1", &out).ok());
  ASSERT_TRUE(cache.Get("k2", &out).ok());
  EXPECT_EQ(cache.stats().cache_evictions.load(), 0u);
  EXPECT_EQ(cache.EntryCount(), 3u);

  // Touch k0 so k1 becomes the LRU victim.
  ASSERT_TRUE(cache.Get("k0", &out).ok());
  ASSERT_TRUE(cache.Get("k3", &out).ok());  // Evicts k1.
  EXPECT_EQ(cache.stats().cache_evictions.load(), 1u);

  uint64_t gets_before = inner_.stats().gets.load();
  ASSERT_TRUE(cache.Get("k0", &out).ok());  // Still resident.
  ASSERT_TRUE(cache.Get("k3", &out).ok());  // Still resident.
  EXPECT_EQ(inner_.stats().gets.load(), gets_before);
  ASSERT_TRUE(cache.Get("k1", &out).ok());  // Evicted: physical re-fetch.
  EXPECT_EQ(inner_.stats().gets.load(), gets_before + 1);

  EXPECT_LE(cache.ResidentBytes(), opts.capacity_bytes);
  EXPECT_EQ(cache.ResidentBytes(), cache.stats().cache_bytes.load());
}

TEST_F(CachingStoreTest, EntriesLargerThanShardBudgetAreNotCached) {
  PutObject("big", 10000);
  CacheOptions opts;
  opts.capacity_bytes = 8000;
  opts.shards = 4;  // 2000 bytes per shard < the object.
  CachingStore cache(&inner_, opts);

  Buffer out;
  ASSERT_TRUE(cache.Get("big", &out).ok());
  ASSERT_TRUE(cache.Get("big", &out).ok());
  EXPECT_EQ(cache.stats().cache_hits.load(), 0u);  // Never resident.
  EXPECT_EQ(cache.EntryCount(), 0u);
  EXPECT_EQ(inner_.stats().gets.load(), 2u);
}

TEST_F(CachingStoreTest, ShardsEvictIndependently) {
  // Fill well past total capacity across many keys: every shard must end at
  // or under its own slice of the budget.
  for (int i = 0; i < 64; ++i) PutObject("k" + std::to_string(i), 500);
  CacheOptions opts;
  opts.capacity_bytes = 8192;
  opts.shards = 4;
  CachingStore cache(&inner_, opts);
  Buffer out;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(cache.Get("k" + std::to_string(i), &out).ok());
  }
  EXPECT_GT(cache.stats().cache_evictions.load(), 0u);
  EXPECT_LE(cache.ResidentBytes(), opts.capacity_bytes);
  EXPECT_GT(cache.EntryCount(), 0u);
}

TEST_F(CachingStoreTest, HeadIsCachedWhenEnabled) {
  PutObject("a", 123);
  CachingStore cache(&inner_, {});
  ObjectMeta m1, m2;
  ASSERT_TRUE(cache.Head("a", &m1).ok());
  ASSERT_TRUE(cache.Head("a", &m2).ok());
  EXPECT_EQ(m1.size, 123u);
  EXPECT_EQ(m2.size, 123u);
  EXPECT_EQ(inner_.stats().heads.load(), 1u);
  EXPECT_EQ(cache.stats().cache_hits.load(), 1u);

  CacheOptions no_heads;
  no_heads.cache_heads = false;
  CachingStore passthrough(&inner_, no_heads);
  ASSERT_TRUE(passthrough.Head("a", &m1).ok());
  ASSERT_TRUE(passthrough.Head("a", &m1).ok());
  EXPECT_EQ(passthrough.stats().cache_hits.load(), 0u);
  EXPECT_EQ(inner_.stats().heads.load(), 3u);
}

TEST_F(CachingStoreTest, PutAndDeleteInvalidate) {
  PutObject("a", 50, 'x');
  CachingStore cache(&inner_, {});
  Buffer out;
  ASSERT_TRUE(cache.GetRange("a", 0, 10, &out).ok());
  ObjectMeta meta;
  ASSERT_TRUE(cache.Head("a", &meta).ok());
  EXPECT_EQ(cache.EntryCount(), 2u);

  // Overwrite through the cache: stale bytes must not survive.
  std::string v(50, 'y');
  ASSERT_TRUE(cache.Put("a", Slice(v)).ok());
  EXPECT_EQ(cache.EntryCount(), 0u);
  ASSERT_TRUE(cache.GetRange("a", 0, 10, &out).ok());
  EXPECT_EQ(out, Bytes("yyyyyyyyyy"));

  // Delete through the cache: the key must not resurrect from cache.
  ASSERT_TRUE(cache.Delete("a").ok());
  EXPECT_EQ(cache.EntryCount(), 0u);
  EXPECT_TRUE(cache.GetRange("a", 0, 10, &out).IsNotFound());
}

TEST_F(CachingStoreTest, ClearDropsEverything) {
  PutObject("a", 100);
  PutObject("b", 100);
  CachingStore cache(&inner_, {});
  Buffer out;
  ASSERT_TRUE(cache.Get("a", &out).ok());
  ASSERT_TRUE(cache.Get("b", &out).ok());
  EXPECT_GT(cache.ResidentBytes(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.EntryCount(), 0u);
  EXPECT_EQ(cache.ResidentBytes(), 0u);
  ASSERT_TRUE(cache.Get("a", &out).ok());  // Re-fetches, re-caches.
  EXPECT_EQ(inner_.stats().gets.load(), 3u);
}

TEST_F(CachingStoreTest, ErrorsAreNeverCached) {
  PutObject("a", 100);
  FaultInjectingStore faulty(&inner_);
  CachingStore cache(&faulty, {});

  // Every read fails at the inner store: nothing may enter the cache.
  faulty.SetFailurePoint([](const std::string&, const std::string&) {
    return Status::Unavailable("injected");
  });
  Buffer out;
  EXPECT_TRUE(cache.GetRange("a", 0, 10, &out).IsUnavailable());
  EXPECT_EQ(cache.EntryCount(), 0u);

  // Once the store heals, the same read succeeds and caches normally.
  faulty.SetFailurePoint({});
  ASSERT_TRUE(cache.GetRange("a", 0, 10, &out).ok());
  ASSERT_TRUE(cache.GetRange("a", 0, 10, &out).ok());
  EXPECT_EQ(cache.stats().cache_hits.load(), 1u);
}

TEST_F(CachingStoreTest, ConcurrentReadersUnderEvictionPressure) {
  // Budget far below the working set, so readers race against constant
  // eviction; run under ROTTNEST_SANITIZE=thread to verify the locking.
  constexpr int kKeys = 32;
  for (int i = 0; i < kKeys; ++i) PutObject("k" + std::to_string(i), 400);
  CacheOptions opts;
  opts.capacity_bytes = 4096;
  opts.shards = 4;
  CachingStore cache(&inner_, opts);

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < 400; ++i) {
        std::string key = "k" + std::to_string((i * 7 + t * 13) % kKeys);
        Buffer out;
        ASSERT_TRUE(cache.Get(key, &out).ok());
        ASSERT_EQ(out.size(), 400u);
        ObjectMeta meta;
        ASSERT_TRUE(cache.Head(key, &meta).ok());
        ASSERT_EQ(meta.size, 400u);
      }
    });
  }
  for (auto& t : readers) t.join();

  // Two threads missing one key at once coalesce onto a single leader
  // fetch, so the follower counts as `cache_coalesced`, not hit or miss —
  // the full logical-read identity is what must hold.
  EXPECT_EQ(cache.stats().cache_hits.load() +
                cache.stats().cache_misses.load() +
                cache.stats().cache_coalesced.load(),
            4u * 400u * 2u);
  EXPECT_LE(cache.ResidentBytes(), opts.capacity_bytes);
}

TEST_F(CachingStoreTest, ConcurrentMissesOnOneKeyCoalesceToOneFetch) {
  // Single-flight dedup: N readers missing the SAME key at once must cost
  // ONE physical GET — the leader fetches, followers wait on the flight
  // and copy its result. The inner fetch is artificially slowed so every
  // follower provably arrives while the leader is still in flight.
  PutObject("hot", 256);
  FaultInjectingStore faulty(&inner_);
  faulty.SetFailurePoint([](const std::string& op, const std::string&) {
    if (op == "get") {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    return Status::OK();
  });
  CachingStore cache(&faulty, {});

  constexpr int kReaders = 8;
  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      Buffer out;
      if (!cache.Get("hot", &out).ok() || out.size() != 256u) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(inner_.stats().gets.load(), 1u);  // ONE physical fetch.
  EXPECT_EQ(cache.stats().cache_coalesced.load(), kReaders - 1u);
  EXPECT_EQ(cache.stats().cache_misses.load(), 1u);  // The leader's.
  // A later read is a plain hit: the flight left a normal cache entry.
  Buffer out;
  ASSERT_TRUE(cache.Get("hot", &out).ok());
  EXPECT_EQ(cache.stats().cache_hits.load(), 1u);
}

TEST_F(CachingStoreTest, CoalescedFollowersShareTheLeadersError) {
  // When the leader's fetch fails, followers report the SAME error without
  // retrying the store themselves (no retry stampede), and nothing is
  // cached.
  PutObject("hot", 256);
  FaultInjectingStore faulty(&inner_);
  faulty.SetFailurePoint([](const std::string& op, const std::string&) {
    if (op != "get") return Status::OK();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return Status::Unavailable("injected");
  });
  CachingStore cache(&faulty, {});

  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  std::atomic<int> unavailable{0};
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      Buffer out;
      if (cache.Get("hot", &out).IsUnavailable()) unavailable.fetch_add(1);
    });
  }
  for (auto& t : readers) t.join();

  EXPECT_EQ(unavailable.load(), kReaders);
  EXPECT_EQ(faulty.op_count(), 1u);  // One attempt served them all.
  EXPECT_EQ(cache.EntryCount(), 0u);
}

TEST_F(CachingStoreTest, WaveLedgerServesEvictedEntriesWithoutRefetch) {
  // The wave ledger widens single-flight dedup to a whole GET wave: inside
  // BeginWave/EndWave a fetched range is re-servable even after the LRU
  // dropped it — the serving engine's cross-query coalescing.
  PutObject("a", 100);
  CachingStore cache(&inner_, {});

  cache.BeginWave();
  Buffer out;
  ASSERT_TRUE(cache.Get("a", &out).ok());  // Leader fetch, ledger-recorded.
  EXPECT_EQ(cache.WaveLedgerEntries(), 1u);
  cache.Clear();  // The LRU forgets; the wave must not.
  ASSERT_TRUE(cache.Get("a", &out).ok());
  EXPECT_EQ(out.size(), 100u);
  EXPECT_EQ(inner_.stats().gets.load(), 1u);  // Still ONE physical GET.
  EXPECT_EQ(cache.stats().cache_wave_hits.load(), 1u);
  // The wave hit re-inserted the entry, so a third read is a plain hit.
  ASSERT_TRUE(cache.Get("a", &out).ok());
  EXPECT_EQ(cache.stats().cache_hits.load(), 1u);
  cache.EndWave();

  // Wave-scoped: the ledger dropped with the wave, so once the LRU forgets
  // too the next read is physical again.
  EXPECT_EQ(cache.WaveLedgerEntries(), 0u);
  cache.Clear();
  ASSERT_TRUE(cache.Get("a", &out).ok());
  EXPECT_EQ(inner_.stats().gets.load(), 2u);
  EXPECT_EQ(cache.stats().cache_wave_hits.load(), 1u);
}

TEST_F(CachingStoreTest, WaveNestingIsRefcounted) {
  PutObject("a", 100);
  CachingStore cache(&inner_, {});
  Buffer out;

  cache.BeginWave();
  cache.BeginWave();  // Nested (a wave member running its own sub-wave).
  ASSERT_TRUE(cache.Get("a", &out).ok());
  cache.EndWave();
  EXPECT_EQ(cache.WaveLedgerEntries(), 1u);  // Outer wave still open.
  cache.Clear();
  ASSERT_TRUE(cache.Get("a", &out).ok());
  EXPECT_EQ(cache.stats().cache_wave_hits.load(), 1u);
  cache.EndWave();
  EXPECT_EQ(cache.WaveLedgerEntries(), 0u);  // Last EndWave drops it.
}

TEST_F(CachingStoreTest, FailedFetchesAreNeverWaveRecorded) {
  // A breaker/outage failure inside a wave must propagate to every query
  // that needs the range — recording it (or any placeholder) would turn
  // one member's failure into silent data for its wave-mates.
  PutObject("a", 100);
  FaultInjectingStore faulty(&inner_);
  CachingStore cache(&faulty, {});
  faulty.SetFailurePoint([](const std::string& op, const std::string&) {
    return op == "get" ? Status::Unavailable("injected") : Status::OK();
  });

  cache.BeginWave();
  Buffer out;
  EXPECT_TRUE(cache.Get("a", &out).IsUnavailable());
  EXPECT_EQ(cache.WaveLedgerEntries(), 0u);
  // A retry inside the SAME wave hits the healed store, not a stale error.
  faulty.SetFailurePoint({});
  ASSERT_TRUE(cache.Get("a", &out).ok());
  EXPECT_EQ(out.size(), 100u);
  EXPECT_EQ(cache.WaveLedgerEntries(), 1u);
  cache.EndWave();
}

TEST_F(CachingStoreTest, WaveLedgerByteCapStopsRecording) {
  // Past wave_ledger_bytes further fetches are simply not recorded —
  // coalescing stops growing, correctness is untouched.
  PutObject("a", 100);
  PutObject("b", 100);
  CacheOptions opts;
  // Room for exactly one entry (charge = 64 overhead + 1 key + 100 data).
  opts.wave_ledger_bytes = 200;
  CachingStore cache(&inner_, opts);

  cache.BeginWave();
  Buffer out;
  ASSERT_TRUE(cache.Get("a", &out).ok());  // Recorded: 165 <= 200.
  ASSERT_TRUE(cache.Get("b", &out).ok());  // Past the cap: not recorded.
  EXPECT_EQ(cache.WaveLedgerEntries(), 1u);
  cache.Clear();
  ASSERT_TRUE(cache.Get("a", &out).ok());  // Wave hit.
  ASSERT_TRUE(cache.Get("b", &out).ok());  // Physical re-fetch.
  EXPECT_EQ(cache.stats().cache_wave_hits.load(), 1u);
  EXPECT_EQ(inner_.stats().gets.load(), 3u);
  cache.EndWave();
}

// ---------------------------------------------------------------------------
// GetRun through ReadBatch: only runs of adjacent MISSES coalesce, and every
// fetched page lands under its own (key, offset, length) entry.
// ---------------------------------------------------------------------------

/// Requests for `n` adjacent 10-byte pages of `key` starting at page `first`.
std::vector<RangeRequest> Pages(const std::string& key, int first, int n) {
  std::vector<RangeRequest> reqs;
  for (int i = first; i < first + n; ++i) {
    reqs.push_back({key, static_cast<uint64_t>(i) * 10, 10});
  }
  return reqs;
}

TEST_F(CachingStoreTest, AdjacentMissesCoalesceIntoOneGetKeyedPerPage) {
  PutObject("a", 100);
  CachingStore cache(&inner_, {});
  std::vector<Buffer> out;
  ASSERT_TRUE(ReadBatch(&cache, Pages("a", 0, 4), nullptr, nullptr, &out).ok());
  EXPECT_EQ(inner_.stats().gets.load(), 1u);
  EXPECT_EQ(inner_.stats().bytes_read.load(), 40u);
  EXPECT_EQ(cache.stats().gets.load(), 1u);
  EXPECT_EQ(cache.stats().cache_misses.load(), 4u);
  EXPECT_EQ(cache.stats().cache_run_merged.load(), 3u);
  // Page-keyed, never one entry for the run: each page is its own hit.
  EXPECT_EQ(cache.EntryCount(), 4u);
  Buffer page;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cache.GetRange("a", i * 10, 10, &page).ok());
    EXPECT_EQ(page, Buffer(10, 'x'));
  }
  EXPECT_EQ(cache.stats().cache_hits.load(), 4u);
  EXPECT_EQ(inner_.stats().gets.load(), 1u);
}

TEST_F(CachingStoreTest, PartlyCachedRunFetchesOnlyTheMisses) {
  std::string v;
  for (int i = 0; i < 100; ++i) v.push_back(static_cast<char>(i));
  ASSERT_TRUE(inner_.Put("a", Slice(v)).ok());
  CachingStore cache(&inner_, {});
  Buffer page;
  ASSERT_TRUE(cache.GetRange("a", 10, 10, &page).ok());  // Page 1 resident.
  const uint64_t resident = cache.ResidentBytes();

  // Pages 0..3: page 1 is served from cache and splits the misses into
  // page 0 alone and pages 2-3 together. No byte is read twice, and the two
  // miss runs are separate requests of one round (not one after another
  // inside a single run).
  std::vector<Buffer> out;
  IoTrace trace;
  ASSERT_TRUE(ReadBatch(&cache, Pages("a", 0, 4), nullptr, &trace, &out).ok());
  EXPECT_EQ(trace.total_gets(), 3u);
  EXPECT_EQ(trace.depth(), 1u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i], Buffer(v.begin() + i * 10, v.begin() + i * 10 + 10));
  }
  EXPECT_EQ(inner_.stats().gets.load(), 3u);         // 1 earlier + 2 now.
  EXPECT_EQ(inner_.stats().bytes_read.load(), 40u);  // 10 + 10 + 20.
  EXPECT_EQ(cache.stats().cache_hits.load(), 1u);
  EXPECT_EQ(cache.stats().cache_misses.load(), 4u);
  // Three new page entries, each charged like a single-page read.
  EXPECT_EQ(cache.EntryCount(), 4u);
  EXPECT_EQ(cache.ResidentBytes(), 4 * resident);

  // GetRun itself splits the same way when a page turns resident between
  // the batch's residency check and the fetch.
  CachingStore fresh(&inner_, {});
  ASSERT_TRUE(fresh.GetRange("a", 10, 10, &page).ok());
  const uint64_t gets = inner_.stats().gets.load();
  ASSERT_TRUE(fresh.GetRun("a", {{0, 10}, {10, 10}, {20, 10}, {30, 10}}, &out)
                  .ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i], Buffer(v.begin() + i * 10, v.begin() + i * 10 + 10));
  }
  EXPECT_EQ(inner_.stats().gets.load() - gets, 2u);
  EXPECT_EQ(fresh.stats().cache_hits.load(), 1u);
  EXPECT_EQ(fresh.EntryCount(), 4u);
}

TEST_F(CachingStoreTest, FailedCoalescedGetCachesNothingAndEmptiesItsRun) {
  PutObject("a", 100);
  PutObject("b", 100);
  FaultInjectingStore faulty(&inner_);
  CachingStore cache(&faulty, {});
  faulty.SetFailurePoint([](const std::string&, const std::string& key) {
    return key == "a" ? Status::Unavailable("injected") : Status::OK();
  });
  std::vector<RangeRequest> reqs = Pages("a", 0, 3);
  reqs.push_back({"b", 0, 10});
  std::vector<Buffer> out(4, Buffer(7, 'Z'));
  EXPECT_TRUE(ReadBatch(&cache, reqs, nullptr, nullptr, &out).IsUnavailable());
  EXPECT_TRUE(out[0].empty());
  EXPECT_TRUE(out[1].empty());
  EXPECT_TRUE(out[2].empty());
  EXPECT_EQ(out[3], Buffer(10, 'x'));
  EXPECT_EQ(cache.EntryCount(), 1u);  // Only b's page.

  faulty.SetFailurePoint({});
  ASSERT_TRUE(ReadBatch(&cache, reqs, nullptr, nullptr, &out).ok());
  EXPECT_EQ(out[1], Buffer(10, 'x'));
  EXPECT_EQ(cache.EntryCount(), 4u);
}

TEST_F(CachingStoreTest, FlippedByteInOnePageOfARunIsTypedCorruption) {
  // Three encoded pages back to back, probed in one run.
  format::ColumnVector col(format::ColumnVector::Ints{1, 2, 3, 4, 5, 6});
  Buffer file;
  std::vector<format::PageFetch> fetches;
  for (size_t p = 0; p < 3; ++p) {
    format::PageFetch f;
    f.key = "f";
    f.page.offset = file.size();
    f.page.size = static_cast<uint32_t>(
        format::EncodePage(col, 2 * p, 2 * p + 2, compress::Codec::kNone,
                           &file));
    f.page.num_values = 2;
    f.page.first_row = 2 * p;
    fetches.push_back(f);
  }
  file[fetches[1].page.offset + fetches[1].page.size - 1] ^= 0xff;
  ASSERT_TRUE(inner_.Put("f", Slice(file)).ok());
  CachingStore cache(&inner_, {});
  const format::ColumnSchema schema{"c", format::PhysicalType::kInt64, 0};
  std::vector<format::ColumnVector> decoded;
  Status s = format::ReadPages(&cache, fetches, schema, nullptr, nullptr,
                               &decoded);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(inner_.stats().gets.load(), 1u);

  // The intact neighbours of the damaged page decode on their own.
  ASSERT_TRUE(format::ReadPages(&cache, {fetches[0], fetches[2]}, schema,
                                nullptr, nullptr, &decoded)
                  .ok());
  EXPECT_EQ(decoded[1].ints(), (format::ColumnVector::Ints{5, 6}));
}

TEST_F(CachingStoreTest, ConcurrentOverlappingRunsFetchEachPageOnce) {
  // Readers race over overlapping runs of one object. Single-flight works
  // per page inside runs: whatever the interleaving, every page is fetched
  // from the store exactly once and every reader sees the right bytes.
  std::string v;
  for (int i = 0; i < 150; ++i) v.push_back(static_cast<char>(i));
  ASSERT_TRUE(inner_.Put("a", Slice(v)).ok());
  CachingStore cache(&inner_, {});
  ThreadPool pool(4);
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        int first = (t * 3 + round) % 8;
        std::vector<RangeRequest> reqs = Pages("a", first, 8);
        std::vector<Buffer> out;
        ASSERT_TRUE(ReadBatch(&cache, reqs, &pool, nullptr, &out).ok());
        for (size_t i = 0; i < reqs.size(); ++i) {
          ASSERT_EQ(out[i], Buffer(v.begin() + reqs[i].offset,
                                   v.begin() + reqs[i].offset + 10));
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(cache.stats().cache_misses.load(), 15u);  // Pages 0..14.
  EXPECT_EQ(inner_.stats().bytes_read.load(), 150u);
  EXPECT_EQ(cache.EntryCount(), 15u);
}

}  // namespace
}  // namespace rottnest::objectstore
