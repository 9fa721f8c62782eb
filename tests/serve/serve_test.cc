// The serving front-end, end to end:
//   * the unified Query API through the engine answers exactly like the
//     direct Search*/Count* wrappers;
//   * a multi-tenant closed loop completes everything and the per-query
//     traced GETs reconcile EXACTLY against the shared cache's physical
//     counters (hits + misses + coalesced + wave_hits);
//   * weighted tenants complete proportionally under saturation, and no
//     tenant starves;
//   * queue wait counts against the ambient deadline — a query that
//     expires queued fails typed DeadlineExceeded BEFORE any planning I/O;
//   * a GET wave shares physical fetches across members (the wave ledger),
//     cutting physical GETs vs the same queries unbatched;
//   * inside a wave each member keeps its OWN deadline, and a breaker-
//     failed shared fetch propagates per-query (failures are never
//     ledger-cached);
//   * Shutdown fails queued queries typed Unavailable;
//   * a steady-state wave resolves both logs with exactly four HEADs and
//     no GET, a registry commit acknowledged before Submit is planned, and
//     a Vacuum that removes the wave's objects mid-wave is a typed
//     retryable Unavailable.
// TSAN-relevant throughout: many submitter threads block on Execute while
// the dispatcher and the shared pool complete them.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/rottnest.h"
#include "objectstore/fault_injection.h"
#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "workload/generators.h"
#include "workload/multi_tenant.h"

namespace rottnest::serve {
namespace {

using core::Query;
using core::QueryResponse;
using core::Rottnest;
using core::RottnestOptions;
using core::SearchOptions;
using core::SearchResult;
using index::IndexType;
using objectstore::BrownOut;
using objectstore::FaultInjectingStore;
using objectstore::InMemoryObjectStore;
using objectstore::IoStats;
using objectstore::SimulatedSleeper;

/// The canonical dataset (generators.h schema: ts/uuid/body/vec) behind a
/// FaultInjectingStore, so tests can inject latency and outages around the
/// serving path. Small enough to index in milliseconds.
struct ServeWorld {
  SimulatedClock clock;
  InMemoryObjectStore mem{&clock};
  FaultInjectingStore store{&mem};
  workload::DatasetSpec spec;
  std::unique_ptr<lake::Table> table;

  explicit ServeWorld(bool simulated_sleep = true) {
    if (simulated_sleep) store.SetSleeper(SimulatedSleeper(&clock));
    spec.total_rows = 600;
    spec.num_files = 3;
    spec.doc_chars = 120;
    spec.vector_dim = 16;
    format::WriterOptions w;
    w.target_page_bytes = 2048;
    w.target_row_group_bytes = 32 << 10;
    table = workload::BuildDataset(&store, "lake/t", spec, w).MoveValue();
  }

  RottnestOptions Options(uint64_t cache_bytes = 0) const {
    RottnestOptions o;
    o.index_dir = "idx/t";
    o.fm.block_size = 2048;
    o.fm.sample_rate = 8;
    o.ivfpq.nlist = 16;
    o.ivfpq.num_subquantizers = 4;
    o.cache_bytes = cache_bytes;
    // Heads uncached: the cache counters then cover byte reads only, so
    // per-query traced GETs reconcile EXACTLY against them.
    o.cache_heads = false;
    return o;
  }

  /// One index per column over all three files.
  void Build(Rottnest* client) {
    ASSERT_TRUE(client->Index("uuid", IndexType::kTrie).ok());
    ASSERT_TRUE(client->Index("body", IndexType::kFm).ok());
    ASSERT_TRUE(client->Index("vec", IndexType::kIvfPq).ok());
  }

  std::string UuidFor(uint64_t row) const {
    return workload::UuidGenerator(spec.seed, spec.uuid_bytes).IdFor(row);
  }

  /// From now on every store op costs `extra` on the (simulated) clock.
  void SlowEverything(Micros extra) {
    store.AddBrownOut(BrownOut{
        clock.NowMicros(),
        clock.NowMicros() + 100LL * 365 * 86'400 * 1'000'000, "", extra});
  }
};

/// Blocks until `engine` holds exactly `n` queued queries (staging tests
/// run the engine paused, so the depth can only grow to n and stay).
void WaitForQueueDepth(const QueryEngine& engine, size_t n) {
  while (engine.QueueDepth() < n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

uint64_t CachePhysicalGets(const Rottnest& client) {
  return client.cache()->stats().cache_misses.load();
}

uint64_t CacheLogicalGets(const Rottnest& client) {
  const IoStats& s = client.cache()->stats();
  // A coalesced run of adjacent pages is ONE traced read but one cache
  // outcome per page; cache_run_merged counts the difference.
  return s.cache_hits.load() + s.cache_misses.load() +
         s.cache_coalesced.load() + s.cache_wave_hits.load() -
         s.cache_run_merged.load();
}

// ---------------------------------------------------------------------------
// Unified API equivalence: the engine is a scheduler, not a different
// query planner — every kind answers exactly like its direct wrapper.
// ---------------------------------------------------------------------------

TEST(ServeTest, EngineExecuteMatchesDirectSearch) {
  ServeWorld w;
  Rottnest client(&w.store, w.table.get(), w.Options());
  w.Build(&client);
  QueryEngine engine(&client, ServeOptions{});

  // UUID lookup: exactly one verified match, identical row.
  std::string id = w.UuidFor(42);
  auto direct_uuid = client.SearchUuid("uuid", Slice(id), 5);
  ASSERT_TRUE(direct_uuid.ok()) << direct_uuid.status().ToString();
  ASSERT_EQ(direct_uuid.value().matches.size(), 1u);
  auto via_engine = engine.Execute(Query::Uuid("uuid", id, 5));
  ASSERT_TRUE(via_engine.ok()) << via_engine.status().ToString();
  ASSERT_EQ(via_engine.value().result.matches.size(), 1u);
  EXPECT_EQ(via_engine.value().result.matches[0].row,
            direct_uuid.value().matches[0].row);
  EXPECT_EQ(via_engine.value().result.matches[0].file,
            direct_uuid.value().matches[0].file);

  // Substring + regex (a literal pattern, so both take the FM path) +
  // count: identical matches and identical exact count.
  workload::TextGenerator text(w.spec.seed);
  std::string pattern = text.SamplePattern(1);
  auto direct_sub = client.SearchSubstring("body", pattern, 8);
  ASSERT_TRUE(direct_sub.ok());
  auto engine_sub = engine.Execute(Query::Substring("body", pattern, 8));
  ASSERT_TRUE(engine_sub.ok());
  ASSERT_EQ(engine_sub.value().result.matches.size(),
            direct_sub.value().matches.size());
  for (size_t i = 0; i < direct_sub.value().matches.size(); ++i) {
    EXPECT_EQ(engine_sub.value().result.matches[i].row,
              direct_sub.value().matches[i].row);
  }
  auto direct_regex = client.SearchRegex("body", pattern, 8);
  ASSERT_TRUE(direct_regex.ok());
  auto engine_regex = engine.Execute(Query::Regex("body", pattern, 8));
  ASSERT_TRUE(engine_regex.ok());
  EXPECT_EQ(engine_regex.value().result.matches.size(),
            direct_regex.value().matches.size());
  auto direct_count = client.CountSubstring("body", pattern);
  ASSERT_TRUE(direct_count.ok());
  auto engine_count = engine.Execute(Query::Count("body", pattern));
  ASSERT_TRUE(engine_count.ok());
  EXPECT_EQ(engine_count.value().count, direct_count.value());

  // Vector ANN: same candidates, same exact reranked distances.
  std::vector<float> qv =
      workload::VectorGenerator(w.spec.seed, w.spec.vector_dim)
          .QueryNear(10);
  auto direct_vec = client.SearchVector("vec", qv.data(),
                                        static_cast<uint32_t>(qv.size()), 4);
  ASSERT_TRUE(direct_vec.ok()) << direct_vec.status().ToString();
  auto engine_vec = engine.Execute(Query::Vector("vec", qv, 4));
  ASSERT_TRUE(engine_vec.ok()) << engine_vec.status().ToString();
  ASSERT_EQ(engine_vec.value().result.matches.size(),
            direct_vec.value().matches.size());
  for (size_t i = 0; i < direct_vec.value().matches.size(); ++i) {
    EXPECT_EQ(engine_vec.value().result.matches[i].row,
              direct_vec.value().matches[i].row);
    EXPECT_FLOAT_EQ(engine_vec.value().result.matches[i].distance,
                    direct_vec.value().matches[i].distance);
  }

  EXPECT_EQ(engine.stats().submitted.load(), 5u);
  EXPECT_EQ(engine.stats().completed.load(), 5u);
  EXPECT_EQ(engine.stats().failed.load(), 0u);
}

TEST(ServeTest, InvalidQueryFailsTypedThroughEngine) {
  ServeWorld w;
  Rottnest client(&w.store, w.table.get(), w.Options());
  w.Build(&client);
  QueryEngine engine(&client, ServeOptions{});

  auto r = engine.Execute(Query::Vector("vec", {}, 4));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  // The failure flowed through a wave like any other completion.
  EXPECT_EQ(engine.stats().completed.load(), 1u);
  EXPECT_EQ(engine.stats().failed.load(), 1u);
}

// ---------------------------------------------------------------------------
// The multi-tenant closed loop: everything completes, and logical reads
// reconcile exactly against the shared cache.
// ---------------------------------------------------------------------------

TEST(ServeTest, MultiTenantClosedLoopReconcilesExactly) {
  ServeWorld w;
  Rottnest client(&w.store, w.table.get(), w.Options(256 << 10));
  w.Build(&client);
  ASSERT_NE(client.cache(), nullptr);

  obs::MetricsRegistry registry;
  QueryEngine engine(&client, ServeOptions{});
  engine.AttachMetrics(&registry);

  workload::MultiTenantSpec mt;
  mt.dataset = w.spec;
  mt.tenants = 3;
  mt.clients = 6;
  mt.requests_per_client = 8;
  workload::MultiTenantWorkload workload(mt);

  const uint64_t physical0 = CachePhysicalGets(client);
  const uint64_t logical0 = CacheLogicalGets(client);
  workload::ServeLoopReport report =
      workload::RunServeLoop(&engine, workload, /*trace_requests=*/true);

  const uint64_t total = static_cast<uint64_t>(mt.clients) *
                         static_cast<uint64_t>(mt.requests_per_client);
  EXPECT_EQ(report.overall.total(), total);
  EXPECT_EQ(report.overall.errors, 0u);
  EXPECT_EQ(report.overall.shed, 0u);
  EXPECT_EQ(report.overall.ok, total);  // No deadlines, no faults.

  // Engine accounting: every submission completed, in waves.
  EXPECT_EQ(engine.stats().submitted.load(), total);
  EXPECT_EQ(engine.stats().completed.load(), total);
  EXPECT_EQ(engine.stats().failed.load(), 0u);
  EXPECT_EQ(engine.stats().wave_queries.load(), total);
  EXPECT_GE(engine.stats().waves.load(), 1u);
  EXPECT_LE(engine.stats().waves.load(), total);
  EXPECT_EQ(engine.QueueDepth(), 0u);

  // Fairness observability: per-tenant completions add up, and the same
  // counts are visible through TenantCompleted().
  uint64_t per_tenant_sum = 0;
  for (const auto& [tenant, n] : report.per_tenant_ok) per_tenant_sum += n;
  EXPECT_EQ(per_tenant_sum, total);
  std::map<std::string, uint64_t> completed = engine.TenantCompleted();
  for (const auto& [tenant, n] : report.per_tenant_ok) {
    EXPECT_EQ(completed[tenant], n) << tenant;
  }

  // THE reconciliation invariant: every logical read each query traced is
  // accounted for by exactly one cache outcome — hit, physical miss,
  // in-flight coalesce or wave-ledger hit. No hidden I/O, no double count.
  EXPECT_GT(report.traced_gets, 0u);
  EXPECT_EQ(report.traced_gets, CacheLogicalGets(client) - logical0);
  // And physical index GETs are exactly the cache misses.
  EXPECT_GT(CachePhysicalGets(client), physical0);
  EXPECT_LE(CachePhysicalGets(client) - physical0, report.traced_gets);

  // The mirrored registry agrees with the native stats surface.
  EXPECT_EQ(registry.GetCounter("serve.serve.completed")->value(), total);
  EXPECT_EQ(registry.GetCounter("serve.serve.shed")->value(), 0u);
  EXPECT_EQ(registry.GetCounter("admission.serve.admitted")->value(), total);
  EXPECT_EQ(registry.GetHistogram("serve.serve.latency_micros")->Count(),
            total);
}

// ---------------------------------------------------------------------------
// Weighted fairness under saturation.
// ---------------------------------------------------------------------------

TEST(ServeTest, WeightedTenantsCompleteProportionally) {
  // REAL sleeper + per-op latency: queries occupy wall time, so both
  // tenants keep their queues non-empty and the stride scheduler's 3:1
  // pick ratio is observable in completion counts.
  ServeWorld w(/*simulated_sleep=*/false);
  Rottnest client(&w.store, w.table.get(), w.Options());
  w.Build(&client);
  w.SlowEverything(300);  // ~0.3ms of real wall per store op.

  ServeOptions sopts;
  sopts.max_concurrent = 1;  // Serialized service: picks ARE throughput.
  sopts.max_queue = 16;
  sopts.batch_max = 1;
  sopts.tenant_weights = {{"alpha", 3.0}, {"beta", 1.0}};
  sopts.start_paused = true;
  QueryEngine engine(&client, sopts);

  constexpr int kThreadsPerTenant = 3;
  constexpr int kRequestsPerThread = 8;
  constexpr uint64_t kPerTenant = kThreadsPerTenant * kRequestsPerThread;
  std::atomic<uint64_t> failures{0};
  auto run_tenant = [&](const std::string& tenant, int thread_idx) {
    for (int i = 0; i < kRequestsPerThread; ++i) {
      Query q = Query::Uuid(
          "uuid", w.UuidFor(static_cast<uint64_t>(thread_idx * 100 + i)), 4);
      q.tenant = tenant;
      if (!engine.Execute(std::move(q)).ok()) failures.fetch_add(1);
    }
  };
  std::vector<std::thread> alpha, beta;
  for (int t = 0; t < kThreadsPerTenant; ++t) {
    alpha.emplace_back(run_tenant, "alpha", t);
    beta.emplace_back(run_tenant, "beta", t + kThreadsPerTenant);
  }
  WaitForQueueDepth(engine, 2 * kThreadsPerTenant);  // Both tenants staged.
  engine.Resume();

  for (auto& th : alpha) th.join();
  // Snapshot the moment the favored tenant finishes: with 3:1 strides beta
  // should have completed about a third of alpha's count — demonstrably
  // throttled (well under parity) but never starved.
  const uint64_t beta_at_alpha_done = engine.TenantCompleted()["beta"];
  for (auto& th : beta) th.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(beta_at_alpha_done, 1u);  // No starvation.
  EXPECT_LT(beta_at_alpha_done, kPerTenant * 2 / 3);  // Weighted down.
  std::map<std::string, uint64_t> done = engine.TenantCompleted();
  EXPECT_EQ(done["alpha"], kPerTenant);  // Everyone finishes eventually.
  EXPECT_EQ(done["beta"], kPerTenant);
}

// ---------------------------------------------------------------------------
// Queue wait counts against the ambient deadline (resolved at submit).
// ---------------------------------------------------------------------------

TEST(ServeTest, QueueWaitCountsAgainstDeadline) {
  ServeWorld w;
  Rottnest client(&w.store, w.table.get(), w.Options());
  w.Build(&client);

  ServeOptions sopts;
  sopts.start_paused = true;
  QueryEngine engine(&client, sopts);

  SearchOptions opts;
  opts.time_budget_micros = 1'000;
  std::thread submitter;
  Status got = Status::OK();
  submitter = std::thread([&] {
    auto r = engine.Execute(Query::Uuid("uuid", w.UuidFor(42), 4, opts));
    got = r.status();
  });
  WaitForQueueDepth(engine, 1);
  const uint64_t gets_before = w.mem.stats().gets.load();
  // The budget started ticking at submit; the query is still queued when
  // it runs out.
  w.clock.Advance(2'000);
  engine.Resume();
  submitter.join();

  EXPECT_TRUE(got.IsDeadlineExceeded()) << got.ToString();
  // Failed BEFORE any planning I/O: not one store read happened.
  EXPECT_EQ(w.mem.stats().gets.load(), gets_before);
  EXPECT_EQ(engine.stats().expired_in_queue.load(), 1u);
  EXPECT_EQ(engine.stats().completed.load(), 1u);
  EXPECT_EQ(engine.stats().failed.load(), 1u);
  EXPECT_EQ(engine.admission().admission_stats().expired_waiting.load(), 1u);
  EXPECT_EQ(engine.admission().running(), 0);
  EXPECT_EQ(engine.admission().waiting(), 0);
}

// ---------------------------------------------------------------------------
// Batching: one GET wave shares physical fetches across members.
// ---------------------------------------------------------------------------

TEST(ServeTest, WaveSharesFetchesAcrossMembers) {
  // A cache too small to RETAIN anything (entries evict on insert), so the
  // LRU itself cannot explain any sharing: only in-flight coalescing and
  // the wave ledger can. One worker thread serializes wave members enough
  // that later members re-request ranges the LRU already dropped — the
  // wave ledger's case.
  constexpr int kQueries = 6;
  workload::TextGenerator text(42);
  const std::string pattern = text.SamplePattern(1);

  auto run = [&](size_t batch_max, uint64_t* physical,
                 uint64_t* wave_hits) {
    ServeWorld w;
    RottnestOptions copts = w.Options(/*cache_bytes=*/4096);
    copts.num_threads = 1;
    Rottnest client(&w.store, w.table.get(), copts);
    w.Build(&client);

    ServeOptions sopts;
    sopts.batch_max = batch_max;
    sopts.start_paused = true;
    QueryEngine engine(&client, sopts);

    const uint64_t physical0 = CachePhysicalGets(client);
    std::atomic<uint64_t> failures{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kQueries; ++i) {
      threads.emplace_back([&] {
        if (!engine.Execute(Query::Substring("body", pattern, 4)).ok()) {
          failures.fetch_add(1);
        }
      });
    }
    WaitForQueueDepth(engine, kQueries);
    engine.Resume();
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(engine.stats().completed.load(),
              static_cast<uint64_t>(kQueries));
    // Submitters unblock before the dispatcher closes the wave; Shutdown
    // joins it, so EndWave has definitely run by the time we look.
    engine.Shutdown();
    *physical = CachePhysicalGets(client) - physical0;
    *wave_hits = client.cache()->stats().cache_wave_hits.load();
    // The ledger is wave-scoped: nothing survives past EndWave.
    EXPECT_EQ(client.cache()->WaveLedgerEntries(), 0u);
  };

  uint64_t batched_physical = 0, batched_wave_hits = 0;
  run(/*batch_max=*/8, &batched_physical, &batched_wave_hits);
  uint64_t unbatched_physical = 0, unbatched_wave_hits = 0;
  run(/*batch_max=*/1, &unbatched_physical, &unbatched_wave_hits);

  // Identical offered queries; batching must at least HALVE physical GETs
  // (the serve bench's acceptance gate, at test scale), and the sharing
  // must include genuine wave-ledger hits — batch_max=1 never opens a
  // wave, so its ledger count is structurally zero.
  EXPECT_GT(batched_physical, 0u);
  EXPECT_LE(batched_physical * 2, unbatched_physical)
      << "batched=" << batched_physical
      << " unbatched=" << unbatched_physical;
  EXPECT_GT(batched_wave_hits, 0u);
  EXPECT_EQ(unbatched_wave_hits, 0u);
}

// ---------------------------------------------------------------------------
// Batching x tail tolerance.
// ---------------------------------------------------------------------------

TEST(ServeTest, WaveHonorsEarliestMemberDeadline) {
  ServeWorld w;
  Rottnest client(&w.store, w.table.get(), w.Options(256 << 10));
  w.Build(&client);
  w.SlowEverything(2'000);  // Every store op advances the sim clock 2ms.

  ServeOptions sopts;
  sopts.start_paused = true;
  QueryEngine engine(&client, sopts);

  // Member A carries a 1ms budget (expires on the first slow read);
  // member B carries none. Same wave.
  Result<QueryResponse> ra = Status::Internal("unset");
  Result<QueryResponse> rb = Status::Internal("unset");
  SearchOptions tight;
  tight.time_budget_micros = 1'000;
  std::thread ta([&] {
    ra = engine.Execute(Query::Uuid("uuid", w.UuidFor(7), 4, tight));
  });
  WaitForQueueDepth(engine, 1);
  std::thread tb([&] {
    rb = engine.Execute(Query::Uuid("uuid", w.UuidFor(9), 4));
  });
  WaitForQueueDepth(engine, 2);
  engine.Resume();
  ta.join();
  tb.join();

  ASSERT_EQ(engine.stats().waves.load(), 1u);  // One wave held both.
  ASSERT_EQ(engine.stats().wave_queries.load(), 2u);
  // A cut ITSELF short — a structured partial, not an error...
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  EXPECT_TRUE(ra.value().result.partial);
  EXPECT_FALSE(ra.value().result.cut_short.empty());
  // ...while its wave-mate ran to a complete answer.
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_FALSE(rb.value().result.partial);
  ASSERT_EQ(rb.value().result.matches.size(), 1u);
}

TEST(ServeTest, BreakerFailedWavePropagatesPerQuery) {
  ServeWorld w;
  Rottnest client(&w.store, w.table.get(), w.Options(256 << 10));
  w.Build(&client);
  // An open breaker's fail-fast verdict for index objects: shared fetches
  // inside the wave fail. Failures are never ledger-cached, so EVERY
  // member that needed the range observes the Unavailable itself and
  // degrades to its own structured partial.
  w.store.SetFailurePoint([](const std::string& op, const std::string& key) {
    bool read = op == "get" || op == "head";
    if (read && key.size() >= 6 &&
        key.compare(key.size() - 6, 6, ".index") == 0) {
      return Status::Unavailable("circuit breaker open");
    }
    return Status::OK();
  });

  ServeOptions sopts;
  sopts.start_paused = true;
  QueryEngine engine(&client, sopts);

  Result<QueryResponse> ra = Status::Internal("unset");
  Result<QueryResponse> rb = Status::Internal("unset");
  std::thread ta([&] {
    ra = engine.Execute(Query::Uuid("uuid", w.UuidFor(7), 4));
  });
  WaitForQueueDepth(engine, 1);
  std::thread tb([&] {
    rb = engine.Execute(Query::Uuid("uuid", w.UuidFor(7), 4));
  });
  WaitForQueueDepth(engine, 2);
  engine.Resume();
  ta.join();
  tb.join();

  ASSERT_EQ(engine.stats().waves.load(), 1u);
  for (const Result<QueryResponse>* r : {&ra, &rb}) {
    ASSERT_TRUE(r->ok()) << r->status().ToString();
    EXPECT_TRUE(r->value().result.partial);
    EXPECT_FALSE(r->value().result.cut_short.empty());
    EXPECT_TRUE(r->value().result.matches.empty());
  }
  EXPECT_EQ(engine.stats().failed.load(), 0u);  // Partials are NOT errors.
  // Nothing from the failed fetches went into the wave ledger.
  EXPECT_EQ(client.cache()->stats().cache_wave_hits.load(), 0u);
}

// ---------------------------------------------------------------------------
// Shutdown.
// ---------------------------------------------------------------------------

TEST(ServeTest, ShutdownFailsQueuedQueriesTyped) {
  ServeWorld w;
  Rottnest client(&w.store, w.table.get(), w.Options());
  w.Build(&client);

  ServeOptions sopts;
  sopts.start_paused = true;
  QueryEngine engine(&client, sopts);

  Status sa = Status::OK(), sb = Status::OK();
  std::thread ta([&] {
    sa = engine.Execute(Query::Uuid("uuid", w.UuidFor(1), 4)).status();
  });
  std::thread tb([&] {
    Query q = Query::Uuid("uuid", w.UuidFor(2), 4);
    q.tenant = "other";
    sb = engine.Execute(std::move(q)).status();
  });
  WaitForQueueDepth(engine, 2);
  engine.Shutdown();
  ta.join();
  tb.join();

  EXPECT_TRUE(sa.IsUnavailable()) << sa.ToString();
  EXPECT_TRUE(sb.IsUnavailable()) << sb.ToString();
  EXPECT_EQ(engine.stats().completed.load(), 2u);
  EXPECT_EQ(engine.QueueDepth(), 0u);
  EXPECT_EQ(engine.admission().waiting(), 0);
  // Submissions after shutdown are refused outright, same typed status.
  auto late = engine.Execute(Query::Uuid("uuid", w.UuidFor(3), 4));
  ASSERT_FALSE(late.ok());
  EXPECT_TRUE(late.status().IsUnavailable());
}

// ---------------------------------------------------------------------------
// The per-wave metadata resolve.
// ---------------------------------------------------------------------------

/// Counts the physical requests that reach the transaction logs.
struct MetadataRequests {
  std::atomic<uint64_t> gets{0}, heads{0}, lists{0};

  explicit MetadataRequests(InMemoryObjectStore* mem) {
    mem->SetFailurePoint([this](const std::string& op,
                                const std::string& key) {
      if (key.find("/_log/") == std::string::npos &&
          key.find("/_meta") == std::string::npos) {
        return Status::OK();
      }
      if (op == "get") ++gets;
      if (op == "head") ++heads;
      if (op == "list") ++lists;
      return Status::OK();
    });
  }
};

TEST(ServeTest, SteadyStateWaveMakesFourMetadataHeadsAndNoGets) {
  for (size_t members : {1u, 4u, 8u}) {
    ServeWorld w;
    Rottnest client(&w.store, w.table.get(), w.Options(1 << 20));
    w.Build(&client);
    ServeOptions sopts;
    sopts.batch_max = members;
    sopts.start_paused = true;
    QueryEngine engine(&client, sopts);
    // The last Index committed after its own resolve: one wave catches up.
    ASSERT_TRUE(client.ResolveMetadata().ok());
    MetadataRequests meta(&w.mem);

    std::vector<std::thread> threads;
    std::atomic<uint64_t> failures{0}, traced_lists{0};
    for (size_t i = 0; i < members; ++i) {
      threads.emplace_back([&, i] {
        objectstore::IoTrace trace;
        SearchOptions opts;
        opts.trace = &trace;
        if (!engine.Execute(Query::Uuid("uuid", w.UuidFor(7 * i), 4, opts))
                 .ok()) {
          failures.fetch_add(1);
        }
        traced_lists.fetch_add(trace.total_lists());
      });
    }
    WaitForQueueDepth(engine, members);
    engine.Resume();
    for (auto& th : threads) th.join();
    engine.Shutdown();
    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(engine.stats().waves.load(), 1u) << members << " members";
    EXPECT_EQ(engine.stats().pinned.load(), members);
    EXPECT_EQ(meta.heads.load(), 4u) << members << " members";
    EXPECT_EQ(meta.gets.load(), 0u) << members << " members";
    EXPECT_EQ(meta.lists.load(), 0u) << members << " members";
    // A member's trace records no metadata read: it made none.
    EXPECT_EQ(traced_lists.load(), 0u) << members << " members";
    w.mem.SetFailurePoint(nullptr);
  }
}

TEST(ServeTest, RegistryCommitBeforeSubmitIsSeenByTheQuery) {
  ServeWorld w;
  Rottnest client(&w.store, w.table.get(), w.Options(1 << 20));
  QueryEngine engine(&client, ServeOptions{});
  workload::TextGenerator text(w.spec.seed);
  const std::string pattern = text.SamplePattern(1);

  auto before = engine.Execute(Query::Substring("body", pattern, 4));
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before.value().result.stats.uncovered_files, 3u);
  EXPECT_EQ(before.value().result.indexes_queried, 0u);

  // Another client commits an index; the engine's client holds a state
  // from before the commit and learns of it only from the log.
  Rottnest writer(&w.store, w.table.get(), w.Options());
  ASSERT_TRUE(writer.Index("body", IndexType::kFm).ok());

  auto after = engine.Execute(Query::Substring("body", pattern, 4));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().result.stats.uncovered_files, 0u);
  EXPECT_EQ(after.value().result.indexes_queried, 1u);
  EXPECT_EQ(after.value().result.files_scanned, 0u);
  EXPECT_EQ(after.value().result.matches.size(),
            before.value().result.matches.size());
}

/// Forwards to `inner` and runs `hook` once, before the first read of an
/// index object after it is armed — the point where wave members have
/// planned against the wave's state.
class IndexReadHookStore : public objectstore::ObjectStore {
 public:
  explicit IndexReadHookStore(objectstore::ObjectStore* inner)
      : inner_(inner) {}

  Status Put(const std::string& key, Slice data) override {
    return inner_->Put(key, data);
  }
  Status PutIfAbsent(const std::string& key, Slice data) override {
    return inner_->PutIfAbsent(key, data);
  }
  Status Get(const std::string& key, Buffer* out) override {
    MaybeFire(key);
    return inner_->Get(key, out);
  }
  Status GetRange(const std::string& key, uint64_t offset, uint64_t length,
                  Buffer* out) override {
    MaybeFire(key);
    return inner_->GetRange(key, offset, length, out);
  }
  Status Head(const std::string& key, objectstore::ObjectMeta* out) override {
    return inner_->Head(key, out);
  }
  Status List(const std::string& prefix,
              std::vector<objectstore::ObjectMeta>* out) override {
    return inner_->List(prefix, out);
  }
  Status Delete(const std::string& key) override {
    return inner_->Delete(key);
  }
  const Clock& clock() const override { return inner_->clock(); }
  const IoStats& stats() const override { return inner_->stats(); }

  std::function<void()> hook;
  std::atomic<bool> armed{false};

 private:
  void MaybeFire(const std::string& key) {
    if (key.rfind("idx/", 0) != 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (armed.exchange(false)) hook();
  }

  objectstore::ObjectStore* inner_;
  std::mutex mu_;
};

TEST(ServeTest, VacuumMidWaveIsATypedRetryablePinConflict) {
  ServeWorld w;
  IndexReadHookStore hooked(&w.store);
  // No cache: every member read reaches the hooked store.
  Rottnest client(&hooked, w.table.get(), w.Options());
  ASSERT_TRUE(client.Index("body", IndexType::kFm).ok());
  QueryEngine engine(&client, ServeOptions{});
  workload::TextGenerator text(w.spec.seed);
  const std::string pattern = text.SamplePattern(1);
  auto warm = engine.Execute(Query::Substring("body", pattern, 4));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  // After the wave has resolved and planned: merge the data files, drop
  // the index that covered them and delete every superseded object.
  RottnestOptions wopts = w.Options();
  wopts.index_timeout_micros = 1;
  Rottnest writer(&w.store, w.table.get(), wopts);
  hooked.hook = [&] {
    auto compacted = w.table->CompactFiles(UINT64_MAX);
    ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
    w.clock.Advance(1'000'000);
    auto vacuumed = writer.Vacuum(compacted.value());
    ASSERT_TRUE(vacuumed.ok()) << vacuumed.status().ToString();
    EXPECT_EQ(vacuumed.value().objects_deleted, 1u);
    auto swept = w.table->Vacuum(/*retention_micros=*/0);
    ASSERT_TRUE(swept.ok()) << swept.status().ToString();
    EXPECT_EQ(swept.value(), 3u);
  };
  hooked.armed = true;
  auto conflicted = engine.Execute(Query::Substring("body", pattern, 4));
  ASSERT_FALSE(hooked.armed.load());
  ASSERT_FALSE(conflicted.ok());
  EXPECT_TRUE(conflicted.status().IsUnavailable())
      << conflicted.status().ToString();
  EXPECT_NE(conflicted.status().message().find("pinned snapshot"),
            std::string::npos)
      << conflicted.status().ToString();
  EXPECT_EQ(engine.stats().pin_conflicts.load(), 1u);

  // The retry re-pins to the new latest state and answers in full.
  auto retried = engine.Execute(Query::Substring("body", pattern, 4));
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried.value().result.matches.size(),
            warm.value().result.matches.size());
  EXPECT_EQ(engine.stats().pin_conflicts.load(), 1u);
}

}  // namespace
}  // namespace rottnest::serve
