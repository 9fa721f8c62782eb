// Serving bench: the SAME multi-tenant closed-loop workload (identical
// query sequence — the workload is a pure function of its seed) through two
// QueryEngines over a store with REAL per-op latency, once with batching
// off (batch_max=1: every query is its own wave) and once with GET waves
// sized to the client concurrency (batch_max=12): concurrent queries
// coalesce their index-block fetches via the cache's wave ledger.
//
// Acceptance gates (exit non-zero on failure):
//   * batching cuts physical index GETs by >= 2x at equal offered load,
//   * batched p99 latency is no worse than unbatched,
//   * both runs reconcile EXACTLY: every per-query traced GET is accounted
//     for by its cache outcomes (hits + misses + coalesced + wave_hits, less
//     the pages a coalesced run served beyond its first), with zero errors
//     and zero sheds.
// Results land in BENCH_serve.json (schema-checked by
// tools/check_bench_json.py).
#include <cstdio>
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "common/json.h"
#include "objectstore/fault_injection.h"
#include "serve/query_engine.h"
#include "workload/multi_tenant.h"

namespace rottnest::bench {
namespace {

using objectstore::FaultInjectingStore;
using objectstore::FaultOptions;
using objectstore::InMemoryObjectStore;
using serve::QueryEngine;
using serve::ServeOptions;
using workload::DatasetSpec;
using workload::MultiTenantSpec;

constexpr Micros kBaseLatency = 150;  ///< Every store op (real wall time).

DatasetSpec Spec() {
  DatasetSpec spec;
  spec.total_rows = 4000;
  spec.num_files = 4;
  spec.doc_chars = 100;
  spec.vector_dim = 16;
  return spec;
}

core::RottnestOptions Options() {
  core::RottnestOptions options;
  options.index_dir = "idx/serve";
  options.fm.block_size = 4096;
  options.fm.sample_rate = 8;
  options.ivfpq.nlist = 16;
  options.ivfpq.num_subquantizers = 4;
  // A cache too small to retain the working set across queries: sharing
  // must come from in-flight coalescing and the wave ledger, exactly what
  // batching adds. Heads stay uncached so the cache counters cover byte
  // reads only and the per-query traces reconcile EXACTLY against them.
  options.cache_bytes = 8 << 10;
  options.cache_heads = false;
  return options;
}

MultiTenantSpec WorkloadSpec() {
  MultiTenantSpec mt;
  mt.dataset = Spec();
  mt.tenants = 4;
  // Enough concurrent closed-loop clients that a full wave usually holds
  // several queries of EACH kind in the four-kind mix below — wave-mates
  // only share blocks with same-kind neighbors.
  mt.clients = 12;
  mt.requests_per_client = 25;
  mt.k = 4;
  // A hot, heavily skewed needle set: the serving regime batching is built
  // for — concurrent queries repeatedly ask about the same few values, so
  // wave members touch the same index blocks.
  mt.value_zipf_s = 1.5;
  mt.hot_values = 8;
  // Mix in keyword queries so the loop exercises all five index-backed
  // kinds through the same wave ledger (rebalanced out of substring).
  // Kept a modest share: every extra kind in a wave dilutes the block
  // overlap between wave-mates, and this bench's gate is about sharing.
  mt.w_uuid = 0.35;
  mt.w_substring = 0.35;
  mt.w_keyword = 0.10;
  return mt;
}

struct RunResult {
  workload::ServeLoopReport report;
  uint64_t physical_gets = 0;  ///< GETs the cache sent to the store.
  uint64_t logical_gets = 0;   ///< Outcomes less cache_run_merged.
  uint64_t wave_hits = 0;
  uint64_t coalesced = 0;
  uint64_t waves = 0;
  uint64_t p50 = 0;
  uint64_t p99 = 0;
};

/// One cold-start serving run: fresh store stack, fresh client, fresh
/// engine, the identical workload.
bool RunOnce(size_t batch_max, obs::MetricsRegistry* registry,
             RunResult* out) {
  SimulatedClock clock;
  InMemoryObjectStore mem(&clock);
  auto table_r = workload::BuildDataset(&mem, "lake/serve", Spec());
  if (!table_r.ok()) {
    std::fprintf(stderr, "FAIL: dataset: %s\n",
                 table_r.status().ToString().c_str());
    return false;
  }
  auto table = std::move(table_r).value();
  {
    // Build the indexes against the bare store: setup pays no latency.
    core::Rottnest setup(&mem, table.get(), Options());
    for (auto [column, type] :
         {std::pair<const char*, index::IndexType>{"uuid",
                                                   index::IndexType::kTrie},
          {"body", index::IndexType::kFm},
          {"body", index::IndexType::kKeyword},
          {"vec", index::IndexType::kIvfPq}}) {
      Status s = setup.Index(column, type).status();
      if (!s.ok()) {
        std::fprintf(stderr, "FAIL: index %s: %s\n", column,
                     s.ToString().c_str());
        return false;
      }
    }
  }

  FaultOptions fopts;
  fopts.seed = 20260809;
  fopts.base_latency_micros = kBaseLatency;  // REAL sleeps: wall p99.
  FaultInjectingStore slow(&mem, fopts);
  core::Rottnest client(&slow, table.get(), Options());

  ServeOptions sopts;
  sopts.batch_max = batch_max;
  QueryEngine engine(&client, sopts);
  if (registry != nullptr) engine.AttachMetrics(registry);

  workload::MultiTenantWorkload workload(WorkloadSpec());
  out->report = workload::RunServeLoop(&engine, workload,
                                       /*trace_requests=*/true);
  engine.Shutdown();  // Joins the dispatcher: every wave is closed.

  const objectstore::IoStats& cs = client.cache()->stats();
  out->physical_gets = cs.gets.load();
  out->wave_hits = cs.cache_wave_hits.load();
  out->coalesced = cs.cache_coalesced.load();
  out->logical_gets = cs.cache_hits.load() + cs.cache_misses.load() +
                      out->coalesced + out->wave_hits -
                      cs.cache_run_merged.load();
  out->waves = engine.stats().waves.load();
  out->p50 =
      workload::PercentileMicros(out->report.overall.latencies_micros, 0.5);
  out->p99 =
      workload::PercentileMicros(out->report.overall.latencies_micros, 0.99);

  const uint64_t total = out->report.overall.total();
  const uint64_t expected =
      static_cast<uint64_t>(WorkloadSpec().clients) *
      static_cast<uint64_t>(WorkloadSpec().requests_per_client);
  if (total != expected || out->report.overall.errors != 0 ||
      out->report.overall.shed != 0) {
    std::fprintf(stderr,
                 "FAIL: batch_max=%zu run: %llu/%llu answered, %llu errors, "
                 "%llu shed\n",
                 batch_max, static_cast<unsigned long long>(total),
                 static_cast<unsigned long long>(expected),
                 static_cast<unsigned long long>(out->report.overall.errors),
                 static_cast<unsigned long long>(out->report.overall.shed));
    return false;
  }
  if (engine.stats().submitted.load() != expected ||
      engine.stats().completed.load() != expected) {
    std::fprintf(stderr, "FAIL: batch_max=%zu engine stats disagree\n",
                 batch_max);
    return false;
  }
  // THE reconciliation invariant: Σ per-query traced GETs == Δ(cache hits
  // + misses + coalesced + wave_hits - run_merged). Exact, or the run is
  // invalid.
  if (out->report.traced_gets != out->logical_gets) {
    std::fprintf(stderr,
                 "FAIL: batch_max=%zu: traced %llu GETs but the cache "
                 "accounted %llu\n",
                 batch_max,
                 static_cast<unsigned long long>(out->report.traced_gets),
                 static_cast<unsigned long long>(out->logical_gets));
    return false;
  }
  return true;
}

}  // namespace

int Main() {
  PrintHeader("serve", "request batching vs per-query GETs");
  const MultiTenantSpec mt = WorkloadSpec();
  const uint64_t queries = static_cast<uint64_t>(mt.clients) *
                           static_cast<uint64_t>(mt.requests_per_client);

  RunResult unbatched, batched;
  obs::MetricsRegistry registry;  // Snapshot from the batched engine.
  if (!RunOnce(/*batch_max=*/1, nullptr, &unbatched)) return 1;
  if (!RunOnce(/*batch_max=*/12, &registry, &batched)) return 1;

  double get_ratio =
      static_cast<double>(batched.physical_gets) /
      static_cast<double>(unbatched.physical_gets ? unbatched.physical_gets
                                                  : 1);
  double p99_ratio = static_cast<double>(batched.p99) /
                     static_cast<double>(unbatched.p99 ? unbatched.p99 : 1);

  std::printf("  %llu queries, %d tenants, %d closed-loop clients, "
              "+%lldus per store op\n",
              static_cast<unsigned long long>(queries), mt.tenants,
              mt.clients, static_cast<long long>(kBaseLatency));
  std::printf("  unbatched: %llu physical GETs, p50 %llu us, p99 %llu us\n",
              static_cast<unsigned long long>(unbatched.physical_gets),
              static_cast<unsigned long long>(unbatched.p50),
              static_cast<unsigned long long>(unbatched.p99));
  std::printf("  batched:   %llu physical GETs, p50 %llu us, p99 %llu us "
              "(%llu waves)\n",
              static_cast<unsigned long long>(batched.physical_gets),
              static_cast<unsigned long long>(batched.p50),
              static_cast<unsigned long long>(batched.p99),
              static_cast<unsigned long long>(batched.waves));
  std::printf("  sharing: %llu wave hits + %llu coalesced of %llu logical\n",
              static_cast<unsigned long long>(batched.wave_hits),
              static_cast<unsigned long long>(batched.coalesced),
              static_cast<unsigned long long>(batched.logical_gets));
  std::printf("  GET ratio %.3fx, p99 ratio %.3fx\n", get_ratio, p99_ratio);

  Json::Object root;
  root["queries"] = Json(queries);
  root["tenants"] = Json(static_cast<uint64_t>(mt.tenants));
  root["clients"] = Json(static_cast<uint64_t>(mt.clients));
  root["base_latency_micros"] = Json(static_cast<uint64_t>(kBaseLatency));
  root["unbatched_gets"] = Json(unbatched.physical_gets);
  root["unbatched_p50_micros"] = Json(unbatched.p50);
  root["unbatched_p99_micros"] = Json(unbatched.p99);
  root["unbatched_traced_gets"] = Json(unbatched.report.traced_gets);
  root["batched_gets"] = Json(batched.physical_gets);
  root["batched_p50_micros"] = Json(batched.p50);
  root["batched_p99_micros"] = Json(batched.p99);
  root["batched_traced_gets"] = Json(batched.report.traced_gets);
  root["batched_waves"] = Json(batched.waves);
  root["batched_wave_hits"] = Json(batched.wave_hits);
  root["batched_coalesced"] = Json(batched.coalesced);
  root["get_ratio"] = Json(get_ratio);
  root["p99_ratio"] = Json(p99_ratio);
  root["reconciled"] = Json(true);  // RunOnce fails the run otherwise.
  WriteBenchJson("BENCH_serve.json", std::move(root), &registry);

  bool ok = true;
  if (get_ratio > 0.5) {
    std::fprintf(stderr,
                 "FAIL: batching cut GETs only to %.3fx (want <= 0.5x)\n",
                 get_ratio);
    ok = false;
  }
  if (p99_ratio > 1.0) {
    std::fprintf(stderr, "FAIL: batched p99 is %.3fx unbatched (want <= 1)\n",
                 p99_ratio);
    ok = false;
  }
  if (batched.wave_hits == 0) {
    std::fprintf(stderr, "FAIL: no wave-ledger hits were ever recorded\n");
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace rottnest::bench

int main() { return rottnest::bench::Main(); }
