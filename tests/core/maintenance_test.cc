// The v2 maintenance API (MaintenanceOptions): determinism of the parallel
// Index/Compact pipelines, the per-page-batch timeout, dry runs, byte
// budgets, and maintenance concurrency/chaos — including the crash-schedule
// explorer extended to the parallel pipeline stages.
//
// The load-bearing property is BYTE-IDENTITY: the index object emitted by a
// parallel build must equal the serial build's bytes exactly, at any
// `parallelism` and any `byte_budget`, so operators can turn the knobs
// without changing what lands in the object store.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/rottnest.h"
#include "objectstore/fault_injection.h"
#include "objectstore/object_store.h"
#include "objectstore/retry.h"

namespace rottnest::core {
namespace {

using format::ColumnVector;
using format::PhysicalType;
using format::RowBatch;
using format::Schema;
using index::IndexType;
using lake::Table;
using objectstore::CrashMode;
using objectstore::FaultInjectingStore;
using objectstore::FaultOptions;
using objectstore::InMemoryObjectStore;
using objectstore::RetryingStore;
using objectstore::RetryPolicy;
using objectstore::SimulatedSleeper;

constexpr uint32_t kDim = 16;

Schema MakeSchema() {
  Schema s;
  s.columns.push_back({"uuid", PhysicalType::kFixedLenByteArray, 16});
  s.columns.push_back({"body", PhysicalType::kByteArray, 0});
  s.columns.push_back({"vec", PhysicalType::kFixedLenByteArray, kDim * 4});
  return s;
}

std::string UuidFor(uint64_t id) {
  std::string u(16, '\0');
  uint64_t hi = Mix64(id), lo = Mix64(id ^ 0x77aa55);
  for (int i = 0; i < 8; ++i) {
    u[i] = static_cast<char>(hi >> (56 - 8 * i));
    u[8 + i] = static_cast<char>(lo >> (56 - 8 * i));
  }
  return u;
}

std::vector<float> VecFor(uint64_t id) {
  Random rng(id * 13 + 1);
  std::vector<float> v(kDim);
  uint64_t cluster = id % 8;
  for (uint32_t d = 0; d < kDim; ++d) {
    v[d] = static_cast<float>((cluster == d % 8 ? 50.0 : 0.0) +
                              rng.NextGaussian() * 0.1);
  }
  return v;
}

RottnestOptions Options() {
  RottnestOptions options;
  options.index_dir = "idx/m";
  options.ivfpq.nlist = 16;
  options.ivfpq.num_subquantizers = 4;
  options.fm.block_size = 2048;
  options.fm.sample_rate = 8;
  options.index_timeout_micros = 600LL * 1'000'000;
  return options;
}

format::WriterOptions WriterOpts() {
  format::WriterOptions w;
  w.target_page_bytes = 1024;
  w.target_row_group_bytes = 8 << 10;
  return w;
}

void AppendRows(Table* table, uint64_t first_id, size_t rows) {
  RowBatch b;
  b.schema = MakeSchema();
  format::FlatFixed uuids;
  uuids.elem_size = 16;
  ColumnVector::Strings bodies;
  format::FlatFixed vecs;
  vecs.elem_size = kDim * 4;
  for (size_t i = 0; i < rows; ++i) {
    uint64_t id = first_id + i;
    std::string u = UuidFor(id);
    uuids.Append(Slice(u));
    bodies.push_back("row " + std::to_string(id) + " token" +
                     std::to_string(id % 7) + " payload");
    std::vector<float> v = VecFor(id);
    vecs.Append(Slice(reinterpret_cast<const uint8_t*>(v.data()), kDim * 4));
  }
  b.columns.emplace_back(std::move(uuids));
  b.columns.emplace_back(std::move(bodies));
  b.columns.emplace_back(std::move(vecs));
  ASSERT_TRUE(table->Append(b).ok());
}

/// A fresh deterministic universe over a plain in-memory store.
struct World {
  SimulatedClock clock;
  InMemoryObjectStore store{&clock};
  std::unique_ptr<Table> table;
  std::unique_ptr<Rottnest> client;

  World() {
    table =
        Table::Create(&store, "lake/m", MakeSchema(), WriterOpts()).MoveValue();
    client = std::make_unique<Rottnest>(&store, table.get(), Options());
  }

  void Append(uint64_t first_id, size_t rows) {
    AppendRows(table.get(), first_id, rows);
  }

  Buffer ObjectBytes(const std::string& key) {
    Buffer b;
    EXPECT_TRUE(store.Get(key, &b).ok()) << key;
    return b;
  }
};

/// The width-invariant fingerprint of a maintenance op: parallelism may
/// reorder and overlap requests (changing depth/latency), but must never
/// add or drop any — so totals and request cost are identical.
void ExpectSameFootprint(const MaintenanceStats& a, const MaintenanceStats& b) {
  EXPECT_EQ(a.gets, b.gets);
  EXPECT_EQ(a.lists, b.lists);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.simulated_cost_usd, b.simulated_cost_usd);
}

/// The width-DEPENDENT half of the contract: widening the pipeline overlaps
/// per-file chains in waves, so the recorded dependent-round depth (and the
/// simulated latency it implies) must strictly improve, never regress.
void ExpectShallower(const MaintenanceStats& parallel,
                     const MaintenanceStats& serial) {
  EXPECT_LT(parallel.io_depth, serial.io_depth);
  EXPECT_LT(parallel.simulated_latency_ms, serial.simulated_latency_ms);
}

// ---------------------------------------------------------------------------
// Determinism: byte-identical output at any parallelism / byte budget.
//
// Data-file object names are intentionally unique per table instance
// (Table::NewObjectName mixes instance identity), and the index object
// embeds the covered data-file paths — so byte-identity is only meaningful
// WITHIN one world. Each variant builds against the same table, then
// un-commits its entry (metadata Update + object delete) so the next
// variant sees the identical input state.

TEST(MaintenanceDeterminismTest, IndexByteIdenticalAtAnyParallelismAndBudget) {
  World w;
  w.Append(0, 200);
  w.Append(200, 200);

  auto rebuild = [&](const char* column, IndexType type, size_t parallelism,
                     uint64_t byte_budget) -> Buffer {
    MaintenanceOptions opts;
    opts.parallelism = parallelism;
    opts.byte_budget = byte_budget;
    auto r = w.client->Index(column, type, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok() || r.value().index_path.empty()) return Buffer();
    EXPECT_EQ(r.value().stats.parallelism, parallelism);
    Buffer bytes = w.ObjectBytes(r.value().index_path);
    // Un-commit: drop the entry and the object so the files count as
    // fresh again for the next variant.
    EXPECT_TRUE(w.client->metadata().Update({}, {r.value().index_path}).ok());
    EXPECT_TRUE(w.store.Delete(r.value().index_path).ok());
    return bytes;
  };

  for (auto [column, type] :
       {std::pair{"uuid", IndexType::kTrie}, std::pair{"body", IndexType::kFm},
        std::pair{"vec", IndexType::kIvfPq}}) {
    SCOPED_TRACE(column);
    Buffer serial = rebuild(column, type, 1, 0);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, rebuild(column, type, 2, 0));
    EXPECT_EQ(serial, rebuild(column, type, 8, 0));
    // A 1-byte staging budget degenerates the pipeline to head-of-line-only
    // admission; output bytes must not notice.
    EXPECT_EQ(serial, rebuild(column, type, 8, 1));
  }
}

TEST(MaintenanceDeterminismTest, IndexFootprintIdenticalAtAnyParallelism) {
  // The IO footprint (and therefore simulated latency/cost) is part of the
  // determinism contract: parallelism reorders requests, never adds any.
  // Footprints are world-shape-independent, so these compare across fresh
  // worlds — one per width, with identical histories.
  auto build = [](size_t parallelism, MaintenanceStats* trie,
                  MaintenanceStats* fm, MaintenanceStats* ivf) {
    World w;
    w.Append(0, 200);
    w.Append(200, 200);
    MaintenanceOptions opts;
    opts.parallelism = parallelism;
    auto t = w.client->Index("uuid", IndexType::kTrie, opts);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    *trie = t.value().stats;
    auto f = w.client->Index("body", IndexType::kFm, opts);
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    *fm = f.value().stats;
    auto v = w.client->Index("vec", IndexType::kIvfPq, opts);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    *ivf = v.value().stats;
  };
  MaintenanceStats t1, f1, v1, t8, f8, v8;
  build(1, &t1, &f1, &v1);
  build(8, &t8, &f8, &v8);
  ASSERT_FALSE(::testing::Test::HasFailure());
  ExpectSameFootprint(t1, t8);
  ExpectSameFootprint(f1, f8);
  ExpectSameFootprint(v1, v8);
  // Two data files: the serial build pays both staging chains back to
  // back; the wide build overlaps them.
  ExpectShallower(t8, t1);
  ExpectShallower(f8, f1);
  ExpectShallower(v8, v1);
  EXPECT_EQ(t1.parallelism, 1u);
  EXPECT_EQ(t8.parallelism, 8u);
  EXPECT_GT(t1.gets, 0u);
  EXPECT_GT(t1.io_depth, 0u);
}

TEST(MaintenanceDeterminismTest, CompactByteIdenticalAtAnyParallelismAndBudget) {
  World w;
  for (int r = 0; r < 3; ++r) {
    w.Append(static_cast<uint64_t>(r) * 150, 150);
    ASSERT_TRUE(w.client->Index("uuid", IndexType::kTrie).ok());
    ASSERT_TRUE(w.client->Index("body", IndexType::kFm).ok());
    ASSERT_TRUE(w.client->Index("vec", IndexType::kIvfPq).ok());
    // Distinct commit stamps: the deterministic merge order sorts small
    // inputs by created_micros first.
    w.clock.Advance(1'000'000);
  }

  auto recompact = [&](const char* column, IndexType type, size_t parallelism,
                       uint64_t byte_budget) -> Buffer {
    auto before = w.client->metadata().ReadAll();
    EXPECT_TRUE(before.ok());
    MaintenanceOptions opts;
    opts.parallelism = parallelism;
    opts.byte_budget = byte_budget;
    auto c = w.client->Compact(column, type, opts);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    if (!c.ok() || c.value().merged_path.empty()) return Buffer();
    EXPECT_EQ(c.value().replaced.size(), 3u);
    Buffer bytes = w.ObjectBytes(c.value().merged_path);
    // Restore the replaced entries (original created_micros and all) so
    // the next variant merges the identical input set.
    std::vector<lake::IndexEntry> readd;
    for (const lake::IndexEntry& e : before.value()) {
      if (std::find(c.value().replaced.begin(), c.value().replaced.end(),
                    e.index_path) != c.value().replaced.end()) {
        readd.push_back(e);
      }
    }
    EXPECT_EQ(readd.size(), 3u);
    EXPECT_TRUE(
        w.client->metadata().Update(readd, {c.value().merged_path}).ok());
    EXPECT_TRUE(w.store.Delete(c.value().merged_path).ok());
    return bytes;
  };

  for (auto [column, type] :
       {std::pair{"uuid", IndexType::kTrie}, std::pair{"body", IndexType::kFm},
        std::pair{"vec", IndexType::kIvfPq}}) {
    SCOPED_TRACE(column);
    Buffer serial = recompact(column, type, 1, 0);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, recompact(column, type, 8, 0));
    // byte_budget bounds how much of the inputs is prefetched concurrently;
    // a starved budget may change the REQUEST pattern but never the bytes.
    EXPECT_EQ(serial, recompact(column, type, 8, 1));
  }
  EXPECT_TRUE(w.client->CheckInvariants().ok());
}

TEST(MaintenanceDeterminismTest, CompactFootprintIdenticalAtAnyParallelism) {
  auto compact = [](size_t parallelism, std::vector<MaintenanceStats>* stats) {
    World w;
    for (int r = 0; r < 3; ++r) {
      w.Append(static_cast<uint64_t>(r) * 150, 150);
      ASSERT_TRUE(w.client->Index("uuid", IndexType::kTrie).ok());
      ASSERT_TRUE(w.client->Index("body", IndexType::kFm).ok());
      w.clock.Advance(1'000'000);
    }
    MaintenanceOptions opts;
    opts.parallelism = parallelism;
    for (auto [column, type] : {std::pair{"uuid", IndexType::kTrie},
                                std::pair{"body", IndexType::kFm}}) {
      auto c = w.client->Compact(column, type, opts);
      ASSERT_TRUE(c.ok()) << c.status().ToString();
      EXPECT_EQ(c.value().replaced.size(), 3u);
      stats->push_back(c.value().stats);
    }
    ASSERT_TRUE(w.client->CheckInvariants().ok());
  };
  std::vector<MaintenanceStats> serial, parallel;
  compact(1, &serial);
  compact(8, &parallel);
  ASSERT_FALSE(::testing::Test::HasFailure());
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ExpectSameFootprint(serial[i], parallel[i]);
    // Three input prefetch chains: one wave wide vs three sequential.
    ExpectShallower(parallel[i], serial[i]);
  }
}

// ---------------------------------------------------------------------------
// Timeout granularity: the deadline is enforced per page batch, not once
// per data file, so a slow store mid-file aborts promptly.

TEST(MaintenanceTimeoutTest, TimeoutEnforcedPerPageBatch) {
  SimulatedClock clock;
  InMemoryObjectStore inner(&clock);
  FaultInjectingStore store(&inner);
  auto table =
      Table::Create(&store, "lake/to", MakeSchema(), WriterOpts()).MoveValue();
  Rottnest client(&store, table.get(), Options());
  AppendRows(table.get(), 0, 1500);  // Many row groups in one data file.

  // Fault-free footprint of the same build, measured in an identical world.
  uint64_t fault_free_ops = 0;
  {
    SimulatedClock c2;
    InMemoryObjectStore i2(&c2);
    FaultInjectingStore s2(&i2);
    auto t2 =
        Table::Create(&s2, "lake/to", MakeSchema(), WriterOpts()).MoveValue();
    Rottnest c(&s2, t2.get(), Options());
    AppendRows(t2.get(), 0, 1500);
    uint64_t before = s2.op_count();
    auto r = c.Index("uuid", IndexType::kTrie);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    fault_free_ops = s2.op_count() - before;
  }
  ASSERT_GT(fault_free_ops, 8u) << "world too small to distinguish per-file "
                                   "from per-batch timeout checks";

  // The store turns to molasses on the first data-file read: the budget
  // expires while the file is mid-staging.
  bool fired = false;
  store.SetFailurePoint([&](const std::string& op,
                            const std::string& key) -> Status {
    if (!fired && op == "get" && key.find("/data/") != std::string::npos) {
      fired = true;
      clock.Advance(10'000'000);
    }
    return Status::OK();
  });
  MaintenanceOptions opts;
  opts.parallelism = 1;
  opts.time_budget_micros = 1000;
  uint64_t before = store.op_count();
  auto r = client.Index("uuid", IndexType::kTrie, opts);
  uint64_t used = store.op_count() - before;
  store.SetFailurePoint(nullptr);

  EXPECT_TRUE(fired);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsAborted()) << r.status().ToString();
  // Aborted mid-file: a once-per-file check would have staged the whole
  // file (and only failed afterwards), spending nearly the full footprint.
  EXPECT_LT(2 * used, fault_free_ops)
      << "timeout did not abort promptly (used " << used << " of "
      << fault_free_ops << " ops)";
  // Nothing was committed.
  auto entries = client.metadata().ReadAll();
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries.value().empty());

  // With the clock no longer sabotaged, the retried op converges.
  auto retry = client.Index("uuid", IndexType::kTrie);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE(client.CheckInvariants().ok());
}

// ---------------------------------------------------------------------------
// Dry runs: full plan + stats, zero mutation.

TEST(MaintenanceDryRunTest, DryRunsPlanWithoutMutating) {
  World w;
  MaintenanceOptions dry;
  dry.dry_run = true;

  w.Append(0, 300);
  auto di = w.client->Index("uuid", IndexType::kTrie, dry);
  ASSERT_TRUE(di.ok()) << di.status().ToString();
  EXPECT_TRUE(di.value().index_path.empty());
  EXPECT_GE(di.value().covered_files.size(), 1u);
  EXPECT_EQ(di.value().rows, 300u);
  EXPECT_TRUE(di.value().stats.dry_run);
  std::vector<objectstore::ObjectMeta> listing;
  ASSERT_TRUE(w.store.List("idx/m/", &listing).ok());
  EXPECT_TRUE(listing.empty()) << "dry-run Index wrote an object";
  auto entries = w.client->metadata().ReadAll();
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries.value().empty()) << "dry-run Index committed metadata";

  // Three real rounds, then a dry compact.
  for (int r = 0; r < 3; ++r) {
    if (r > 0) w.Append(static_cast<uint64_t>(r) * 300, 300);
    ASSERT_TRUE(w.client->Index("uuid", IndexType::kTrie).ok());
    w.clock.Advance(1'000'000);
  }
  ASSERT_TRUE(w.store.List("idx/m/", &listing).ok());
  size_t objects_before = listing.size();
  auto dc = w.client->Compact("uuid", IndexType::kTrie, dry);
  ASSERT_TRUE(dc.ok()) << dc.status().ToString();
  EXPECT_TRUE(dc.value().merged_path.empty());
  EXPECT_EQ(dc.value().replaced.size(), 3u);
  EXPECT_TRUE(dc.value().stats.dry_run);
  ASSERT_TRUE(w.store.List("idx/m/", &listing).ok());
  EXPECT_EQ(listing.size(), objects_before) << "dry-run Compact wrote";
  entries = w.client->metadata().ReadAll();
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries.value().size(), 3u) << "dry-run Compact committed";

  // Real compact, age out the replaced objects, then dry vacuum.
  auto rc = w.client->Compact("uuid", IndexType::kTrie);
  ASSERT_TRUE(rc.ok()) << rc.status().ToString();
  ASSERT_EQ(rc.value().replaced.size(), 3u);
  w.clock.Advance(Options().index_timeout_micros + 1'000'000);
  auto latest = w.table->GetSnapshot();
  ASSERT_TRUE(latest.ok());

  auto dv = w.client->Vacuum(latest.value().version, dry);
  ASSERT_TRUE(dv.ok()) << dv.status().ToString();
  EXPECT_TRUE(dv.value().stats.dry_run);
  std::multiset<std::string> planned(dv.value().deleted_objects.begin(),
                                     dv.value().deleted_objects.end());
  EXPECT_EQ(planned.size(), 3u);  // Exactly the replaced index objects.
  for (const std::string& key : planned) {
    objectstore::ObjectMeta meta;
    EXPECT_TRUE(w.store.Head(key, &meta).ok())
        << "dry-run Vacuum deleted " << key;
  }

  // The real vacuum deletes exactly what the dry run planned.
  auto rv = w.client->Vacuum(latest.value().version);
  ASSERT_TRUE(rv.ok()) << rv.status().ToString();
  EXPECT_EQ(rv.value().objects_deleted, 3u);
  std::multiset<std::string> deleted(rv.value().deleted_objects.begin(),
                                     rv.value().deleted_objects.end());
  EXPECT_EQ(deleted, planned);
  for (const std::string& key : planned) {
    objectstore::ObjectMeta meta;
    EXPECT_TRUE(w.store.Head(key, &meta).IsNotFound());
  }
  EXPECT_TRUE(w.client->CheckInvariants().ok());
}

// ---------------------------------------------------------------------------
// Concurrency & chaos over the parallel pipelines.

TEST(MaintenanceConcurrencyTest, IndexCommitLandingDuringCompactCommutes) {
  SimulatedClock clock;
  InMemoryObjectStore inner(&clock);
  FaultInjectingStore store(&inner);
  auto table =
      Table::Create(&store, "lake/cc", MakeSchema(), WriterOpts()).MoveValue();
  Rottnest client(&store, table.get(), Options());
  for (int r = 0; r < 3; ++r) {
    AppendRows(table.get(), static_cast<uint64_t>(r) * 150, 150);
    ASSERT_TRUE(client.Index("uuid", IndexType::kTrie).ok());
    clock.Advance(1'000'000);
  }

  // A second client commits a fresh FM index at an exact protocol point
  // inside Compact: after it has chosen its inputs (the HEAD sizing pass),
  // before the merge/commit. The metadata log must serialize both commits.
  Rottnest concurrent(&store, table.get(), Options());
  // The HEADs of one wave run on several executor threads: exactly one of
  // them may fire.
  std::atomic<bool> fired{false};
  store.SetFailurePoint(
      [&](const std::string& op, const std::string& key) -> Status {
        if (op == "head" && !fired.exchange(true)) {
          auto r = concurrent.Index("body", IndexType::kFm);
          EXPECT_TRUE(r.ok()) << r.status().ToString();
          EXPECT_FALSE(r.value().index_path.empty());
        }
        return Status::OK();
      });
  MaintenanceOptions copts;
  copts.parallelism = 4;
  auto c = client.Compact("uuid", IndexType::kTrie, copts);
  store.SetFailurePoint(nullptr);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_TRUE(fired);
  EXPECT_EQ(c.value().replaced.size(), 3u);

  ASSERT_TRUE(client.CheckInvariants().ok());
  // Both the merged trie and the racing FM index answer queries.
  auto u = client.SearchUuid("uuid", Slice(UuidFor(222)), 3);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  EXPECT_EQ(u.value().matches.size(), 1u);
  EXPECT_EQ(u.value().files_scanned, 0u);
  auto s = client.SearchSubstring("body", "token3", 500);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_FALSE(s.value().matches.empty());
  EXPECT_EQ(s.value().files_scanned, 0u);
}

/// Search answers reduced to a store-layout-independent form.
using MatchSet = std::multiset<std::pair<uint64_t, std::string>>;

MatchSet Reduce(const SearchResult& r) {
  MatchSet out;
  for (const RowMatch& m : r.matches) out.emplace(m.row, m.value);
  return out;
}

struct MaintenanceAnswers {
  std::vector<MatchSet> uuid_hits;
  MatchSet substring_hits;
  uint64_t substring_count = 0;
};

/// Full maintenance cycle — parallel index, compact, vacuum — against an
/// arbitrary store stack, recording final answers.
void RunMaintenanceCycle(objectstore::ObjectStore* store, SimulatedClock* clock,
                         size_t parallelism, MaintenanceAnswers* answers) {
  auto table = Table::Create(store, "lake/mx", MakeSchema(), WriterOpts())
                   .MoveValue();
  Rottnest client(store, table.get(), Options());
  MaintenanceOptions opts;
  opts.parallelism = parallelism;
  for (int r = 0; r < 3; ++r) {
    AppendRows(table.get(), static_cast<uint64_t>(r) * 150, 150);
    ASSERT_TRUE(client.Index("uuid", IndexType::kTrie, opts).ok());
    ASSERT_TRUE(client.Index("body", IndexType::kFm, opts).ok());
    clock->Advance(1'000'000);
  }
  ASSERT_TRUE(client.Compact("uuid", IndexType::kTrie, opts).ok());
  ASSERT_TRUE(client.Compact("body", IndexType::kFm, opts).ok());
  clock->Advance(Options().index_timeout_micros + 60LL * 1'000'000);
  auto latest = table->GetSnapshot();
  ASSERT_TRUE(latest.ok());
  ASSERT_TRUE(client.Vacuum(latest.value().version, opts).ok());
  ASSERT_TRUE(client.CheckInvariants().ok());

  for (uint64_t id : {0ULL, 222ULL, 449ULL}) {
    std::string u = UuidFor(id);
    auto r = client.SearchUuid("uuid", Slice(u), 10);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    answers->uuid_hits.push_back(Reduce(r.value()));
  }
  auto s = client.SearchSubstring("body", "token3", 500);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  answers->substring_hits = Reduce(s.value());
  auto c = client.CountSubstring("body", "token3");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  answers->substring_count = c.value();
}

TEST(MaintenanceChaosTest, ParallelMaintenanceUnderChaosMatchesSerialRun) {
  // Reference: serial pipeline, fault-free store.
  MaintenanceAnswers expected;
  {
    SimulatedClock clock;
    InMemoryObjectStore store(&clock);
    RunMaintenanceCycle(&store, &clock, /*parallelism=*/1, &expected);
  }
  ASSERT_FALSE(::testing::Test::HasFailure());
  for (const MatchSet& hits : expected.uuid_hits) EXPECT_EQ(hits.size(), 1u);
  EXPECT_FALSE(expected.substring_hits.empty());

  // Chaos: width-8 pipelines over a 10% transient-fault / 10% ambiguous-put
  // store behind retries. The injected faults land inside concurrent
  // staging/prefetch threads; the final answers must not notice.
  MaintenanceAnswers actual;
  SimulatedClock clock;
  InMemoryObjectStore inner(&clock);
  FaultOptions fopts;
  fopts.seed = 20260806;
  fopts.transient_fault_rate = 0.1;
  fopts.ambiguous_put_rate = 0.1;
  FaultInjectingStore faulty(&inner, fopts);
  RetryPolicy policy;
  policy.initial_backoff_micros = 1000;
  policy.max_backoff_micros = 8000;
  RetryingStore store(&faulty, policy, SimulatedSleeper(&clock));
  RunMaintenanceCycle(&store, &clock, /*parallelism=*/8, &actual);
  ASSERT_FALSE(::testing::Test::HasFailure());

  EXPECT_GT(faulty.fault_stats().transient_injected.load(), 0u);
  EXPECT_GT(store.retry_stats().retries.load(), 0u);
  EXPECT_EQ(store.retry_stats().budget_exhausted.load(), 0u);
  EXPECT_EQ(actual.uuid_hits, expected.uuid_hits);
  EXPECT_EQ(actual.substring_hits, expected.substring_hits);
  EXPECT_EQ(actual.substring_count, expected.substring_count);
}

// ---------------------------------------------------------------------------
// Crash-schedule exploration over the PIPELINE stages: every prefix of the
// parallel operation's storage footprint must leave the invariants intact
// and converge on retry — same bar the serial explorer sets, now with the
// crash landing inside concurrent staging/prefetch threads.

struct CrashWorld {
  SimulatedClock clock;
  InMemoryObjectStore inner{&clock};
  FaultInjectingStore store{&inner};
  std::unique_ptr<Table> table;
  std::unique_ptr<Rottnest> client;

  CrashWorld() {
    table = Table::Create(&store, "lake/pc", MakeSchema(), WriterOpts())
                .MoveValue();
    client = std::make_unique<Rottnest>(&store, table.get(), Options());
  }

  void Append(uint64_t first_id, size_t rows) {
    AppendRows(table.get(), first_id, rows);
  }
};

struct PipelineScenario {
  const char* name;
  std::function<void(CrashWorld&)> setup;
  std::function<Status(CrashWorld&)> victim;
  uint64_t probe_id;
};

size_t ExplorePipelineScenario(const PipelineScenario& sc) {
  // The parallel pipeline reorders store ops across threads, but the SET of
  // ops is deterministic, so the fault-free op count still bounds the
  // schedule space.
  uint64_t num_ops = 0;
  {
    CrashWorld w;
    sc.setup(w);
    uint64_t before = w.store.op_count();
    Status s = sc.victim(w);
    EXPECT_TRUE(s.ok()) << sc.name << " fault-free: " << s.ToString();
    if (!s.ok()) return 0;
    num_ops = w.store.op_count() - before;
  }
  EXPECT_GT(num_ops, 0u) << sc.name;

  size_t schedules = 0;
  for (uint64_t n = 0; n < num_ops; ++n) {
    for (CrashMode mode : {CrashMode::kBeforeOp, CrashMode::kAfterOp}) {
      SCOPED_TRACE(std::string(sc.name) + " crash at pipeline op " +
                   std::to_string(n) +
                   (mode == CrashMode::kBeforeOp ? " (before)" : " (after)"));
      CrashWorld w;
      sc.setup(w);
      w.store.SetCrashAtOp(w.store.op_count() + n, mode);

      Status s = sc.victim(w);
      EXPECT_FALSE(s.ok());
      EXPECT_TRUE(w.store.crashed());

      w.store.ClearCrash();
      Status inv = w.client->CheckInvariants();
      EXPECT_TRUE(inv.ok()) << inv.ToString();

      Status retry = sc.victim(w);
      EXPECT_TRUE(retry.ok()) << retry.ToString();
      Status inv2 = w.client->CheckInvariants();
      EXPECT_TRUE(inv2.ok()) << inv2.ToString();

      auto result =
          w.client->SearchUuid("uuid", Slice(UuidFor(sc.probe_id)), 3);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (result.ok()) {
        EXPECT_EQ(result.value().matches.size(), 1u);
      }
      ++schedules;
    }
  }
  return schedules;
}

TEST(MaintenancePipelineCrashTest, ParallelIndexSurvivesEveryCrashPoint) {
  PipelineScenario sc;
  sc.name = "index-pipeline";
  sc.setup = [](CrashWorld& w) {
    w.Append(0, 40);
    w.Append(40, 40);
  };
  sc.victim = [](CrashWorld& w) {
    MaintenanceOptions opts;
    opts.parallelism = 4;
    return w.client->Index("uuid", IndexType::kTrie, opts).status();
  };
  sc.probe_id = 55;
  size_t schedules = ExplorePipelineScenario(sc);
  EXPECT_GE(schedules, 2u);
  RecordProperty("schedules", static_cast<int>(schedules));
}

TEST(MaintenancePipelineCrashTest, ParallelCompactSurvivesEveryCrashPoint) {
  PipelineScenario sc;
  sc.name = "compact-pipeline";
  sc.setup = [](CrashWorld& w) {
    for (int i = 0; i < 3; ++i) {
      w.Append(static_cast<uint64_t>(i) * 40, 40);
      ASSERT_TRUE(w.client->Index("uuid", IndexType::kTrie).ok());
      w.clock.Advance(1'000'000);
    }
  };
  sc.victim = [](CrashWorld& w) {
    MaintenanceOptions opts;
    opts.parallelism = 4;
    return w.client->Compact("uuid", IndexType::kTrie, opts).status();
  };
  sc.probe_id = 90;
  size_t schedules = ExplorePipelineScenario(sc);
  EXPECT_GE(schedules, 2u);
  RecordProperty("schedules", static_cast<int>(schedules));
}

}  // namespace
}  // namespace rottnest::core
