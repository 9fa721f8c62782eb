// End-to-end observability tests (DESIGN.md §4g): span trees whose
// aggregated per-span I/O reconciles EXACTLY with the store's IoStats for
// a chaos search and for a full index -> compact -> scrub -> repair ->
// vacuum cycle; registry counters mirroring IoStats increment-for-
// increment through a chaos run; span-tree shape and width-invariant
// registry snapshots byte-identical across fan-out widths; and the
// unified obs::Stats surface with its deprecated cache-field aliases.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "core/rottnest.h"
#include "objectstore/fault_injection.h"
#include "objectstore/object_store.h"
#include "objectstore/retry.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "obs/span.h"

namespace rottnest::core {
namespace {

using format::ColumnVector;
using format::PhysicalType;
using format::RowBatch;
using format::Schema;
using index::IndexType;
using lake::Table;
using objectstore::FaultInjectingStore;
using objectstore::FaultOptions;
using objectstore::InMemoryObjectStore;
using objectstore::IoStats;
using objectstore::RetryingStore;
using objectstore::RetryPolicy;
using objectstore::SimulatedSleeper;

Schema MakeSchema() {
  Schema s;
  s.columns.push_back({"uuid", PhysicalType::kFixedLenByteArray, 16});
  s.columns.push_back({"body", PhysicalType::kByteArray, 0});
  return s;
}

std::string UuidFor(uint64_t id) {
  std::string u(16, '\0');
  uint64_t hi = Mix64(id), lo = Mix64(id ^ 0xabcdef);
  for (int i = 0; i < 8; ++i) {
    u[i] = static_cast<char>(hi >> (56 - 8 * i));
    u[8 + i] = static_cast<char>(lo >> (56 - 8 * i));
  }
  return u;
}

RottnestOptions Options() {
  RottnestOptions options;
  options.index_dir = "idx/t";
  options.fm.block_size = 2048;
  options.fm.sample_rate = 8;
  options.index_timeout_micros = 600LL * 1'000'000;
  return options;
}

format::WriterOptions WriterOpts() {
  format::WriterOptions w;
  w.target_page_bytes = 2048;
  w.target_row_group_bytes = 32 << 10;
  return w;
}

void AppendRows(Table* table, uint64_t first_id, size_t rows) {
  RowBatch b;
  b.schema = MakeSchema();
  format::FlatFixed uuids;
  uuids.elem_size = 16;
  ColumnVector::Strings bodies;
  for (size_t i = 0; i < rows; ++i) {
    uint64_t id = first_id + i;
    std::string u = UuidFor(id);
    uuids.Append(Slice(u));
    bodies.push_back("row " + std::to_string(id) + " token" +
                     std::to_string(id % 7) + " payload");
  }
  b.columns.emplace_back(std::move(uuids));
  b.columns.emplace_back(std::move(bodies));
  ASSERT_TRUE(table->Append(b).ok());
}

/// Plain copy of the physical counters an operation can move.
struct IoSnap {
  uint64_t gets = 0, puts = 0, lists = 0, deletes = 0, heads = 0;
  uint64_t bytes_read = 0, bytes_written = 0;
};

IoSnap Snap(const IoStats& s) {
  IoSnap out;
  out.gets = s.gets.load();
  out.puts = s.puts.load();
  out.lists = s.lists.load();
  out.deletes = s.deletes.load();
  out.heads = s.heads.load();
  out.bytes_read = s.bytes_read.load();
  out.bytes_written = s.bytes_written.load();
  return out;
}

/// Asserts the tracer's whole-tree aggregate equals the physical IoStats
/// delta field-for-field, the tree has exactly one root named `root_name`,
/// and every child's parent id precedes it. Resets the tracer.
void CheckTreeReconciles(obs::Tracer* tracer, const char* root_name,
                         const IoSnap& before, const IoSnap& after) {
  SCOPED_TRACE(root_name);
  obs::SpanIo total = tracer->AggregateIo();
  EXPECT_EQ(total.gets, after.gets - before.gets);
  EXPECT_EQ(total.puts, after.puts - before.puts);
  EXPECT_EQ(total.lists, after.lists - before.lists);
  EXPECT_EQ(total.deletes, after.deletes - before.deletes);
  EXPECT_EQ(total.heads, after.heads - before.heads);
  EXPECT_EQ(total.bytes_read, after.bytes_read - before.bytes_read);
  EXPECT_EQ(total.bytes_written, after.bytes_written - before.bytes_written);
  size_t roots = 0;
  for (const obs::SpanData& s : tracer->Spans()) {
    EXPECT_TRUE(s.ended) << s.name;
    EXPECT_GE(s.end_micros, s.start_micros);
    if (s.parent == obs::kNoSpan) {
      ++roots;
      EXPECT_EQ(s.name, root_name);
    } else {
      EXPECT_LT(s.parent, s.id) << s.name;
    }
  }
  EXPECT_EQ(roots, 1u);
  tracer->Reset();
}

bool HasSpanWithPrefix(const std::vector<obs::SpanData>& spans,
                       const std::string& prefix) {
  for (const obs::SpanData& s : spans) {
    if (s.name.compare(0, prefix.size(), prefix) == 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// A chaos search: 10% transient faults absorbed by the retrying store. The
// span tree must reconcile exactly with the physical counters (cache off),
// and the registry must mirror the store / retry / fault counters
// increment-for-increment across the WHOLE run, faults included.

TEST(ObsIntegrationTest, ChaosSearchReconcilesSpansAndMetrics) {
  SimulatedClock clock;
  InMemoryObjectStore inner(&clock);
  FaultOptions fopts;
  fopts.seed = 20260807;
  fopts.transient_fault_rate = 0.1;
  fopts.ambiguous_put_rate = 0.1;
  FaultInjectingStore faulty(&inner, fopts);
  RetryPolicy policy;
  policy.initial_backoff_micros = 1000;
  policy.max_backoff_micros = 8000;
  RetryingStore store(&faulty, policy, SimulatedSleeper(&clock));

  // Attach every metric mirror BEFORE the first operation, so the counters
  // see the same increments IoStats does.
  obs::MetricsRegistry registry;
  inner.AttachMetrics(&registry);
  store.AttachMetrics(&registry);
  faulty.AttachMetrics(&registry);

  auto table =
      Table::Create(&store, "lake/t", MakeSchema(), WriterOpts()).MoveValue();
  Rottnest client(&store, table.get(), Options());
  AppendRows(table.get(), 0, 200);
  AppendRows(table.get(), 200, 200);
  ASSERT_TRUE(client.Index("uuid", IndexType::kTrie).ok());
  ASSERT_TRUE(client.Index("body", IndexType::kFm).ok());

  obs::Tracer tracer;
  obs::ObsContext obs;
  obs.metrics = &registry;
  obs.tracer = &tracer;
  obs.retry_stats = &store.retry_stats();
  obs.fault_stats = &faulty.fault_stats();

  SearchOptions opts;
  opts.obs = &obs;
  uint64_t retries_before = store.retry_stats().retries.load();
  IoSnap before = Snap(store.stats());
  auto r = client.SearchSubstring("body", "token3", 500, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  IoSnap after = Snap(store.stats());
  ASSERT_FALSE(r.value().matches.empty());

  // The chaos layer really fired inside the traced window over the run.
  EXPECT_GT(faulty.fault_stats().transient_injected.load(), 0u);

  // Unified Stats surface: physical deltas and resilience counters.
  const obs::Stats& stats = r.value().stats;
  EXPECT_EQ(stats.gets, after.gets - before.gets);
  EXPECT_EQ(stats.bytes_read, after.bytes_read - before.bytes_read);
  EXPECT_EQ(stats.retries,
            store.retry_stats().retries.load() - retries_before);

  // Span tree: root `search_substring` with plan/index/probe/scan children
  // whose exclusive I/O sums exactly to the physical delta.
  std::vector<obs::SpanData> spans = tracer.Spans();
  EXPECT_TRUE(HasSpanWithPrefix(spans, "plan"));
  EXPECT_TRUE(HasSpanWithPrefix(spans, "index:"));
  CheckTreeReconciles(&tracer, "search_substring", before, after);

  // Metrics-vs-IoStats reconciliation, whole run: the registry mirrors are
  // emitted beside every counter increment, so they must be EXACTLY equal
  // — chaos, retries and duplicate ambiguous writes included.
  const IoStats& io = inner.stats();
  EXPECT_EQ(registry.GetCounter("store.memory.gets")->value(),
            io.gets.load());
  EXPECT_EQ(registry.GetCounter("store.memory.puts")->value(),
            io.puts.load());
  EXPECT_EQ(registry.GetCounter("store.memory.lists")->value(),
            io.lists.load());
  EXPECT_EQ(registry.GetCounter("store.memory.bytes_read")->value(),
            io.bytes_read.load());
  EXPECT_EQ(registry.GetCounter("store.memory.bytes_written")->value(),
            io.bytes_written.load());
  // The per-GET size histogram records successful reads only (the gets
  // counter also counts NotFound probes), so its mass equals bytes_read.
  EXPECT_LE(registry.GetHistogram("store.memory.get_bytes")->Count(),
            io.gets.load());
  EXPECT_EQ(registry.GetHistogram("store.memory.get_bytes")->Sum(),
            io.bytes_read.load());
  EXPECT_EQ(registry.GetCounter("retry.store.retries")->value(),
            store.retry_stats().retries.load());
  EXPECT_EQ(registry.GetCounter("retry.store.attempts")->value(),
            store.retry_stats().attempts.load());
  EXPECT_EQ(registry.GetCounter("fault.store.transient_injected")->value(),
            faulty.fault_stats().transient_injected.load());
  EXPECT_EQ(registry.GetCounter("op.search_substring.count")->value(), 1u);

  // A regex whose prefilter literal the FM index locates is still a regex
  // search: it counts under its own op, not under substring search.
  auto re = client.SearchRegex("body", "token3\\b", 10, opts);
  ASSERT_TRUE(re.ok()) << re.status().ToString();
  ASSERT_FALSE(re.value().matches.empty());
  EXPECT_EQ(registry.GetCounter("op.search_regex.count")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("op.search_substring.count")->value(), 1u);
}

// ---------------------------------------------------------------------------
// The full maintenance cycle: every operation's span tree reconciles with
// its own physical window, including Repair, whose rebuilt Index ops nest
// their root spans under the repair root.

TEST(ObsIntegrationTest, FullCycleSpanTreesReconcileWithIoStats) {
  SimulatedClock clock;
  InMemoryObjectStore store(&clock);
  auto table =
      Table::Create(&store, "lake/t", MakeSchema(), WriterOpts()).MoveValue();
  Rottnest client(&store, table.get(), Options());
  AppendRows(table.get(), 0, 150);

  obs::Tracer tracer;
  obs::ObsContext obs;
  obs.tracer = &tracer;

  // Index (twice, so Compact has two small inputs to merge).
  MaintenanceOptions mopts;
  mopts.obs = &obs;
  IoSnap before = Snap(store.stats());
  ASSERT_TRUE(client.Index("uuid", IndexType::kTrie, mopts).ok());
  {
    std::vector<obs::SpanData> spans = tracer.Spans();
    EXPECT_TRUE(HasSpanWithPrefix(spans, "plan"));
    EXPECT_TRUE(HasSpanWithPrefix(spans, "stage:"));
    EXPECT_TRUE(HasSpanWithPrefix(spans, "commit"));
  }
  CheckTreeReconciles(&tracer, "index", before, Snap(store.stats()));

  AppendRows(table.get(), 150, 150);
  before = Snap(store.stats());
  ASSERT_TRUE(client.Index("uuid", IndexType::kTrie, mopts).ok());
  CheckTreeReconciles(&tracer, "index", before, Snap(store.stats()));

  // Compact.
  before = Snap(store.stats());
  auto compacted = client.Compact("uuid", IndexType::kTrie, mopts);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_EQ(compacted.value().replaced.size(), 2u);
  {
    std::vector<obs::SpanData> spans = tracer.Spans();
    EXPECT_TRUE(HasSpanWithPrefix(spans, "input:"));
    EXPECT_TRUE(HasSpanWithPrefix(spans, "merge"));
  }
  CheckTreeReconciles(&tracer, "compact", before, Snap(store.stats()));

  // Corrupt the compacted index object so Scrub finds real damage and
  // Repair has work to do. Done OUTSIDE any measured window.
  auto entries = client.metadata().ReadAll();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value().size(), 1u);
  std::string victim = entries.value()[0].index_path;
  {
    Buffer buf;
    ASSERT_TRUE(store.Get(victim, &buf).ok());
    ASSERT_GT(buf.size(), 30u);
    buf[buf.size() / 3] ^= 0xff;
    ASSERT_TRUE(store.Put(victim, Slice(buf)).ok());
  }

  // Scrub (deep).
  ScrubOptions sopts;
  sopts.deep = true;
  sopts.obs = &obs;
  before = Snap(store.stats());
  auto scrubbed = client.Scrub(sopts);
  ASSERT_TRUE(scrubbed.ok()) << scrubbed.status().ToString();
  EXPECT_FALSE(scrubbed.value().clean());
  {
    std::vector<obs::SpanData> spans = tracer.Spans();
    EXPECT_TRUE(HasSpanWithPrefix(spans, "audit:"));
    EXPECT_TRUE(HasSpanWithPrefix(spans, "orphans"));
  }
  CheckTreeReconciles(&tracer, "scrub", before, Snap(store.stats()));

  // Repair: quarantine + rebuild. The rebuilt Index op must hang its root
  // span UNDER the repair root, and the combined tree must still reconcile
  // with repair's whole physical window.
  RepairOptions ropts;
  ropts.obs = &obs;
  before = Snap(store.stats());
  auto repaired = client.Repair(scrubbed.value(), ropts);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_EQ(repaired.value().quarantined.size(), 1u);
  EXPECT_EQ(repaired.value().rebuilt.size(), 1u);
  {
    std::vector<obs::SpanData> spans = tracer.Spans();
    obs::SpanId repair_root = obs::kNoSpan;
    for (const obs::SpanData& s : spans) {
      if (s.parent == obs::kNoSpan) repair_root = s.id;
    }
    bool nested_index = false;
    for (const obs::SpanData& s : spans) {
      if (s.name == "index" && s.parent == repair_root) nested_index = true;
    }
    EXPECT_TRUE(nested_index);
    EXPECT_TRUE(HasSpanWithPrefix(spans, "quarantine"));
  }
  CheckTreeReconciles(&tracer, "repair", before, Snap(store.stats()));

  // Vacuum after the timeout, with physical deletes.
  clock.Advance(Options().index_timeout_micros + 60LL * 1'000'000);
  auto latest = table->GetSnapshot();
  ASSERT_TRUE(latest.ok());
  before = Snap(store.stats());
  auto vacuumed = client.Vacuum(latest.value().version, mopts);
  ASSERT_TRUE(vacuumed.ok()) << vacuumed.status().ToString();
  CheckTreeReconciles(&tracer, "vacuum", before, Snap(store.stats()));

  ASSERT_TRUE(client.CheckInvariants().ok());
}

// ---------------------------------------------------------------------------
// Width invariance: the span-tree shape (names + parent edges, in id
// order) is identical at fan-out widths 1, 2 and 8, and the registry
// snapshot — which only receives width-invariant counters — is
// byte-identical across widths.

TEST(ObsIntegrationTest, SpanShapeAndRegistrySnapshotInvariantAcrossWidths) {
  struct WidthRun {
    std::vector<std::string> shape;  ///< "parent>name" in span-id order.
    std::string registry_dump;
  };
  auto run = [](size_t width) {
    SimulatedClock clock;
    InMemoryObjectStore store(&clock);
    obs::MetricsRegistry registry;
    store.AttachMetrics(&registry);
    auto table = Table::Create(&store, "lake/t", MakeSchema(), WriterOpts())
                     .MoveValue();
    Rottnest client(&store, table.get(), Options());
    obs::Tracer tracer;
    obs::ObsContext obs;
    obs.metrics = &registry;
    obs.tracer = &tracer;

    // Two index generations over the uuid column: the search fans out over
    // two candidate indexes, so width actually matters.
    MaintenanceOptions mopts;
    mopts.obs = &obs;
    AppendRows(table.get(), 0, 120);
    EXPECT_TRUE(client.Index("uuid", IndexType::kTrie, mopts).ok());
    EXPECT_TRUE(client.Index("body", IndexType::kFm, mopts).ok());
    AppendRows(table.get(), 120, 120);
    EXPECT_TRUE(client.Index("uuid", IndexType::kTrie, mopts).ok());

    SearchOptions opts;
    opts.obs = &obs;
    opts.parallelism = width;
    std::string u = UuidFor(7);
    auto r = client.SearchUuid("uuid", Slice(u), 10, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().matches.size(), 1u);
    auto s = client.SearchSubstring("body", "token5", 300, opts);
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    EXPECT_EQ(r.value().stats.parallelism, std::min<size_t>(width, 2));

    WidthRun out;
    for (const obs::SpanData& sp : tracer.Spans()) {
      // Object keys embed per-run nonces; compare the structural name (the
      // kind prefix up to and including the ':') plus the parent edge.
      size_t colon = sp.name.find(':');
      std::string kind =
          colon == std::string::npos ? sp.name : sp.name.substr(0, colon + 1);
      out.shape.push_back(std::to_string(sp.parent) + ">" + kind);
    }
    out.registry_dump = registry.SnapshotJson().Dump();
    return out;
  };

  WidthRun serial = run(1);
  WidthRun two = run(2);
  WidthRun eight = run(8);
  ASSERT_FALSE(serial.shape.empty());
  EXPECT_EQ(two.shape, serial.shape);
  EXPECT_EQ(eight.shape, serial.shape);
  EXPECT_EQ(two.registry_dump, serial.registry_dump);
  EXPECT_EQ(eight.registry_dump, serial.registry_dump);
}

// ---------------------------------------------------------------------------
// The unified Stats surface: cache counters live in result.stats (the old
// top-level SearchResult aliases are gone).

TEST(ObsIntegrationTest, UnifiedStatsSurface) {
  SimulatedClock clock;
  InMemoryObjectStore store(&clock);
  auto table =
      Table::Create(&store, "lake/t", MakeSchema(), WriterOpts()).MoveValue();
  RottnestOptions options = Options();
  options.cache_bytes = 32ull << 20;
  Rottnest client(&store, table.get(), options);
  AppendRows(table.get(), 0, 150);

  auto report = client.Index("body", IndexType::kFm);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().stats.bytes_read, 0u);

  auto cold = client.SearchSubstring("body", "token2", 300);
  ASSERT_TRUE(cold.ok());
  auto warm = client.SearchSubstring("body", "token2", 300);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(warm.value().stats.cache_hits, 0u);
  EXPECT_GT(cold.value().stats.cache_misses, 0u);

  ScrubOptions sopts;
  sopts.deep = true;
  auto scrubbed = client.Scrub(sopts);
  ASSERT_TRUE(scrubbed.ok());
  EXPECT_TRUE(scrubbed.value().clean());
  EXPECT_GT(scrubbed.value().stats.gets, 0u);
}

}  // namespace
}  // namespace rottnest::core
