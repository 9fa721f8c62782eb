// Round-depth regression tests for the cold query path: CountSubstring over
// files with deletion vectors opens every file HEAD-free and fans out across
// files, so its dependent-round depth does not grow with the file count;
// deletion vectors are read through the client cache, so a repeated search
// pays no DV GET; and every answer equals the brute-force engine's, also
// through a faulty, retrying store.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <utility>

#include "baseline/brute_force.h"
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
using objectstore::InMemoryObjectStore;
using objectstore::IoTrace;

constexpr uint32_t kDim = 16;
constexpr size_t kRowsPerFile = 100;

Schema MakeSchema() {
  Schema s;
  s.columns.push_back({"body", PhysicalType::kByteArray, 0});
  s.columns.push_back({"vec", PhysicalType::kFixedLenByteArray, kDim * 4});
  return s;
}

std::vector<float> VecFor(uint64_t id) {
  Random rng(id * 7 + 3);
  std::vector<float> v(kDim);
  uint64_t cluster = id % 8;
  for (uint32_t d = 0; d < kDim; ++d) {
    v[d] = static_cast<float>((cluster == d % 8 ? 50.0 : 0.0) +
                              rng.NextGaussian() * 0.1);
  }
  return v;
}

RottnestOptions Options() {
  RottnestOptions o;
  o.index_dir = "idx/t";
  o.fm.block_size = 2048;
  o.fm.sample_rate = 8;
  o.ivfpq.nlist = 16;
  o.ivfpq.num_subquantizers = 4;
  o.cache_bytes = 64ull << 20;
  // Heads uncached: every Head() through the client's read path then shows
  // up in cache()->stats().heads, so "zero HEADs" is observable.
  o.cache_heads = false;
  o.index_timeout_micros = 600LL * 1'000'000;
  return o;
}

/// A lake of `files` files of kRowsPerFile rows, every file indexed (FM,
/// keyword, IVF-PQ) and then given a deletion vector (every 5th row), so
/// counts take the scan path and every probe needs DVs.
struct World {
  World(objectstore::ObjectStore* store, size_t files) {
    format::WriterOptions w;
    w.target_page_bytes = 1024;  // Several byte-adjacent pages per file.
    w.target_row_group_bytes = 1 << 20;
    table = Table::Create(store, "lake/t", MakeSchema(), w).MoveValue();
    for (size_t f = 0; f < files; ++f) Append(f * kRowsPerFile);
    client = std::make_unique<Rottnest>(store, table.get(), Options());
    EXPECT_TRUE(client->Index("body", IndexType::kFm).ok());
    EXPECT_TRUE(client->Index("body", IndexType::kKeyword).ok());
    EXPECT_TRUE(client->Index("vec", IndexType::kIvfPq).ok());
    auto deleted = table->DeleteWhere(
        "body", [](const ColumnVector& col, size_t r) {
          const std::string& v = col.strings()[r];
          return std::stoull(v.substr(4)) % 5 == 0;  // "row <id> ...".
        });
    EXPECT_TRUE(deleted.ok()) << deleted.status().ToString();
  }

  void Append(uint64_t first_id) {
    RowBatch b;
    b.schema = MakeSchema();
    ColumnVector::Strings bodies;
    format::FlatFixed vecs;
    vecs.elem_size = kDim * 4;
    for (size_t i = 0; i < kRowsPerFile; ++i) {
      uint64_t id = first_id + i;
      bodies.push_back("row " + std::to_string(id) + " token" +
                       std::to_string(id % 7) + " payload");
      std::vector<float> v = VecFor(id);
      vecs.Append(
          Slice(reinterpret_cast<const uint8_t*>(v.data()), kDim * 4));
    }
    b.columns.emplace_back(std::move(bodies));
    b.columns.emplace_back(std::move(vecs));
    ASSERT_TRUE(table->Append(b).ok());
  }

  std::unique_ptr<Table> table;
  std::unique_ptr<Rottnest> client;
};

using Rows = std::set<std::pair<std::string, uint64_t>>;

Rows RowsOf(const std::vector<RowMatch>& matches) {
  Rows out;
  for (const RowMatch& m : matches) out.emplace(m.file, m.row);
  return out;
}

uint64_t Occurrences(const std::vector<RowMatch>& matches,
                     const std::string& pattern) {
  uint64_t n = 0;
  for (const RowMatch& m : matches) {
    for (size_t p = m.value.find(pattern); p != std::string::npos;
         p = m.value.find(pattern, p + 1)) {
      ++n;
    }
  }
  return n;
}

/// The brute-force engine scans every stored row; the oracle is its answer
/// restricted to rows live in the latest snapshot (in distance order for
/// vector answers, then cut to `k`).
std::vector<RowMatch> LiveOnly(Table* table, std::vector<RowMatch> matches,
                               size_t k) {
  auto snap = table->GetSnapshot();
  EXPECT_TRUE(snap.ok());
  std::vector<RowMatch> live;
  for (RowMatch& m : matches) {
    const lake::DataFile* f = snap.value().FindFile(m.file);
    if (f == nullptr) continue;
    lake::DeletionVector dv;
    EXPECT_TRUE(table->ReadDeletionVector(*f, &dv).ok());
    if (!dv.Contains(m.row)) live.push_back(std::move(m));
  }
  std::stable_sort(live.begin(), live.end(),
                   [](const RowMatch& a, const RowMatch& b) {
                     return a.distance < b.distance;
                   });
  if (live.size() > k) live.resize(k);
  return live;
}

/// Checks substring, keyword, vector and count answers against the
/// brute-force engine over the same store.
void ExpectMatchesBruteForce(objectstore::ObjectStore* store, World* w) {
  baseline::BruteForceEngine brute(store, w->table.get(), {});
  const size_t all = 1 << 20;
  for (const char* pattern : {"token3", "row 1", "payload"}) {
    auto scanned = brute.SearchSubstring("body", pattern, all);
    ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
    std::vector<RowMatch> expected =
        LiveOnly(w->table.get(), scanned.value().matches, all);
    ASSERT_FALSE(expected.empty());
    auto got = w->client->SearchSubstring("body", pattern, all);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_FALSE(got.value().partial);
    EXPECT_EQ(RowsOf(got.value().matches), RowsOf(expected)) << pattern;
    auto count = w->client->CountSubstring("body", pattern);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(count.value(), Occurrences(expected, pattern)) << pattern;
  }
  // Single-digit tokens: keyword "token3" selects exactly the rows whose
  // body contains the substring "token3".
  {
    auto scanned = brute.SearchSubstring("body", "token3", all);
    ASSERT_TRUE(scanned.ok());
    auto got = w->client->SearchKeyword("body", {"token3"}, all);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(RowsOf(got.value().matches),
              RowsOf(LiveOnly(w->table.get(), scanned.value().matches, all)));
  }
  // nprobe = nlist and refine past the row count make IVF-PQ exhaustive,
  // so the top-k must be the exact k-NN over live rows.
  for (uint64_t id : {5ULL, 42ULL}) {
    std::vector<float> q = VecFor(id);
    auto scanned = brute.SearchVector("vec", q.data(), kDim, all);
    ASSERT_TRUE(scanned.ok());
    SearchOptions vopts;
    vopts.params.vector = {/*nprobe=*/16, /*refine=*/100000};
    auto got = w->client->SearchVector("vec", q.data(), kDim, 10, vopts);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(RowsOf(got.value().matches),
              RowsOf(LiveOnly(w->table.get(), scanned.value().matches, 10)));
  }
}

TEST(ColdPathTest, CountOverFilesWithDvsIsHeadFreeAndFlatInDepth) {
  std::vector<size_t> depths;
  for (size_t files : {2u, 8u}) {
    SimulatedClock clock;
    InMemoryObjectStore store(&clock);
    World w(&store, files);
    ASSERT_FALSE(::testing::Test::HasFailure());
    const objectstore::IoStats& cache = w.client->cache()->stats();
    const uint64_t heads0 = cache.heads.load();
    const uint64_t gets0 = cache.gets.load();

    IoTrace trace;
    SearchOptions opts;
    opts.trace = &trace;
    auto count = w.client->CountSubstring("body", "payload", opts);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    // 100 rows per file, every 5th deleted, one "payload" per row.
    EXPECT_EQ(count.value(), files * kRowsPerFile * 4 / 5);

    EXPECT_EQ(cache.heads.load() - heads0, 0u) << files << " files";
    // Per file: the footer tail and the DV in one round, then the single
    // column chunk. Nothing else touches the read path.
    EXPECT_EQ(cache.gets.load() - gets0, 3 * files);
    EXPECT_EQ(trace.total_gets(), 3 * files);
    depths.push_back(trace.depth());
  }
  // Plan (2 metadata rounds) + footer/DV round + chunk round, at any width.
  EXPECT_EQ(depths[0], 4u);
  EXPECT_EQ(depths[1], depths[0]);
}

TEST(ColdPathTest, RepeatedSearchesIssueNoDeletionVectorGets) {
  SimulatedClock clock;
  InMemoryObjectStore store(&clock);
  std::atomic<uint64_t> dv_gets{0};
  store.SetFailurePoint([&](const std::string& op, const std::string& key) {
    if (op == "get" && key.find("/dv/") != std::string::npos) ++dv_gets;
    return Status::OK();
  });
  World w(&store, 4);
  ASSERT_FALSE(::testing::Test::HasFailure());

  std::vector<float> q = VecFor(9);
  auto run_all = [&] {
    ASSERT_TRUE(w.client->SearchSubstring("body", "token2", 1000).ok());
    ASSERT_TRUE(w.client->SearchKeyword("body", {"token4"}, 1000).ok());
    ASSERT_TRUE(w.client->SearchVector("vec", q.data(), kDim, 10).ok());
    ASSERT_TRUE(w.client->CountSubstring("body", "token1").ok());
  };
  const uint64_t before = dv_gets.load();
  run_all();
  // The first run reads each file's DV once, in the probe or scan wave.
  EXPECT_EQ(dv_gets.load() - before, 4u);
  const uint64_t after_first = dv_gets.load();
  run_all();
  EXPECT_EQ(dv_gets.load() - after_first, 0u);
}

TEST(ColdPathTest, AnswersMatchBruteForce) {
  SimulatedClock clock;
  InMemoryObjectStore store(&clock);
  World w(&store, 5);
  ASSERT_FALSE(::testing::Test::HasFailure());
  ExpectMatchesBruteForce(&store, &w);
}

TEST(ColdPathTest, AnswersMatchBruteForceUnderChaos) {
  SimulatedClock clock;
  InMemoryObjectStore inner(&clock);
  objectstore::FaultOptions fopts;
  fopts.seed = 20261017;
  fopts.transient_fault_rate = 0.1;
  fopts.ambiguous_put_rate = 0.1;
  fopts.base_latency_micros = 200;
  fopts.slow_read_rate = 0.05;
  fopts.slow_read_latency_micros = 20'000;
  objectstore::FaultInjectingStore faulty(&inner, fopts);
  faulty.SetSleeper(objectstore::SimulatedSleeper(&clock));
  objectstore::RetryPolicy policy;
  policy.initial_backoff_micros = 1000;
  policy.max_backoff_micros = 8000;
  objectstore::RetryingStore store(&faulty, policy,
                                   objectstore::SimulatedSleeper(&clock));
  World w(&store, 5);
  ASSERT_FALSE(::testing::Test::HasFailure());
  ExpectMatchesBruteForce(&store, &w);
  EXPECT_GT(faulty.fault_stats().transient_injected.load(), 0u);
  EXPECT_EQ(store.retry_stats().budget_exhausted.load(), 0u);
}

}  // namespace
}  // namespace rottnest::core
