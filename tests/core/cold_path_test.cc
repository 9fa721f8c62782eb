// Round-depth regression tests for the cold query path: CountSubstring over
// files with deletion vectors opens every file HEAD-free and fans out across
// files, so its dependent-round depth does not grow with the file count;
// deletion vectors are read through the client cache, so a repeated search
// pays no DV GET; every query kind makes a pinned number of physical
// requests; and every answer equals the brute-force engine's, also through a
// faulty, retrying store.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <regex>
#include <set>
#include <utility>

#include "baseline/brute_force.h"
#include "common/random.h"
#include "core/rottnest.h"
#include "objectstore/fault_injection.h"
#include "objectstore/object_store.h"
#include "objectstore/read_batch.h"
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

/// Appends one data file holding `bodies`; row i's vector is
/// VecFor(first_id + i).
void AppendFile(Table* table, ColumnVector::Strings bodies,
                uint64_t first_id) {
  RowBatch b;
  b.schema = MakeSchema();
  format::FlatFixed vecs;
  vecs.elem_size = kDim * 4;
  for (size_t i = 0; i < bodies.size(); ++i) {
    std::vector<float> v = VecFor(first_id + i);
    vecs.Append(Slice(reinterpret_cast<const uint8_t*>(v.data()), kDim * 4));
  }
  b.columns.emplace_back(std::move(bodies));
  b.columns.emplace_back(std::move(vecs));
  ASSERT_TRUE(table->Append(b).ok());
}

format::WriterOptions SmallPages() {
  format::WriterOptions w;
  w.target_page_bytes = 1024;  // Several byte-adjacent pages per file.
  w.target_row_group_bytes = 1 << 20;
  return w;
}

/// A lake of `files` files of kRowsPerFile rows, every file indexed (trie,
/// FM, keyword, IVF-PQ) and then given a deletion vector (every 5th row), so
/// counts take the scan path and every probe needs DVs.
struct World {
  World(objectstore::ObjectStore* store, size_t files) {
    table = Table::Create(store, "lake/t", MakeSchema(), SmallPages())
                .MoveValue();
    for (size_t f = 0; f < files; ++f) Append(f * kRowsPerFile);
    client = std::make_unique<Rottnest>(store, table.get(), Options());
    EXPECT_TRUE(client->Index("body", IndexType::kTrie).ok());
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
    ColumnVector::Strings bodies;
    for (size_t i = 0; i < kRowsPerFile; ++i) {
      uint64_t id = first_id + i;
      bodies.push_back("row " + std::to_string(id) + " token" +
                       std::to_string(id % 7) + " payload");
    }
    AppendFile(table.get(), std::move(bodies), first_id);
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

/// The live rows of `table` whose `body` satisfies `pred`: the brute-force
/// engine's every row (the empty substring), filtered.
std::vector<RowMatch> LiveRowsWhere(
    baseline::BruteForceEngine* brute, Table* table,
    const std::function<bool(const std::string&)>& pred) {
  const size_t all = 1 << 20;
  auto every = brute->SearchSubstring("body", "", all);
  EXPECT_TRUE(every.ok()) << every.status().ToString();
  if (!every.ok()) return {};
  std::vector<RowMatch> hits;
  for (RowMatch& m : every.value().matches) {
    if (pred(m.value)) hits.push_back(std::move(m));
  }
  return LiveOnly(table, std::move(hits), all);
}

std::vector<RowMatch> RegexOracle(baseline::BruteForceEngine* brute,
                                  Table* table, const std::string& pattern) {
  const std::regex re(pattern, std::regex::ECMAScript);
  return LiveRowsWhere(brute, table, [&](const std::string& v) {
    return std::regex_search(v, re);
  });
}

/// Checks uuid, substring, regex, keyword, vector and count answers against
/// the brute-force engine over the same store.
void ExpectMatchesBruteForce(objectstore::ObjectStore* store, World* w) {
  baseline::BruteForceEngine brute(store, w->table.get(), {});
  const size_t all = 1 << 20;
  // Exact lookups through the trie; row 10 is deleted, so its lookup must
  // come back empty. (BruteForceEngine::SearchUuid reads fixed-length
  // columns only, so the oracle filters every row instead.)
  for (uint64_t id : {7ULL, 10ULL, 333ULL}) {
    const std::string value = "row " + std::to_string(id) + " token" +
                              std::to_string(id % 7) + " payload";
    auto got = w->client->SearchUuid("body", Slice(value), all);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_FALSE(got.value().partial);
    EXPECT_EQ(RowsOf(got.value().matches),
              RowsOf(LiveRowsWhere(&brute, w->table.get(),
                                   [&](const std::string& v) {
                                     return v == value;
                                   })))
        << value;
  }
  // Regexes with a literal the FM index locates, and one without (a scan).
  for (const char* pattern : {"token4 pay[a-z]+", "row 1\\d7 ", "\\d\\d7\\s"}) {
    std::vector<RowMatch> expected =
        RegexOracle(&brute, w->table.get(), pattern);
    ASSERT_FALSE(expected.empty()) << pattern;
    auto got = w->client->SearchRegex("body", pattern, all);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_FALSE(got.value().partial);
    EXPECT_EQ(RowsOf(got.value().matches), RowsOf(expected)) << pattern;
  }
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

// A wave's requests stay in flight together whatever the compute pool's
// size: the client's I/O executor is sized by requests in flight, not by
// num_threads. Each GET below is held until 16 are in flight at once; an
// executor of num_threads threads reaches 3 (two threads plus the caller)
// and gives up after the timeout instead of hanging.
TEST(ColdPathTest, WaveKeepsSixteenRequestsInFlightAtTwoComputeThreads) {
  constexpr size_t kWidth = 16;
  SimulatedClock clock;
  InMemoryObjectStore memory(&clock);
  objectstore::FaultOptions latency;
  latency.base_latency_micros = 1000;
  objectstore::FaultInjectingStore store(&memory, latency);
  std::mutex mu;
  std::condition_variable cv;
  size_t in_flight = 0, peak = 0;
  bool released = false;
  store.SetSleeper([&](Micros) {
    std::unique_lock<std::mutex> lock(mu);
    peak = std::max(peak, ++in_flight);
    released = released || in_flight >= kWidth;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(2), [&] { return released; });
    released = true;  // After a timeout, let the rest through at once.
    --in_flight;
  });

  auto table = Table::Create(&memory, "lake/w", MakeSchema()).MoveValue();
  RottnestOptions options = Options();
  options.num_threads = 2;
  Rottnest client(&store, table.get(), options);
  std::vector<objectstore::RangeRequest> requests;
  for (size_t i = 0; i < kWidth + 4; ++i) {
    const std::string key = "obj/" + std::to_string(i);
    ASSERT_TRUE(memory.Put(key, Slice(key)).ok());
    requests.push_back({key, 0, 0});
  }
  std::vector<Buffer> results;
  ASSERT_TRUE(objectstore::ReadBatch(&store, requests, client.io_executor(),
                                     nullptr, &results)
                  .ok());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(Slice(results[i]).ToString(), requests[i].key);
  }
  EXPECT_GE(peak, kWidth);
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

// Pins the physical GETs, HEADs and LISTs (below the client cache) of one
// query of each kind, run in this order on one client, over a lake with
// deletion vectors, a file covered only by a corrupt FM index and a file no
// index covers. The counts follow from the query plan alone, so a change
// to how the search path is written must leave every one of them as is.
TEST(ColdPathTest, PerKindRequestCountsArePinned) {
  SimulatedClock clock;
  InMemoryObjectStore store(&clock);
  std::atomic<uint64_t> gets{0}, heads{0}, lists{0};
  store.SetFailurePoint([&](const std::string& op, const std::string&) {
    if (op == "get") ++gets;
    if (op == "head") ++heads;
    if (op == "list") ++lists;
    return Status::OK();
  });
  World w(&store, 4);
  ASSERT_FALSE(::testing::Test::HasFailure());
  // File 4 gets an FM index of its own, which is then corrupted; file 5 is
  // covered by no index.
  w.Append(4 * kRowsPerFile);
  ASSERT_TRUE(w.client->Index("body", IndexType::kFm).ok());
  w.Append(5 * kRowsPerFile);
  auto entries = w.client->metadata().ReadAll();
  ASSERT_TRUE(entries.ok());
  std::string corrupt;
  for (const lake::IndexEntry& e : entries.value()) {
    if (e.index_type == "fm" && e.covered_files.size() == 1) {
      corrupt = e.index_path;
    }
  }
  ASSERT_FALSE(corrupt.empty());
  Buffer image;
  ASSERT_TRUE(store.Get(corrupt, &image).ok());
  image[image.size() / 3] ^= 0xff;
  ASSERT_TRUE(store.Put(corrupt, Slice(image)).ok());

  // Warm the client's metadata state: every query below is then a
  // steady-state plan, whose only metadata requests are the two tail HEADs
  // of each log (no pointer, checkpoint or entry GET).
  Rottnest* c = w.client.get();
  ASSERT_TRUE(c->ResolveMetadata().ok());

  using Requests = std::array<uint64_t, 3>;  // GETs, HEADs, LISTs.
  auto measure = [&](const std::function<Status()>& query) -> Requests {
    const Requests before = {gets.load(), heads.load(), lists.load()};
    Status s = query();
    EXPECT_TRUE(s.ok()) << s.ToString();
    return {gets.load() - before[0], heads.load() - before[1],
            lists.load() - before[2]};
  };
  std::vector<float> q = VecFor(9);
  SearchOptions exhaustive;
  exhaustive.params.vector = {/*nprobe=*/16, /*refine=*/100000};
  const std::string uuid = "row 7 token0 payload";
  // Data file names are random, so the plan's file order differs between
  // runs. Each query below therefore reaches a fixed set of pages and
  // files whatever that order: every FM occurrence fits under the locate
  // cap, the vector search is exhaustive, and a scan that stops at k either
  // always stops before the unindexed file or never stops early.
  EXPECT_EQ(measure([&] {
              return c->SearchUuid("body", Slice(uuid), 10).status();
            }),
            (Requests{7, 5, 0}))
      << "uuid";
  EXPECT_EQ(measure([&] {
              return c->SearchSubstring("body", "7 token0", 5).status();
            }),
            (Requests{10, 6, 0}))
      << "substring";
  EXPECT_EQ(measure([&] {
              return c->SearchKeyword("body", {"token2"}, 10).status();
            }),
            (Requests{7, 5, 0}))
      << "keyword";
  EXPECT_EQ(measure([&] {
              return c->SearchRegex("body", "token4 pay[a-z]+", 5).status();
            }),
            (Requests{1, 6, 0}))
      << "literal regex";
  EXPECT_EQ(measure([&] {
              return c->SearchRegex("body", "\\d\\d7\\s", 1000).status();
            }),
            (Requests{8, 4, 0}))
      << "literal-free regex";
  EXPECT_EQ(measure([&] {
              return c->SearchVector("vec", q.data(), kDim, 5, exhaustive)
                  .status();
            }),
            (Requests{7, 5, 0}))
      << "vector";
  EXPECT_EQ(measure([&] {
              return c->CountSubstring("body", "token1").status();
            }),
            (Requests{1, 5, 0}))
      << "count";
}

// A regex's FM prefilter literal must be a substring of every match. Text
// inside a group (optional, repeated, non-capturing or a lookahead) or a
// character class is not, and neither are the operand digits of a \\x or
// \\u escape; locating such text through the index would silently drop
// matching rows.
TEST(ColdPathTest, RegexPrefilterLiteralsAreRequiredByEveryMatch) {
  SimulatedClock clock;
  InMemoryObjectStore store(&clock);
  auto table =
      Table::Create(&store, "lake/t", MakeSchema(), SmallPages()).MoveValue();
  const std::vector<std::string> kinds = {
      "abcdxy",    "plain xy here", "ab only",   "abcdefcdef", "x yz",
      "xyz",       "xhellohelloyz", "errorcode", "code alone", "defg",
      "abcdefg",   "ABCD",          "41BCD",     "Axyz",       "0041xyz",
      "cdrom"};
  for (uint64_t f = 0; f < 2; ++f) {
    ColumnVector::Strings bodies;
    for (size_t i = 0; i < 8 * kinds.size(); ++i) {
      bodies.push_back(kinds[i % kinds.size()] + " r" + std::to_string(i));
    }
    AppendFile(table.get(), std::move(bodies), f * 1000);
  }
  Rottnest client(&store, table.get(), Options());
  ASSERT_TRUE(client.Index("body", IndexType::kFm).ok());
  auto deleted = table->DeleteWhere(
      "body", [](const ColumnVector& col, size_t r) {
        const std::string& v = col.strings()[r];
        return std::stoull(v.substr(v.rfind(" r") + 2)) % 4 == 0;
      });
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();

  baseline::BruteForceEngine brute(&store, table.get(), {});
  for (const char* pattern :
       {"(abcd)?xy", "ab(cdef)*", "x(hello){0,2}yz", "(?:error)code",
        "(?!abc)defg", "\\x41BCD", "\\u0041xyz", "[\\]abc]d"}) {
    std::vector<RowMatch> expected =
        RegexOracle(&brute, table.get(), pattern);
    ASSERT_FALSE(expected.empty()) << pattern;
    auto got = client.SearchRegex("body", pattern, 1 << 20);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_FALSE(got.value().partial);
    EXPECT_EQ(RowsOf(got.value().matches), RowsOf(expected)) << pattern;
  }
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
