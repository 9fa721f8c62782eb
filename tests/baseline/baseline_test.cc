#include <gtest/gtest.h>

#include "baseline/brute_force.h"
#include "workload/generators.h"

namespace rottnest::baseline {
namespace {

using objectstore::InMemoryObjectStore;
using workload::DatasetSpec;
using workload::TextGenerator;
using workload::UuidGenerator;
using workload::VectorGenerator;

class BaselineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_.total_rows = 2000;
    spec_.num_files = 4;
    spec_.doc_chars = 120;
    spec_.vector_dim = 16;
    format::WriterOptions w;
    w.target_page_bytes = 4 << 10;
    w.target_row_group_bytes = 64 << 10;
    table_ = workload::BuildDataset(&store_, "lake/b", spec_, w).MoveValue();
  }

  SimulatedClock clock_;
  InMemoryObjectStore store_{&clock_};
  DatasetSpec spec_;
  std::unique_ptr<lake::Table> table_;
};

TEST_F(BaselineTest, BruteForceUuidFindsExactRow) {
  UuidGenerator ids(spec_.seed, spec_.uuid_bytes);
  BruteForceEngine engine(&store_, table_.get(), BruteForceOptions{});
  std::string target = ids.IdFor(777);
  auto result = engine.SearchUuid("uuid", Slice(target), 10);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().matches.size(), 1u);
  EXPECT_EQ(result.value().matches[0].value, target);
  EXPECT_GT(result.value().bytes_scanned, 0u);
  EXPECT_GT(result.value().projected_latency_s, 0.0);
}

// The scan finds exactly the rows the dataset generator wrote that hold
// the pattern: BuildDataset draws one document per row, in row order, from
// a TextGenerator seeded with the spec's seed.
TEST_F(BaselineTest, BruteForceSubstringMatchesGeneratedRows) {
  TextGenerator sampler(spec_.seed);
  std::string pattern = sampler.SamplePattern(1);
  TextGenerator text(spec_.seed);
  size_t expected = 0;
  for (uint64_t row = 0; row < spec_.total_rows; ++row) {
    if (text.Document(spec_.doc_chars).find(pattern) != std::string::npos) {
      ++expected;
    }
  }
  ASSERT_GT(expected, 0u);

  BruteForceEngine engine(&store_, table_.get(), BruteForceOptions{});
  auto bf = engine.SearchSubstring("body", pattern, 1000000);
  ASSERT_TRUE(bf.ok()) << bf.status().ToString();
  EXPECT_EQ(bf.value().matches.size(), expected);
}

TEST_F(BaselineTest, BruteForceVectorIsExactKnn) {
  VectorGenerator vecs(spec_.seed, spec_.vector_dim);
  BruteForceEngine engine(&store_, table_.get(), BruteForceOptions{});
  std::vector<float> q = vecs.VectorFor(99);  // Exact stored vector.
  auto result = engine.SearchVector("vec", q.data(), spec_.vector_dim, 5);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().matches.size(), 5u);
  EXPECT_NEAR(result.value().matches[0].distance, 0.0, 1e-3);
  for (size_t i = 1; i < 5; ++i) {
    EXPECT_LE(result.value().matches[i - 1].distance,
              result.value().matches[i].distance);
  }
}

TEST_F(BaselineTest, LatencyProjectionImprovesThenSaturates) {
  // Fig 8a shape: near-linear speedup at small W, flattening once W
  // approaches the number of chunks.
  UuidGenerator ids(spec_.seed, spec_.uuid_bytes);
  std::string target = ids.IdFor(3);

  auto latency_at = [&](size_t workers) {
    BruteForceOptions options;
    options.workers = workers;
    // Overheads and per-worker parallelism scaled down to match this
    // test's miniature dataset (defaults are calibrated for bench-scale
    // workloads where chunks far outnumber streams).
    options.coordination_overhead_s = 0.02;
    options.per_worker_overhead_s = 0.0005;
    options.streams_per_worker = 1;
    BruteForceEngine engine(&store_, table_.get(), options);
    auto r = engine.SearchUuid("uuid", Slice(target), 1);
    EXPECT_TRUE(r.ok());
    return r.value().projected_latency_s;
  };
  double l1 = latency_at(1);
  double l4 = latency_at(4);
  double l64 = latency_at(64);
  double l128 = latency_at(128);
  EXPECT_GT(l1 / l4, 1.5);           // Early scaling is strong.
  EXPECT_LT(l64 / l128, 1.35);       // Late scaling has collapsed.
  EXPECT_LT(l64, l4);
}

TEST(WorkloadTest, GeneratorsAreDeterministic) {
  TextGenerator a(7), b(7);
  EXPECT_EQ(a.Document(200), b.Document(200));
  UuidGenerator u1(9), u2(9);
  EXPECT_EQ(u1.IdFor(5), u2.IdFor(5));
  EXPECT_NE(u1.IdFor(5), u1.IdFor(6));
  VectorGenerator v1(3, 16), v2(3, 16);
  EXPECT_EQ(v1.VectorFor(10), v2.VectorFor(10));
}

TEST(WorkloadTest, UuidBytesConfigurable) {
  UuidGenerator u(1, 128);
  EXPECT_EQ(u.IdFor(0).size(), 128u);
  UuidGenerator u16(1, 16);
  EXPECT_EQ(u16.IdFor(0).size(), 16u);
}

TEST(WorkloadTest, TextPatternsOccurInDocuments) {
  TextGenerator gen(5);
  std::string corpus;
  for (int i = 0; i < 50; ++i) corpus += gen.Document(500);
  TextGenerator sampler(5);
  int found = 0;
  for (int i = 0; i < 10; ++i) {
    if (corpus.find(sampler.SamplePattern(1)) != std::string::npos) ++found;
  }
  EXPECT_GE(found, 7);  // Mid-frequency single words mostly occur.
  EXPECT_EQ(corpus.find(sampler.MissingPattern()), std::string::npos);
}

TEST(WorkloadTest, DatasetBuildsWithRequestedShape) {
  SimulatedClock clock;
  InMemoryObjectStore store(&clock);
  DatasetSpec spec;
  spec.total_rows = 503;  // Deliberately not divisible by files.
  spec.num_files = 5;
  spec.doc_chars = 50;
  spec.vector_dim = 8;
  auto table = workload::BuildDataset(&store, "lake/w", spec).MoveValue();
  auto snap = table->GetSnapshot().MoveValue();
  EXPECT_EQ(snap.files.size(), 5u);
  EXPECT_EQ(snap.TotalRows(), 503u);
}

}  // namespace
}  // namespace rottnest::baseline
