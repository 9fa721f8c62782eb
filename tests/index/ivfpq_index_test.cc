#include "index/ivfpq/ivfpq_index.h"

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "index/ivfpq/kmeans.h"
#include "objectstore/object_store.h"

namespace rottnest::index {
namespace {

using objectstore::InMemoryObjectStore;
using objectstore::IoTrace;

TEST(KMeansTest, SeparatesObviousClusters) {
  // Three well-separated 2D blobs.
  Random rng(1);
  std::vector<float> data;
  std::vector<int> truth;
  const float centers[3][2] = {{0, 0}, {100, 0}, {0, 100}};
  for (int i = 0; i < 300; ++i) {
    int c = i % 3;
    truth.push_back(c);
    data.push_back(centers[c][0] + static_cast<float>(rng.NextGaussian()));
    data.push_back(centers[c][1] + static_cast<float>(rng.NextGaussian()));
  }
  auto result = TrainKMeans(data.data(), 300, 2, 3, 20, 7);
  ASSERT_TRUE(result.ok());
  const auto& r = result.value();
  ASSERT_EQ(r.k, 3u);
  // All members of a true cluster must share an assignment.
  for (int c = 0; c < 3; ++c) {
    uint32_t expected = r.assignments[c];
    for (int i = c; i < 300; i += 3) {
      EXPECT_EQ(r.assignments[i], expected) << i;
    }
  }
}

TEST(KMeansTest, ClampsKToN) {
  std::vector<float> data = {1, 2, 3, 4};  // 2 vectors of dim 2.
  auto result = TrainKMeans(data.data(), 2, 2, 10, 5, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().k, 2u);
}

TEST(KMeansTest, DeterministicForSeed) {
  Random rng(3);
  std::vector<float> data;
  for (int i = 0; i < 400; ++i) data.push_back(static_cast<float>(rng.NextGaussian()));
  auto a = TrainKMeans(data.data(), 100, 4, 8, 10, 42);
  auto b = TrainKMeans(data.data(), 100, 4, 8, 10, 42);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().centroids, b.value().centroids);
}

TEST(KMeansTest, NearestCentroidsOrdered) {
  std::vector<float> centroids = {0, 0, 10, 0, 20, 0};  // 3 x dim2
  float query[2] = {11, 0};
  auto nearest = NearestCentroids(centroids, 3, 2, query, 3);
  EXPECT_EQ(nearest, (std::vector<uint32_t>{1, 2, 0}));
}

// -- IVF-PQ -------------------------------------------------------------------

class IvfPqTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kDim = 32;

  SimulatedClock clock_;
  InMemoryObjectStore store_{&clock_};
  ThreadPool pool_{4};
  std::vector<float> vectors_;  // Row-major ground-truth store.

  // Generates clustered vectors and builds an index; vector i lives at
  // page i / 100, row i % 100.
  void BuildIndex(const std::string& key, size_t n, uint64_t seed,
                  IvfPqOptions options = DefaultOptions()) {
    Random rng(seed);
    vectors_.clear();
    vectors_.reserve(n * kDim);
    // Mixture of 16 Gaussian clusters (SIFT-like clustered structure).
    std::vector<float> centers(16 * kDim);
    for (auto& c : centers) c = static_cast<float>(rng.NextGaussian() * 20);
    for (size_t i = 0; i < n; ++i) {
      size_t c = rng.Uniform(16);
      for (uint32_t d = 0; d < kDim; ++d) {
        vectors_.push_back(centers[c * kDim + d] +
                           static_cast<float>(rng.NextGaussian()));
      }
    }
    IvfPqIndexBuilder builder("vec", kDim, options);
    for (size_t i = 0; i < n; ++i) {
      builder.Add(vectors_.data() + i * kDim,
                  static_cast<format::PageId>(i / 100),
                  static_cast<uint32_t>(i % 100));
    }
    format::PageTable table = MakePageTable((n + 99) / 100);
    Buffer file;
    ASSERT_TRUE(builder.Finish(table, &file).ok());
    ASSERT_TRUE(store_.Put(key, Slice(file)).ok());
  }

  static IvfPqOptions DefaultOptions() {
    IvfPqOptions o;
    o.nlist = 32;
    o.num_subquantizers = 8;
    return o;
  }

  static format::PageTable MakePageTable(size_t pages) {
    format::FileMeta meta;
    meta.schema.columns.push_back(
        {"vec", format::PhysicalType::kFixedLenByteArray, kDim * 4});
    format::RowGroupMeta rg;
    format::ColumnChunkMeta cc;
    for (size_t p = 0; p < pages; ++p) {
      format::PageMeta pm;
      pm.offset = p * 10000;
      pm.size = 10000;
      pm.num_values = 100;
      pm.first_row = p * 100;
      cc.pages.push_back(pm);
    }
    rg.columns.push_back(cc);
    rg.num_rows = pages * 100;
    meta.row_groups.push_back(rg);
    format::PageTable table;
    table.AddFile("data/v.lake", meta, 0);
    return table;
  }

  // Exact k-NN over the ground-truth store.
  std::vector<size_t> ExactKnn(const float* query, size_t k) const {
    size_t n = vectors_.size() / kDim;
    std::vector<std::pair<float, size_t>> dists(n);
    for (size_t i = 0; i < n; ++i) {
      dists[i] = {SquaredL2(query, vectors_.data() + i * kDim, kDim), i};
    }
    std::partial_sort(dists.begin(), dists.begin() + k, dists.end());
    std::vector<size_t> ids(k);
    for (size_t i = 0; i < k; ++i) ids[i] = dists[i].second;
    return ids;
  }

  // Recall@k of candidate set vs exact, matching on (page,row) identity.
  double RecallAtK(const std::vector<VectorCandidate>& got,
                   const std::vector<size_t>& exact, size_t k) const {
    std::set<std::pair<format::PageId, uint32_t>> got_set;
    for (const auto& c : got) got_set.insert({c.page, c.row_in_page});
    size_t hits = 0;
    for (size_t i = 0; i < k; ++i) {
      auto key = std::make_pair(static_cast<format::PageId>(exact[i] / 100),
                                static_cast<uint32_t>(exact[i] % 100));
      if (got_set.count(key)) ++hits;
    }
    return static_cast<double>(hits) / k;
  }
};

TEST_F(IvfPqTest, HighNprobeAchievesHighRecall) {
  BuildIndex("idx/v.index", 3000, 11);
  auto reader =
      ComponentFileReader::Open(&store_, "idx/v.index", nullptr).MoveValue();
  Random rng(77);
  double total_recall = 0;
  const int kQueries = 20;
  for (int q = 0; q < kQueries; ++q) {
    size_t pick = rng.Uniform(3000);
    std::vector<float> query(vectors_.begin() + pick * kDim,
                             vectors_.begin() + (pick + 1) * kDim);
    for (auto& v : query) v += static_cast<float>(rng.NextGaussian() * 0.1);
    auto exact = ExactKnn(query.data(), 10);
    std::vector<VectorCandidate> got;
    ASSERT_TRUE(IvfPqSearch(reader.get(), &pool_, nullptr, query.data(), kDim,
                            /*nprobe=*/32, /*max_candidates=*/100, &got)
                    .ok());
    total_recall += RecallAtK(got, exact, 10);
  }
  // Probing every list with generous candidates: near-exhaustive.
  EXPECT_GT(total_recall / kQueries, 0.9);
}

TEST_F(IvfPqTest, RecallImprovesWithNprobe) {
  BuildIndex("idx/v.index", 3000, 13);
  auto reader =
      ComponentFileReader::Open(&store_, "idx/v.index", nullptr).MoveValue();
  Random rng(88);
  double recall_low = 0, recall_high = 0;
  const int kQueries = 25;
  for (int q = 0; q < kQueries; ++q) {
    size_t pick = rng.Uniform(3000);
    std::vector<float> query(vectors_.begin() + pick * kDim,
                             vectors_.begin() + (pick + 1) * kDim);
    for (auto& v : query) v += static_cast<float>(rng.NextGaussian() * 0.5);
    auto exact = ExactKnn(query.data(), 10);
    std::vector<VectorCandidate> got;
    ASSERT_TRUE(IvfPqSearch(reader.get(), &pool_, nullptr, query.data(), kDim,
                            1, 50, &got)
                    .ok());
    recall_low += RecallAtK(got, exact, 10);
    ASSERT_TRUE(IvfPqSearch(reader.get(), &pool_, nullptr, query.data(), kDim,
                            16, 50, &got)
                    .ok());
    recall_high += RecallAtK(got, exact, 10);
  }
  EXPECT_GT(recall_high, recall_low);
}

TEST_F(IvfPqTest, SearchIsTwoRounds) {
  BuildIndex("idx/v.index", 2000, 5);
  IoTrace trace;
  auto reader =
      ComponentFileReader::Open(&store_, "idx/v.index", &trace).MoveValue();
  std::vector<float> query(vectors_.begin(), vectors_.begin() + kDim);
  std::vector<VectorCandidate> got;
  ASSERT_TRUE(IvfPqSearch(reader.get(), &pool_, &trace, query.data(), kDim, 8,
                          50, &got)
                  .ok());
  // Tail read (meta+centroids+codebooks) + one parallel round of lists.
  EXPECT_LE(trace.depth(), 2u);
  EXPECT_FALSE(got.empty());
}

TEST_F(IvfPqTest, CandidatesSortedByApproxDistance) {
  BuildIndex("idx/v.index", 1000, 3);
  auto reader =
      ComponentFileReader::Open(&store_, "idx/v.index", nullptr).MoveValue();
  std::vector<float> query(vectors_.begin(), vectors_.begin() + kDim);
  std::vector<VectorCandidate> got;
  ASSERT_TRUE(IvfPqSearch(reader.get(), &pool_, nullptr, query.data(), kDim,
                          16, 30, &got)
                  .ok());
  ASSERT_GT(got.size(), 1u);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LE(got[i - 1].approx_dist, got[i].approx_dist);
  }
  EXPECT_LE(got.size(), 30u);
}

TEST_F(IvfPqTest, DimensionMismatchRejected) {
  BuildIndex("idx/v.index", 500, 9);
  auto reader =
      ComponentFileReader::Open(&store_, "idx/v.index", nullptr).MoveValue();
  std::vector<float> query(64, 0.0f);
  std::vector<VectorCandidate> got;
  EXPECT_TRUE(IvfPqSearch(reader.get(), &pool_, nullptr, query.data(), 64, 4,
                          10, &got)
                  .IsInvalidArgument());
}

TEST_F(IvfPqTest, EmptyBuilderRejected) {
  IvfPqIndexBuilder builder("vec", kDim, DefaultOptions());
  Buffer out;
  EXPECT_TRUE(builder.Finish(format::PageTable{}, &out).IsInvalidArgument());
}

TEST_F(IvfPqTest, BadSubquantizerGeometryRejected) {
  IvfPqOptions options;
  options.num_subquantizers = 5;  // 32 % 5 != 0
  IvfPqIndexBuilder builder("vec", kDim, options);
  std::vector<float> v(kDim, 1.0f);
  builder.Add(v.data(), 0, 0);
  Buffer out;
  EXPECT_TRUE(builder.Finish(format::PageTable{}, &out).IsInvalidArgument());
}

TEST_F(IvfPqTest, MergePreservesSearchability) {
  BuildIndex("idx/a.index", 1500, 21);
  std::vector<float> vectors_a = vectors_;
  BuildIndex("idx/b.index", 1500, 22);
  std::vector<float> vectors_b = vectors_;

  auto ra =
      ComponentFileReader::Open(&store_, "idx/a.index", nullptr).MoveValue();
  auto rb =
      ComponentFileReader::Open(&store_, "idx/b.index", nullptr).MoveValue();
  Buffer merged;
  ASSERT_TRUE(
      IvfPqMerge({ra.get(), rb.get()}, &pool_, nullptr, "vec", &merged).ok());
  ASSERT_TRUE(store_.Put("idx/m.index", Slice(merged)).ok());
  auto rm =
      ComponentFileReader::Open(&store_, "idx/m.index", nullptr).MoveValue();

  // A query near a vector from input B must find its (remapped) location.
  // B's pages were absorbed after A's 15 pages.
  Random rng(5);
  int found = 0;
  const int kQueries = 15;
  for (int q = 0; q < kQueries; ++q) {
    size_t pick = rng.Uniform(1500);
    std::vector<float> query(vectors_b.begin() + pick * kDim,
                             vectors_b.begin() + (pick + 1) * kDim);
    std::vector<VectorCandidate> got;
    ASSERT_TRUE(IvfPqSearch(rm.get(), &pool_, nullptr, query.data(), kDim, 32,
                            50, &got)
                    .ok());
    format::PageId expect_page =
        static_cast<format::PageId>(pick / 100) + 15;
    uint32_t expect_row = static_cast<uint32_t>(pick % 100);
    for (const auto& c : got) {
      if (c.page == expect_page && c.row_in_page == expect_row) {
        ++found;
        break;
      }
    }
  }
  // Double quantization loses a little recall; the exact vector itself
  // should still surface nearly always with full probing.
  EXPECT_GE(found, kQueries - 3);

  // Merged page table spans both inputs.
  format::PageTable table;
  Slice table_buf;
  ASSERT_TRUE(
      rm->ReadComponent("pagetable", &pool_, nullptr, &table_buf).ok());
  Decoder dec{table_buf};
  ASSERT_TRUE(format::PageTable::Deserialize(&dec, &table).ok());
  EXPECT_EQ(table.num_files(), 2u);
  EXPECT_EQ(table.num_pages(), 30u);
}

}  // namespace
}  // namespace rottnest::index
