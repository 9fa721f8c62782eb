// End-to-end tests of the Rottnest client: index + search across all three
// index types against a live data lake, including snapshot filtering,
// deletion vectors, and unindexed-file fallback.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/rottnest.h"
#include "index/ivfpq/kmeans.h"
#include "objectstore/object_store.h"

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

Schema MakeSchema() {
  Schema s;
  s.columns.push_back({"uuid", PhysicalType::kFixedLenByteArray, 16});
  s.columns.push_back({"body", PhysicalType::kByteArray, 0});
  s.columns.push_back({"vec", PhysicalType::kFixedLenByteArray, kDim * 4});
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

class RottnestSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = Table::Create(&store_, "lake/t", MakeSchema(), WriterOpts())
                 .MoveValue();
    RottnestOptions options;
    options.index_dir = "idx/t";
    options.ivfpq.nlist = 16;
    options.ivfpq.num_subquantizers = 4;
    options.fm.block_size = 2048;
    options.fm.sample_rate = 8;
    client_ = std::make_unique<Rottnest>(&store_, table_.get(), options);
  }

  static format::WriterOptions WriterOpts() {
    format::WriterOptions w;
    w.target_page_bytes = 2048;       // Many small pages.
    w.target_row_group_bytes = 32 << 10;
    return w;
  }

  // Appends `rows` rows with ids [first_id, first_id + rows).
  void Append(uint64_t first_id, size_t rows) {
    Random rng(first_id + 1);
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
      vecs.Append(Slice(reinterpret_cast<const uint8_t*>(v.data()),
                        kDim * 4));
    }
    b.columns.emplace_back(std::move(uuids));
    b.columns.emplace_back(std::move(bodies));
    b.columns.emplace_back(std::move(vecs));
    ASSERT_TRUE(table_->Append(b).ok());
  }

  static std::vector<float> VecFor(uint64_t id) {
    Random rng(id * 7 + 3);
    std::vector<float> v(kDim);
    // 8 well-separated cluster centers + small jitter.
    uint64_t cluster = id % 8;
    for (uint32_t d = 0; d < kDim; ++d) {
      v[d] = static_cast<float>((cluster == d % 8 ? 50.0 : 0.0) +
                                rng.NextGaussian() * 0.1);
    }
    return v;
  }

  SimulatedClock clock_;
  InMemoryObjectStore store_{&clock_};
  std::unique_ptr<Table> table_;
  std::unique_ptr<Rottnest> client_;
};

TEST_F(RottnestSearchTest, IndexThenUuidSearch) {
  Append(0, 500);
  Append(500, 500);
  auto report = client_->Index("uuid", IndexType::kTrie);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().covered_files.size(), 2u);
  EXPECT_EQ(report.value().rows, 1000u);

  for (uint64_t id : {0ULL, 123ULL, 999ULL}) {
    std::string u = UuidFor(id);
    auto result = client_->SearchUuid("uuid", Slice(u), 10);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result.value().matches.size(), 1u) << id;
    EXPECT_EQ(result.value().matches[0].value, u);
    EXPECT_EQ(result.value().files_scanned, 0u);  // Fully indexed.
  }
  // Missing key: nothing (and no brute-force panic since index is
  // exhaustive for these files — fallback scan may still run; allow it).
  std::string ghost = UuidFor(123456789);
  auto result = client_->SearchUuid("uuid", Slice(ghost), 10);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().matches.empty());
}

TEST_F(RottnestSearchTest, IndexIsIncremental) {
  Append(0, 300);
  auto r1 = client_->Index("uuid", IndexType::kTrie);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().covered_files.size(), 1u);

  Append(300, 300);
  auto r2 = client_->Index("uuid", IndexType::kTrie);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().covered_files.size(), 1u);  // Only the new file.
  EXPECT_NE(r2.value().index_path, r1.value().index_path);

  auto r3 = client_->Index("uuid", IndexType::kTrie);
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(r3.value().index_path.empty());  // Nothing new.

  // Both ranges searchable.
  auto a = client_->SearchUuid("uuid", Slice(UuidFor(10)), 5);
  auto b = client_->SearchUuid("uuid", Slice(UuidFor(599)), 5);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().matches.size(), 1u);
  EXPECT_EQ(b.value().matches.size(), 1u);
  EXPECT_EQ(a.value().indexes_queried, 2u);
}

TEST_F(RottnestSearchTest, UnindexedFilesFallBackToScan) {
  Append(0, 300);
  ASSERT_TRUE(client_->Index("uuid", IndexType::kTrie).ok());
  Append(300, 300);  // Not indexed.

  auto result = client_->SearchUuid("uuid", Slice(UuidFor(450)), 5);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().matches.size(), 1u);
  EXPECT_EQ(result.value().files_scanned, 1u);  // Scanned the fresh file.
}

TEST_F(RottnestSearchTest, ExactTopKSkipsScanWhenSatisfied) {
  Append(0, 300);
  ASSERT_TRUE(client_->Index("uuid", IndexType::kTrie).ok());
  Append(300, 300);  // Unindexed.

  // Key 10 is in the indexed file; k=1 is satisfied by the index, so the
  // unindexed file must NOT be scanned (paper §IV-B step 3).
  auto result = client_->SearchUuid("uuid", Slice(UuidFor(10)), 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().matches.size(), 1u);
  EXPECT_EQ(result.value().files_scanned, 0u);
}

TEST_F(RottnestSearchTest, SubstringSearchEndToEnd) {
  Append(0, 400);
  ASSERT_TRUE(client_->Index("body", IndexType::kFm).ok());

  auto result = client_->SearchSubstring("body", "row 123 ", 10);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().matches.size(), 1u);
  EXPECT_NE(result.value().matches[0].value.find("row 123 "),
            std::string::npos);

  // Common token appears in many rows.
  auto common = client_->SearchSubstring("body", "token3", 20);
  ASSERT_TRUE(common.ok());
  EXPECT_GE(common.value().matches.size(), 20u - 3);
  for (const RowMatch& m : common.value().matches) {
    EXPECT_NE(m.value.find("token3"), std::string::npos);
  }
}

TEST_F(RottnestSearchTest, SubstringAcrossIndexedAndUnindexed) {
  Append(0, 200);
  ASSERT_TRUE(client_->Index("body", IndexType::kFm).ok());
  Append(200, 200);

  auto result = client_->SearchSubstring("body", "row 350 ", 10);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().matches.size(), 1u);
  EXPECT_EQ(result.value().files_scanned, 1u);
}

TEST_F(RottnestSearchTest, VectorSearchFindsNearestNeighbours) {
  Append(0, 800);
  ASSERT_TRUE(client_->Index("vec", IndexType::kIvfPq).ok());

  // Query with the exact stored vector of id 42: its own row must rank
  // first with distance ~0.
  std::vector<float> q = VecFor(42);
  SearchOptions opts;
  opts.params.vector = {/*nprobe=*/16, /*refine=*/50};
  auto result = client_->SearchVector("vec", q.data(), kDim, 10, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GE(result.value().matches.size(), 10u);
  EXPECT_NEAR(result.value().matches[0].distance, 0.0, 1e-3);
  // Distances ascend.
  for (size_t i = 1; i < result.value().matches.size(); ++i) {
    EXPECT_LE(result.value().matches[i - 1].distance,
              result.value().matches[i].distance);
  }
}

TEST_F(RottnestSearchTest, VectorSearchAlwaysScansUnindexed) {
  Append(0, 400);
  ASSERT_TRUE(client_->Index("vec", IndexType::kIvfPq).ok());
  Append(400, 100);  // Unindexed rows.

  std::vector<float> q = VecFor(450);  // Lives in the unindexed file.
  SearchOptions opts;
  opts.params.vector = {/*nprobe=*/16, /*refine=*/50};
  auto result = client_->SearchVector("vec", q.data(), kDim, 5, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().files_scanned, 1u);  // Scoring queries must scan.
  ASSERT_FALSE(result.value().matches.empty());
  EXPECT_NEAR(result.value().matches[0].distance, 0.0, 1e-3);
}

TEST_F(RottnestSearchTest, SnapshotFilteringAfterLakeCompaction) {
  Append(0, 300);
  Append(300, 300);
  ASSERT_TRUE(client_->Index("uuid", IndexType::kTrie).ok());

  // Lake-side compaction rewrites both files into one; the index now
  // points at dead files.
  ASSERT_TRUE(table_->CompactFiles(UINT64_MAX).ok());

  // Search must still be correct: postings to dead files are filtered and
  // the new (unindexed) file is scanned.
  auto result = client_->SearchUuid("uuid", Slice(UuidFor(100)), 5);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().matches.size(), 1u);
  EXPECT_EQ(result.value().files_scanned, 1u);
  EXPECT_EQ(result.value().pages_probed, 0u);  // All postings filtered out.

  // Re-index covers the compacted file; scans stop.
  ASSERT_TRUE(client_->Index("uuid", IndexType::kTrie).ok());
  result = client_->SearchUuid("uuid", Slice(UuidFor(100)), 5);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().matches.size(), 1u);
  EXPECT_EQ(result.value().files_scanned, 0u);
}

TEST_F(RottnestSearchTest, DeletionVectorsRespected) {
  Append(0, 300);
  ASSERT_TRUE(client_->Index("uuid", IndexType::kTrie).ok());

  std::string victim = UuidFor(77);
  ASSERT_TRUE(table_
                  ->DeleteWhere("uuid",
                                [&](const ColumnVector& col, size_t r) {
                                  return col.fixed().at(r) == Slice(victim);
                                })
                  .ok());

  auto result = client_->SearchUuid("uuid", Slice(victim), 5);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().matches.empty());  // Deleted row filtered.

  // Neighbouring rows unaffected.
  auto other = client_->SearchUuid("uuid", Slice(UuidFor(78)), 5);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other.value().matches.size(), 1u);
}

TEST_F(RottnestSearchTest, TimeTravelSearchesOldSnapshot) {
  Append(0, 200);
  ASSERT_TRUE(client_->Index("uuid", IndexType::kTrie).ok());
  auto snap1 = table_->GetSnapshot().MoveValue();
  Append(200, 200);

  // Searching the old snapshot must not see (or scan) the new file.
  SearchOptions pinned;
  pinned.snapshot = snap1.version;
  auto result = client_->SearchUuid("uuid", Slice(UuidFor(250)), 5, pinned);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().matches.empty());
  EXPECT_EQ(result.value().files_scanned, 0u);

  auto latest = client_->SearchUuid("uuid", Slice(UuidFor(250)), 5);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().matches.size(), 1u);
}

TEST_F(RottnestSearchTest, SearchUnknownColumnFails) {
  Append(0, 10);
  auto result = client_->SearchUuid("nope", Slice(UuidFor(1)), 5);
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_F(RottnestSearchTest, VectorMinimumSizeAborts) {
  RottnestOptions options;
  options.index_dir = "idx/min";
  options.min_vector_index_rows = 1000;
  options.ivfpq.nlist = 16;
  options.ivfpq.num_subquantizers = 4;
  Rottnest strict(&store_, table_.get(), options);
  Append(0, 100);  // Below the minimum.
  auto report = strict.Index("vec", IndexType::kIvfPq);
  EXPECT_TRUE(report.status().IsAborted());
}

TEST_F(RottnestSearchTest, SearchRecordsTraceRounds) {
  Append(0, 400);
  ASSERT_TRUE(client_->Index("uuid", IndexType::kTrie).ok());
  IoTrace trace;
  SearchOptions opts;
  opts.trace = &trace;
  auto result = client_->SearchUuid("uuid", Slice(UuidFor(3)), 5, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(trace.total_gets(), 0u);
  EXPECT_GT(trace.total_lists(), 0u);
  // Plan + index open + leaf + page probe: a handful of dependent rounds,
  // never proportional to data size.
  EXPECT_LE(trace.depth(), 8u);
}

// The FM builder remaps data bytes 0x00/0x01 to 0x02, so the index cannot
// count a pattern holding 0x00-0x02 exactly: "a\x02b" matches the remapped
// "a\x01b" rows inside the index. Such patterns go to the exact scan path,
// which is not an index failure: nothing degrades, nothing is quarantined.
TEST_F(RottnestSearchTest, ReservedBytePatternsAreCountedExactly) {
  RowBatch b;
  b.schema = MakeSchema();
  format::FlatFixed uuids;
  uuids.elem_size = 16;
  ColumnVector::Strings bodies;
  format::FlatFixed vecs;
  vecs.elem_size = kDim * 4;
  for (uint64_t id = 0; id < 100; ++id) {
    uuids.Append(Slice(UuidFor(id)));
    bodies.push_back(std::string("a\x01" "b") + std::to_string(id));
    std::vector<float> v = VecFor(id);
    vecs.Append(Slice(reinterpret_cast<const uint8_t*>(v.data()), kDim * 4));
  }
  b.columns.emplace_back(std::move(uuids));
  b.columns.emplace_back(std::move(bodies));
  b.columns.emplace_back(std::move(vecs));
  ASSERT_TRUE(table_->Append(b).ok());
  ASSERT_TRUE(client_->Index("body", IndexType::kFm).ok());

  SearchOptions opts;
  opts.auto_quarantine = true;
  const std::string replaced("a\x02" "b");
  const std::string original("a\x01" "b");
  auto wrong = client_->CountSubstring("body", replaced, opts);
  ASSERT_TRUE(wrong.ok()) << wrong.status().ToString();
  EXPECT_EQ(wrong.value(), 0u);
  auto right = client_->CountSubstring("body", original, opts);
  ASSERT_TRUE(right.ok()) << right.status().ToString();
  EXPECT_EQ(right.value(), 100u);

  auto none = client_->SearchSubstring("body", replaced, 10, opts);
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_TRUE(none.value().matches.empty());
  auto some = client_->SearchSubstring("body", original, 10, opts);
  ASSERT_TRUE(some.ok()) << some.status().ToString();
  EXPECT_EQ(some.value().matches.size(), 10u);
  EXPECT_EQ(some.value().indexes_degraded, 0u);
  EXPECT_FALSE(some.value().partial);

  auto entries = client_->metadata().ReadAll();
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries.value().size(), 1u);  // Never quarantined.
}

}  // namespace
}  // namespace rottnest::core
