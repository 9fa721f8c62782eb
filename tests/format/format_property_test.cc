// Property sweeps over the columnar format: every (page size, row-group
// size, codec) configuration must round-trip every physical type, and the
// page-granular reader must agree with the whole-chunk reader bit for bit.
#include <gtest/gtest.h>

#include "common/random.h"
#include "format/page_table.h"
#include "format/reader.h"
#include "format/writer.h"
#include "objectstore/object_store.h"

namespace rottnest::format {
namespace {

using objectstore::InMemoryObjectStore;

Schema AllTypesSchema() {
  Schema s;
  s.columns.push_back({"i", PhysicalType::kInt64, 0});
  s.columns.push_back({"d", PhysicalType::kDouble, 0});
  s.columns.push_back({"s", PhysicalType::kByteArray, 0});
  s.columns.push_back({"f", PhysicalType::kFixedLenByteArray, 12});
  return s;
}

RowBatch AllTypesBatch(size_t rows, uint64_t seed) {
  Random rng(seed);
  RowBatch b;
  b.schema = AllTypesSchema();
  ColumnVector::Ints ints;
  ColumnVector::Doubles doubles;
  ColumnVector::Strings strings;
  FlatFixed fixed;
  fixed.elem_size = 12;
  for (size_t r = 0; r < rows; ++r) {
    ints.push_back(static_cast<int64_t>(rng.Next()));
    doubles.push_back(rng.NextGaussian());
    // Mix of empty, short, long and binary-ish strings.
    switch (rng.Uniform(4)) {
      case 0:
        strings.push_back("");
        break;
      case 1:
        strings.push_back("short");
        break;
      case 2:
        strings.push_back(std::string(rng.Uniform(2000), 'x'));
        break;
      default: {
        std::string bin(16, '\0');
        for (auto& c : bin) c = static_cast<char>(rng.Next());
        strings.push_back(bin);
      }
    }
    Buffer v(12);
    for (auto& x : v) x = static_cast<uint8_t>(rng.Next());
    fixed.Append(Slice(v));
  }
  b.columns.emplace_back(std::move(ints));
  b.columns.emplace_back(std::move(doubles));
  b.columns.emplace_back(std::move(strings));
  b.columns.emplace_back(std::move(fixed));
  return b;
}

class FormatSweepTest
    : public ::testing::TestWithParam<
          std::tuple<size_t, size_t, compress::Codec>> {};

TEST_P(FormatSweepTest, RoundTripAllTypes) {
  auto [page_bytes, group_bytes, codec] = GetParam();
  WriterOptions options;
  options.target_page_bytes = page_bytes;
  options.target_row_group_bytes = group_bytes;
  options.codec = codec;

  RowBatch batch = AllTypesBatch(1500, page_bytes ^ group_bytes);
  Buffer file;
  FileMeta meta;
  ASSERT_TRUE(WriteSingleFile(batch, options, &file, &meta).ok());
  ASSERT_EQ(meta.num_rows, 1500u);

  SimulatedClock clock;
  InMemoryObjectStore store(&clock);
  ASSERT_TRUE(store.Put("f", Slice(file)).ok());
  auto reader = FileReader::Open(&store, "f", file.size(), nullptr).MoveValue();
  for (size_t c = 0; c < 4; ++c) {
    ColumnVector col;
    ASSERT_TRUE(reader->ReadColumn(c, nullptr, &col).ok()) << "col " << c;
    EXPECT_EQ(col, batch.columns[c]) << "col " << c;
  }
}

TEST_P(FormatSweepTest, PageReaderAgreesWithChunkReader) {
  auto [page_bytes, group_bytes, codec] = GetParam();
  WriterOptions options;
  options.target_page_bytes = page_bytes;
  options.target_row_group_bytes = group_bytes;
  options.codec = codec;

  RowBatch batch = AllTypesBatch(800, 99);
  Buffer file;
  FileMeta meta;
  ASSERT_TRUE(WriteSingleFile(batch, options, &file, &meta).ok());
  SimulatedClock clock;
  InMemoryObjectStore store(&clock);
  ASSERT_TRUE(store.Put("f", Slice(file)).ok());

  PageTable table;
  table.AddFile("f", meta, 2);  // Strings column.
  std::vector<PageFetch> fetches;
  for (PageId p = 0; p < table.num_pages(); ++p) {
    fetches.push_back(table.MakeFetch(p));
  }
  std::vector<ColumnVector> pages;
  ASSERT_TRUE(ReadPages(&store, fetches, batch.schema.columns[2], nullptr,
                        nullptr, &pages)
                  .ok());
  // Concatenation of all pages == the full column.
  ColumnVector glued = MakeEmptyColumn(batch.schema.columns[2]);
  for (const ColumnVector& p : pages) glued.AppendFrom(p);
  EXPECT_EQ(glued, batch.columns[2]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FormatSweepTest,
    ::testing::Combine(::testing::Values(size_t{512}, size_t{8 << 10},
                                         size_t{1 << 20}),
                       ::testing::Values(size_t{4 << 10}, size_t{256 << 10}),
                       ::testing::Values(compress::Codec::kNone,
                                         compress::Codec::kLz)));

TEST(FormatRobustnessTest, TruncatedFilesNeverCrash) {
  RowBatch batch = AllTypesBatch(500, 7);
  Buffer file;
  FileMeta meta;
  ASSERT_TRUE(WriteSingleFile(batch, WriterOptions{}, &file, &meta).ok());

  SimulatedClock clock;
  InMemoryObjectStore store(&clock);
  Random rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    size_t cut = 1 + rng.Uniform(file.size() - 1);
    Buffer truncated(file.begin(), file.begin() + cut);
    ASSERT_TRUE(store.Put("t", Slice(truncated)).ok());
    auto reader = FileReader::Open(&store, "t", truncated.size(), nullptr);
    if (reader.ok()) {
      // Footer happened to parse (cut inside data): chunk reads must fail
      // cleanly, not crash.
      ColumnVector col;
      (void)reader.value()->ReadColumn(0, nullptr, &col);
    }
  }
}

TEST(FormatRobustnessTest, BitFlippedFilesNeverCrash) {
  RowBatch batch = AllTypesBatch(300, 9);
  Buffer file;
  FileMeta meta;
  ASSERT_TRUE(WriteSingleFile(batch, WriterOptions{}, &file, &meta).ok());
  SimulatedClock clock;
  InMemoryObjectStore store(&clock);
  Random rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    Buffer corrupt = file;
    for (int flips = 0; flips < 3; ++flips) {
      corrupt[rng.Uniform(corrupt.size())] ^=
          static_cast<uint8_t>(1 << rng.Uniform(8));
    }
    ASSERT_TRUE(store.Put("c", Slice(corrupt)).ok());
    auto reader = FileReader::Open(&store, "c", corrupt.size(), nullptr);
    if (!reader.ok()) continue;
    for (size_t c = 0; c < 4; ++c) {
      ColumnVector col;
      Status s = reader.value()->ReadColumn(c, nullptr, &col);
      if (s.ok()) {
        // Checksum may miss flips in the *header* varints that still parse
        // consistently; but a clean read must deliver the right row count.
        EXPECT_EQ(col.size(), 300u);
      }
    }
  }
}

TEST(FormatRobustnessTest, SingleRowAndSingleColumnFiles) {
  Schema s;
  s.columns.push_back({"only", PhysicalType::kByteArray, 0});
  RowBatch b;
  b.schema = s;
  b.columns.emplace_back(ColumnVector::Strings{"lonely row"});
  Buffer file;
  FileMeta meta;
  ASSERT_TRUE(WriteSingleFile(b, WriterOptions{}, &file, &meta).ok());
  SimulatedClock clock;
  InMemoryObjectStore store(&clock);
  ASSERT_TRUE(store.Put("f", Slice(file)).ok());
  auto reader = FileReader::Open(&store, "f", file.size(), nullptr).MoveValue();
  ColumnVector col;
  ASSERT_TRUE(reader->ReadColumn(0, nullptr, &col).ok());
  ASSERT_EQ(col.size(), 1u);
  EXPECT_EQ(col.strings()[0], "lonely row");
}

TEST(FormatRobustnessTest, HugeSingleValueGetsOwnPage) {
  Schema s;
  s.columns.push_back({"blob", PhysicalType::kByteArray, 0});
  RowBatch b;
  b.schema = s;
  // One 5MB value among small ones with a 64KB page target.
  ColumnVector::Strings values = {"small", std::string(5 << 20, 'Z'),
                                  "another"};
  b.columns.emplace_back(values);
  WriterOptions options;
  options.target_page_bytes = 64 << 10;
  Buffer file;
  FileMeta meta;
  ASSERT_TRUE(WriteSingleFile(b, options, &file, &meta).ok());
  ASSERT_EQ(meta.row_groups[0].columns[0].pages.size(), 3u);

  SimulatedClock clock;
  InMemoryObjectStore store(&clock);
  ASSERT_TRUE(store.Put("f", Slice(file)).ok());
  auto reader = FileReader::Open(&store, "f", file.size(), nullptr).MoveValue();
  ColumnVector col;
  ASSERT_TRUE(reader->ReadColumn(0, nullptr, &col).ok());
  EXPECT_EQ(col.strings(), values);
}

TEST(FormatRobustnessTest, MinMaxStatsEnablePruning) {
  Schema s;
  s.columns.push_back({"ts", PhysicalType::kInt64, 0});
  RowBatch b;
  b.schema = s;
  ColumnVector::Ints ts;
  for (int64_t i = 0; i < 3000; ++i) ts.push_back(i);
  b.columns.emplace_back(std::move(ts));
  WriterOptions options;
  options.target_row_group_bytes = 4 << 10;  // ~512 rows per group.
  Buffer file;
  FileMeta meta;
  ASSERT_TRUE(WriteSingleFile(b, options, &file, &meta).ok());
  ASSERT_GT(meta.row_groups.size(), 2u);
  // Stats must tile [0, 2999] without overlap.
  int64_t expected_min = 0;
  for (const RowGroupMeta& rg : meta.row_groups) {
    ASSERT_TRUE(rg.columns[0].has_stats);
    EXPECT_EQ(rg.columns[0].min, expected_min);
    expected_min = rg.columns[0].max + 1;
  }
  EXPECT_EQ(expected_min, 3000);
}

}  // namespace
}  // namespace rottnest::format
