#include <gtest/gtest.h>

#include "common/random.h"
#include "format/page.h"
#include "format/page_table.h"
#include "format/reader.h"
#include "format/writer.h"
#include "objectstore/object_store.h"

namespace rottnest::format {
namespace {

using objectstore::InMemoryObjectStore;
using objectstore::IoTrace;

Schema MakeTextSchema() {
  Schema s;
  s.columns.push_back({"ts", PhysicalType::kInt64, 0});
  s.columns.push_back({"body", PhysicalType::kByteArray, 0});
  return s;
}

RowBatch MakeTextBatch(size_t rows, uint64_t seed) {
  Random rng(seed);
  RowBatch batch;
  batch.schema = MakeTextSchema();
  ColumnVector::Ints ts;
  ColumnVector::Strings body;
  static const char* words[] = {"error", "warn", "request", "latency",
                                "pod",   "node", "disk",    "timeout"};
  for (size_t i = 0; i < rows; ++i) {
    ts.push_back(static_cast<int64_t>(1700000000 + i));
    std::string line;
    for (int w = 0; w < 12; ++w) {
      line += words[rng.Uniform(8)];
      line.push_back(' ');
    }
    body.push_back(line);
  }
  batch.columns.emplace_back(std::move(ts));
  batch.columns.emplace_back(std::move(body));
  return batch;
}

TEST(PageTest, Int64RoundTrip) {
  ColumnVector col(ColumnVector::Ints{1, -5, 1LL << 60, 0, -(1LL << 62)});
  Buffer out;
  EncodePage(col, 0, 5, compress::Codec::kLz, &out);
  ColumnVector decoded;
  ColumnSchema schema{"c", PhysicalType::kInt64, 0};
  ASSERT_TRUE(DecodePage(Slice(out), schema, &decoded).ok());
  EXPECT_EQ(decoded, col);
}

TEST(PageTest, DoubleRoundTrip) {
  ColumnVector col(ColumnVector::Doubles{0.0, -1.5, 3.14159, 1e300, -1e-300});
  Buffer out;
  EncodePage(col, 0, 5, compress::Codec::kLz, &out);
  ColumnVector decoded;
  ColumnSchema schema{"c", PhysicalType::kDouble, 0};
  ASSERT_TRUE(DecodePage(Slice(out), schema, &decoded).ok());
  EXPECT_EQ(decoded, col);
}

TEST(PageTest, ByteArrayRoundTrip) {
  ColumnVector col(
      ColumnVector::Strings{"", "a", std::string(5000, 'z'), "hello\0x"});
  Buffer out;
  EncodePage(col, 0, 4, compress::Codec::kLz, &out);
  ColumnVector decoded;
  ColumnSchema schema{"c", PhysicalType::kByteArray, 0};
  ASSERT_TRUE(DecodePage(Slice(out), schema, &decoded).ok());
  EXPECT_EQ(decoded, col);
}

TEST(PageTest, FixedLenRoundTrip) {
  FlatFixed f;
  f.elem_size = 16;
  Random rng(3);
  for (int i = 0; i < 100; ++i) {
    Buffer v(16);
    for (auto& b : v) b = static_cast<uint8_t>(rng.Next());
    f.Append(Slice(v));
  }
  ColumnVector col(f);
  Buffer out;
  EncodePage(col, 0, 100, compress::Codec::kLz, &out);
  ColumnVector decoded;
  ColumnSchema schema{"c", PhysicalType::kFixedLenByteArray, 16};
  ASSERT_TRUE(DecodePage(Slice(out), schema, &decoded).ok());
  EXPECT_EQ(decoded, col);
}

TEST(PageTest, SubRangeEncoding) {
  ColumnVector col(ColumnVector::Ints{10, 20, 30, 40, 50});
  Buffer out;
  EncodePage(col, 1, 4, compress::Codec::kNone, &out);
  ColumnVector decoded;
  ColumnSchema schema{"c", PhysicalType::kInt64, 0};
  ASSERT_TRUE(DecodePage(Slice(out), schema, &decoded).ok());
  EXPECT_EQ(decoded.ints(), (ColumnVector::Ints{20, 30, 40}));
}

TEST(PageTest, CorruptChecksumRejected) {
  ColumnVector col(ColumnVector::Ints{1, 2, 3});
  Buffer out;
  EncodePage(col, 0, 3, compress::Codec::kNone, &out);
  out.back() ^= 0xff;  // Flip a payload byte.
  ColumnVector decoded;
  ColumnSchema schema{"c", PhysicalType::kInt64, 0};
  EXPECT_TRUE(DecodePage(Slice(out), schema, &decoded).IsCorruption());
}

TEST(PageTest, TruncatedPageRejected) {
  ColumnVector col(ColumnVector::Ints{1, 2, 3});
  Buffer out;
  EncodePage(col, 0, 3, compress::Codec::kNone, &out);
  ColumnVector decoded;
  ColumnSchema schema{"c", PhysicalType::kInt64, 0};
  EXPECT_FALSE(
      DecodePage(Slice(out.data(), out.size() - 2), schema, &decoded).ok());
}

TEST(PageTest, ConsecutivePagesDecodeWithConsumed) {
  ColumnVector col(ColumnVector::Ints{1, 2, 3, 4, 5, 6});
  Buffer out;
  EncodePage(col, 0, 3, compress::Codec::kLz, &out);
  EncodePage(col, 3, 6, compress::Codec::kLz, &out);
  ColumnSchema schema{"c", PhysicalType::kInt64, 0};
  ColumnVector first, second;
  size_t consumed = 0;
  ASSERT_TRUE(DecodePage(Slice(out), schema, &first, &consumed).ok());
  EXPECT_EQ(first.ints(), (ColumnVector::Ints{1, 2, 3}));
  ASSERT_TRUE(DecodePage(Slice(out.data() + consumed, out.size() - consumed),
                         schema, &second)
                  .ok());
  EXPECT_EQ(second.ints(), (ColumnVector::Ints{4, 5, 6}));
}

TEST(WriterTest, WriteAndReadWholeFile) {
  RowBatch batch = MakeTextBatch(5000, 42);
  WriterOptions options;
  options.target_page_bytes = 8 << 10;  // Force many pages.
  options.target_row_group_bytes = 64 << 10;
  Buffer file;
  FileMeta meta;
  ASSERT_TRUE(WriteSingleFile(batch, options, &file, &meta).ok());
  EXPECT_EQ(meta.num_rows, 5000u);
  EXPECT_GT(meta.row_groups.size(), 1u);

  SimulatedClock clock;
  InMemoryObjectStore store(&clock);
  ASSERT_TRUE(store.Put("t/a.lakefile", Slice(file)).ok());

  auto reader_r =
      FileReader::Open(&store, "t/a.lakefile", file.size(), nullptr);
  ASSERT_TRUE(reader_r.ok()) << reader_r.status().ToString();
  auto& reader = *reader_r.value();
  EXPECT_EQ(reader.meta().num_rows, 5000u);
  ASSERT_EQ(reader.meta().schema.columns.size(), 2u);

  ColumnVector body;
  ASSERT_TRUE(reader.ReadColumn(1, nullptr, &body).ok());
  ASSERT_EQ(body.size(), 5000u);
  EXPECT_EQ(body.strings()[0], batch.columns[1].strings()[0]);
  EXPECT_EQ(body.strings()[4999], batch.columns[1].strings()[4999]);

  ColumnVector ts;
  ASSERT_TRUE(reader.ReadColumn(0, nullptr, &ts).ok());
  EXPECT_EQ(ts.ints(), batch.columns[0].ints());
}

TEST(WriterTest, MinMaxStatsOnIntColumns) {
  RowBatch batch = MakeTextBatch(100, 1);
  Buffer file;
  FileMeta meta;
  ASSERT_TRUE(WriteSingleFile(batch, WriterOptions{}, &file, &meta).ok());
  ASSERT_EQ(meta.row_groups.size(), 1u);
  const ColumnChunkMeta& cc = meta.row_groups[0].columns[0];
  EXPECT_TRUE(cc.has_stats);
  EXPECT_EQ(cc.min, 1700000000);
  EXPECT_EQ(cc.max, 1700000099);
  EXPECT_FALSE(meta.row_groups[0].columns[1].has_stats);
}

TEST(WriterTest, PageRowAccountingIsContiguous) {
  RowBatch batch = MakeTextBatch(3000, 7);
  WriterOptions options;
  options.target_page_bytes = 4 << 10;
  options.target_row_group_bytes = 32 << 10;
  Buffer file;
  FileMeta meta;
  ASSERT_TRUE(WriteSingleFile(batch, options, &file, &meta).ok());
  uint64_t expected_row = 0;
  for (const RowGroupMeta& rg : meta.row_groups) {
    EXPECT_EQ(rg.first_row, expected_row);
    uint64_t row_in_group = rg.first_row;
    for (const PageMeta& p : rg.columns[1].pages) {
      EXPECT_EQ(p.first_row, row_in_group);
      row_in_group += p.num_values;
    }
    EXPECT_EQ(row_in_group, rg.first_row + rg.num_rows);
    expected_row += rg.num_rows;
  }
  EXPECT_EQ(expected_row, 3000u);
}

TEST(WriterTest, EmptyFileHasNoRowGroups) {
  FileWriter writer(MakeTextSchema(), WriterOptions{});
  Buffer file;
  ASSERT_TRUE(writer.Finish(&file).ok());
  FileMeta meta;
  ASSERT_TRUE(ParseFileMeta(Slice(file), &meta).ok());
  EXPECT_EQ(meta.num_rows, 0u);
  EXPECT_TRUE(meta.row_groups.empty());
}

TEST(WriterTest, AppendAfterFinishFails) {
  FileWriter writer(MakeTextSchema(), WriterOptions{});
  Buffer file;
  ASSERT_TRUE(writer.Finish(&file).ok());
  EXPECT_TRUE(writer.Append(MakeTextBatch(1, 1)).IsInvalidArgument());
}

TEST(WriterTest, SchemaMismatchRejected) {
  FileWriter writer(MakeTextSchema(), WriterOptions{});
  RowBatch bad;
  bad.schema.columns.push_back({"x", PhysicalType::kInt64, 0});
  bad.columns.emplace_back(ColumnVector::Ints{1});
  EXPECT_TRUE(writer.Append(bad).IsInvalidArgument());
}

TEST(WriterTest, RaggedBatchRejected) {
  RowBatch bad;
  bad.schema = MakeTextSchema();
  bad.columns.emplace_back(ColumnVector::Ints{1, 2});
  bad.columns.emplace_back(ColumnVector::Strings{"only one"});
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());
}

TEST(ReaderTest, FooterLargerThanTailRead) {
  // Build a file with a huge number of tiny pages so the footer exceeds the
  // 64KB speculative tail read.
  RowBatch batch = MakeTextBatch(30000, 11);
  WriterOptions options;
  options.target_page_bytes = 64;  // ~1 row per page -> ~30k page entries.
  options.target_row_group_bytes = 1 << 20;
  Buffer file;
  FileMeta meta;
  ASSERT_TRUE(WriteSingleFile(batch, options, &file, &meta).ok());

  SimulatedClock clock;
  InMemoryObjectStore store(&clock);
  ASSERT_TRUE(store.Put("big", Slice(file)).ok());
  auto reader_r = FileReader::Open(&store, "big", file.size(), nullptr);
  ASSERT_TRUE(reader_r.ok()) << reader_r.status().ToString();
  EXPECT_EQ(reader_r.value()->meta().num_rows, 30000u);
}

TEST(ReaderTest, CorruptMagicRejected) {
  SimulatedClock clock;
  InMemoryObjectStore store(&clock);
  Buffer junk(100, 0x5a);
  ASSERT_TRUE(store.Put("junk", Slice(junk)).ok());
  auto r = FileReader::Open(&store, "junk", junk.size(), nullptr);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(ReaderTest, MissingObjectIsNotFound) {
  SimulatedClock clock;
  InMemoryObjectStore store(&clock);
  auto r = FileReader::Open(&store, "ghost", 100, nullptr);
  EXPECT_TRUE(r.status().IsNotFound());
}

// A sized Open (the lake snapshot records every data file's size) costs no
// HEAD — one tail GET in one round — and a size that does not match the
// object is a typed Corruption, never misparsed rows.
TEST(ReaderTest, SizedOpenIssuesNoHead) {
  for (size_t rows : {200, 5000}) {
    RowBatch batch = MakeTextBatch(rows, 7);
    Buffer file;
    FileMeta meta;
    ASSERT_TRUE(WriteSingleFile(batch, WriterOptions{}, &file, &meta).ok());
    SimulatedClock clock;
    InMemoryObjectStore store(&clock);
    ASSERT_TRUE(store.Put("f", Slice(file)).ok());
    IoTrace trace;
    auto r = FileReader::Open(&store, "f", file.size(), &trace);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(store.stats().heads.load(), 0u);
    EXPECT_EQ(store.stats().gets.load(), 1u);
    EXPECT_EQ(trace.depth(), 1u);
    // The speculative tail is never longer than the object.
    EXPECT_EQ(store.stats().bytes_read.load(),
              std::min<uint64_t>(file.size(), 64 << 10));
    ColumnVector body;
    ASSERT_TRUE(r.value()->ReadColumn(1, nullptr, &body).ok());
    EXPECT_EQ(body.strings(), batch.columns[1].strings());
  }
}

TEST(ReaderTest, SizedOpenWithWrongSizeIsCorruption) {
  for (size_t rows : {200, 5000}) {
    RowBatch batch = MakeTextBatch(rows, 8);
    Buffer file;
    FileMeta meta;
    ASSERT_TRUE(WriteSingleFile(batch, WriterOptions{}, &file, &meta).ok());
    if (rows == 5000) {
      ASSERT_GT(file.size(), 64u << 10);  // The tail read is not the file.
    }
    SimulatedClock clock;
    InMemoryObjectStore store(&clock);
    ASSERT_TRUE(store.Put("f", Slice(file)).ok());
    const uint64_t n = file.size();
    for (uint64_t wrong : {n - 1, n + 1, n - 100, n + 100, 2 * n + 1,
                           uint64_t{0}, uint64_t{8}}) {
      auto r = FileReader::Open(&store, "f", wrong, nullptr);
      EXPECT_TRUE(r.status().IsCorruption())
          << "rows " << rows << " size " << wrong << ": "
          << r.status().ToString();
    }
    EXPECT_EQ(store.stats().heads.load(), 0u);

    // An object LONGER than its recorded size (bytes appended after the
    // footer) still ends in a valid footer at the recorded size; only the
    // byte read past that size exposes it.
    Buffer longer = file;
    longer.push_back('x');
    ASSERT_TRUE(store.Put("g", Slice(longer)).ok());
    EXPECT_TRUE(FileReader::Open(&store, "g", n, nullptr).status()
                    .IsCorruption());
  }
}

TEST(PageReaderTest, InSituPageReadsMatchFullScan) {
  RowBatch batch = MakeTextBatch(4000, 99);
  WriterOptions options;
  options.target_page_bytes = 8 << 10;
  Buffer file;
  FileMeta meta;
  ASSERT_TRUE(WriteSingleFile(batch, options, &file, &meta).ok());

  SimulatedClock clock;
  InMemoryObjectStore store(&clock);
  ASSERT_TRUE(store.Put("f", Slice(file)).ok());

  PageTable table;
  table.AddFile("f", meta, 1);
  ASSERT_GT(table.num_pages(), 4u);

  // Fetch three scattered pages and verify contents against the batch.
  ThreadPool pool(4);
  IoTrace trace;
  std::vector<PageFetch> fetches = {table.MakeFetch(0),
                                    table.MakeFetch(2),
                                    table.MakeFetch(static_cast<PageId>(
                                        table.num_pages() - 1))};
  std::vector<ColumnVector> pages;
  ASSERT_TRUE(ReadPages(&store, fetches, meta.schema.columns[1], &pool,
                        &trace, &pages)
                  .ok());
  ASSERT_EQ(pages.size(), 3u);
  EXPECT_EQ(trace.depth(), 1u);  // All pages in one parallel round.
  EXPECT_EQ(trace.total_gets(), 3u);

  for (size_t i = 0; i < fetches.size(); ++i) {
    uint64_t first = fetches[i].page.first_row;
    for (size_t v = 0; v < pages[i].size(); ++v) {
      EXPECT_EQ(pages[i].strings()[v], batch.columns[1].strings()[first + v]);
    }
  }
}

TEST(PageReaderTest, PageReadsBypassFooter) {
  // The page reader must not issue any footer read: exactly one range GET
  // per page and nothing else.
  RowBatch batch = MakeTextBatch(1000, 5);
  WriterOptions options;
  options.target_page_bytes = 16 << 10;
  Buffer file;
  FileMeta meta;
  ASSERT_TRUE(WriteSingleFile(batch, options, &file, &meta).ok());

  SimulatedClock clock;
  InMemoryObjectStore store(&clock);
  ASSERT_TRUE(store.Put("f", Slice(file)).ok());
  PageTable table;
  table.AddFile("f", meta, 1);

  uint64_t gets_before = store.stats().gets.load();
  std::vector<ColumnVector> pages;
  std::vector<PageFetch> fetches = {table.MakeFetch(0)};
  ASSERT_TRUE(ReadPages(&store, fetches, meta.schema.columns[1], nullptr,
                        nullptr, &pages)
                  .ok());
  EXPECT_EQ(store.stats().gets.load() - gets_before, 1u);
}

TEST(PageTableTest, PageOfRowFindsContainingPage) {
  RowBatch batch = MakeTextBatch(5000, 21);
  WriterOptions options;
  options.target_page_bytes = 8 << 10;
  options.target_row_group_bytes = 64 << 10;
  Buffer file;
  FileMeta meta;
  ASSERT_TRUE(WriteSingleFile(batch, options, &file, &meta).ok());
  PageTable table;
  table.AddFile("f", meta, 1);

  for (uint64_t row : {uint64_t{0}, uint64_t{1}, uint64_t{2500},
                       uint64_t{4999}}) {
    auto page = table.PageOfRow(0, row);
    ASSERT_TRUE(page.ok()) << "row " << row;
    const PageEntry& e = table.entry(page.value());
    EXPECT_GE(row, e.first_row);
    EXPECT_LT(row, e.first_row + e.num_values);
  }
  EXPECT_TRUE(table.PageOfRow(0, 5000).status().IsNotFound());
}

TEST(PageTableTest, SerializeRoundTrip) {
  RowBatch batch = MakeTextBatch(2000, 31);
  WriterOptions options;
  options.target_page_bytes = 8 << 10;
  Buffer file;
  FileMeta meta;
  ASSERT_TRUE(WriteSingleFile(batch, options, &file, &meta).ok());
  PageTable table;
  table.AddFile("alpha", meta, 1);
  table.AddFile("beta", meta, 1);

  Buffer buf;
  table.Serialize(&buf);
  Decoder dec{Slice(buf)};
  PageTable decoded;
  ASSERT_TRUE(PageTable::Deserialize(&dec, &decoded).ok());
  ASSERT_EQ(decoded.num_pages(), table.num_pages());
  ASSERT_EQ(decoded.num_files(), 2u);
  EXPECT_EQ(decoded.files()[1], "beta");
  for (PageId p = 0; p < table.num_pages(); ++p) {
    EXPECT_EQ(decoded.entry(p).offset, table.entry(p).offset);
    EXPECT_EQ(decoded.entry(p).first_row, table.entry(p).first_row);
    EXPECT_EQ(decoded.file_of(p), table.file_of(p));
  }
}

TEST(PageTableTest, AbsorbOffsetsIds) {
  RowBatch batch = MakeTextBatch(1000, 41);
  WriterOptions options;
  options.target_page_bytes = 8 << 10;
  Buffer file;
  FileMeta meta;
  ASSERT_TRUE(WriteSingleFile(batch, options, &file, &meta).ok());

  PageTable a, b;
  a.AddFile("one", meta, 1);
  size_t a_pages = a.num_pages();
  b.AddFile("two", meta, 1);
  PageId offset = a.Absorb(b);
  EXPECT_EQ(offset, a_pages);
  EXPECT_EQ(a.num_pages(), 2 * a_pages);
  EXPECT_EQ(a.file_of(static_cast<PageId>(a_pages)), "two");
  auto [begin, end] = a.FilePageRange(1);
  EXPECT_EQ(begin, a_pages);
  EXPECT_EQ(end, 2 * a_pages);
}

}  // namespace
}  // namespace rottnest::format
