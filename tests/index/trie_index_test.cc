#include "index/trie/trie_index.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.h"
#include "format/writer.h"
#include "objectstore/object_store.h"

namespace rottnest::index {
namespace {

using objectstore::InMemoryObjectStore;
using objectstore::IoTrace;

TEST(Key128Test, Truncate) {
  Key128 k{0xffffffffffffffffULL, 0xffffffffffffffffULL};
  EXPECT_EQ(k.Truncate(0).hi, 0u);
  EXPECT_EQ(k.Truncate(1).hi, 1ULL << 63);
  EXPECT_EQ(k.Truncate(64).hi, ~0ULL);
  EXPECT_EQ(k.Truncate(64).lo, 0u);
  EXPECT_EQ(k.Truncate(65).lo, 1ULL << 63);
  EXPECT_EQ(k.Truncate(128), k);
}

TEST(Key128Test, CommonPrefixLen) {
  Key128 a{0x8000000000000000ULL, 0};
  Key128 b{0x8000000000000000ULL, 0};
  EXPECT_EQ(a.CommonPrefixLen(b), 128);
  b.lo = 1;
  EXPECT_EQ(a.CommonPrefixLen(b), 127);
  b = Key128{0, 0};
  EXPECT_EQ(a.CommonPrefixLen(b), 0);
  b = Key128{0x8000000000000001ULL, 0};
  EXPECT_EQ(a.CommonPrefixLen(b), 63);
}

TEST(Key128Test, KeyFromValuePreservesRawUuids) {
  Buffer uuid(16);
  for (int i = 0; i < 16; ++i) uuid[i] = static_cast<uint8_t>(i + 1);
  Key128 k = KeyFromValue(Slice(uuid));
  EXPECT_EQ(k.hi, 0x0102030405060708ULL);
  EXPECT_EQ(k.lo, 0x090a0b0c0d0e0f10ULL);
}

TEST(Key128Test, KeyFromValueHashesOtherSizes) {
  std::string long_hash(128, 'x');
  Key128 a = KeyFromValue(Slice(long_hash));
  Key128 b = KeyFromValue(Slice(long_hash));
  EXPECT_EQ(a, b);
  std::string other(128, 'y');
  EXPECT_FALSE(KeyFromValue(Slice(other)) == a);
}

class TrieIndexTest : public ::testing::Test {
 protected:
  SimulatedClock clock_;
  InMemoryObjectStore store_{&clock_};
  ThreadPool pool_{4};

  // Builds an index over synthetic keys; returns key -> expected pages.
  std::map<uint64_t, std::vector<format::PageId>> BuildIndex(
      const std::string& object_key, size_t num_keys, uint64_t seed,
      size_t pages = 64) {
    // Fabricate a tiny page table (entries are never dereferenced here).
    format::FileMeta meta;
    meta.schema.columns.push_back(
        {"uuid", format::PhysicalType::kFixedLenByteArray, 16});
    format::RowGroupMeta rg;
    rg.num_rows = pages * 10;
    for (size_t p = 0; p < pages; ++p) {
      format::ColumnChunkMeta cc;
      (void)cc;
    }
    format::ColumnChunkMeta cc;
    for (size_t p = 0; p < pages; ++p) {
      format::PageMeta pm;
      pm.offset = p * 100;
      pm.size = 100;
      pm.num_values = 10;
      pm.first_row = p * 10;
      cc.pages.push_back(pm);
    }
    rg.columns.push_back(cc);
    meta.row_groups.push_back(rg);
    format::PageTable table;
    table.AddFile("data/file.lake", meta, 0);

    TrieIndexBuilder builder("uuid");
    std::map<uint64_t, std::vector<format::PageId>> expected;
    Random rng(seed);
    for (size_t i = 0; i < num_keys; ++i) {
      uint64_t id = rng.Next();
      Key128 key{Mix64(id), Mix64(id ^ 0x1234)};
      format::PageId page = static_cast<format::PageId>(rng.Uniform(pages));
      builder.Add(key, page);
      auto& v = expected[id];
      v.push_back(page);
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    }
    Buffer file;
    EXPECT_TRUE(builder.Finish(table, &file).ok());
    EXPECT_TRUE(store_.Put(object_key, Slice(file)).ok());
    return expected;
  }
};

TEST_F(TrieIndexTest, ExactLookupFindsAllPostings) {
  auto expected = BuildIndex("idx/t.index", 5000, 17);
  auto reader = ComponentFileReader::Open(&store_, "idx/t.index", nullptr)
                    .MoveValue();
  int checked = 0;
  for (const auto& [id, pages] : expected) {
    if (++checked > 300) break;  // Sample for speed.
    Key128 key{Mix64(id), Mix64(id ^ 0x1234)};
    std::vector<format::PageId> got;
    ASSERT_TRUE(TrieQuery(reader.get(), &pool_, nullptr, key, &got).ok());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, pages) << "id " << id;
  }
}

TEST_F(TrieIndexTest, MissingKeysUsuallyReturnNothing) {
  BuildIndex("idx/t.index", 5000, 17);
  auto reader = ComponentFileReader::Open(&store_, "idx/t.index", nullptr)
                    .MoveValue();
  Random rng(999);
  int false_positives = 0;
  for (int i = 0; i < 300; ++i) {
    Key128 key{rng.Next(), rng.Next()};
    std::vector<format::PageId> got;
    ASSERT_TRUE(TrieQuery(reader.get(), &pool_, nullptr, key, &got).ok());
    if (!got.empty()) ++false_positives;
  }
  // LCP+8-bit truncation admits rare false positives; they must stay rare.
  EXPECT_LE(false_positives, 3);
}

TEST_F(TrieIndexTest, LookupDepthIsTwoRounds) {
  BuildIndex("idx/t.index", 20000, 23);
  IoTrace trace;
  auto reader = ComponentFileReader::Open(&store_, "idx/t.index", &trace)
                    .MoveValue();
  Key128 key{Mix64(42), Mix64(42 ^ 0x1234)};
  std::vector<format::PageId> got;
  ASSERT_TRUE(TrieQuery(reader.get(), &pool_, &trace, key, &got).ok());
  // Open (tail incl. root) + at most one leaf round.
  EXPECT_LE(trace.depth(), 2u);
  EXPECT_LE(trace.total_gets(), 2u);
}

TEST_F(TrieIndexTest, EmptyIndexReturnsNothing) {
  format::PageTable table;
  TrieIndexBuilder builder("uuid");
  Buffer file;
  ASSERT_TRUE(builder.Finish(table, &file).ok());
  ASSERT_TRUE(store_.Put("idx/e.index", Slice(file)).ok());
  auto reader = ComponentFileReader::Open(&store_, "idx/e.index", nullptr)
                    .MoveValue();
  std::vector<format::PageId> got;
  ASSERT_TRUE(TrieQuery(reader.get(), &pool_, nullptr, Key128{1, 2}, &got).ok());
  EXPECT_TRUE(got.empty());
}

TEST_F(TrieIndexTest, DuplicateKeyAcrossPagesKeepsAllPages) {
  format::PageTable table;
  TrieIndexBuilder builder("uuid");
  Key128 k{0xabc, 0xdef};
  builder.Add(k, 3);
  builder.Add(k, 1);
  builder.Add(k, 3);  // duplicate (key,page)
  builder.Add(Key128{0xabc, 0xdf0}, 2);
  Buffer file;
  ASSERT_TRUE(builder.Finish(table, &file).ok());
  ASSERT_TRUE(store_.Put("idx/d.index", Slice(file)).ok());
  auto reader = ComponentFileReader::Open(&store_, "idx/d.index", nullptr)
                    .MoveValue();
  std::vector<format::PageId> got;
  ASSERT_TRUE(TrieQuery(reader.get(), &pool_, nullptr, k, &got).ok());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<format::PageId>{1, 3}));
}

TEST_F(TrieIndexTest, PageTableEmbedded) {
  BuildIndex("idx/t.index", 100, 3);
  auto reader = ComponentFileReader::Open(&store_, "idx/t.index", nullptr)
                    .MoveValue();
  format::PageTable table;
  ASSERT_TRUE(LoadPageTable(reader.get(), &pool_, nullptr, &table).ok());
  EXPECT_EQ(table.num_files(), 1u);
  EXPECT_EQ(table.files()[0], "data/file.lake");
  EXPECT_EQ(table.num_pages(), 64u);
}

TEST_F(TrieIndexTest, MergePreservesAllKeys) {
  auto expected_a = BuildIndex("idx/a.index", 2000, 100);
  auto expected_b = BuildIndex("idx/b.index", 2000, 200);

  auto ra = ComponentFileReader::Open(&store_, "idx/a.index", nullptr)
                .MoveValue();
  auto rb = ComponentFileReader::Open(&store_, "idx/b.index", nullptr)
                .MoveValue();
  Buffer merged;
  ASSERT_TRUE(
      TrieMerge({ra.get(), rb.get()}, &pool_, nullptr, "uuid", &merged).ok());
  ASSERT_TRUE(store_.Put("idx/m.index", Slice(merged)).ok());
  auto rm = ComponentFileReader::Open(&store_, "idx/m.index", nullptr)
                .MoveValue();

  // Merged page table concatenates both inputs' tables.
  format::PageTable table;
  ASSERT_TRUE(LoadPageTable(rm.get(), &pool_, nullptr, &table).ok());
  EXPECT_EQ(table.num_files(), 2u);
  EXPECT_EQ(table.num_pages(), 128u);

  // Every key from input A must be found, mapped into the merged table's
  // id space (A absorbed first: ids unchanged).
  int checked = 0;
  for (const auto& [id, pages] : expected_a) {
    if (++checked > 150) break;
    Key128 key{Mix64(id), Mix64(id ^ 0x1234)};
    std::vector<format::PageId> got;
    ASSERT_TRUE(TrieQuery(rm.get(), &pool_, nullptr, key, &got).ok());
    for (format::PageId p : pages) {
      EXPECT_TRUE(std::find(got.begin(), got.end(), p) != got.end())
          << "id " << id << " page " << p;
    }
  }
  // Keys from input B land at offset 64 (B's table absorbed after A's).
  checked = 0;
  for (const auto& [id, pages] : expected_b) {
    if (++checked > 150) break;
    Key128 key{Mix64(id), Mix64(id ^ 0x1234)};
    std::vector<format::PageId> got;
    ASSERT_TRUE(TrieQuery(rm.get(), &pool_, nullptr, key, &got).ok());
    for (format::PageId p : pages) {
      EXPECT_TRUE(std::find(got.begin(), got.end(), p + 64) != got.end())
          << "id " << id << " page " << p;
    }
  }
}

TEST_F(TrieIndexTest, MergedIndexStillTwoRoundLookups) {
  BuildIndex("idx/a.index", 3000, 1);
  BuildIndex("idx/b.index", 3000, 2);
  auto ra = ComponentFileReader::Open(&store_, "idx/a.index", nullptr)
                .MoveValue();
  auto rb = ComponentFileReader::Open(&store_, "idx/b.index", nullptr)
                .MoveValue();
  Buffer merged;
  ASSERT_TRUE(
      TrieMerge({ra.get(), rb.get()}, &pool_, nullptr, "uuid", &merged).ok());
  ASSERT_TRUE(store_.Put("idx/m.index", Slice(merged)).ok());

  IoTrace trace;
  auto rm =
      ComponentFileReader::Open(&store_, "idx/m.index", &trace).MoveValue();
  std::vector<format::PageId> got;
  ASSERT_TRUE(
      TrieQuery(rm.get(), &pool_, &trace, Key128{Mix64(7), Mix64(7 ^ 0x1234)},
                &got)
          .ok());
  EXPECT_LE(trace.depth(), 2u);
}

}  // namespace
}  // namespace rottnest::index
