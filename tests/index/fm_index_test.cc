#include "index/fm/fm_index.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/random.h"
#include "index/fm/suffix_array.h"
#include "objectstore/object_store.h"

namespace rottnest::index {
namespace {

using objectstore::InMemoryObjectStore;
using objectstore::IoTrace;

// -- Suffix array / BWT primitives -------------------------------------------

std::vector<int64_t> NaiveSuffixArray(const std::string& text) {
  std::vector<int64_t> sa(text.size());
  for (size_t i = 0; i < sa.size(); ++i) sa[i] = static_cast<int64_t>(i);
  std::sort(sa.begin(), sa.end(), [&](int64_t a, int64_t b) {
    return text.compare(a, std::string::npos, text, b, std::string::npos) < 0;
  });
  return sa;
}

Buffer ToBuffer(const std::string& s) { return Buffer(s.begin(), s.end()); }

TEST(SuffixArrayTest, MatchesNaiveOnClassicStrings) {
  for (std::string base :
       {std::string("banana"), std::string("mississippi"),
        std::string("abracadabra"), std::string("aaaaaaa"),
        std::string("abcabcabc"), std::string("z"),
        std::string("the quick brown fox jumps over the lazy dog")}) {
    std::string text = base + '\0';
    auto sa = BuildSuffixArray(Slice(text));
    ASSERT_TRUE(sa.ok()) << base;
    EXPECT_EQ(sa.value(), NaiveSuffixArray(text)) << base;
  }
}

TEST(SuffixArrayTest, MatchesNaiveOnRandomStrings) {
  Random rng(71);
  for (int trial = 0; trial < 30; ++trial) {
    size_t len = 1 + rng.Uniform(500);
    std::string text;
    int alphabet = 2 + static_cast<int>(rng.Uniform(25));
    for (size_t i = 0; i < len; ++i) {
      text.push_back('a' + static_cast<char>(rng.Uniform(alphabet)));
    }
    text.push_back('\0');
    auto sa = BuildSuffixArray(Slice(text));
    ASSERT_TRUE(sa.ok());
    EXPECT_EQ(sa.value(), NaiveSuffixArray(text)) << "trial " << trial;
  }
}

TEST(SuffixArrayTest, RejectsBadSentinels) {
  std::string no_sentinel = "abc";
  EXPECT_TRUE(BuildSuffixArray(Slice(no_sentinel)).status()
                  .IsInvalidArgument());
  std::string embedded = std::string("a\0b", 3) + '\0';
  EXPECT_TRUE(BuildSuffixArray(Slice(embedded)).status().IsInvalidArgument());
  std::string empty;
  EXPECT_TRUE(BuildSuffixArray(Slice(empty)).status().IsInvalidArgument());
}

TEST(BwtTest, RoundTripThroughInversion) {
  Random rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::string text;
    for (size_t i = 0; i < 200 + rng.Uniform(800); ++i) {
      text.push_back('a' + static_cast<char>(rng.Uniform(4)));
    }
    text.push_back('\0');
    auto sa = BuildSuffixArray(Slice(text)).MoveValue();
    Buffer bwt = BwtFromSuffixArray(Slice(text), sa);
    auto inverted = InvertBwt(Slice(bwt));
    ASSERT_TRUE(inverted.ok()) << inverted.status().ToString();
    EXPECT_EQ(inverted.value(), ToBuffer(text));
  }
}

// -- FM index -----------------------------------------------------------------

// Counts occurrences of `pattern` in `text` by brute force.
uint64_t NaiveCount(const std::string& text, const std::string& pattern) {
  uint64_t count = 0;
  size_t pos = 0;
  while ((pos = text.find(pattern, pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  return count;
}

class FmIndexTest : public ::testing::Test {
 protected:
  SimulatedClock clock_;
  InMemoryObjectStore store_{&clock_};
  ThreadPool pool_{4};

  // Builds an index over `pages` (vector of page texts) and uploads it.
  void BuildIndex(const std::string& key,
                  const std::vector<std::string>& pages,
                  FmOptions options = SmallOptions()) {
    FmIndexBuilder builder("body", options);
    for (const std::string& p : pages) builder.AddPage(Slice(p));
    Buffer file;
    ASSERT_TRUE(builder.Finish(MakePageTable(pages.size()), &file).ok());
    ASSERT_TRUE(store_.Put(key, Slice(file)).ok());
  }

  static FmOptions SmallOptions() {
    FmOptions o;
    o.block_size = 1024;  // Many blocks even for small test texts.
    o.sample_rate = 8;
    return o;
  }

  static format::PageTable MakePageTable(size_t pages) {
    format::FileMeta meta;
    meta.schema.columns.push_back({"body", format::PhysicalType::kByteArray, 0});
    format::RowGroupMeta rg;
    format::ColumnChunkMeta cc;
    for (size_t p = 0; p < pages; ++p) {
      format::PageMeta pm;
      pm.offset = p * 1000;
      pm.size = 1000;
      pm.num_values = 5;
      pm.first_row = p * 5;
      cc.pages.push_back(pm);
    }
    rg.columns.push_back(cc);
    rg.num_rows = pages * 5;
    meta.row_groups.push_back(rg);
    format::PageTable table;
    table.AddFile("data/f.lake", meta, 0);
    return table;
  }
};

TEST_F(FmIndexTest, CountMatchesNaive) {
  std::string page0 = "the quick brown fox jumps over the lazy dog";
  std::string page1 = "pack my box with five dozen liquor jugs";
  std::string page2 = "the five boxing wizards jump quickly";
  BuildIndex("idx/f.index", {page0, page1, page2});
  auto reader =
      ComponentFileReader::Open(&store_, "idx/f.index", nullptr).MoveValue();

  std::string all = page0 + "\x01" + page1 + "\x01" + page2 + "\x01";
  for (const std::string& pattern :
       {std::string("the"), std::string("qu"), std::string("five"),
        std::string("o"), std::string("jump"), std::string("zebra"),
        std::string("ck "), std::string("dog")}) {
    uint64_t count;
    ASSERT_TRUE(
        FmCount(reader.get(), &pool_, nullptr, Slice(pattern), &count).ok())
        << pattern;
    EXPECT_EQ(count, NaiveCount(all, pattern)) << pattern;
  }
}

TEST_F(FmIndexTest, CountsAcrossLongBwtRuns) {
  // A run-heavy text gives a BWT of long single-symbol runs, so Occ counts
  // thousands of equal bytes inside one 64 KB block — the densest input for
  // the word-at-a-time symbol count.
  std::string text;
  for (int i = 0; i < 40; ++i) text += std::string(1000 + 7 * i, 'a') + "b";
  FmOptions options;
  options.block_size = 65536;
  options.sample_rate = 8;
  BuildIndex("idx/runs.index", {text}, options);
  auto reader = ComponentFileReader::Open(&store_, "idx/runs.index", nullptr)
                    .MoveValue();
  std::string all = text + "\x01";
  for (const std::string& pattern :
       {std::string("aa"), std::string(500, 'a'), std::string("ab"),
        std::string("ba"), std::string("bab"), std::string(1100, 'a') + "b",
        std::string("aaab")}) {
    uint64_t count;
    ASSERT_TRUE(
        FmCount(reader.get(), &pool_, nullptr, Slice(pattern), &count).ok());
    EXPECT_EQ(count, NaiveCount(all, pattern)) << pattern.size();
  }
  std::vector<format::PageId> pages;
  ASSERT_TRUE(FmLocatePages(reader.get(), &pool_, nullptr,
                            Slice(std::string("aab")), 64, &pages)
                  .ok());
  EXPECT_EQ(pages, (std::vector<format::PageId>{0}));
}

TEST_F(FmIndexTest, CountOnZipfianText) {
  Random rng(31);
  static const char* words[] = {"error",  "timeout", "pod",    "disk",
                                "node",   "latency", "retry",  "socket"};
  std::vector<std::string> pages;
  std::string all;
  for (int p = 0; p < 6; ++p) {
    std::string text;
    for (int w = 0; w < 300; ++w) {
      text += words[rng.NextZipf(8, 1.2)];
      text.push_back(' ');
    }
    all += text;
    all.push_back('\x01');
    pages.push_back(std::move(text));
  }
  BuildIndex("idx/z.index", pages);
  auto reader =
      ComponentFileReader::Open(&store_, "idx/z.index", nullptr).MoveValue();
  for (const std::string& pattern :
       {std::string("error"), std::string("timeout"), std::string("ry so"),
        std::string(" pod "), std::string("disk disk")}) {
    uint64_t count;
    ASSERT_TRUE(
        FmCount(reader.get(), &pool_, nullptr, Slice(pattern), &count).ok());
    EXPECT_EQ(count, NaiveCount(all, pattern)) << pattern;
  }
}

TEST_F(FmIndexTest, LocateFindsCorrectPages) {
  std::vector<std::string> pages = {
      "alpha beta gamma", "delta epsilon zeta", "eta theta iota",
      "kappa lambda mu alpha"};
  BuildIndex("idx/f.index", pages);
  auto reader =
      ComponentFileReader::Open(&store_, "idx/f.index", nullptr).MoveValue();

  std::vector<format::PageId> got;
  ASSERT_TRUE(FmLocatePages(reader.get(), &pool_, nullptr,
                            Slice(std::string("alpha")), 100, &got)
                  .ok());
  EXPECT_EQ(got, (std::vector<format::PageId>{0, 3}));

  ASSERT_TRUE(FmLocatePages(reader.get(), &pool_, nullptr,
                            Slice(std::string("epsilon")), 100, &got)
                  .ok());
  EXPECT_EQ(got, (std::vector<format::PageId>{1}));

  ASSERT_TRUE(FmLocatePages(reader.get(), &pool_, nullptr,
                            Slice(std::string("nomatch")), 100, &got)
                  .ok());
  EXPECT_TRUE(got.empty());
}

TEST_F(FmIndexTest, LocateRespectsMaxLocations) {
  std::vector<std::string> pages;
  for (int p = 0; p < 8; ++p) {
    pages.push_back("needle haystack needle straw needle");
  }
  BuildIndex("idx/f.index", pages);
  auto reader =
      ComponentFileReader::Open(&store_, "idx/f.index", nullptr).MoveValue();
  std::vector<format::PageId> got;
  ASSERT_TRUE(FmLocatePages(reader.get(), &pool_, nullptr,
                            Slice(std::string("needle")), 3, &got)
                  .ok());
  // Only 3 occurrences located -> at most 3 pages.
  EXPECT_LE(got.size(), 3u);
  EXPECT_FALSE(got.empty());
}

TEST_F(FmIndexTest, ReservedBytesInPatternRejected) {
  BuildIndex("idx/f.index", {"some text"});
  auto reader =
      ComponentFileReader::Open(&store_, "idx/f.index", nullptr).MoveValue();
  uint64_t count;
  std::string bad1("a\x00b", 3);
  std::string bad2("a\x01b", 3);
  EXPECT_TRUE(FmCount(reader.get(), &pool_, nullptr, Slice(bad1), &count)
                  .IsInvalidArgument());
  EXPECT_TRUE(FmCount(reader.get(), &pool_, nullptr, Slice(bad2), &count)
                  .IsInvalidArgument());
  std::string empty;
  EXPECT_TRUE(FmCount(reader.get(), &pool_, nullptr, Slice(empty), &count)
                  .IsInvalidArgument());
}

TEST_F(FmIndexTest, PatternsNeverMatchAcrossPages) {
  // "endstart" spans page texts but must not match.
  BuildIndex("idx/f.index", {"prefix end", "start suffix"});
  auto reader =
      ComponentFileReader::Open(&store_, "idx/f.index", nullptr).MoveValue();
  uint64_t count;
  ASSERT_TRUE(FmCount(reader.get(), &pool_, nullptr,
                      Slice(std::string("endstart")), &count)
                  .ok());
  EXPECT_EQ(count, 0u);
  ASSERT_TRUE(FmCount(reader.get(), &pool_, nullptr,
                      Slice(std::string("end")), &count)
                  .ok());
  EXPECT_EQ(count, 1u);
}

TEST_F(FmIndexTest, SanitizedBytesStillIndexable) {
  std::string with_nul("log\x00line\x01more", 13);
  BuildIndex("idx/f.index", {with_nul});
  auto reader =
      ComponentFileReader::Open(&store_, "idx/f.index", nullptr).MoveValue();
  uint64_t count;
  // 0x00 and 0x01 were remapped to 0x02 at build; the sanitized pattern
  // matches.
  std::string pattern("g\x02l", 3);
  ASSERT_TRUE(
      FmCount(reader.get(), &pool_, nullptr, Slice(pattern), &count).ok());
  EXPECT_EQ(count, 1u);
}

TEST_F(FmIndexTest, MergeEqualsRebuildSemantics) {
  std::vector<std::string> pages_a = {"error in pod alpha",
                                      "disk pressure on node one"};
  std::vector<std::string> pages_b = {"error in pod beta",
                                      "latency spike zone error"};
  BuildIndex("idx/a.index", pages_a);
  BuildIndex("idx/b.index", pages_b);

  auto ra = ComponentFileReader::Open(&store_, "idx/a.index", nullptr)
                .MoveValue();
  auto rb = ComponentFileReader::Open(&store_, "idx/b.index", nullptr)
                .MoveValue();
  Buffer merged;
  ASSERT_TRUE(FmMerge({ra.get(), rb.get()}, &pool_, nullptr, "body",
                      SmallOptions(), &merged)
                  .ok());
  ASSERT_TRUE(store_.Put("idx/m.index", Slice(merged)).ok());
  auto rm = ComponentFileReader::Open(&store_, "idx/m.index", nullptr)
                .MoveValue();

  std::string all_a = pages_a[0] + "\x01" + pages_a[1] + "\x01";
  std::string all_b = pages_b[0] + "\x01" + pages_b[1] + "\x01";
  for (const std::string& pattern :
       {std::string("error"), std::string("pod"), std::string("disk"),
        std::string("zone"), std::string("missing-term"),
        std::string("e")}) {
    uint64_t count;
    ASSERT_TRUE(
        FmCount(rm.get(), &pool_, nullptr, Slice(pattern), &count).ok());
    EXPECT_EQ(count, NaiveCount(all_a, pattern) + NaiveCount(all_b, pattern))
        << pattern;
  }

  // Locate across the merge: "error" is on a-page 0, b-pages 0 and 1 ->
  // merged page ids 0, 2, 3.
  std::vector<format::PageId> got;
  ASSERT_TRUE(FmLocatePages(rm.get(), &pool_, nullptr,
                            Slice(std::string("error")), 100, &got)
                  .ok());
  EXPECT_EQ(got, (std::vector<format::PageId>{0, 2, 3}));
}

TEST_F(FmIndexTest, MergeOfMergesStillCorrect) {
  BuildIndex("idx/a.index", {"one red apple"});
  BuildIndex("idx/b.index", {"two red pears"});
  BuildIndex("idx/c.index", {"red red robins"});
  auto ra = ComponentFileReader::Open(&store_, "idx/a.index", nullptr)
                .MoveValue();
  auto rb = ComponentFileReader::Open(&store_, "idx/b.index", nullptr)
                .MoveValue();
  Buffer m1;
  ASSERT_TRUE(FmMerge({ra.get(), rb.get()}, &pool_, nullptr, "body",
                      SmallOptions(), &m1)
                  .ok());
  ASSERT_TRUE(store_.Put("idx/m1.index", Slice(m1)).ok());
  auto rm1 = ComponentFileReader::Open(&store_, "idx/m1.index", nullptr)
                 .MoveValue();
  auto rc = ComponentFileReader::Open(&store_, "idx/c.index", nullptr)
                .MoveValue();
  Buffer m2;
  ASSERT_TRUE(FmMerge({rm1.get(), rc.get()}, &pool_, nullptr, "body",
                      SmallOptions(), &m2)
                  .ok());
  ASSERT_TRUE(store_.Put("idx/m2.index", Slice(m2)).ok());
  auto rm2 = ComponentFileReader::Open(&store_, "idx/m2.index", nullptr)
                 .MoveValue();
  uint64_t count;
  ASSERT_TRUE(FmCount(rm2.get(), &pool_, nullptr, Slice(std::string("red")),
                      &count)
                  .ok());
  EXPECT_EQ(count, 4u);
  std::vector<format::PageId> got;
  ASSERT_TRUE(FmLocatePages(rm2.get(), &pool_, nullptr,
                            Slice(std::string("robins")), 100, &got)
                  .ok());
  EXPECT_EQ(got, (std::vector<format::PageId>{2}));
}

TEST_F(FmIndexTest, LargeRandomTextCountFuzz) {
  Random rng(1234);
  std::string text;
  for (int i = 0; i < 60000; ++i) {
    text.push_back('a' + static_cast<char>(rng.Uniform(4)));
  }
  BuildIndex("idx/big.index", {text});
  auto reader =
      ComponentFileReader::Open(&store_, "idx/big.index", nullptr).MoveValue();
  std::string all = text + "\x01";
  for (int trial = 0; trial < 20; ++trial) {
    size_t len = 1 + rng.Uniform(6);
    size_t pos = rng.Uniform(text.size() - len);
    std::string pattern = text.substr(pos, len);
    uint64_t count;
    ASSERT_TRUE(
        FmCount(reader.get(), &pool_, nullptr, Slice(pattern), &count).ok());
    EXPECT_EQ(count, NaiveCount(all, pattern)) << pattern;
  }
}

TEST_F(FmIndexTest, BackwardSearchDepthScalesWithPattern) {
  Random rng(9);
  std::string text;
  for (int i = 0; i < 200000; ++i) {
    text.push_back('a' + static_cast<char>(rng.Uniform(26)));
  }
  FmOptions options;
  options.block_size = 4096;
  options.sample_rate = 8;
  BuildIndex("idx/d.index", {text}, options);

  IoTrace trace;
  auto reader =
      ComponentFileReader::Open(&store_, "idx/d.index", &trace).MoveValue();
  uint64_t count;
  std::string pattern = text.substr(1000, 6);
  ASSERT_TRUE(
      FmCount(reader.get(), &pool_, &trace, Slice(pattern), &count).ok());
  // Depth is bounded by ~1 (open) + 1 (meta, cached) + pattern length
  // rounds; crucially NOT by text size.
  EXPECT_LE(trace.depth(), 2 + pattern.size());
}

}  // namespace
}  // namespace rottnest::index
