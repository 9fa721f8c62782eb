#include "index/keyword/keyword_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "format/page_table.h"
#include "objectstore/object_store.h"

namespace rottnest::index {
namespace {

using objectstore::InMemoryObjectStore;
using objectstore::IoTrace;

std::vector<std::string> Tokens(const std::string& text) {
  std::vector<std::string> out;
  Tokenize(Slice(text), &out);
  return out;
}

TEST(KeywordTokenizerTest, LowercasesAndSplitsOnNonAlnum) {
  EXPECT_EQ(Tokens("Hello, World!"),
            (std::vector<std::string>{"hello", "world"}));
  EXPECT_EQ(Tokens("a-b_c.d"), (std::vector<std::string>{"a", "b", "c", "d"}));
  EXPECT_EQ(Tokens("err404 trace7x"),
            (std::vector<std::string>{"err404", "trace7x"}));
  // Tokens past the tokenizer's 64-byte stack buffer come out whole.
  EXPECT_EQ(Tokens(std::string(64, 'Q') + "," + std::string(300, 'Z') + "9"),
            (std::vector<std::string>{std::string(64, 'q'),
                                      std::string(300, 'z') + "9"}));
}

TEST(KeywordTokenizerTest, EmptyAndPunctuationOnlyDocsYieldNoTokens) {
  EXPECT_TRUE(Tokens("").empty());
  EXPECT_TRUE(Tokens("  \t\n").empty());
  EXPECT_TRUE(Tokens("!!! ... ---,,,").empty());
}

TEST(KeywordTokenizerTest, NonAsciiBytesAreSeparators) {
  // Bytes >= 0x80 are not ASCII alphanumerics; they split runs just like
  // punctuation, keeping the tokenizer deterministic and locale-free.
  EXPECT_EQ(Tokens("caf\xc3\xa9 au lait"),
            (std::vector<std::string>{"caf", "au", "lait"}));
}

TEST(KeywordTokenizerTest, NormalizeTermAcceptsExactlyOneToken) {
  std::string out;
  EXPECT_TRUE(NormalizeTerm(Slice(std::string_view("  Hello!  ")), &out));
  EXPECT_EQ(out, "hello");
  EXPECT_FALSE(NormalizeTerm(Slice(std::string_view("")), &out));
  EXPECT_FALSE(NormalizeTerm(Slice(std::string_view("...")), &out));
  EXPECT_FALSE(NormalizeTerm(Slice(std::string_view("two words")), &out));
}

TEST(KeywordTokenizerTest, PreparePageTokensDeduplicatesWithinPage) {
  // Duplicate terms within a row (and across rows of one page) collapse to
  // one posting; empty / punctuation-only rows contribute nothing.
  std::vector<std::string> values = {"spark spark SPARK", "", "?!",
                                     "delta spark"};
  std::vector<std::string> tokens;
  KeywordIndexBuilder::PreparePageTokens(values, &tokens);
  EXPECT_EQ(tokens, (std::vector<std::string>{"delta", "spark"}));
}

// ---------------------------------------------------------------------------
// Differential test of the in-situ row predicate against the reference it
// replaced: tokenize the row, sort the tokens, binary_search each term.
// The reference tokenizer is the plain byte loop, independent of
// ForEachToken, so a drift in the shared core shows up here too.

std::vector<std::string> ReferenceTokens(const std::string& text) {
  std::vector<std::string> out;
  std::string token;
  for (char c : text) {
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      token.push_back(c);
    } else if (c >= 'A' && c <= 'Z') {
      token.push_back(static_cast<char>(c - 'A' + 'a'));
    } else if (!token.empty()) {
      out.push_back(std::move(token));
      token.clear();
    }
  }
  if (!token.empty()) out.push_back(std::move(token));
  return out;
}

bool ReferenceRowMatches(const std::string& row,
                         const std::vector<std::string>& terms,
                         bool require_all) {
  std::vector<std::string> toks = ReferenceTokens(row);
  std::sort(toks.begin(), toks.end());
  for (const std::string& t : terms) {
    bool has = std::binary_search(toks.begin(), toks.end(), t);
    if (require_all && !has) return false;
    if (!require_all && has) return true;
  }
  return require_all;
}

/// A token-ish fragment: vocabulary words in random case (some glued to
/// digits), punctuation, bytes >= 0x80 (alone and inside words), or a long
/// alphanumeric run that no fixed buffer holds.
std::string Fragment(Random* rng, const std::vector<std::string>& vocab) {
  switch (rng->Uniform(8)) {
    case 0:
      return std::string(1 + rng->Uniform(3), ",.;:!?-_/ "[rng->Uniform(10)]);
    case 1: {
      std::string high;
      for (uint64_t i = 1 + rng->Uniform(3); i > 0; --i) {
        high.push_back(static_cast<char>(0x80 + rng->Uniform(128)));
      }
      return high;
    }
    case 2:
      return std::to_string(rng->Uniform(1000));
    default: {
      std::string w = vocab[rng->Uniform(vocab.size())];
      for (char& c : w) {
        if (rng->Uniform(3) == 0 && c >= 'a' && c <= 'z') c -= 'a' - 'A';
      }
      if (rng->Uniform(8) == 0) w.insert(rng->Uniform(w.size() + 1), "\xc3");
      if (rng->Uniform(8) == 0) w += std::to_string(rng->Uniform(10));
      return w;
    }
  }
}

TEST(KeywordRowMatcherTest, AgreesWithSortedTokenReference) {
  Random rng(2024);
  std::vector<std::string> vocab = {"error", "lake", "index", "page",
                                    "scan",  "q",    "x1",    "404"};
  // Tokens longer than any fixed buffer, as both row words and terms.
  for (size_t len : {63, 64, 65, 200, 1000}) {
    std::string w;
    for (size_t i = 0; i < len; ++i) w.push_back('a' + rng.Uniform(3));
    vocab.push_back(w);
  }
  const size_t max_terms = 8;
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<std::string> terms;
    for (size_t n = 1 + rng.Uniform(max_terms); n > 0; --n) {
      std::string t = vocab[rng.Uniform(vocab.size())];
      if (rng.Uniform(4) == 0) t += std::to_string(rng.Uniform(10));
      std::string norm;
      ASSERT_TRUE(NormalizeTerm(Slice(t), &norm)) << t;
      ASSERT_EQ(ReferenceTokens(t), std::vector<std::string>{norm});
      terms.push_back(norm);
    }
    std::sort(terms.begin(), terms.end());
    terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
    for (bool require_all : {true, false}) {
      const KeywordRowMatcher matcher(terms, require_all);
      for (int r = 0; r < 25; ++r) {
        std::string row;
        for (uint64_t f = rng.Uniform(12); f > 0; --f) {
          row += Fragment(&rng, vocab);
          if (rng.Uniform(2) == 0) row += ' ';
        }
        ASSERT_EQ(Tokens(row), ReferenceTokens(row)) << "row '" << row << "'";
        ASSERT_EQ(matcher.Matches(row),
                  ReferenceRowMatches(row, terms, require_all))
            << (require_all ? "AND" : "OR") << " row '" << row << "'";
      }
    }
  }
}

TEST(KeywordRowMatcherTest, HandlesMoreTermsThanOneMaskWord) {
  // Past 64 terms the AND bitmask spills to more words; the answer must
  // not change.
  std::vector<std::string> terms;
  std::string all, most;
  for (int i = 0; i < 70; ++i) {
    terms.push_back("t" + std::to_string(i));
    all += "T" + std::to_string(i) + " ";
    if (i != 66) most += "t" + std::to_string(i) + ",";
  }
  const KeywordRowMatcher both(terms, /*require_all=*/true);
  EXPECT_TRUE(both.Matches(all));
  EXPECT_FALSE(both.Matches(most));
  EXPECT_FALSE(both.Matches(""));
  const KeywordRowMatcher any(terms, /*require_all=*/false);
  EXPECT_TRUE(any.Matches("zzz t69"));
  EXPECT_FALSE(any.Matches("t70 t"));
}

std::vector<format::PageId> RoundTrip(const std::vector<format::PageId>& in) {
  Buffer buf;
  EncodePostings(in, &buf);
  Decoder dec{Slice(buf)};
  std::vector<format::PageId> out;
  EXPECT_TRUE(DecodePostings(&dec, &out).ok());
  EXPECT_EQ(dec.remaining(), 0u);
  return out;
}

TEST(KeywordPostingsCodecTest, RoundTripsEmptyAndSingleton) {
  EXPECT_TRUE(RoundTrip({}).empty());
  EXPECT_EQ(RoundTrip({0}), (std::vector<format::PageId>{0}));
  EXPECT_EQ(RoundTrip({12345}), (std::vector<format::PageId>{12345}));
}

TEST(KeywordPostingsCodecTest, RoundTripsAtEveryBitWidth) {
  // Gap of (1 << (w-1)) forces exactly bit width w; every width the page-id
  // domain can produce must survive the round trip.
  for (int w = 1; w <= 32; ++w) {
    std::vector<format::PageId> pages = {1};
    uint64_t gap = w == 1 ? 1 : (1ull << (w - 1));
    uint64_t next = 1 + gap;
    if (next > 0xffffffffull) break;
    pages.push_back(static_cast<format::PageId>(next));
    pages.push_back(static_cast<format::PageId>(next + 1));
    EXPECT_EQ(RoundTrip(pages), pages) << "width " << w;
  }
}

TEST(KeywordPostingsCodecTest, RoundTripsRandomSortedLists) {
  Random rng(7);
  for (int iter = 0; iter < 50; ++iter) {
    std::set<format::PageId> set;
    size_t n = 1 + rng.Uniform(200);
    for (size_t i = 0; i < n; ++i) {
      set.insert(static_cast<format::PageId>(rng.Uniform(1u << 20)));
    }
    std::vector<format::PageId> pages(set.begin(), set.end());
    EXPECT_EQ(RoundTrip(pages), pages);
  }
}

TEST(KeywordPostingsCodecTest, RejectsCorruptWidth) {
  Buffer buf;
  EncodePostings({1, 2, 3}, &buf);
  // The width byte follows the varint count (count 3 = 1 byte).
  buf[1] = 0;  // width 0 is invalid for a non-empty list
  Decoder dec0{Slice(buf)};
  std::vector<format::PageId> out;
  EXPECT_FALSE(DecodePostings(&dec0, &out).ok());
  buf[1] = 57;  // > 56 would overflow the bit-unpack word
  Decoder dec57{Slice(buf)};
  EXPECT_FALSE(DecodePostings(&dec57, &out).ok());
}

// Index-file-level fixture: synthetic page table + builder/query/merge.
class KeywordIndexTest : public ::testing::Test {
 protected:
  SimulatedClock clock_;
  InMemoryObjectStore store_{&clock_};
  ThreadPool pool_{4};

  static format::PageTable MakePages(const std::string& file, size_t pages) {
    format::FileMeta meta;
    meta.schema.columns.push_back({"body", format::PhysicalType::kByteArray, 0});
    format::RowGroupMeta rg;
    rg.num_rows = pages * 10;
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
    table.AddFile(file, meta, 0);
    return table;
  }

  // Builds an index over synthetic terms; returns term -> expected pages.
  std::map<std::string, std::vector<format::PageId>> BuildIndex(
      const std::string& object_key, size_t num_postings, uint64_t seed,
      size_t pages = 64) {
    format::PageTable table = MakePages("data/" + object_key + ".lake", pages);
    KeywordIndexBuilder builder("body");
    std::map<std::string, std::vector<format::PageId>> expected;
    Random rng(seed);
    for (size_t i = 0; i < num_postings; ++i) {
      std::string term = "term" + std::to_string(rng.Uniform(300));
      format::PageId page = static_cast<format::PageId>(rng.Uniform(pages));
      builder.Add(term, page);
      auto& v = expected[term];
      v.push_back(page);
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    }
    Buffer file;
    EXPECT_TRUE(builder.Finish(table, &file).ok());
    EXPECT_TRUE(store_.Put(object_key, Slice(file)).ok());
    return expected;
  }

  std::unique_ptr<ComponentFileReader> Open(const std::string& key,
                                            IoTrace* trace = nullptr) {
    return ComponentFileReader::Open(&store_, key, trace).MoveValue();
  }
};

TEST_F(KeywordIndexTest, SingleTermLookupFindsAllPostings) {
  auto expected = BuildIndex("idx/k.index", 5000, 17);
  auto reader = Open("idx/k.index");
  for (const auto& [term, pages] : expected) {
    std::vector<format::PageId> got;
    ASSERT_TRUE(KeywordQueryMany(reader.get(), &pool_, nullptr, {term},
                                 /*require_all=*/true, &got)
                    .ok());
    EXPECT_EQ(got, pages) << term;
  }
}

TEST_F(KeywordIndexTest, MissingTermsReturnNothing) {
  BuildIndex("idx/k.index", 5000, 17);
  auto reader = Open("idx/k.index");
  for (const char* term : {"absent", "aaaa", "zzzz", "term99999", "term"}) {
    std::vector<format::PageId> got;
    ASSERT_TRUE(KeywordQueryMany(reader.get(), &pool_, nullptr, {term},
                                 /*require_all=*/true, &got)
                    .ok());
    EXPECT_TRUE(got.empty()) << term;
  }
}

TEST_F(KeywordIndexTest, AndIntersectsOrUnions) {
  format::PageTable table = MakePages("data/f.lake", 16);
  KeywordIndexBuilder builder("body");
  builder.Add("alpha", 1);
  builder.Add("alpha", 3);
  builder.Add("alpha", 5);
  builder.Add("beta", 3);
  builder.Add("beta", 7);
  Buffer file;
  ASSERT_TRUE(builder.Finish(table, &file).ok());
  ASSERT_TRUE(store_.Put("idx/b.index", Slice(file)).ok());
  auto reader = Open("idx/b.index");

  std::vector<format::PageId> got;
  ASSERT_TRUE(KeywordQueryMany(reader.get(), &pool_, nullptr,
                               {"alpha", "beta"}, /*require_all=*/true, &got)
                  .ok());
  EXPECT_EQ(got, (std::vector<format::PageId>{3}));
  ASSERT_TRUE(KeywordQueryMany(reader.get(), &pool_, nullptr,
                               {"alpha", "beta"}, /*require_all=*/false, &got)
                  .ok());
  EXPECT_EQ(got, (std::vector<format::PageId>{1, 3, 5, 7}));
  // AND with an absent term is empty, OR ignores it.
  ASSERT_TRUE(KeywordQueryMany(reader.get(), &pool_, nullptr,
                               {"alpha", "absent"}, /*require_all=*/true, &got)
                  .ok());
  EXPECT_TRUE(got.empty());
  ASSERT_TRUE(KeywordQueryMany(reader.get(), &pool_, nullptr,
                               {"alpha", "absent"}, /*require_all=*/false,
                               &got)
                  .ok());
  EXPECT_EQ(got, (std::vector<format::PageId>{1, 3, 5}));
}

TEST_F(KeywordIndexTest, MultiTermLookupIsOnePostingRound) {
  BuildIndex("idx/k.index", 20000, 23);
  IoTrace trace;
  auto reader = Open("idx/k.index", &trace);
  std::vector<format::PageId> got;
  ASSERT_TRUE(KeywordQueryMany(reader.get(), &pool_, &trace,
                               {"term1", "term7", "term250"},
                               /*require_all=*/false, &got)
                  .ok());
  // Open (tail incl. dict) + at most one posting-component round.
  EXPECT_LE(trace.depth(), 2u);
}

TEST_F(KeywordIndexTest, ManyTermQueriesMatchReferenceAcrossComponents) {
  // Thousands of terms spread over several posting components; random
  // AND/OR queries — repeated terms, absent terms, terms sharing a
  // component — must equal the set algebra over the built postings.
  format::PageTable table = MakePages("data/m.lake", 64);
  KeywordIndexBuilder builder("body");
  std::map<std::string, std::vector<format::PageId>> expected;
  Random rng(31);
  for (int t = 0; t < 12000; ++t) {
    std::string term = "w" + std::to_string(t);
    for (uint64_t k = 1 + rng.Uniform(12); k > 0; --k) {
      auto page = static_cast<format::PageId>(rng.Uniform(64));
      builder.Add(term, page);
      expected[term].push_back(page);
    }
  }
  for (auto& [term, pages] : expected) {
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  }
  Buffer file;
  ASSERT_TRUE(builder.Finish(table, &file).ok());
  ASSERT_TRUE(store_.Put("idx/m.index", Slice(file)).ok());
  auto reader = Open("idx/m.index");
  size_t components = 0;
  for (const std::string& name : reader->ComponentNames()) {
    components += name.rfind("post.", 0) == 0 ? 1 : 0;
  }
  ASSERT_GE(components, 3u);

  for (int q = 0; q < 300; ++q) {
    std::vector<std::string> terms;
    for (uint64_t n = 1 + rng.Uniform(4); n > 0; --n) {
      terms.push_back(rng.Uniform(8) == 0
                          ? "x" + std::to_string(rng.Uniform(100))
                          : "w" + std::to_string(rng.Uniform(12000)));
      if (rng.Uniform(6) == 0) terms.push_back(terms.back());
    }
    for (bool require_all : {true, false}) {
      std::vector<format::PageId> want;
      for (size_t i = 0; i < terms.size(); ++i) {
        auto it = expected.find(terms[i]);
        std::vector<format::PageId> pages =
            it == expected.end() ? std::vector<format::PageId>{} : it->second;
        std::vector<format::PageId> next;
        if (i == 0) {
          next = pages;
        } else if (require_all) {
          std::set_intersection(want.begin(), want.end(), pages.begin(),
                                pages.end(), std::back_inserter(next));
        } else {
          std::set_union(want.begin(), want.end(), pages.begin(), pages.end(),
                         std::back_inserter(next));
        }
        want = std::move(next);
      }
      std::vector<format::PageId> got;
      ASSERT_TRUE(KeywordQueryMany(reader.get(), &pool_, nullptr, terms,
                                   require_all, &got)
                      .ok());
      ASSERT_EQ(got, want) << "query " << q << (require_all ? " AND" : " OR");
    }
  }
}

TEST_F(KeywordIndexTest, FinishIsByteIdenticalAcrossThreadCounts) {
  format::PageTable table = MakePages("data/f.lake", 64);
  auto build = [&](ThreadPool* pool) {
    KeywordIndexBuilder builder("body");
    Random rng(99);
    for (size_t i = 0; i < 30000; ++i) {
      builder.Add("w" + std::to_string(rng.Uniform(2000)),
                  static_cast<format::PageId>(rng.Uniform(64)));
    }
    Buffer file;
    EXPECT_TRUE(builder.Finish(table, pool, &file).ok());
    return file;
  };
  Buffer serial = build(nullptr);
  Buffer parallel = build(&pool_);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(Slice(serial), Slice(parallel));
}

TEST_F(KeywordIndexTest, EmptyIndexReturnsNothing) {
  format::PageTable table;
  KeywordIndexBuilder builder("body");
  Buffer file;
  ASSERT_TRUE(builder.Finish(table, &file).ok());
  ASSERT_TRUE(store_.Put("idx/e.index", Slice(file)).ok());
  auto reader = Open("idx/e.index");
  std::vector<format::PageId> got;
  ASSERT_TRUE(KeywordQueryMany(reader.get(), &pool_, nullptr, {"any"},
                               /*require_all=*/true, &got)
                  .ok());
  EXPECT_TRUE(got.empty());
}

TEST_F(KeywordIndexTest, MergeUnionsTermsAndRemapsPages) {
  auto expected_a = BuildIndex("idx/a.index", 3000, 100);
  auto expected_b = BuildIndex("idx/b.index", 3000, 200);
  auto ra = Open("idx/a.index");
  auto rb = Open("idx/b.index");
  Buffer merged;
  ASSERT_TRUE(KeywordMerge({ra.get(), rb.get()}, &pool_, nullptr, "body",
                           &merged)
                  .ok());
  ASSERT_TRUE(store_.Put("idx/m.index", Slice(merged)).ok());
  auto rm = Open("idx/m.index");

  // Expected merged postings: A's pages unchanged, B's offset by A's 64.
  std::map<std::string, std::vector<format::PageId>> expected;
  for (const auto& [term, pages] : expected_a) {
    auto& v = expected[term];
    v.insert(v.end(), pages.begin(), pages.end());
  }
  for (const auto& [term, pages] : expected_b) {
    auto& v = expected[term];
    for (format::PageId p : pages) v.push_back(p + 64);
    std::sort(v.begin(), v.end());
  }
  for (const auto& [term, pages] : expected) {
    std::vector<format::PageId> got;
    ASSERT_TRUE(KeywordQueryMany(rm.get(), &pool_, nullptr, {term},
                                 /*require_all=*/true, &got)
                    .ok());
    EXPECT_EQ(got, pages) << term;
  }
}

TEST_F(KeywordIndexTest, MergeMatchesDirectBuildByteForByte) {
  // The PR 3 contract transplanted: merging two halves must emit the exact
  // bytes of building the union directly over the concatenated page table.
  format::PageTable table_a = MakePages("data/a.lake", 32);
  format::PageTable table_b = MakePages("data/b.lake", 32);
  KeywordIndexBuilder ba("body");
  KeywordIndexBuilder bb("body");
  KeywordIndexBuilder direct("body");
  Random rng(5);
  for (size_t i = 0; i < 20000; ++i) {
    std::string term = "w" + std::to_string(rng.Uniform(1500));
    format::PageId page = static_cast<format::PageId>(rng.Uniform(32));
    if (rng.Uniform(2) == 0) {
      ba.Add(term, page);
      direct.Add(term, page);
    } else {
      bb.Add(term, page);
      direct.Add(term, page + 32);
    }
  }
  Buffer file_a, file_b;
  ASSERT_TRUE(ba.Finish(table_a, &file_a).ok());
  ASSERT_TRUE(bb.Finish(table_b, &file_b).ok());
  ASSERT_TRUE(store_.Put("idx/a.index", Slice(file_a)).ok());
  ASSERT_TRUE(store_.Put("idx/b.index", Slice(file_b)).ok());

  format::PageTable merged_table = MakePages("data/a.lake", 32);
  format::PageTable table_b2 = MakePages("data/b.lake", 32);
  merged_table.Absorb(table_b2);
  Buffer direct_file;
  ASSERT_TRUE(direct.Finish(merged_table, &direct_file).ok());

  auto ra = Open("idx/a.index");
  auto rb = Open("idx/b.index");
  Buffer merged_serial, merged_parallel;
  ASSERT_TRUE(KeywordMerge({ra.get(), rb.get()}, nullptr, nullptr, "body",
                           &merged_serial)
                  .ok());
  auto ra2 = Open("idx/a.index");
  auto rb2 = Open("idx/b.index");
  ASSERT_TRUE(KeywordMerge({ra2.get(), rb2.get()}, &pool_, nullptr, "body",
                           &merged_parallel)
                  .ok());
  EXPECT_EQ(Slice(merged_serial), Slice(direct_file));
  EXPECT_EQ(Slice(merged_parallel), Slice(direct_file));
}

TEST_F(KeywordIndexTest, CollectStatsTalliesPostings) {
  auto expected = BuildIndex("idx/k.index", 4000, 11);
  uint64_t postings = 0;
  for (const auto& [term, pages] : expected) postings += pages.size();
  auto reader = Open("idx/k.index");
  KeywordIndexStats stats;
  ASSERT_TRUE(CollectKeywordStats(reader.get(), &pool_, nullptr, &stats).ok());
  EXPECT_EQ(stats.terms, expected.size());
  EXPECT_EQ(stats.postings, postings);
  EXPECT_GT(stats.encoded_posting_bytes, 0u);
  // Delta+bitpack must beat raw 4-byte page ids on this Zipf-ish data.
  EXPECT_LT(stats.encoded_posting_bytes, postings * sizeof(format::PageId));
}

}  // namespace
}  // namespace rottnest::index
