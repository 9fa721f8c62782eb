// Pins the exact bytes of trie and keyword index images. Both kinds share
// one sorted-component layout (sorted entries cut into ~64 KB components,
// page table first, fence component last). A refactor of that layer must
// leave every image byte-identical, at every thread count, for a direct
// build and for a merge alike; a change that moves these bytes is a format
// change and re-pins them on purpose. The pinned values are Hash64 of the
// image.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "format/page_table.h"
#include "index/keyword/keyword_index.h"
#include "index/trie/trie_index.h"
#include "objectstore/object_store.h"

namespace rottnest::index {
namespace {

using objectstore::InMemoryObjectStore;

constexpr size_t kPages = 64;

format::PageTable MakePages(const std::string& file) {
  format::FileMeta meta;
  meta.schema.columns.push_back({"c", format::PhysicalType::kByteArray, 0});
  format::RowGroupMeta rg;
  rg.num_rows = kPages * 10;
  format::ColumnChunkMeta cc;
  for (size_t p = 0; p < kPages; ++p) {
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

Key128 RandomKey(Random* rng) { return Key128{rng->Next(), rng->Next()}; }

/// Expected Hash64 of each image.
struct Pins {
  uint64_t finish;
  uint64_t merge2;
};

enum class Kind { kTrie, kKeyword };

class SortedImagePinTest : public ::testing::TestWithParam<Kind> {
 protected:
  SimulatedClock clock_;
  InMemoryObjectStore store_{&clock_};
  ThreadPool pool2_{2};
  ThreadPool pool8_{8};

  std::vector<ThreadPool*> Pools() { return {nullptr, &pool2_, &pool8_}; }

  static Pins Pinned(Kind kind) {
    return kind == Kind::kTrie
               ? Pins{2704046959010084984ULL, 3458790767065626517ULL}
               : Pins{9209259177588071246ULL, 17749576236058752988ULL};
  }

  /// A fixed-seed index over `n` random postings on a 64-page table.
  Buffer Build(uint64_t seed, size_t n, const std::string& file,
               ThreadPool* pool) {
    Random rng(seed);
    Buffer out;
    if (GetParam() == Kind::kTrie) {
      TrieIndexBuilder builder("c");
      for (size_t i = 0; i < n; ++i) {
        Key128 key = RandomKey(&rng);
        builder.Add(key, static_cast<format::PageId>(rng.Uniform(kPages)));
      }
      EXPECT_TRUE(builder.Finish(MakePages(file), pool, &out).ok());
    } else {
      KeywordIndexBuilder builder("c");
      for (size_t i = 0; i < n; ++i) {
        std::string term = "w" + std::to_string(rng.Uniform(n / 10));
        builder.Add(std::move(term),
                    static_cast<format::PageId>(rng.Uniform(kPages)));
      }
      EXPECT_TRUE(builder.Finish(MakePages(file), pool, &out).ok());
    }
    return out;
  }

  Buffer Merge(const std::vector<std::string>& keys, ThreadPool* pool) {
    std::vector<std::unique_ptr<ComponentFileReader>> owned;
    std::vector<ComponentFileReader*> inputs;
    for (const std::string& key : keys) {
      owned.push_back(
          ComponentFileReader::Open(&store_, key, nullptr).MoveValue());
      inputs.push_back(owned.back().get());
    }
    Buffer out;
    Status s = GetParam() == Kind::kTrie
                   ? TrieMerge(inputs, pool, nullptr, "c", &out)
                   : KeywordMerge(inputs, pool, nullptr, "c", &out);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  size_t SortedComponents(const std::string& key) {
    auto reader = ComponentFileReader::Open(&store_, key, nullptr).MoveValue();
    const std::string prefix = GetParam() == Kind::kTrie ? "leaf." : "post.";
    size_t n = 0;
    for (const std::string& name : reader->ComponentNames()) {
      n += name.rfind(prefix, 0) == 0 ? 1 : 0;
    }
    return n;
  }
};

TEST_P(SortedImagePinTest, FinishBytesArePinnedAtEveryThreadCount) {
  for (ThreadPool* pool : Pools()) {
    Buffer image = Build(7, 60000, "data/f.lake", pool);
    EXPECT_EQ(Hash64(Slice(image)), Pinned(GetParam()).finish)
        << "threads " << (pool == nullptr ? 0 : pool->num_threads());
  }
  ASSERT_TRUE(store_.Put("idx/f.index", Slice(Build(7, 60000, "data/f.lake",
                                                    nullptr)))
                  .ok());
  EXPECT_GE(SortedComponents("idx/f.index"), 3u);
}

TEST_P(SortedImagePinTest, TwoInputMergeBytesArePinnedAtEveryThreadCount) {
  ASSERT_TRUE(
      store_.Put("idx/a.index", Slice(Build(11, 30000, "data/a.lake", nullptr)))
          .ok());
  ASSERT_TRUE(
      store_.Put("idx/b.index", Slice(Build(12, 30000, "data/b.lake", nullptr)))
          .ok());
  for (ThreadPool* pool : Pools()) {
    Buffer image = Merge({"idx/a.index", "idx/b.index"}, pool);
    EXPECT_EQ(Hash64(Slice(image)), Pinned(GetParam()).merge2)
        << "threads " << (pool == nullptr ? 0 : pool->num_threads());
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, SortedImagePinTest,
                         ::testing::Values(Kind::kTrie, Kind::kKeyword),
                         [](const ::testing::TestParamInfo<Kind>& info) {
                           return info.param == Kind::kTrie ? "Trie"
                                                            : "Keyword";
                         });

// Three trie inputs whose truncated keys collide across files: input C
// holds near-twins of input A's keys, which C's own truncation keeps at
// full length, so A's shorter entries are prefixes of them and the merge
// folds C's postings into A's entries.
TEST(SortedImagePinTrieTest, ThreeInputMergeWithCollidingKeysIsPinned) {
  SimulatedClock clock;
  InMemoryObjectStore store(&clock);
  ThreadPool pool2(2);
  ThreadPool pool8(8);

  Random rng(23);
  TrieIndexBuilder a("c"), b("c"), c("c");
  std::vector<Key128> a_keys;
  for (size_t i = 0; i < 4000; ++i) {
    Key128 key = RandomKey(&rng);
    a.Add(key, static_cast<format::PageId>(rng.Uniform(kPages)));
    a_keys.push_back(key);
    b.Add(RandomKey(&rng), static_cast<format::PageId>(rng.Uniform(kPages)));
    if (i % 4 == 0) {
      for (uint64_t flip : {1, 2}) {
        c.Add(Key128{key.hi, key.lo ^ flip},
              static_cast<format::PageId>(rng.Uniform(kPages)));
      }
    }
  }
  Buffer image;
  ASSERT_TRUE(a.Finish(MakePages("data/a.lake"), &image).ok());
  ASSERT_TRUE(store.Put("idx/a.index", Slice(image)).ok());
  ASSERT_TRUE(b.Finish(MakePages("data/b.lake"), &image).ok());
  ASSERT_TRUE(store.Put("idx/b.index", Slice(image)).ok());
  ASSERT_TRUE(c.Finish(MakePages("data/c.lake"), &image).ok());
  ASSERT_TRUE(store.Put("idx/c.index", Slice(image)).ok());

  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2, &pool8}) {
    std::vector<std::unique_ptr<ComponentFileReader>> owned;
    std::vector<ComponentFileReader*> inputs;
    for (const char* key : {"idx/a.index", "idx/b.index", "idx/c.index"}) {
      owned.push_back(
          ComponentFileReader::Open(&store, key, nullptr).MoveValue());
      inputs.push_back(owned.back().get());
    }
    Buffer merged;
    ASSERT_TRUE(TrieMerge(inputs, pool, nullptr, "c", &merged).ok());
    EXPECT_EQ(Hash64(Slice(merged)), 7938109272200056621ULL)
        << "threads " << (pool == nullptr ? 0 : pool->num_threads());

    // The absorb path ran: a lookup of A's key also returns the pages C
    // posted under its twins (C's page ids start at 2 * kPages).
    ASSERT_TRUE(store.Put("idx/m.index", Slice(merged)).ok());
    auto reader =
        ComponentFileReader::Open(&store, "idx/m.index", nullptr).MoveValue();
    std::vector<format::PageId> pages;
    ASSERT_TRUE(
        TrieQuery(reader.get(), nullptr, nullptr, a_keys[0], &pages).ok());
    bool has_c_page = false;
    for (format::PageId p : pages) has_c_page |= p >= 2 * kPages;
    EXPECT_TRUE(has_c_page);
  }
}

}  // namespace
}  // namespace rottnest::index
