// High-cardinality exact-match index (paper §V-C1): a binary trie over
// 128-bit keys, truncated per key to its longest common prefix plus 8 extra
// bits, componentized for object storage:
//
//   * leaf components: sorted truncated keys + page-id posting lists,
//     each component ~64KB serialized;
//   * root component (written last, so it rides in the directory tail
//     read): a 256-entry first-byte lookup table replacing the top 8 trie
//     levels, plus each leaf's first key for routing.
//
// A lookup therefore costs two dependent rounds: tail read (directory +
// root), then exactly the leaf component(s) that can contain the key.
// Truncation makes the index false-positive-tolerant — multiple keys may
// collapse into one node after merges — which is sound because every hit is
// verified in situ against the data pages (paper §IV-B step 3).
#ifndef ROTTNEST_INDEX_TRIE_TRIE_INDEX_H_
#define ROTTNEST_INDEX_TRIE_TRIE_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "format/page_table.h"
#include "index/component_file.h"

namespace rottnest::index {

/// A 128-bit key, compared big-endian bitwise (bit 0 = MSB of hi).
struct Key128 {
  uint64_t hi = 0;
  uint64_t lo = 0;

  /// Keeps the first `bits` bits, zeroing the rest.
  Key128 Truncate(int bits) const;

  /// Length of the common prefix with `other`, in bits (0..128).
  int CommonPrefixLen(const Key128& other) const;

  bool operator==(const Key128& o) const { return hi == o.hi && lo == o.lo; }
  bool operator<(const Key128& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }
};

/// Canonical key for a column value: raw bytes for 16-byte values (true
/// UUIDs), a 128-bit hash otherwise. Build and query must agree, so both
/// use this function.
Key128 KeyFromValue(Slice value);

/// Accumulates (key, page) postings and emits a trie index file.
class TrieIndexBuilder {
 public:
  explicit TrieIndexBuilder(std::string column) : column_(std::move(column)) {}

  /// Registers that `key` occurs in page `page` (of the page table passed
  /// to Finish).
  void Add(Key128 key, format::PageId page);

  /// Number of postings added.
  size_t num_postings() const { return postings_.size(); }

  /// Builds the index file image. `pages` is embedded as the "pagetable"
  /// component so searches can resolve page ids without other metadata.
  Status Finish(const format::PageTable& pages, Buffer* out) {
    return Finish(pages, nullptr, out);
  }

  /// Parallel variant: leaf serialization and compression fan out on `pool`
  /// (nullptr = inline). The emitted image is byte-identical at any thread
  /// count — the leaf partition and the append order are fixed before any
  /// work is distributed.
  Status Finish(const format::PageTable& pages, ThreadPool* pool, Buffer* out);

 private:
  std::string column_;
  std::vector<std::pair<Key128, format::PageId>> postings_;
};

/// Looks up `key`, appending page ids of every node whose truncated key is
/// a prefix of `key`. Two dependent IO rounds (root already cached by the
/// reader's tail read, one round for leaves).
Status TrieQuery(ComponentFileReader* reader, ThreadPool* pool,
                 objectstore::IoTrace* trace, const Key128& key,
                 std::vector<format::PageId>* pages);

/// Merges several trie index files into one (LSM-style compaction). The
/// merged file's page table is the concatenation of the inputs' tables;
/// postings are remapped accordingly. Colliding truncated keys (one a
/// prefix of another) are coalesced, trading false positives for bounded
/// merge cost — as §V-C1 prescribes. The merge streams through the shared
/// sorted-component layer (`index/sorted_components.h`; DESIGN.md §4k).
Status TrieMerge(const std::vector<ComponentFileReader*>& inputs,
                 ThreadPool* pool, objectstore::IoTrace* trace,
                 const std::string& column, Buffer* out);

}  // namespace rottnest::index

#endif  // ROTTNEST_INDEX_TRIE_TRIE_INDEX_H_
