// Tokenized inverted index for boolean keyword search over text columns
// (ROADMAP item 4a; RISE in PAPERS.md is the shape): a deterministic ASCII
// tokenizer feeds per-token posting lists of page ids, delta-encoded and
// bit-packed with the `src/compress/` coders, componentized for object
// storage:
//
//   * posting components ("post.N"): sorted terms, each with its packed
//     posting list, ~64KB serialized per component;
//   * dictionary component ("dict", written last so it rides in the
//     directory tail read): the first term of every posting component,
//     for routing a term to the one component that can contain it.
//
// A k-term boolean query therefore costs two dependent rounds: tail read
// (directory + dict), then ONE parallel round for exactly the posting
// component(s) the terms route to. Pages are a superset signal — a page
// holds many rows — so every candidate row is verified in situ against the
// data pages (paper §IV-B step 3), exactly like the trie path.
#ifndef ROTTNEST_INDEX_KEYWORD_KEYWORD_INDEX_H_
#define ROTTNEST_INDEX_KEYWORD_KEYWORD_INDEX_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "format/page_table.h"
#include "index/component_file.h"

namespace rottnest::index {

namespace internal {
constexpr std::array<char, 256> MakeTokenBytes() {
  std::array<char, 256> t{};
  for (int c = '0'; c <= '9'; ++c) t[c] = static_cast<char>(c);
  for (int c = 'a'; c <= 'z'; ++c) t[c] = static_cast<char>(c);
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = static_cast<char>(c - 'A' + 'a');
  return t;
}
/// Token byte -> its lowercased form; 0 for separators (every byte that is
/// not an ASCII letter or digit, including all bytes >= 0x80).
inline constexpr std::array<char, 256> kTokenByte = MakeTokenBytes();
}  // namespace internal

/// The tokenizer core: calls `fn(token)` for each token of `text` in order
/// — a maximal run of ASCII alphanumerics, lowercased — until `fn` returns
/// false. The view is valid only during the call. Deterministic and
/// locale-independent; index builds, query-term normalization and in-situ
/// row verification all tokenize through it, so they cannot disagree.
/// Allocates only for tokens longer than 64 bytes.
template <typename Fn>
void ForEachToken(Slice text, Fn&& fn) {
  const uint8_t* p = text.data();
  const uint8_t* const end = p + text.size();
  char small[64] = {};
  std::string large;
  while (p < end) {
    if (internal::kTokenByte[*p] == 0) {
      ++p;
      continue;
    }
    const uint8_t* start = p;
    while (p < end && internal::kTokenByte[*p] != 0) ++p;
    const size_t len = static_cast<size_t>(p - start);
    char* lowered = small;
    if (len > sizeof(small)) {
      large.resize(len);
      lowered = large.data();
    }
    for (size_t i = 0; i < len; ++i) {
      lowered[i] = internal::kTokenByte[start[i]];
    }
    if (!fn(std::string_view(lowered, len))) return;
  }
}

/// Appends the tokens of `text` to `out` (see ForEachToken).
void Tokenize(Slice text, std::vector<std::string>* out);

/// Normalizes a user-supplied query term through the tokenizer. Returns
/// false unless the term normalizes to exactly one token (empty or
/// multi-word input cannot match any posting).
bool NormalizeTerm(Slice term, std::string* out);

/// The in-situ keyword verification predicate: a row matches when its
/// tokens contain every (AND) or any (OR) query term. Each token is
/// compared in place against the term set as it is produced, with early
/// exit; nothing is allocated per row for up to 64 terms. Const and
/// stateless per call, so concurrent scans may share one matcher.
class KeywordRowMatcher {
 public:
  /// `terms` must be tokenizer-normalized (NormalizeTerm); duplicates are
  /// dropped.
  KeywordRowMatcher(std::vector<std::string> terms, bool require_all);

  bool Matches(std::string_view row) const;

 private:
  /// Index of `token` in terms_, or -1.
  int Find(std::string_view token) const;

  std::vector<std::string> terms_;  ///< Sorted, unique.
  bool require_all_;
  size_t min_len_ = 0;
  size_t max_len_ = 0;
};

/// Encodes a sorted, deduplicated posting list: varint count, then (when
/// non-empty) one width byte and the delta gaps bit-packed at that width.
void EncodePostings(const std::vector<format::PageId>& pages, Buffer* out);

/// Inverse of EncodePostings.
Status DecodePostings(Decoder* dec, std::vector<format::PageId>* out);

/// Accumulates (term, page) postings and emits a keyword index file.
class KeywordIndexBuilder {
 public:
  explicit KeywordIndexBuilder(std::string column)
      : column_(std::move(column)) {}

  /// Registers that `term` (already tokenizer-normalized) occurs in page
  /// `page` (of the page table passed to Finish).
  void Add(std::string term, format::PageId page);

  /// Number of postings added.
  size_t num_postings() const { return postings_.size(); }

  /// Tokenizes one page's row values into the page's sorted, deduplicated
  /// token set. Pure, so the staged maintenance pipeline can run it
  /// off-thread per page without affecting emitted bytes.
  static void PreparePageTokens(const std::vector<std::string>& values,
                                std::vector<std::string>* out);

  /// Builds the index file image. `pages` is embedded as the "pagetable"
  /// component so searches can resolve page ids without other metadata.
  Status Finish(const format::PageTable& pages, Buffer* out) {
    return Finish(pages, nullptr, out);
  }

  /// Parallel variant: posting-component serialization and compression fan
  /// out on `pool` (nullptr = inline). The emitted image is byte-identical
  /// at any thread count — the component partition and the append order are
  /// fixed before any work is distributed.
  Status Finish(const format::PageTable& pages, ThreadPool* pool, Buffer* out);

 private:
  std::string column_;
  std::vector<std::pair<std::string, format::PageId>> postings_;
};

/// Looks up every term of a boolean query in one parallel component round.
/// `require_all` selects AND (intersection of the per-term page sets) vs OR
/// (union). AND over pages is sound for row-level matches: all terms of a
/// matching row live in that row's single page. Terms must already be
/// tokenizer-normalized.
Status KeywordQueryMany(ComponentFileReader* reader, ThreadPool* pool,
                        objectstore::IoTrace* trace,
                        const std::vector<std::string>& terms,
                        bool require_all, std::vector<format::PageId>* pages);

/// Merges several keyword index files into one (LSM-style compaction). The
/// merged file's page table is the concatenation of the inputs' tables;
/// postings are remapped accordingly and equal terms' lists are unioned.
/// The merge streams through the shared sorted-component layer
/// (`index/sorted_components.h`; DESIGN.md §4k).
Status KeywordMerge(const std::vector<ComponentFileReader*>& inputs,
                    ThreadPool* pool, objectstore::IoTrace* trace,
                    const std::string& column, Buffer* out);

/// Size accounting for the bench's compression-ratio report.
struct KeywordIndexStats {
  uint64_t terms = 0;
  uint64_t postings = 0;
  /// Bytes of the encoded posting lists alone (count varint + width byte +
  /// packed gaps), before component-level LZ.
  uint64_t encoded_posting_bytes = 0;
};

/// Walks every posting component and tallies terms/postings/encoded bytes.
Status CollectKeywordStats(ComponentFileReader* reader, ThreadPool* pool,
                           objectstore::IoTrace* trace,
                           KeywordIndexStats* out);

}  // namespace rottnest::index

#endif  // ROTTNEST_INDEX_KEYWORD_KEYWORD_INDEX_H_
