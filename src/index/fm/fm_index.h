// Substring-search index (paper §V-C2): an FM-index over the concatenated
// text of a column's data pages, componentized for object storage.
//
// Text model: each index file holds a *collection* of strings (one per
// original build; merges add more). Within a string, page texts are joined
// with a 0x01 separator and the string ends with a 0x00 sentinel, so
// patterns never match across pages' values or across strings. Input bytes
// 0x00 (sentinel) and 0x01 (separator) are remapped to 0x02 at build time —
// sound because every index hit is verified in situ against the raw data
// (paper §IV-B).
//
// Components:
//   bwt.B   : 256-symbol occ checkpoint + one BWT block (block_size bytes)
//   mark.B  : rank checkpoint + bitvector marking sampled SA rows
//   ssa.B   : bit-packed sampled text positions (text-order sampling,
//             every k-th position of each string, position 0 always)
//   bounds  : page-start offsets in the concatenated text
//   pagetable, meta (written last; meta rides the directory tail read)
//
// Backward search costs ≤2 block reads per pattern symbol (cached and
// batched per step); locate costs ≤k LF-steps per occurrence, batched
// across occurrences per step — the depth-bound behaviour §VII-A measures.
//
// Merging follows Holt & McMillan: the interleave bitvector of two BWTs is
// refined iteratively (bounded iterations) without reconstructing the
// texts; sample structures are carried over by remapping rows.
#ifndef ROTTNEST_INDEX_FM_FM_INDEX_H_
#define ROTTNEST_INDEX_FM_FM_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "format/page_table.h"
#include "index/component_file.h"

namespace rottnest::index {

/// FM-index build knobs.
struct FmOptions {
  uint32_t block_size = 64 << 10;  ///< BWT symbols per component.
  uint32_t sample_rate = 16;       ///< Text-order SA sampling stride k.
  /// Safety cap on Holt-McMillan interleave refinement passes; merge fails
  /// with Aborted beyond it (never reached for natural text).
  uint32_t max_interleave_iterations = 10000;
};

/// Replaces reserved bytes (0x00 separator, 0x01 sentinel) with 0x02.
void SanitizeText(Buffer* text);

/// True if `pattern` holds a byte whose index count is not the data's:
/// FmCount rejects 0x00/0x01 (they never occur in the indexed text), and
/// counts 0x02 over the sanitized text, where it also stands for the
/// remapped 0x00/0x01 data bytes. Exact callers (counts, and searches that
/// must not report a degraded index) send such patterns to a scan.
bool HasReservedBytes(Slice pattern);

/// Accumulates page texts and emits an FM index file.
class FmIndexBuilder {
 public:
  FmIndexBuilder(std::string column, FmOptions options)
      : column_(std::move(column)), options_(options) {}

  /// Appends one page's concatenated values. Pages must be added in the
  /// same order as the page table passed to Finish.
  void AddPage(Slice page_text);

  /// Appends one page given its individual values: each value is sanitized
  /// and values are joined with the separator so patterns cannot match
  /// across values.
  void AddPageValues(const std::vector<std::string>& values);

  /// Renders one page's values into the exact byte form AddPageValues
  /// appends (sanitized, separator-joined). Pure, so the parallel build
  /// pipeline can run it off-thread per staged file.
  static void PreparePageText(const std::vector<std::string>& values,
                              Buffer* out);

  /// Appends one page already rendered by PreparePageText.
  void AddPreparedPage(Slice prepared);

  /// Builds the index file image covering the added pages.
  Status Finish(const format::PageTable& pages, Buffer* out) {
    return Finish(pages, nullptr, out);
  }

  /// Parallel variant: component payload compression fans out on `pool`
  /// (nullptr = inline). Suffix-array construction stays serial — the
  /// emitted image is byte-identical at any thread count.
  Status Finish(const format::PageTable& pages, ThreadPool* pool, Buffer* out);

 private:
  std::string column_;
  FmOptions options_;
  Buffer text_;                          ///< Concatenated, sanitized.
  std::vector<uint64_t> page_offsets_;   ///< Start of each page's text.
};

/// Counts occurrences of `pattern` (backward search). Also returns the SA
/// range for use by locate.
Status FmCount(ComponentFileReader* reader, ThreadPool* pool,
               objectstore::IoTrace* trace, Slice pattern, uint64_t* count,
               std::pair<uint64_t, uint64_t>* range = nullptr);

/// Finds up to `max_locations` occurrences of `pattern` and returns the
/// page ids containing them (deduplicated, sorted).
Status FmLocatePages(ComponentFileReader* reader, ThreadPool* pool,
                     objectstore::IoTrace* trace, Slice pattern,
                     size_t max_locations,
                     std::vector<format::PageId>* pages);

/// Merges FM index files into one (pairwise Holt-McMillan interleave).
Status FmMerge(const std::vector<ComponentFileReader*>& inputs,
               ThreadPool* pool, objectstore::IoTrace* trace,
               const std::string& column, const FmOptions& options,
               Buffer* out);

}  // namespace rottnest::index

#endif  // ROTTNEST_INDEX_FM_FM_INDEX_H_
