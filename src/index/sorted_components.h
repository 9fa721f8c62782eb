// The sorted-component layout shared by the trie and keyword indexes
// (paper §V-B, Fig 6): sorted entries, each a key with its page-id posting
// list, cut into ~64 KB components named "<prefix>N", with the page table
// written first and a fence component — the first key of every component,
// for routing — written last so it lands in the open's tail read.
//
// This layer owns the layout: the partition rule, component naming and
// parsing, the one emitter both a build and a merge write through (so merge
// equals rebuild by construction), the per-input merge stream, and the
// k-way merge. Each index kind supplies a codec, a struct of static
// members, and keeps its own lookups:
//
//   using Entry = ...;     // with `std::vector<format::PageId> pages`
//   using FenceKey = ...;  // what the fence records per component
//   static constexpr IndexType kType;
//   static constexpr const char* kPrefix;  // component name prefix
//   static constexpr const char* kFence;   // fence component name
//   /// Partition estimate. Not the exact size, but part of the format:
//   /// changing it moves component boundaries.
//   static size_t EntrySize(const Entry&);
//   static void Serialize(const Entry&, Buffer*);
//   static Status Deserialize(Decoder*, Entry*);
//   static FenceKey FenceKeyOf(const Entry&);
//   static void SerializeFence(std::vector<FenceKey> first_keys, Buffer*);
//   static bool Before(const Entry&, const Entry&);  // merge order
//   /// Whether `prev` takes over `next`'s postings in a merge; `next` does
//   /// not sort before `prev`.
//   static bool Absorbs(const Entry& prev, const Entry& next);
#ifndef ROTTNEST_INDEX_SORTED_COMPONENTS_H_
#define ROTTNEST_INDEX_SORTED_COMPONENTS_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "format/page_table.h"
#include "index/component_file.h"

namespace rottnest::index::sorted_components {

/// A component is closed once its entries' EntrySize sum reaches this.
constexpr size_t kTargetComponentBytes = 64 << 10;

template <typename Codec>
std::string ComponentName(size_t i) {
  return Codec::kPrefix + std::to_string(i);
}

/// Component names in numeric order. ComponentNames() is lexicographic
/// ("leaf.10" < "leaf.2"), which would scramble a streaming merge's order.
template <typename Codec>
std::vector<std::string> ComponentNames(const ComponentFileReader& reader) {
  size_t count = 0;
  for (const std::string& name : reader.ComponentNames()) {
    if (name.rfind(Codec::kPrefix, 0) == 0) ++count;
  }
  std::vector<std::string> names;
  names.reserve(count);
  for (size_t i = 0; i < count; ++i) names.push_back(ComponentName<Codec>(i));
  return names;
}

/// Parses one component: a varint entry count, then the entries.
template <typename Codec>
Status Parse(Slice payload, std::vector<typename Codec::Entry>* out) {
  Decoder dec(payload);
  uint64_t n = 0;
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&n));
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    typename Codec::Entry e;
    ROTTNEST_RETURN_NOT_OK(Codec::Deserialize(&dec, &e));
    out->push_back(std::move(e));
  }
  if (!dec.exhausted()) return Status::Corruption("trailing component bytes");
  return Status::OK();
}

/// Sorts (key, page) postings in place and groups them by key, each group
/// with its pages sorted and deduplicated.
template <typename Key>
std::vector<std::pair<Key, std::vector<format::PageId>>> GroupPostings(
    std::vector<std::pair<Key, format::PageId>>* postings) {
  std::sort(postings->begin(), postings->end());
  std::vector<std::pair<Key, std::vector<format::PageId>>> grouped;
  for (const auto& [key, page] : *postings) {
    if (grouped.empty() || !(grouped.back().first == key)) {
      grouped.push_back({key, {}});
    }
    std::vector<format::PageId>& pages = grouped.back().second;
    if (pages.empty() || pages.back() != page) pages.push_back(page);
  }
  return grouped;
}

/// Writes one index file from entries appended in sorted order: the page
/// table (Begin), the components, then the fence (Finish). The partition
/// rule admits a component's first entry unconditionally and further ones
/// while the component is under kTargetComponentBytes. Closed components
/// are serialized and compressed on `pool` in batches; names and append
/// order are fixed before the work is distributed, so the image is
/// byte-identical at any thread count while memory stays O(batch).
template <typename Codec>
class Emitter {
 public:
  using Entry = typename Codec::Entry;

  Emitter(const std::string& column, ThreadPool* pool)
      : writer_(Codec::kType, column), pool_(pool) {}

  Status Begin(const format::PageTable& pages) {
    Buffer table;
    pages.Serialize(&table);
    return writer_.AddComponent(kPageTableComponent, Slice(table));
  }

  Status Append(Entry e) {
    if (!current_.empty() && bytes_ >= kTargetComponentBytes) {
      closed_.push_back(std::move(current_));
      current_.clear();
      bytes_ = 0;
      if (closed_.size() >= kFlushBatch) ROTTNEST_RETURN_NOT_OK(Flush());
    }
    if (current_.empty()) first_keys_.push_back(Codec::FenceKeyOf(e));
    bytes_ += Codec::EntrySize(e);
    current_.push_back(std::move(e));
    return Status::OK();
  }

  Status Finish(Buffer* out) {
    if (!current_.empty()) closed_.push_back(std::move(current_));
    ROTTNEST_RETURN_NOT_OK(Flush());
    Buffer fence;
    Codec::SerializeFence(std::move(first_keys_), &fence);
    ROTTNEST_RETURN_NOT_OK(writer_.AddComponent(Codec::kFence, Slice(fence)));
    return writer_.Finish(out);
  }

 private:
  static constexpr size_t kFlushBatch = 8;

  Status Flush() {
    std::vector<std::string> names(closed_.size());
    std::vector<Buffer> bodies(closed_.size());
    auto serialize = [&](size_t c) {
      names[c] = ComponentName<Codec>(flushed_ + c);
      PutVarint64(&bodies[c], closed_[c].size());
      for (const Entry& e : closed_[c]) Codec::Serialize(e, &bodies[c]);
    };
    if (pool_ != nullptr) {
      pool_->ParallelFor(closed_.size(), serialize);
    } else {
      for (size_t c = 0; c < closed_.size(); ++c) serialize(c);
    }
    flushed_ += closed_.size();
    closed_.clear();
    return writer_.AddComponents(names, bodies, pool_);
  }

  ComponentFileWriter writer_;
  ThreadPool* pool_;
  std::vector<Entry> current_;
  size_t bytes_ = 0;
  std::vector<std::vector<Entry>> closed_;
  size_t flushed_ = 0;
  std::vector<typename Codec::FenceKey> first_keys_;
};

/// Streams one merge input's entries in order, page ids remapped into the
/// merged table, holding one parsed component at a time and evicting each
/// from the reader's cache once consumed.
template <typename Codec>
class Stream {
 public:
  using Entry = typename Codec::Entry;

  Stream(ComponentFileReader* input, format::PageId page_offset,
         ThreadPool* pool, objectstore::IoTrace* trace)
      : input_(input),
        page_offset_(page_offset),
        names_(ComponentNames<Codec>(*input)),
        pool_(pool),
        trace_(trace) {}

  /// Loads the first component. Must be called once before
  /// current()/Advance().
  Status Init() { return LoadNext(); }

  bool exhausted() const { return exhausted_; }
  Entry& current() { return entries_[pos_]; }

  Status Advance() {
    if (++pos_ < entries_.size()) return Status::OK();
    return LoadNext();
  }

 private:
  Status LoadNext() {
    for (;;) {
      if (next_ > 0) input_->Evict(names_[next_ - 1]);
      if (next_ >= names_.size()) {
        exhausted_ = true;
        entries_.clear();
        return Status::OK();
      }
      Slice buf;
      ROTTNEST_RETURN_NOT_OK(
          input_->ReadComponent(names_[next_], pool_, trace_, &buf));
      ++next_;
      ROTTNEST_RETURN_NOT_OK(Parse<Codec>(buf, &entries_));
      pos_ = 0;
      if (entries_.empty()) continue;  // Defensive: skip empty components.
      for (Entry& e : entries_) {
        for (format::PageId& p : e.pages) p += page_offset_;
      }
      return Status::OK();
    }
  }

  ComponentFileReader* input_;
  format::PageId page_offset_;
  std::vector<std::string> names_;
  ThreadPool* pool_;
  objectstore::IoTrace* trace_;
  std::vector<Entry> entries_;
  size_t pos_ = 0;
  size_t next_ = 0;
  bool exhausted_ = false;
};

/// Merges several files of one kind into one (LSM-style compaction). The
/// merged page table is the concatenation of the inputs' tables, complete
/// before any entry streams, so it keeps its first-component slot. A k-way
/// merge in Codec::Before order, earliest input winning ties, folds each
/// entry an earlier one Absorbs into it; folded pages are sorted and
/// deduplicated, so the output does not depend on input order among ties.
/// Peak memory is O(inputs × component) and output bytes are independent
/// of `pool`.
template <typename Codec>
Status Merge(const std::vector<ComponentFileReader*>& inputs, ThreadPool* pool,
             objectstore::IoTrace* trace, const std::string& column,
             Buffer* out) {
  format::PageTable merged_pages;
  std::vector<Stream<Codec>> streams;
  streams.reserve(inputs.size());
  for (ComponentFileReader* input : inputs) {
    if (input->type() != Codec::kType) {
      return Status::InvalidArgument(std::string("merge input is not a ") +
                                     IndexTypeName(Codec::kType) + " index");
    }
    format::PageTable table;
    ROTTNEST_RETURN_NOT_OK(LoadPageTable(input, pool, trace, &table));
    format::PageId offset = merged_pages.Absorb(table);
    streams.emplace_back(input, offset, pool, trace);
  }
  for (Stream<Codec>& s : streams) ROTTNEST_RETURN_NOT_OK(s.Init());

  Emitter<Codec> emitter(column, pool);
  ROTTNEST_RETURN_NOT_OK(emitter.Begin(merged_pages));
  typename Codec::Entry pending;
  bool has_pending = false;
  for (;;) {
    Stream<Codec>* best = nullptr;
    for (Stream<Codec>& s : streams) {
      if (!s.exhausted() &&
          (best == nullptr || Codec::Before(s.current(), best->current()))) {
        best = &s;
      }
    }
    if (best == nullptr) break;
    typename Codec::Entry e = std::move(best->current());
    ROTTNEST_RETURN_NOT_OK(best->Advance());
    if (has_pending && Codec::Absorbs(pending, e)) {
      pending.pages.insert(pending.pages.end(), e.pages.begin(),
                           e.pages.end());
      std::sort(pending.pages.begin(), pending.pages.end());
      pending.pages.erase(
          std::unique(pending.pages.begin(), pending.pages.end()),
          pending.pages.end());
      continue;
    }
    if (has_pending) ROTTNEST_RETURN_NOT_OK(emitter.Append(std::move(pending)));
    pending = std::move(e);
    has_pending = true;
  }
  if (has_pending) ROTTNEST_RETURN_NOT_OK(emitter.Append(std::move(pending)));
  return emitter.Finish(out);
}

}  // namespace rottnest::index::sorted_components

#endif  // ROTTNEST_INDEX_SORTED_COMPONENTS_H_
