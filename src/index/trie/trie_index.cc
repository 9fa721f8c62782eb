#include "index/trie/trie_index.h"

#include <algorithm>
#include <bit>

#include "common/hash.h"
#include "compress/bitpack.h"

namespace rottnest::index {

namespace {

constexpr size_t kTargetLeafBytes = 64 << 10;
constexpr int kExtraBits = 8;  ///< Indexed beyond the LCP (paper §V-C1).
constexpr const char* kPageTableComponent = "pagetable";
constexpr const char* kRootComponent = "root";

std::string LeafName(size_t i) { return "leaf." + std::to_string(i); }

// Serialized size estimate of one entry.
size_t EntrySize(const TrieEntry& e) {
  return 1 + (e.bits + 7) / 8 + 2 + 2 * e.pages.size();
}

void SerializeEntry(const TrieEntry& e, Buffer* out) {
  out->push_back(e.bits == 128 ? 0 : e.bits);  // 0 encodes 128.
  int key_bytes = (e.bits + 7) / 8;
  for (int b = 0; b < key_bytes; ++b) {
    uint64_t word = b < 8 ? e.key.hi : e.key.lo;
    int byte_in_word = b % 8;
    out->push_back(static_cast<uint8_t>(word >> (56 - 8 * byte_in_word)));
  }
  std::vector<uint64_t> pages(e.pages.begin(), e.pages.end());
  compress::DeltaEncodeSorted(pages, out);
}

Status DeserializeEntry(Decoder* dec, TrieEntry* out) {
  Slice bits_byte;
  ROTTNEST_RETURN_NOT_OK(dec->GetBytes(1, &bits_byte));
  out->bits = bits_byte[0] == 0 ? 128 : bits_byte[0];
  int key_bytes = (out->bits + 7) / 8;
  Slice key_data;
  ROTTNEST_RETURN_NOT_OK(dec->GetBytes(key_bytes, &key_data));
  out->key = Key128{};
  for (int b = 0; b < key_bytes; ++b) {
    uint64_t byte = key_data[b];
    if (b < 8) {
      out->key.hi |= byte << (56 - 8 * b);
    } else {
      out->key.lo |= byte << (56 - 8 * (b - 8));
    }
  }
  std::vector<uint64_t> pages;
  ROTTNEST_RETURN_NOT_OK(compress::DeltaDecodeSorted(dec, &pages));
  out->pages.assign(pages.begin(), pages.end());
  return Status::OK();
}

/// True if `e.key`'s first `e.bits` bits are a prefix of `key`.
bool IsPrefixOf(const TrieEntry& e, const Key128& key) {
  return key.Truncate(e.bits) == e.key;
}

struct Root {
  std::vector<Key128> first_keys;  ///< First (padded) key of each leaf.
  std::vector<uint32_t> lut;       ///< 256 entries: first-byte -> leaf index.
};

void SerializeRoot(const Root& root, Buffer* out) {
  PutVarint64(out, root.first_keys.size());
  for (const Key128& k : root.first_keys) {
    PutFixed64(out, k.hi);
    PutFixed64(out, k.lo);
  }
  for (uint32_t v : root.lut) PutVarint32(out, v);
}

Status DeserializeRoot(Slice payload, Root* out) {
  Decoder dec(payload);
  uint64_t n = 0;
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&n));
  out->first_keys.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    ROTTNEST_RETURN_NOT_OK(dec.GetFixed64(&out->first_keys[i].hi));
    ROTTNEST_RETURN_NOT_OK(dec.GetFixed64(&out->first_keys[i].lo));
  }
  out->lut.resize(256);
  for (int i = 0; i < 256; ++i) {
    ROTTNEST_RETURN_NOT_OK(dec.GetVarint32(&out->lut[i]));
  }
  if (!dec.exhausted()) return Status::Corruption("trailing root bytes");
  return Status::OK();
}

// First-byte lookup table: lut[b] = last leaf whose first key's top byte
// is <= b (i.e. the leaf a key starting with byte b lands in or before).
void BuildRootLut(Root* root) {
  root->lut.assign(256, 0);
  for (int b = 0; b < 256; ++b) {
    uint32_t leaf = 0;
    Key128 probe;
    probe.hi = static_cast<uint64_t>(b) << 56;
    for (size_t l = 0; l < root->first_keys.size(); ++l) {
      // Compare by the padded key: leaves whose first key <= end of byte
      // range b (probe with all lower bits set).
      Key128 end = probe;
      end.hi |= 0x00ffffffffffffffULL;
      end.lo = ~0ULL;
      if (!(end < root->first_keys[l])) leaf = static_cast<uint32_t>(l);
    }
    root->lut[b] = leaf;
  }
}

/// Writes sorted, prefix-free entries + page table into an index file. Leaf
/// serialization and compression fan out on `pool`; the leaf partition is
/// computed serially first and components are appended in fixed order, so
/// the image does not depend on thread count.
Status WriteTrieFile(const std::string& column,
                     const std::vector<TrieEntry>& entries,
                     const format::PageTable& pages, ThreadPool* pool,
                     Buffer* out) {
  ComponentFileWriter writer(IndexType::kTrie, column);

  Buffer table_buf;
  pages.Serialize(&table_buf);
  ROTTNEST_RETURN_NOT_OK(
      writer.AddComponent(kPageTableComponent, Slice(table_buf)));

  // Partition entries into leaves (serial: the split points define the
  // file layout and must not depend on scheduling).
  std::vector<std::pair<size_t, size_t>> leaf_ranges;
  size_t i = 0;
  while (i < entries.size()) {
    size_t begin = i;
    size_t bytes = 0;
    while (i < entries.size() && (i == begin || bytes < kTargetLeafBytes)) {
      bytes += EntrySize(entries[i]);
      ++i;
    }
    leaf_ranges.emplace_back(begin, i);
  }

  std::vector<std::string> leaf_names(leaf_ranges.size());
  std::vector<Buffer> leaf_bodies(leaf_ranges.size());
  auto serialize_leaf = [&](size_t l) {
    auto [begin, end] = leaf_ranges[l];
    leaf_names[l] = LeafName(l);
    PutVarint64(&leaf_bodies[l], end - begin);
    for (size_t j = begin; j < end; ++j) {
      SerializeEntry(entries[j], &leaf_bodies[l]);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(leaf_ranges.size(), serialize_leaf);
  } else {
    for (size_t l = 0; l < leaf_ranges.size(); ++l) serialize_leaf(l);
  }
  ROTTNEST_RETURN_NOT_OK(writer.AddComponents(leaf_names, leaf_bodies, pool));

  Root root;
  root.first_keys.reserve(leaf_ranges.size());
  for (const auto& [begin, end] : leaf_ranges) {
    root.first_keys.push_back(entries[begin].key);
  }
  BuildRootLut(&root);

  Buffer root_buf;
  SerializeRoot(root, &root_buf);
  // Root written last so it lands in the tail read.
  ROTTNEST_RETURN_NOT_OK(writer.AddComponent(kRootComponent, Slice(root_buf)));
  return writer.Finish(out);
}

/// Leaf component names in numeric order. ComponentNames() is
/// lexicographic ("leaf.10" < "leaf.2"), which would scramble a streaming
/// merge's key order.
std::vector<std::string> OrderedLeafNames(const ComponentFileReader& input) {
  size_t count = 0;
  for (const std::string& name : input.ComponentNames()) {
    if (name.rfind("leaf.", 0) == 0) ++count;
  }
  std::vector<std::string> names;
  names.reserve(count);
  for (size_t i = 0; i < count; ++i) names.push_back(LeafName(i));
  return names;
}

/// Streams one input's entries in key order, holding a single parsed leaf
/// at a time and evicting each leaf from the reader cache once consumed.
class TrieLeafStream {
 public:
  TrieLeafStream(ComponentFileReader* input, format::PageId page_offset,
                 ThreadPool* pool, objectstore::IoTrace* trace)
      : input_(input),
        page_offset_(page_offset),
        leaf_names_(OrderedLeafNames(*input)),
        pool_(pool),
        trace_(trace) {}

  /// Loads the first leaf. Must be called once before current()/Advance().
  Status Init() { return LoadNextLeaf(); }

  bool exhausted() const { return exhausted_; }
  TrieEntry& current() { return entries_[pos_]; }
  const TrieEntry& current() const { return entries_[pos_]; }

  Status Advance() {
    if (++pos_ < entries_.size()) return Status::OK();
    return LoadNextLeaf();
  }

 private:
  Status LoadNextLeaf() {
    for (;;) {
      if (next_leaf_ > 0) input_->Evict(leaf_names_[next_leaf_ - 1]);
      if (next_leaf_ >= leaf_names_.size()) {
        exhausted_ = true;
        entries_.clear();
        return Status::OK();
      }
      Slice buf;
      ROTTNEST_RETURN_NOT_OK(
          input_->ReadComponent(leaf_names_[next_leaf_], pool_, trace_, &buf));
      ++next_leaf_;
      entries_.clear();
      ROTTNEST_RETURN_NOT_OK(ParseTrieLeaf(buf, &entries_));
      pos_ = 0;
      if (entries_.empty()) continue;  // Defensive: skip empty leaves.
      for (TrieEntry& e : entries_) {
        for (format::PageId& p : e.pages) p += page_offset_;
      }
      return Status::OK();
    }
  }

  ComponentFileReader* input_;
  format::PageId page_offset_;
  std::vector<std::string> leaf_names_;
  ThreadPool* pool_;
  objectstore::IoTrace* trace_;
  std::vector<TrieEntry> entries_;
  size_t pos_ = 0;
  size_t next_leaf_ = 0;
  bool exhausted_ = false;
};

/// Accumulates merged entries and emits output leaves as they fill,
/// replicating WriteTrieFile's partition rule (first entry always admitted,
/// further entries while the leaf is under kTargetLeafBytes) so a streaming
/// merge writes the same bytes as the buffered path. Completed leaf bodies
/// are flushed in small batches so compression can ride `pool` while peak
/// memory stays O(batch × leaf).
class TrieLeafEmitter {
 public:
  TrieLeafEmitter(ComponentFileWriter* writer, ThreadPool* pool)
      : writer_(writer), pool_(pool) {}

  Status Append(const TrieEntry& e) {
    if (count_ > 0 && bytes_ >= kTargetLeafBytes) {
      ROTTNEST_RETURN_NOT_OK(CloseLeaf());
    }
    if (count_ == 0) first_keys_.push_back(e.key);
    bytes_ += EntrySize(e);
    SerializeEntry(e, &body_);
    ++count_;
    return Status::OK();
  }

  /// Flushes the trailing leaf and fills `root` (first keys + LUT).
  Status Close(Root* root) {
    if (count_ > 0) ROTTNEST_RETURN_NOT_OK(CloseLeaf());
    ROTTNEST_RETURN_NOT_OK(FlushBatch());
    root->first_keys = std::move(first_keys_);
    BuildRootLut(root);
    return Status::OK();
  }

 private:
  static constexpr size_t kFlushBatchLeaves = 8;

  Status CloseLeaf() {
    Buffer leaf;
    PutVarint64(&leaf, count_);
    leaf.insert(leaf.end(), body_.begin(), body_.end());
    pending_names_.push_back(LeafName(next_leaf_++));
    pending_bodies_.push_back(std::move(leaf));
    body_.clear();
    bytes_ = 0;
    count_ = 0;
    if (pending_bodies_.size() >= kFlushBatchLeaves) return FlushBatch();
    return Status::OK();
  }

  Status FlushBatch() {
    if (pending_bodies_.empty()) return Status::OK();
    Status s = writer_->AddComponents(pending_names_, pending_bodies_, pool_);
    pending_names_.clear();
    pending_bodies_.clear();
    return s;
  }

  ComponentFileWriter* writer_;
  ThreadPool* pool_;
  Buffer body_;
  size_t bytes_ = 0;
  uint64_t count_ = 0;
  size_t next_leaf_ = 0;
  std::vector<Key128> first_keys_;
  std::vector<std::string> pending_names_;
  std::vector<Buffer> pending_bodies_;
};

}  // namespace

Key128 Key128::Truncate(int bits) const {
  Key128 r;
  if (bits >= 128) return *this;
  if (bits <= 0) return r;
  if (bits >= 64) {
    r.hi = hi;
    int lo_bits = bits - 64;
    r.lo = lo_bits == 0 ? 0 : lo & (~0ULL << (64 - lo_bits));
  } else {
    r.hi = hi & (~0ULL << (64 - bits));
  }
  return r;
}

int Key128::CommonPrefixLen(const Key128& other) const {
  if (hi != other.hi) return std::countl_zero(hi ^ other.hi);
  if (lo != other.lo) return 64 + std::countl_zero(lo ^ other.lo);
  return 128;
}

Key128 KeyFromValue(Slice value) {
  Key128 k;
  if (value.size() == 16) {
    // True UUID: preserve raw bytes (big-endian words keep sort order).
    for (int i = 0; i < 8; ++i) {
      k.hi = (k.hi << 8) | value[i];
      k.lo = (k.lo << 8) | value[8 + i];
    }
  } else {
    k.hi = Hash64(value, /*seed=*/0x524f54544e455354ULL);
    k.lo = Hash64(value, /*seed=*/0x494e444943455331ULL);
  }
  return k;
}

void TrieIndexBuilder::Add(Key128 key, format::PageId page) {
  postings_.emplace_back(key, page);
}

Status TrieIndexBuilder::Finish(const format::PageTable& pages,
                                ThreadPool* pool, Buffer* out) {
  std::sort(postings_.begin(), postings_.end(),
            [](const auto& a, const auto& b) {
              if (!(a.first == b.first)) return a.first < b.first;
              return a.second < b.second;
            });

  // Group postings by key.
  struct Grouped {
    Key128 key;
    std::vector<format::PageId> pages;
  };
  std::vector<Grouped> grouped;
  for (const auto& [key, page] : postings_) {
    if (grouped.empty() || !(grouped.back().key == key)) {
      grouped.push_back({key, {}});
    }
    if (grouped.back().pages.empty() || grouped.back().pages.back() != page) {
      grouped.back().pages.push_back(page);
    }
  }

  // Truncate each key to LCP(neighbours) + 1 + kExtraBits, the minimum that
  // keeps entries prefix-free plus headroom for future merges.
  std::vector<TrieEntry> entries;
  entries.reserve(grouped.size());
  for (size_t i = 0; i < grouped.size(); ++i) {
    int lcp = 0;
    if (i > 0) lcp = std::max(lcp, grouped[i].key.CommonPrefixLen(
                                       grouped[i - 1].key));
    if (i + 1 < grouped.size()) {
      lcp = std::max(lcp, grouped[i].key.CommonPrefixLen(grouped[i + 1].key));
    }
    int bits = std::min(128, lcp + 1 + kExtraBits);
    TrieEntry e;
    e.bits = static_cast<uint8_t>(bits == 128 ? 128 : bits);
    e.key = grouped[i].key.Truncate(bits);
    e.pages = std::move(grouped[i].pages);
    entries.push_back(std::move(e));
  }
  return WriteTrieFile(column_, entries, pages, pool, out);
}

Status ParseTrieLeaf(Slice payload, std::vector<TrieEntry>* out) {
  Decoder dec(payload);
  uint64_t n = 0;
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&n));
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    TrieEntry e;
    ROTTNEST_RETURN_NOT_OK(DeserializeEntry(&dec, &e));
    out->push_back(std::move(e));
  }
  if (!dec.exhausted()) return Status::Corruption("trailing leaf bytes");
  return Status::OK();
}

Status TrieQuery(ComponentFileReader* reader, ThreadPool* pool,
                 objectstore::IoTrace* trace, const Key128& key,
                 std::vector<format::PageId>* pages) {
  pages->clear();
  if (reader->type() != IndexType::kTrie) {
    return Status::InvalidArgument("not a trie index");
  }
  Slice root_buf;
  ROTTNEST_RETURN_NOT_OK(
      reader->ReadComponent(kRootComponent, pool, trace, &root_buf));
  Root root;
  ROTTNEST_RETURN_NOT_OK(DeserializeRoot(root_buf, &root));
  if (root.first_keys.empty()) return Status::OK();

  // Route: the candidate leaf is the last one whose first key <= key.
  // Start from the first-byte LUT and refine locally.
  uint32_t leaf = root.lut[key.hi >> 56];
  while (leaf + 1 < root.first_keys.size() &&
         !(key < root.first_keys[leaf + 1])) {
    ++leaf;
  }
  while (leaf > 0 && key < root.first_keys[leaf]) --leaf;
  if (key < root.first_keys[leaf]) return Status::OK();  // Before all keys.

  Slice leaf_buf;
  ROTTNEST_RETURN_NOT_OK(
      reader->ReadComponent(LeafName(leaf), pool, trace, &leaf_buf));
  std::vector<TrieEntry> entries;
  ROTTNEST_RETURN_NOT_OK(ParseTrieLeaf(leaf_buf, &entries));

  // Entries are prefix-free and sorted: the only possible prefix of `key`
  // is the last entry with padded key <= key.
  size_t lo = 0, hi = entries.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (!(key < entries[mid].key)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return Status::OK();
  const TrieEntry& candidate = entries[lo - 1];
  if (IsPrefixOf(candidate, key)) {
    pages->assign(candidate.pages.begin(), candidate.pages.end());
  }
  return Status::OK();
}

Status LoadPageTable(ComponentFileReader* reader, ThreadPool* pool,
                     objectstore::IoTrace* trace, format::PageTable* out) {
  Slice buf;
  ROTTNEST_RETURN_NOT_OK(
      reader->ReadComponent(kPageTableComponent, pool, trace, &buf));
  Decoder dec{buf};
  return format::PageTable::Deserialize(&dec, out);
}

Status TrieMerge(const std::vector<ComponentFileReader*>& inputs,
                 ThreadPool* pool, objectstore::IoTrace* trace,
                 const std::string& column, Buffer* out) {
  // Absorb every input page table first: the merged table is the
  // concatenation of the inputs' tables and is complete before any entry
  // streams, so the "pagetable" component can be written in its usual
  // first-component slot.
  format::PageTable merged_pages;
  std::vector<TrieLeafStream> streams;
  streams.reserve(inputs.size());
  for (ComponentFileReader* input : inputs) {
    if (input->type() != IndexType::kTrie) {
      return Status::InvalidArgument("merge input is not a trie index");
    }
    format::PageTable table;
    ROTTNEST_RETURN_NOT_OK(LoadPageTable(input, pool, trace, &table));
    format::PageId offset = merged_pages.Absorb(table);
    streams.emplace_back(input, offset, pool, trace);
  }
  for (TrieLeafStream& s : streams) ROTTNEST_RETURN_NOT_OK(s.Init());

  ComponentFileWriter writer(IndexType::kTrie, column);
  Buffer table_buf;
  merged_pages.Serialize(&table_buf);
  ROTTNEST_RETURN_NOT_OK(
      writer.AddComponent(kPageTableComponent, Slice(table_buf)));

  // K-way merge by (key, bits), earliest input winning ties. The sorted
  // stream is coalesced on the fly: if the previous entry's truncated key
  // is a prefix of the current one, fold the current entry's postings into
  // it (bounded false positives instead of re-truncation, which would
  // require the original full keys). Equal (key, bits) entries always
  // coalesce and their pages are sorted + deduplicated, so the output is
  // independent of input order among ties.
  TrieLeafEmitter emitter(&writer, pool);
  TrieEntry pending;
  bool has_pending = false;
  for (;;) {
    int best = -1;
    for (size_t i = 0; i < streams.size(); ++i) {
      if (streams[i].exhausted()) continue;
      if (best < 0) {
        best = static_cast<int>(i);
        continue;
      }
      const TrieEntry& a = streams[i].current();
      const TrieEntry& b = streams[best].current();
      if (!(a.key == b.key) ? a.key < b.key : a.bits < b.bits) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    TrieEntry e = std::move(streams[best].current());
    ROTTNEST_RETURN_NOT_OK(streams[best].Advance());
    if (has_pending && pending.bits <= e.bits &&
        e.key.Truncate(pending.bits) == pending.key) {
      pending.pages.insert(pending.pages.end(), e.pages.begin(),
                           e.pages.end());
      std::sort(pending.pages.begin(), pending.pages.end());
      pending.pages.erase(
          std::unique(pending.pages.begin(), pending.pages.end()),
          pending.pages.end());
      continue;
    }
    if (has_pending) ROTTNEST_RETURN_NOT_OK(emitter.Append(pending));
    pending = std::move(e);
    has_pending = true;
  }
  if (has_pending) ROTTNEST_RETURN_NOT_OK(emitter.Append(pending));

  Root root;
  ROTTNEST_RETURN_NOT_OK(emitter.Close(&root));
  Buffer root_buf;
  SerializeRoot(root, &root_buf);
  // Root written last so it lands in the tail read.
  ROTTNEST_RETURN_NOT_OK(writer.AddComponent(kRootComponent, Slice(root_buf)));
  return writer.Finish(out);
}

}  // namespace rottnest::index
