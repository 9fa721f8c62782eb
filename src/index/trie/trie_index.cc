#include "index/trie/trie_index.h"

#include <algorithm>
#include <bit>

#include "common/hash.h"
#include "compress/bitpack.h"
#include "index/sorted_components.h"

namespace rottnest::index {

namespace {

constexpr int kExtraBits = 8;  ///< Indexed beyond the LCP (paper §V-C1).

/// One trie node as stored: a truncated key (zero-padded) and its pages.
/// Nodes are prefix-free within one index file, so at most one node can be
/// a prefix of any query key.
struct TrieEntry {
  Key128 key;        ///< First `bits` bits significant, rest zero.
  uint8_t bits = 0;  ///< Truncated length in bits, 1..128.
  std::vector<format::PageId> pages;
};

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

/// The trie's codec for the shared sorted-component layer: "leaf.N"
/// components of truncated keys, fenced by the "root" component.
struct TrieCodec {
  using Entry = TrieEntry;
  using FenceKey = Key128;
  static constexpr IndexType kType = IndexType::kTrie;
  static constexpr const char* kPrefix = "leaf.";
  static constexpr const char* kFence = "root";

  static size_t EntrySize(const TrieEntry& e) {
    return 1 + (e.bits + 7) / 8 + 2 + 2 * e.pages.size();
  }

  static void Serialize(const TrieEntry& e, Buffer* out) {
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

  static Status Deserialize(Decoder* dec, TrieEntry* out) {
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

  static Key128 FenceKeyOf(const TrieEntry& e) { return e.key; }

  static void SerializeFence(std::vector<Key128> first_keys, Buffer* out) {
    Root root;
    root.first_keys = std::move(first_keys);
    BuildRootLut(&root);
    SerializeRoot(root, out);
  }

  static bool Before(const TrieEntry& a, const TrieEntry& b) {
    return !(a.key == b.key) ? a.key < b.key : a.bits < b.bits;
  }

  /// A shorter node whose key prefixes the next one's takes its postings:
  /// bounded false positives instead of re-truncation, which would need the
  /// original full keys.
  static bool Absorbs(const TrieEntry& prev, const TrieEntry& next) {
    return prev.bits <= next.bits && IsPrefixOf(prev, next.key);
  }
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
  auto grouped = sorted_components::GroupPostings(&postings_);
  sorted_components::Emitter<TrieCodec> emitter(column_, pool);
  ROTTNEST_RETURN_NOT_OK(emitter.Begin(pages));
  // Truncate each key to LCP(neighbours) + 1 + kExtraBits, the minimum that
  // keeps entries prefix-free plus headroom for future merges.
  for (size_t i = 0; i < grouped.size(); ++i) {
    const Key128& key = grouped[i].first;
    int lcp = 0;
    if (i > 0) lcp = key.CommonPrefixLen(grouped[i - 1].first);
    if (i + 1 < grouped.size()) {
      lcp = std::max(lcp, key.CommonPrefixLen(grouped[i + 1].first));
    }
    int bits = std::min(128, lcp + 1 + kExtraBits);
    ROTTNEST_RETURN_NOT_OK(emitter.Append({key.Truncate(bits),
                                           static_cast<uint8_t>(bits),
                                           std::move(grouped[i].second)}));
  }
  return emitter.Finish(out);
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
      reader->ReadComponent(TrieCodec::kFence, pool, trace, &root_buf));
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
      reader->ReadComponent(sorted_components::ComponentName<TrieCodec>(leaf),
                            pool, trace, &leaf_buf));
  std::vector<TrieEntry> entries;
  ROTTNEST_RETURN_NOT_OK(
      sorted_components::Parse<TrieCodec>(leaf_buf, &entries));

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

Status TrieMerge(const std::vector<ComponentFileReader*>& inputs,
                 ThreadPool* pool, objectstore::IoTrace* trace,
                 const std::string& column, Buffer* out) {
  return sorted_components::Merge<TrieCodec>(inputs, pool, trace, column, out);
}

}  // namespace rottnest::index
