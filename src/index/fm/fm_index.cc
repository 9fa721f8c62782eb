#include "index/fm/fm_index.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <set>

#include "compress/bitpack.h"
#include "index/fm/suffix_array.h"

namespace rottnest::index {

namespace {

constexpr uint8_t kSentinel = 0x00;
constexpr uint8_t kSeparator = 0x01;
constexpr uint8_t kReplacement = 0x02;

constexpr const char* kMetaComponent = "meta";
constexpr const char* kBoundsComponent = "bounds";
constexpr size_t kSsaSlotsPerBlock = 8192;

std::string BwtName(uint64_t b) { return "bwt." + std::to_string(b); }

/// Occurrences of `c` in data[0, n) — the within-block half of Occ, which
/// LF walks call once per step. SWAR over 8-byte words: a byte of
/// word ^ (c * 0x01..) is zero exactly where the data holds `c`, and the
/// zero-byte test leaves a 1 in that byte's low bit. Byte lanes accumulate
/// for at most 255 words, then are summed through 16-bit lanes.
uint64_t CountByte(const uint8_t* data, size_t n, uint8_t c) {
  constexpr uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;
  constexpr uint64_t kOnes = 0x0101010101010101ULL;
  const uint64_t pattern = kOnes * c;
  uint64_t total = 0;
  size_t i = 0;
  while (n - i >= 8) {
    const size_t stop = i + 8 * std::min<size_t>((n - i) / 8, 255);
    uint64_t lanes = 0;
    for (; i < stop; i += 8) {
      uint64_t x;
      std::memcpy(&x, data + i, 8);
      x ^= pattern;
      lanes += ~(((x & kLow7) + kLow7) | x | kLow7) >> 7;
    }
    const uint64_t pairs = (lanes & 0x00FF00FF00FF00FFULL) +
                           ((lanes >> 8) & 0x00FF00FF00FF00FFULL);
    total += (pairs * 0x0001000100010001ULL) >> 48;
  }
  for (; i < n; ++i) total += data[i] == c ? 1 : 0;
  return total;
}
std::string MarkName(uint64_t b) { return "mark." + std::to_string(b); }
std::string SsaName(uint64_t b) { return "ssa." + std::to_string(b); }

// ---------------------------------------------------------------------------
// Meta component

struct FmMeta {
  uint64_t n = 0;             ///< Total BWT length (includes sentinels).
  uint32_t block_size = 0;    ///< Symbols per bwt/mark block.
  uint32_t sample_rate = 0;   ///< Text-order sampling stride.
  uint32_t pos_bits = 0;      ///< Bit width of packed sample positions.
  std::vector<uint64_t> c;    ///< 256 entries: # symbols < s.
  std::vector<uint64_t> string_starts;  ///< Global start of each string.

  uint64_t CumulativeBefore(uint16_t symbol) const {
    return symbol >= 256 ? n : c[symbol];
  }
  uint64_t SymbolTotal(uint8_t symbol) const {
    return CumulativeBefore(symbol + 1) - c[symbol];
  }
  uint64_t num_blocks() const {
    return (n + block_size - 1) / block_size;
  }
};

void SerializeMeta(const FmMeta& m, Buffer* out) {
  PutVarint64(out, m.n);
  PutVarint32(out, m.block_size);
  PutVarint32(out, m.sample_rate);
  PutVarint32(out, m.pos_bits);
  for (int s = 0; s < 256; ++s) PutVarint64(out, m.c[s]);
  PutVarint64(out, m.string_starts.size());
  for (uint64_t v : m.string_starts) PutVarint64(out, v);
}

Status DeserializeMeta(Slice payload, FmMeta* out) {
  Decoder dec(payload);
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&out->n));
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint32(&out->block_size));
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint32(&out->sample_rate));
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint32(&out->pos_bits));
  if (out->block_size == 0 || out->sample_rate == 0) {
    return Status::Corruption("fm meta: zero block size or sample rate");
  }
  out->c.resize(256);
  for (int s = 0; s < 256; ++s) {
    ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&out->c[s]));
  }
  uint64_t num_strings = 0;
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&num_strings));
  out->string_starts.resize(num_strings);
  for (uint64_t i = 0; i < num_strings; ++i) {
    ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&out->string_starts[i]));
  }
  if (!dec.exhausted()) return Status::Corruption("trailing fm meta");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// File emission (shared by builder and merge)

/// Fully-materialized index content, pre-componentization.
struct FmContent {
  Buffer bwt;                        ///< Whole BWT.
  std::vector<bool> marked;          ///< Per row: SA position sampled?
  std::vector<uint64_t> samples;     ///< Sampled positions, in row order.
  std::vector<uint64_t> string_starts;
  std::vector<uint64_t> page_offsets;
  format::PageTable pages;
};

Status EmitFmFile(const std::string& column, const FmOptions& options,
                  const FmContent& content, ThreadPool* pool, Buffer* out) {
  const Buffer& bwt = content.bwt;
  uint64_t n = bwt.size();
  FmMeta meta;
  meta.n = n;
  meta.block_size = options.block_size;
  meta.sample_rate = options.sample_rate;
  meta.c.assign(256, 0);
  {
    std::vector<uint64_t> counts(256, 0);
    for (uint8_t ch : bwt) counts[ch]++;
    uint64_t sum = 0;
    for (int s = 0; s < 256; ++s) {
      meta.c[s] = sum;
      sum += counts[s];
    }
  }
  meta.string_starts = content.string_starts;
  meta.pos_bits = std::max(1, compress::BitWidth(n));

  ComponentFileWriter writer(IndexType::kFm, column);

  // Components are built serially in emission order — page table first
  // (leaf-most), then bulk blocks, then small roots last — and appended in
  // one AddComponents call so their compression fans out on `pool` without
  // changing the file bytes. The occ/rank checkpoints are running prefix
  // sums, so payload construction itself stays a serial scan.
  std::vector<std::string> names;
  std::vector<Buffer> payloads;

  Buffer table_buf;
  content.pages.Serialize(&table_buf);
  names.push_back(kPageTableComponent);
  payloads.push_back(std::move(table_buf));

  // BWT blocks, each prefixed with its occ checkpoint.
  uint64_t bs = options.block_size;
  std::vector<uint64_t> running(256, 0);
  for (uint64_t b = 0; b * bs < n; ++b) {
    Buffer block;
    block.reserve(256 * 8 + bs);
    for (int s = 0; s < 256; ++s) PutFixed64(&block, running[s]);
    uint64_t end = std::min<uint64_t>(n, (b + 1) * bs);
    for (uint64_t i = b * bs; i < end; ++i) {
      block.push_back(bwt[i]);
      running[bwt[i]]++;
    }
    names.push_back(BwtName(b));
    payloads.push_back(std::move(block));
  }

  // Mark blocks: rank checkpoint + bitvector words.
  uint64_t mark_rank = 0;
  for (uint64_t b = 0; b * bs < n; ++b) {
    Buffer block;
    PutFixed64(&block, mark_rank);
    uint64_t end = std::min<uint64_t>(n, (b + 1) * bs);
    uint64_t word = 0;
    int bit = 0;
    for (uint64_t i = b * bs; i < end; ++i) {
      if (content.marked[i]) {
        word |= 1ULL << bit;
        ++mark_rank;
      }
      if (++bit == 64) {
        PutFixed64(&block, word);
        word = 0;
        bit = 0;
      }
    }
    if (bit != 0) PutFixed64(&block, word);
    names.push_back(MarkName(b));
    payloads.push_back(std::move(block));
  }

  // Sampled-position blocks, bit-packed.
  for (uint64_t b = 0; b * kSsaSlotsPerBlock < content.samples.size() ||
                       (b == 0 && content.samples.empty());
       ++b) {
    uint64_t begin = b * kSsaSlotsPerBlock;
    uint64_t end = std::min<uint64_t>(content.samples.size(),
                                      begin + kSsaSlotsPerBlock);
    std::vector<uint64_t> slice(content.samples.begin() + begin,
                                content.samples.begin() + end);
    Buffer block;
    compress::BitPack(slice, meta.pos_bits, &block);
    names.push_back(SsaName(b));
    payloads.push_back(std::move(block));
    if (end == content.samples.size()) break;
  }

  // Page bounds.
  Buffer bounds;
  compress::DeltaEncodeSorted(content.page_offsets, &bounds);
  names.push_back(kBoundsComponent);
  payloads.push_back(std::move(bounds));

  // Meta last: rides the directory tail read.
  Buffer meta_buf;
  SerializeMeta(meta, &meta_buf);
  names.push_back(kMetaComponent);
  payloads.push_back(std::move(meta_buf));

  ROTTNEST_RETURN_NOT_OK(writer.AddComponents(names, payloads, pool));
  return writer.Finish(out);
}

// ---------------------------------------------------------------------------
// Query-side view

/// Wraps a ComponentFileReader with FM-specific accessors. Component reads
/// go through the reader's cache; batching is done by the callers.
class FmView {
 public:
  static Status Open(ComponentFileReader* reader, ThreadPool* pool,
                     objectstore::IoTrace* trace, FmView* out) {
    if (reader->type() != IndexType::kFm) {
      return Status::InvalidArgument("not an fm index");
    }
    out->reader_ = reader;
    out->pool_ = pool;
    out->trace_ = trace;
    Slice meta_buf;
    ROTTNEST_RETURN_NOT_OK(
        reader->ReadComponent(kMetaComponent, pool, trace, &meta_buf));
    return DeserializeMeta(meta_buf, &out->meta_);
  }

  const FmMeta& meta() const { return meta_; }

  /// Prefetches the named components in one round.
  Status Prefetch(const std::vector<std::string>& names) {
    std::vector<Slice> ignored;
    return reader_->ReadComponents(names, pool_, trace_, &ignored);
  }

  /// Occ(c, i): occurrences of `c` in bwt[0, i). i may equal n.
  Status Occ(uint8_t c, uint64_t i, uint64_t* out) {
    if (i >= meta_.n) {
      *out = meta_.SymbolTotal(c);
      return Status::OK();
    }
    uint64_t b = i / meta_.block_size;
    Slice block;
    ROTTNEST_RETURN_NOT_OK(BwtBlock(b, &block));
    uint64_t within = i - b * meta_.block_size;
    const uint8_t* data = block.data() + 256 * 8;
    *out = DecodeFixed64(block.data() + 8 * c) + CountByte(data, within, c);
    return Status::OK();
  }

  Status BwtAt(uint64_t i, uint8_t* out) {
    uint64_t b = i / meta_.block_size;
    Slice block;
    ROTTNEST_RETURN_NOT_OK(BwtBlock(b, &block));
    *out = block[256 * 8 + (i - b * meta_.block_size)];
    return Status::OK();
  }

  /// LF step: row of the text position one before row i's position.
  Status Lf(uint64_t i, uint64_t* out) {
    uint8_t c = 0;
    ROTTNEST_RETURN_NOT_OK(BwtAt(i, &c));
    uint64_t occ = 0;
    ROTTNEST_RETURN_NOT_OK(Occ(c, i, &occ));
    *out = meta_.c[c] + occ;
    return Status::OK();
  }

  /// Whether row j is sampled, and its sample slot (rank of marked rows
  /// strictly before j).
  Status Marked(uint64_t j, bool* marked, uint64_t* slot) {
    uint64_t b = j / meta_.block_size;
    Slice block;
    ROTTNEST_RETURN_NOT_OK(
        reader_->ReadComponent(MarkName(b), pool_, trace_, &block));
    uint64_t within = j - b * meta_.block_size;
    if (block.size() < 8 + 8 * (within / 64 + 1)) {
      return Status::Corruption("fm mark block too short");
    }
    uint64_t rank = DecodeFixed64(block.data());
    const uint8_t* words = block.data() + 8;
    uint64_t full_words = within / 64;
    for (uint64_t w = 0; w < full_words; ++w) {
      rank += std::popcount(DecodeFixed64(words + 8 * w));
    }
    uint64_t last = DecodeFixed64(words + 8 * full_words);
    uint64_t bit = within % 64;
    rank += std::popcount(last & ((bit == 0 ? 0 : (~0ULL >> (64 - bit)))));
    *marked = (last >> bit) & 1;
    *slot = rank;
    return Status::OK();
  }

  /// Sampled text position stored in `slot`.
  Status Sample(uint64_t slot, uint64_t* pos) {
    uint64_t b = slot / kSsaSlotsPerBlock;
    Slice block;
    ROTTNEST_RETURN_NOT_OK(
        reader_->ReadComponent(SsaName(b), pool_, trace_, &block));
    return compress::BitUnpackAt(block, meta_.pos_bits,
                                 slot - b * kSsaSlotsPerBlock, pos);
  }

  /// Loads the page-boundary offsets.
  Status LoadBounds(std::vector<uint64_t>* out) {
    Slice buf;
    ROTTNEST_RETURN_NOT_OK(
        reader_->ReadComponent(kBoundsComponent, pool_, trace_, &buf));
    Decoder dec{buf};
    ROTTNEST_RETURN_NOT_OK(compress::DeltaDecodeSorted(&dec, out));
    if (!dec.exhausted()) return Status::Corruption("trailing bounds bytes");
    return Status::OK();
  }

  std::string BwtBlockName(uint64_t row) const {
    return BwtName(row / meta_.block_size);
  }
  std::string MarkBlockName(uint64_t row) const {
    return MarkName(row / meta_.block_size);
  }
  std::string SsaBlockName(uint64_t slot) const {
    return SsaName(slot / kSsaSlotsPerBlock);
  }

 private:
  /// View of BWT block `b`, checked to hold the occ checkpoint plus every
  /// symbol the block covers.
  Status BwtBlock(uint64_t b, Slice* out) {
    ROTTNEST_RETURN_NOT_OK(
        reader_->ReadComponent(BwtName(b), pool_, trace_, out));
    uint64_t symbols =
        std::min<uint64_t>(meta_.block_size, meta_.n - b * meta_.block_size);
    if (out->size() != 256 * 8 + symbols) {
      return Status::Corruption("fm bwt block size mismatch");
    }
    return Status::OK();
  }

  ComponentFileReader* reader_ = nullptr;
  ThreadPool* pool_ = nullptr;
  objectstore::IoTrace* trace_ = nullptr;
  FmMeta meta_;
};

Status BackwardSearch(FmView* view, Slice pattern, uint64_t* lo,
                      uint64_t* hi) {
  const FmMeta& meta = view->meta();
  uint64_t l = 0, r = meta.n;
  for (size_t k = pattern.size(); k-- > 0;) {
    uint8_t c = pattern[k];
    // Both rank positions in one prefetch round.
    std::vector<std::string> names;
    if (l < meta.n) names.push_back(view->BwtBlockName(l));
    if (r < meta.n) {
      std::string rn = view->BwtBlockName(r);
      if (names.empty() || names[0] != rn) names.push_back(rn);
    }
    if (!names.empty()) ROTTNEST_RETURN_NOT_OK(view->Prefetch(names));
    uint64_t occ_l = 0, occ_r = 0;
    ROTTNEST_RETURN_NOT_OK(view->Occ(c, l, &occ_l));
    ROTTNEST_RETURN_NOT_OK(view->Occ(c, r, &occ_r));
    l = meta.c[c] + occ_l;
    r = meta.c[c] + occ_r;
    if (l >= r) {
      *lo = *hi = 0;
      return Status::OK();
    }
  }
  *lo = l;
  *hi = r;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Merge internals

/// Loads the full content of one index file (compaction-time full read).
Status LoadContent(ComponentFileReader* reader, ThreadPool* pool,
                   objectstore::IoTrace* trace, FmMeta* meta,
                   FmContent* out) {
  FmView view;
  ROTTNEST_RETURN_NOT_OK(FmView::Open(reader, pool, trace, &view));
  *meta = view.meta();
  uint64_t n = meta->n;
  uint64_t bs = meta->block_size;
  uint64_t num_blocks = meta->num_blocks();

  std::vector<std::string> names;
  for (uint64_t b = 0; b < num_blocks; ++b) names.push_back(BwtName(b));
  for (uint64_t b = 0; b < num_blocks; ++b) names.push_back(MarkName(b));
  std::vector<Slice> blocks;
  ROTTNEST_RETURN_NOT_OK(reader->ReadComponents(names, pool, trace, &blocks));

  out->bwt.clear();
  out->bwt.reserve(n);
  for (uint64_t b = 0; b < num_blocks; ++b) {
    const Slice& block = blocks[b];
    if (block.size() < 256 * 8) return Status::Corruption("short bwt block");
    out->bwt.insert(out->bwt.end(), block.data() + 256 * 8,
                    block.data() + block.size());
  }
  if (out->bwt.size() != n) return Status::Corruption("bwt size mismatch");

  out->marked.assign(n, false);
  uint64_t num_marked = 0;
  for (uint64_t b = 0; b < num_blocks; ++b) {
    const Slice& block = blocks[num_blocks + b];
    uint64_t end = std::min<uint64_t>(n, (b + 1) * bs);
    for (uint64_t i = b * bs; i < end; ++i) {
      uint64_t within = i - b * bs;
      uint64_t word = DecodeFixed64(block.data() + 8 + 8 * (within / 64));
      if ((word >> (within % 64)) & 1) {
        out->marked[i] = true;
        ++num_marked;
      }
    }
  }

  // Sample values.
  uint64_t num_ssa_blocks =
      num_marked == 0 ? 1 : (num_marked + kSsaSlotsPerBlock - 1) /
                                kSsaSlotsPerBlock;
  std::vector<std::string> ssa_names;
  for (uint64_t b = 0; b < num_ssa_blocks; ++b) ssa_names.push_back(SsaName(b));
  std::vector<Slice> ssa_blocks;
  ROTTNEST_RETURN_NOT_OK(
      reader->ReadComponents(ssa_names, pool, trace, &ssa_blocks));
  out->samples.clear();
  out->samples.reserve(num_marked);
  for (uint64_t b = 0; b < num_ssa_blocks; ++b) {
    uint64_t begin = b * kSsaSlotsPerBlock;
    uint64_t count =
        std::min<uint64_t>(num_marked - begin, kSsaSlotsPerBlock);
    std::vector<uint64_t> unpacked;
    ROTTNEST_RETURN_NOT_OK(compress::BitUnpack(ssa_blocks[b],
                                               meta->pos_bits, count,
                                               &unpacked));
    out->samples.insert(out->samples.end(), unpacked.begin(), unpacked.end());
  }

  out->string_starts = meta->string_starts;
  ROTTNEST_RETURN_NOT_OK(view.LoadBounds(&out->page_offsets));

  return LoadPageTable(reader, pool, trace, &out->pages);
}

/// Holt-McMillan interleave refinement for two multi-string BWTs. Returns
/// the interleave vector Z (false = from `a`, true = from `b`).
Status ComputeInterleave(const Buffer& a, const Buffer& b,
                         uint32_t max_iterations, std::vector<bool>* out) {
  uint64_t n1 = a.size(), n2 = b.size(), n = n1 + n2;
  std::vector<uint64_t> counts(257, 0);
  for (uint8_t ch : a) counts[ch + 1]++;
  for (uint8_t ch : b) counts[ch + 1]++;
  for (int s = 0; s < 256; ++s) counts[s + 1] += counts[s];

  // Z_0: all of `a` then all of `b` — the correct 0-length-context order
  // (ties broken by input, matching multi-string BWT sentinel order).
  std::vector<bool> z(n, false);
  for (uint64_t i = n1; i < n; ++i) z[i] = true;

  std::vector<bool> next(n);
  std::vector<uint64_t> ptr(256);
  for (uint32_t iter = 0; iter < max_iterations; ++iter) {
    for (int s = 0; s < 256; ++s) ptr[s] = counts[s];
    uint64_t i1 = 0, i2 = 0;
    for (uint64_t p = 0; p < n; ++p) {
      uint8_t c = z[p] ? b[i2++] : a[i1++];
      next[ptr[c]++] = z[p];
    }
    if (next == z) {
      *out = std::move(z);
      return Status::OK();
    }
    std::swap(z, next);
  }
  return Status::Aborted("interleave refinement did not converge");
}

/// Merges two full contents into one.
Status MergePair(const FmContent& a, const FmContent& b,
                 const FmOptions& options, FmContent* out) {
  std::vector<bool> z;
  ROTTNEST_RETURN_NOT_OK(
      ComputeInterleave(a.bwt, b.bwt, options.max_interleave_iterations, &z));
  uint64_t n1 = a.bwt.size();
  uint64_t n = z.size();

  out->bwt.clear();
  out->bwt.reserve(n);
  out->marked.assign(n, false);
  out->samples.clear();
  uint64_t i1 = 0, i2 = 0;
  for (uint64_t p = 0; p < n; ++p) {
    if (!z[p]) {
      out->bwt.push_back(a.bwt[i1]);
      if (a.marked[i1]) out->marked[p] = true;
      ++i1;
    } else {
      out->bwt.push_back(b.bwt[i2]);
      if (b.marked[i2]) out->marked[p] = true;
      ++i2;
    }
  }
  // Samples must be emitted in merged-row order; replay the interleave.
  i1 = i2 = 0;
  uint64_t s1 = 0, s2 = 0;
  for (uint64_t p = 0; p < n; ++p) {
    if (!z[p]) {
      if (a.marked[i1]) out->samples.push_back(a.samples[s1++]);
      ++i1;
    } else {
      if (b.marked[i2]) out->samples.push_back(b.samples[s2++] + n1);
      ++i2;
    }
  }

  out->string_starts = a.string_starts;
  for (uint64_t start : b.string_starts) {
    out->string_starts.push_back(start + n1);
  }
  out->page_offsets = a.page_offsets;
  for (uint64_t off : b.page_offsets) out->page_offsets.push_back(off + n1);
  out->pages = a.pages;
  out->pages.Absorb(b.pages);
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API

void SanitizeText(Buffer* text) {
  for (uint8_t& ch : *text) {
    if (ch == kSentinel || ch == kSeparator) ch = kReplacement;
  }
}

void FmIndexBuilder::AddPage(Slice page_text) {
  page_offsets_.push_back(text_.size());
  size_t start = text_.size();
  text_.insert(text_.end(), page_text.data(),
               page_text.data() + page_text.size());
  for (size_t i = start; i < text_.size(); ++i) {
    if (text_[i] == kSentinel || text_[i] == kSeparator) {
      text_[i] = kReplacement;
    }
  }
  text_.push_back(kSeparator);
}

void FmIndexBuilder::AddPageValues(const std::vector<std::string>& values) {
  Buffer prepared;
  PreparePageText(values, &prepared);
  AddPreparedPage(Slice(prepared));
}

void FmIndexBuilder::PreparePageText(const std::vector<std::string>& values,
                                     Buffer* out) {
  out->clear();
  for (const std::string& v : values) {
    size_t start = out->size();
    out->insert(out->end(), v.begin(), v.end());
    for (size_t i = start; i < out->size(); ++i) {
      if ((*out)[i] == kSentinel || (*out)[i] == kSeparator) {
        (*out)[i] = kReplacement;
      }
    }
    out->push_back(kSeparator);
  }
}

void FmIndexBuilder::AddPreparedPage(Slice prepared) {
  page_offsets_.push_back(text_.size());
  text_.insert(text_.end(), prepared.data(), prepared.data() + prepared.size());
}

Status FmIndexBuilder::Finish(const format::PageTable& pages, ThreadPool* pool,
                              Buffer* out) {
  Buffer text = text_;
  text.push_back(kSentinel);

  ROTTNEST_ASSIGN_OR_RETURN(std::vector<int64_t> sa,
                            BuildSuffixArray(Slice(text)));
  FmContent content;
  content.bwt = BwtFromSuffixArray(Slice(text), sa);
  uint64_t n = content.bwt.size();
  content.marked.assign(n, false);
  for (uint64_t j = 0; j < n; ++j) {
    uint64_t pos = static_cast<uint64_t>(sa[j]);
    if (pos % options_.sample_rate == 0) {
      content.marked[j] = true;
      content.samples.push_back(pos);
    }
  }
  content.string_starts = {0};
  content.page_offsets = page_offsets_;
  content.pages = pages;
  return EmitFmFile(column_, options_, content, pool, out);
}

bool HasReservedBytes(Slice pattern) {
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] <= kReplacement) return true;
  }
  return false;
}

Status FmCount(ComponentFileReader* reader, ThreadPool* pool,
               objectstore::IoTrace* trace, Slice pattern, uint64_t* count,
               std::pair<uint64_t, uint64_t>* range) {
  if (pattern.empty()) return Status::InvalidArgument("empty pattern");
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] == kSentinel || pattern[i] == kSeparator) {
      return Status::InvalidArgument("pattern contains reserved bytes");
    }
  }
  FmView view;
  ROTTNEST_RETURN_NOT_OK(FmView::Open(reader, pool, trace, &view));
  uint64_t l, r;
  ROTTNEST_RETURN_NOT_OK(BackwardSearch(&view, pattern, &l, &r));
  *count = r - l;
  if (range != nullptr) *range = {l, r};
  return Status::OK();
}

Status FmLocatePages(ComponentFileReader* reader, ThreadPool* pool,
                     objectstore::IoTrace* trace, Slice pattern,
                     size_t max_locations,
                     std::vector<format::PageId>* pages) {
  pages->clear();
  FmView view;
  ROTTNEST_RETURN_NOT_OK(FmView::Open(reader, pool, trace, &view));
  uint64_t l, r;
  {
    uint64_t count = 0;
    std::pair<uint64_t, uint64_t> range;
    ROTTNEST_RETURN_NOT_OK(
        FmCount(reader, pool, trace, pattern, &count, &range));
    l = range.first;
    r = range.second;
  }
  if (l >= r) return Status::OK();

  // LF-walk each occurrence to its nearest sample, batching block reads
  // across occurrences per step (one dependent round per step).
  struct Walk {
    uint64_t row;
    uint64_t steps = 0;
    bool done = false;
    uint64_t slot = 0;  ///< Sample slot once done; resolved in a batch.
    uint64_t pos = 0;
  };
  std::vector<Walk> walks;
  for (uint64_t j = l; j < r && walks.size() < max_locations; ++j) {
    walks.push_back({j});
  }

  const uint32_t max_steps = view.meta().sample_rate + 1;
  for (uint32_t step = 0; step <= max_steps; ++step) {
    // Prefetch all blocks this step touches in one round.
    std::set<std::string> names;
    bool any_active = false;
    for (const Walk& w : walks) {
      if (w.done) continue;
      any_active = true;
      names.insert(view.MarkBlockName(w.row));
      names.insert(view.BwtBlockName(w.row));
    }
    if (!any_active) break;
    ROTTNEST_RETURN_NOT_OK(view.Prefetch(
        std::vector<std::string>(names.begin(), names.end())));

    for (Walk& w : walks) {
      if (w.done) continue;
      bool marked = false;
      uint64_t slot = 0;
      ROTTNEST_RETURN_NOT_OK(view.Marked(w.row, &marked, &slot));
      if (marked) {
        w.slot = slot;
        w.done = true;
        continue;
      }
      uint64_t next = 0;
      ROTTNEST_RETURN_NOT_OK(view.Lf(w.row, &next));
      w.row = next;
      w.steps++;
    }
  }
  for (const Walk& w : walks) {
    if (!w.done) {
      return Status::Internal("locate walk exceeded sample rate bound");
    }
  }

  // Resolve all sampled positions in one batched round.
  {
    std::set<std::string> ssa_names;
    for (const Walk& w : walks) ssa_names.insert(view.SsaBlockName(w.slot));
    ROTTNEST_RETURN_NOT_OK(view.Prefetch(
        std::vector<std::string>(ssa_names.begin(), ssa_names.end())));
    for (Walk& w : walks) {
      uint64_t sampled = 0;
      ROTTNEST_RETURN_NOT_OK(view.Sample(w.slot, &sampled));
      w.pos = sampled + w.steps;
    }
  }

  // Map text positions to pages via bounds.
  std::vector<uint64_t> bounds;
  ROTTNEST_RETURN_NOT_OK(view.LoadBounds(&bounds));
  std::set<format::PageId> result;
  for (const Walk& w : walks) {
    auto it = std::upper_bound(bounds.begin(), bounds.end(), w.pos);
    if (it == bounds.begin()) continue;  // Before the first page (sentinel).
    result.insert(static_cast<format::PageId>((it - bounds.begin()) - 1));
  }
  pages->assign(result.begin(), result.end());
  return Status::OK();
}

Status FmMerge(const std::vector<ComponentFileReader*>& inputs,
               ThreadPool* pool, objectstore::IoTrace* trace,
               const std::string& column, const FmOptions& options,
               Buffer* out) {
  if (inputs.empty()) return Status::InvalidArgument("no inputs to merge");
  FmMeta meta;
  FmContent merged;
  ROTTNEST_RETURN_NOT_OK(LoadContent(inputs[0], pool, trace, &meta, &merged));
  for (size_t i = 1; i < inputs.size(); ++i) {
    FmContent next;
    ROTTNEST_RETURN_NOT_OK(LoadContent(inputs[i], pool, trace, &meta, &next));
    FmContent combined;
    ROTTNEST_RETURN_NOT_OK(MergePair(merged, next, options, &combined));
    merged = std::move(combined);
  }
  return EmitFmFile(column, options, merged, pool, out);
}

}  // namespace rottnest::index
