#include "compress/lz.h"

#include <cstring>

namespace rottnest::compress {

namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
constexpr int kHashBits = 16;
constexpr size_t kHashSize = 1u << kHashBits;
// Matches within the last 12 bytes of input are not emitted (mirrors LZ4's
// end-of-block restrictions and keeps the decoder's copy loops simple).
constexpr size_t kLastLiterals = 12;

inline uint32_t Read32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

/// Copies `len` bytes in whole kStep-byte chunks, so it may read up to
/// kStep - 1 bytes past src + len and write as far past dst + len; the
/// caller guarantees that slack. Correct for overlapping ranges as long as
/// dst - src >= kStep: every chunk reads only bytes already final.
template <size_t kStep>
inline void WildCopy(uint8_t* dst, const uint8_t* src, size_t len) {
  for (uint8_t* const stop = dst + len; dst < stop;) {
    std::memcpy(dst, src, kStep);
    dst += kStep;
    src += kStep;
  }
}

inline uint32_t HashSeq(uint32_t seq) {
  return (seq * 2654435761u) >> (32 - kHashBits);
}

void EmitLength(Buffer* out, size_t len) {
  while (len >= 255) {
    out->push_back(0xff);
    len -= 255;
  }
  out->push_back(static_cast<uint8_t>(len));
}

void EmitSequence(Buffer* out, const uint8_t* literals, size_t literal_len,
                  size_t offset, size_t match_len) {
  size_t lit_token = literal_len < 15 ? literal_len : 15;
  size_t match_token;
  bool has_match = match_len >= kMinMatch;
  if (has_match) {
    size_t m = match_len - kMinMatch;
    match_token = m < 15 ? m : 15;
  } else {
    match_token = 0;
  }
  out->push_back(static_cast<uint8_t>((lit_token << 4) | match_token));
  if (lit_token == 15) EmitLength(out, literal_len - 15);
  out->insert(out->end(), literals, literals + literal_len);
  if (has_match) {
    out->push_back(static_cast<uint8_t>(offset & 0xff));
    out->push_back(static_cast<uint8_t>(offset >> 8));
    if (match_token == 15) EmitLength(out, match_len - kMinMatch - 15);
  }
}

}  // namespace

Buffer LzCompress(Slice input) {
  Buffer out;
  const uint8_t* base = input.data();
  const size_t size = input.size();
  out.reserve(size / 2 + 32);

  if (size < kMinMatch + kLastLiterals) {
    // Too small to find matches: emit one literal-only sequence.
    EmitSequence(&out, base, size, 0, 0);
    return out;
  }

  // Hash table of candidate positions for 4-byte sequences.
  std::vector<uint32_t> table(kHashSize, 0);
  const size_t scan_limit = size - kLastLiterals;

  size_t anchor = 0;  // Start of pending literals.
  size_t pos = 1;     // Position 0 can never match backwards.

  while (pos + kMinMatch <= scan_limit) {
    uint32_t h = HashSeq(Read32(base + pos));
    size_t candidate = table[h];
    table[h] = static_cast<uint32_t>(pos);

    bool match = candidate < pos && pos - candidate <= kMaxOffset &&
                 Read32(base + candidate) == Read32(base + pos);
    if (!match) {
      ++pos;
      continue;
    }

    // Extend the match forward.
    size_t match_len = kMinMatch;
    while (pos + match_len < scan_limit &&
           base[candidate + match_len] == base[pos + match_len]) {
      ++match_len;
    }
    // Extend backwards into pending literals.
    while (pos > anchor && candidate > 0 &&
           base[candidate - 1] == base[pos - 1]) {
      --pos;
      --candidate;
      ++match_len;
    }

    EmitSequence(&out, base + anchor, pos - anchor, pos - candidate,
                 match_len);
    pos += match_len;
    anchor = pos;

    // Seed the table at the position just before the next scan point to
    // improve density.
    if (pos + kMinMatch <= scan_limit && pos >= 2) {
      table[HashSeq(Read32(base + pos - 2))] = static_cast<uint32_t>(pos - 2);
    }
  }

  // Final literal-only sequence.
  EmitSequence(&out, base + anchor, size - anchor, 0, 0);
  return out;
}

Status LzDecompress(Slice input, size_t uncompressed_size, Buffer* out) {
  // Presized output written through a cursor. Literals are exact memcpys
  // (a 16-byte literal wildcopy measured slower: the next match's loads
  // straddle its wide store). Short matches away from the output's end
  // (>= 16 bytes of slack) are wildcopies that over-copy into bytes the
  // next sequence overwrites — 16-byte chunks at offset >= 16, 8-byte
  // steps at offset 8..15 — instead of a memcpy call or a byte loop.
  out->resize(uncompressed_size);
  uint8_t* dst = out->data();
  size_t pos = 0;
  const uint8_t* p = input.data();
  const uint8_t* end = p + input.size();

  auto read_extended = [&](size_t base_len, size_t* len) -> Status {
    *len = base_len;
    if (base_len == 15) {
      uint8_t b;
      do {
        if (p >= end) return Status::Corruption("lz: truncated length");
        b = *p++;
        *len += b;
      } while (b == 0xff);
    }
    return Status::OK();
  };

  while (p < end) {
    uint8_t token = *p++;
    size_t literal_len;
    ROTTNEST_RETURN_NOT_OK(read_extended(token >> 4, &literal_len));
    if (static_cast<size_t>(end - p) < literal_len) {
      return Status::Corruption("lz: truncated literals");
    }
    if (literal_len > uncompressed_size - pos) {
      return Status::Corruption("lz: output overflow (literals)");
    }
    if (literal_len > 0) std::memcpy(dst + pos, p, literal_len);
    pos += literal_len;
    p += literal_len;

    if (p >= end) break;  // Final sequence has no match.

    if (end - p < 2) return Status::Corruption("lz: truncated offset");
    size_t offset = p[0] | (static_cast<size_t>(p[1]) << 8);
    p += 2;
    if (offset == 0 || offset > pos) {
      return Status::Corruption("lz: bad match offset");
    }
    size_t match_len;
    ROTTNEST_RETURN_NOT_OK(read_extended(token & 0x0f, &match_len));
    match_len += kMinMatch;
    if (match_len > uncompressed_size - pos) {
      return Status::Corruption("lz: output overflow (match)");
    }
    const uint8_t* src = dst + pos - offset;
    const bool slack = uncompressed_size - pos >= match_len + 16;
    if (match_len > 64 && offset >= match_len) {
      std::memcpy(dst + pos, src, match_len);  // Long: libc's wide copies.
    } else if (slack && offset >= 16) {
      WildCopy<16>(dst + pos, src, match_len);
    } else if (slack && offset >= 8) {
      WildCopy<8>(dst + pos, src, match_len);
    } else if (offset >= match_len) {
      std::memcpy(dst + pos, src, match_len);
    } else {
      // Overlapping match with a short period (the run-length case): it
      // must replicate bytes produced by this same copy, one at a time.
      for (size_t i = 0; i < match_len; ++i) dst[pos + i] = src[i];
    }
    pos += match_len;
  }

  if (pos != uncompressed_size) {
    return Status::Corruption("lz: size mismatch after decompress");
  }
  return Status::OK();
}

Buffer Compress(Codec codec, Slice input) {
  switch (codec) {
    case Codec::kNone:
      return input.ToBuffer();
    case Codec::kLz:
      return LzCompress(input);
  }
  return input.ToBuffer();
}

Status Decompress(Codec codec, Slice input, size_t uncompressed_size,
                  Buffer* out) {
  switch (codec) {
    case Codec::kNone:
      if (input.size() != uncompressed_size) {
        return Status::Corruption("stored block size mismatch");
      }
      *out = input.ToBuffer();
      return Status::OK();
    case Codec::kLz:
      return LzDecompress(input, uncompressed_size, out);
  }
  return Status::NotSupported("unknown codec");
}

}  // namespace rottnest::compress
