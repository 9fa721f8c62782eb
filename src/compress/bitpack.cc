#include "compress/bitpack.h"

#include <algorithm>

namespace rottnest::compress {

void BitPack(const std::vector<uint64_t>& values, int bit_width, Buffer* out) {
  if (bit_width == 0) return;
  uint64_t acc = 0;
  int acc_bits = 0;
  for (uint64_t v : values) {
    acc |= v << acc_bits;
    acc_bits += bit_width;
    while (acc_bits >= 8) {
      out->push_back(static_cast<uint8_t>(acc & 0xff));
      acc >>= 8;
      acc_bits -= 8;
    }
    // acc_bits < 8 here, but v may have had high bits not yet emitted when
    // bit_width > 64 - 8; cap bit_width at 57 via the shifted accumulator.
  }
  if (acc_bits > 0) out->push_back(static_cast<uint8_t>(acc & 0xff));
}

Status BitUnpack(Slice input, int bit_width, size_t count,
                 std::vector<uint64_t>* out) {
  out->clear();
  out->reserve(count);
  if (bit_width == 0) {
    out->assign(count, 0);
    return Status::OK();
  }
  size_t needed_bits = count * static_cast<size_t>(bit_width);
  if (input.size() * 8 < needed_bits) {
    return Status::Corruption("bitpack: input too short");
  }
  uint64_t acc = 0;
  int acc_bits = 0;
  size_t pos = 0;
  uint64_t mask = bit_width == 64 ? ~0ULL : ((1ULL << bit_width) - 1);
  for (size_t i = 0; i < count; ++i) {
    while (acc_bits < bit_width) {
      acc |= static_cast<uint64_t>(input[pos++]) << acc_bits;
      acc_bits += 8;
    }
    out->push_back(acc & mask);
    acc >>= bit_width;
    acc_bits -= bit_width;
  }
  return Status::OK();
}

Status BitUnpackAt(Slice input, int bit_width, size_t index, uint64_t* out) {
  if (bit_width < 0 || bit_width > 56) {
    return Status::Corruption("bitpack: bad width");
  }
  if (bit_width == 0) {
    *out = 0;
    return Status::OK();
  }
  const size_t first_bit = index * static_cast<size_t>(bit_width);
  if (input.size() * 8 < first_bit + bit_width) {
    return Status::Corruption("bitpack: input too short");
  }
  // The value spans at most 8 bytes (shift <= 7, width <= 56).
  const size_t byte = first_bit / 8;
  const size_t span = std::min<size_t>(8, input.size() - byte);
  uint64_t word = 0;
  for (size_t i = 0; i < span; ++i) {
    word |= static_cast<uint64_t>(input[byte + i]) << (8 * i);
  }
  *out = (word >> (first_bit % 8)) & ((1ULL << bit_width) - 1);
  return Status::OK();
}

void DeltaEncodeSorted(const std::vector<uint64_t>& values, Buffer* out) {
  PutVarint64(out, values.size());
  uint64_t prev = 0;
  for (uint64_t v : values) {
    PutVarint64(out, v - prev);
    prev = v;
  }
}

Status DeltaDecodeSorted(Decoder* dec, std::vector<uint64_t>* out) {
  uint64_t count;
  ROTTNEST_RETURN_NOT_OK(dec->GetVarint64(&count));
  out->clear();
  out->reserve(count);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t delta;
    ROTTNEST_RETURN_NOT_OK(dec->GetVarint64(&delta));
    prev += delta;
    out->push_back(prev);
  }
  return Status::OK();
}

}  // namespace rottnest::compress
