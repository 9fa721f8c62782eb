// Bit-packing and run-length utilities for integer columns, deletion
// vectors, and index posting lists.
#ifndef ROTTNEST_COMPRESS_BITPACK_H_
#define ROTTNEST_COMPRESS_BITPACK_H_

#include <cstdint>
#include <vector>

#include "common/coding.h"
#include "common/slice.h"
#include "common/status.h"

namespace rottnest::compress {

/// Number of bits needed to represent `v` (0 -> 0 bits).
inline int BitWidth(uint64_t v) {
  int w = 0;
  while (v != 0) {
    ++w;
    v >>= 1;
  }
  return w;
}

/// Appends `values` packed at `bit_width` bits each (LSB-first within the
/// stream). bit_width must be >= BitWidth(max(values)) and <= 56 (the
/// accumulator holds at most 7 residual bits between values).
void BitPack(const std::vector<uint64_t>& values, int bit_width, Buffer* out);

/// Unpacks `count` values of `bit_width` bits from `input`.
Status BitUnpack(Slice input, int bit_width, size_t count,
                 std::vector<uint64_t>* out);

/// Reads the single value at `index` of a BitPack stream of `bit_width`
/// (<= 56) bits per value, without unpacking the values before it.
Status BitUnpackAt(Slice input, int bit_width, size_t index, uint64_t* out);

/// Delta + varint encoding for sorted (non-decreasing) sequences such as
/// posting lists of page ids.
void DeltaEncodeSorted(const std::vector<uint64_t>& values, Buffer* out);

/// Inverse of DeltaEncodeSorted.
Status DeltaDecodeSorted(Decoder* dec, std::vector<uint64_t>* out);

}  // namespace rottnest::compress

#endif  // ROTTNEST_COMPRESS_BITPACK_H_
