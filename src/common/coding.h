// Little-endian fixed-width and varint encodings shared by the columnar
// format, index file layouts, and the transaction log.
#ifndef ROTTNEST_COMMON_CODING_H_
#define ROTTNEST_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace rottnest {

// -- Fixed-width little-endian -----------------------------------------------

inline void PutFixed32(Buffer* dst, uint32_t value) {
  for (int i = 0; i < 4; ++i) dst->push_back((value >> (8 * i)) & 0xff);
}

inline void PutFixed64(Buffer* dst, uint64_t value) {
  for (int i = 0; i < 8; ++i) dst->push_back((value >> (8 * i)) & 0xff);
}

inline uint32_t DecodeFixed32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);  // Host is little-endian on all supported targets.
  return v;
}

inline uint64_t DecodeFixed64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// -- Varint (LEB128) ----------------------------------------------------------

inline void PutVarint64(Buffer* dst, uint64_t value) {
  while (value >= 0x80) {
    dst->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  dst->push_back(static_cast<uint8_t>(value));
}

inline void PutVarint32(Buffer* dst, uint32_t value) {
  PutVarint64(dst, value);
}

/// Zig-zag maps signed to unsigned so small magnitudes stay short.
inline uint64_t ZigZagEncode(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

inline int64_t ZigZagDecode(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^ -static_cast<int64_t>(value & 1);
}

inline void PutVarint64Signed(Buffer* dst, int64_t value) {
  PutVarint64(dst, ZigZagEncode(value));
}

/// Stateful sequential decoder over a Slice. All Get* methods fail with
/// Corruption on truncated input rather than reading out of bounds.
class Decoder {
 public:
  explicit Decoder(Slice input) : input_(input), pos_(0) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return input_.size() - pos_; }
  bool exhausted() const { return pos_ >= input_.size(); }

  Status GetFixed32(uint32_t* out) {
    if (remaining() < 4) return Truncated("fixed32");
    *out = DecodeFixed32(input_.data() + pos_);
    pos_ += 4;
    return Status::OK();
  }

  Status GetFixed64(uint64_t* out) {
    if (remaining() < 8) return Truncated("fixed64");
    *out = DecodeFixed64(input_.data() + pos_);
    pos_ += 8;
    return Status::OK();
  }

  Status GetVarint64(uint64_t* out) {
    uint64_t result = 0;
    for (int shift = 0; shift <= 63; shift += 7) {
      if (exhausted()) return Truncated("varint64");
      uint8_t byte = input_[pos_++];
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *out = result;
        return Status::OK();
      }
    }
    return Status::Corruption("varint64 overlong");
  }

  Status GetVarint32(uint32_t* out) {
    uint64_t v = 0;
    ROTTNEST_RETURN_NOT_OK(GetVarint64(&v));
    if (v > UINT32_MAX) return Status::Corruption("varint32 out of range");
    *out = static_cast<uint32_t>(v);
    return Status::OK();
  }

  Status GetVarint64Signed(int64_t* out) {
    uint64_t v = 0;
    ROTTNEST_RETURN_NOT_OK(GetVarint64(&v));
    *out = ZigZagDecode(v);
    return Status::OK();
  }

  /// Returns a view of the next `len` bytes and advances past them.
  Status GetBytes(size_t len, Slice* out) {
    if (remaining() < len) return Truncated("bytes");
    *out = input_.Subslice(pos_, len);
    pos_ += len;
    return Status::OK();
  }

  /// Varint length followed by that many bytes.
  Status GetLengthPrefixed(Slice* out) {
    uint64_t len = 0;
    ROTTNEST_RETURN_NOT_OK(GetVarint64(&len));
    return GetBytes(len, out);
  }

  Status GetLengthPrefixedString(std::string* out) {
    Slice s;
    ROTTNEST_RETURN_NOT_OK(GetLengthPrefixed(&s));
    *out = s.ToString();
    return Status::OK();
  }

 private:
  static Status Truncated(const char* what) {
    return Status::Corruption(std::string("truncated input reading ") + what);
  }

  Slice input_;
  size_t pos_;
};

inline void PutLengthPrefixed(Buffer* dst, Slice value) {
  PutVarint64(dst, value.size());
  dst->insert(dst->end(), value.data(), value.data() + value.size());
}

inline void PutLengthPrefixedString(Buffer* dst, const std::string& value) {
  PutLengthPrefixed(dst, Slice(value));
}

}  // namespace rottnest

#endif  // ROTTNEST_COMMON_CODING_H_
