#include "format/page.h"

#include "common/coding.h"
#include "common/hash.h"

namespace rottnest::format {

namespace {

// Plain encodings, one per physical type.

void EncodeValues(const ColumnVector& column, size_t begin, size_t end,
                  Buffer* out) {
  switch (column.type()) {
    case PhysicalType::kInt64:
      for (size_t i = begin; i < end; ++i) {
        PutFixed64(out, static_cast<uint64_t>(column.ints()[i]));
      }
      break;
    case PhysicalType::kDouble:
      for (size_t i = begin; i < end; ++i) {
        uint64_t bits;
        std::memcpy(&bits, &column.doubles()[i], 8);
        PutFixed64(out, bits);
      }
      break;
    case PhysicalType::kByteArray:
      for (size_t i = begin; i < end; ++i) {
        PutLengthPrefixedString(out, column.strings()[i]);
      }
      break;
    case PhysicalType::kFixedLenByteArray: {
      const FlatFixed& f = column.fixed();
      const uint8_t* start = f.data.data() + begin * f.elem_size;
      out->insert(out->end(), start, start + (end - begin) * f.elem_size);
      break;
    }
  }
}

Status DecodeValues(Slice raw, const ColumnSchema& col, size_t num_values,
                    ColumnVector* out) {
  *out = MakeEmptyColumn(col);
  Decoder dec(raw);
  switch (col.type) {
    case PhysicalType::kInt64: {
      auto& v = out->ints();
      v.reserve(num_values);
      for (size_t i = 0; i < num_values; ++i) {
        uint64_t bits = 0;
        ROTTNEST_RETURN_NOT_OK(dec.GetFixed64(&bits));
        v.push_back(static_cast<int64_t>(bits));
      }
      break;
    }
    case PhysicalType::kDouble: {
      auto& v = out->doubles();
      v.reserve(num_values);
      for (size_t i = 0; i < num_values; ++i) {
        uint64_t bits = 0;
        ROTTNEST_RETURN_NOT_OK(dec.GetFixed64(&bits));
        double d;
        std::memcpy(&d, &bits, 8);
        v.push_back(d);
      }
      break;
    }
    case PhysicalType::kByteArray: {
      auto& v = out->strings();
      v.reserve(num_values);
      for (size_t i = 0; i < num_values; ++i) {
        std::string s;
        ROTTNEST_RETURN_NOT_OK(dec.GetLengthPrefixedString(&s));
        v.push_back(std::move(s));
      }
      break;
    }
    case PhysicalType::kFixedLenByteArray: {
      FlatFixed& f = out->fixed();
      size_t bytes = num_values * col.fixed_len;
      Slice data;
      ROTTNEST_RETURN_NOT_OK(dec.GetBytes(bytes, &data));
      f.data = data.ToBuffer();
      break;
    }
  }
  if (!dec.exhausted()) {
    return Status::Corruption("trailing bytes in decoded page");
  }
  return Status::OK();
}

}  // namespace

size_t RawValuesSize(const ColumnVector& column, size_t begin, size_t end) {
  switch (column.type()) {
    case PhysicalType::kInt64:
    case PhysicalType::kDouble:
      return (end - begin) * 8;
    case PhysicalType::kByteArray: {
      size_t total = 0;
      for (size_t i = begin; i < end; ++i) {
        total += column.strings()[i].size() + 2;  // ~varint overhead
      }
      return total;
    }
    case PhysicalType::kFixedLenByteArray:
      return (end - begin) * column.fixed().elem_size;
  }
  return 0;
}

size_t EncodePage(const ColumnVector& column, size_t begin, size_t end,
                  compress::Codec codec, Buffer* out) {
  Buffer raw;
  EncodeValues(column, begin, end, &raw);
  Buffer compressed = compress::Compress(codec, Slice(raw));
  // Fall back to stored if compression did not help.
  compress::Codec used = codec;
  if (compressed.size() >= raw.size()) {
    compressed = raw;
    used = compress::Codec::kNone;
  }
  size_t start = out->size();
  PutVarint64(out, end - begin);
  PutVarint64(out, raw.size());
  PutVarint64(out, compressed.size());
  out->push_back(static_cast<uint8_t>(used));
  PutFixed64(out, Hash64(Slice(compressed)));
  out->insert(out->end(), compressed.begin(), compressed.end());
  return out->size() - start;
}

Status DecodePage(Slice page_bytes, const ColumnSchema& col,
                  ColumnVector* out, size_t* consumed) {
  Decoder dec(page_bytes);
  uint64_t num_values = 0, uncompressed_size = 0, compressed_size = 0;
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&num_values));
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&uncompressed_size));
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&compressed_size));
  if (dec.exhausted()) return Status::Corruption("truncated page header");
  uint8_t codec_byte = page_bytes[dec.position()];
  Decoder dec2(page_bytes.Subslice(dec.position() + 1,
                                   page_bytes.size() - dec.position() - 1));
  uint64_t checksum = 0;
  ROTTNEST_RETURN_NOT_OK(dec2.GetFixed64(&checksum));
  Slice payload;
  ROTTNEST_RETURN_NOT_OK(dec2.GetBytes(compressed_size, &payload));
  if (Hash64(payload) != checksum) {
    return Status::Corruption("page checksum mismatch");
  }
  if (codec_byte > static_cast<uint8_t>(compress::Codec::kLz)) {
    return Status::Corruption("unknown page codec");
  }
  Buffer raw;
  ROTTNEST_RETURN_NOT_OK(compress::Decompress(
      static_cast<compress::Codec>(codec_byte), payload, uncompressed_size,
      &raw));
  ROTTNEST_RETURN_NOT_OK(DecodeValues(Slice(raw), col, num_values, out));
  if (consumed != nullptr) {
    *consumed = dec.position() + 1 + dec2.position();
  }
  return Status::OK();
}

}  // namespace rottnest::format
