#include "format/metadata.h"

namespace rottnest::format {

void FileMeta::Serialize(Buffer* out) const {
  PutVarint64(out, schema.columns.size());
  for (const ColumnSchema& col : schema.columns) {
    PutLengthPrefixedString(out, col.name);
    out->push_back(static_cast<uint8_t>(col.type));
    PutVarint32(out, col.fixed_len);
  }
  PutVarint64(out, num_rows);
  PutVarint64(out, row_groups.size());
  for (const RowGroupMeta& rg : row_groups) {
    PutVarint64(out, rg.num_rows);
    PutVarint64(out, rg.first_row);
    PutVarint64(out, rg.columns.size());
    for (const ColumnChunkMeta& cc : rg.columns) {
      PutVarint64(out, cc.offset);
      PutVarint64(out, cc.total_size);
      out->push_back(cc.has_stats ? 1 : 0);
      if (cc.has_stats) {
        PutVarint64Signed(out, cc.min);
        PutVarint64Signed(out, cc.max);
      }
      PutVarint64(out, cc.pages.size());
      for (const PageMeta& p : cc.pages) {
        PutVarint64(out, p.offset);
        PutVarint32(out, p.size);
        PutVarint32(out, p.num_values);
        PutVarint64(out, p.first_row);
      }
    }
  }
}

Status FileMeta::Deserialize(Slice input, FileMeta* out) {
  Decoder dec(input);
  uint64_t num_cols = 0;
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&num_cols));
  out->schema.columns.clear();
  for (uint64_t i = 0; i < num_cols; ++i) {
    ColumnSchema col;
    ROTTNEST_RETURN_NOT_OK(dec.GetLengthPrefixedString(&col.name));
    if (dec.exhausted()) return Status::Corruption("truncated schema");
    Slice type_byte;
    ROTTNEST_RETURN_NOT_OK(dec.GetBytes(1, &type_byte));
    if (type_byte[0] > static_cast<uint8_t>(PhysicalType::kFixedLenByteArray)) {
      return Status::Corruption("bad column type");
    }
    col.type = static_cast<PhysicalType>(type_byte[0]);
    ROTTNEST_RETURN_NOT_OK(dec.GetVarint32(&col.fixed_len));
    out->schema.columns.push_back(std::move(col));
  }
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&out->num_rows));
  uint64_t num_groups = 0;
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&num_groups));
  out->row_groups.clear();
  for (uint64_t g = 0; g < num_groups; ++g) {
    RowGroupMeta rg;
    ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&rg.num_rows));
    ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&rg.first_row));
    uint64_t cols = 0;
    ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&cols));
    if (cols != num_cols) return Status::Corruption("row group column count");
    for (uint64_t c = 0; c < cols; ++c) {
      ColumnChunkMeta cc;
      ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&cc.offset));
      ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&cc.total_size));
      Slice flag;
      ROTTNEST_RETURN_NOT_OK(dec.GetBytes(1, &flag));
      cc.has_stats = flag[0] != 0;
      if (cc.has_stats) {
        ROTTNEST_RETURN_NOT_OK(dec.GetVarint64Signed(&cc.min));
        ROTTNEST_RETURN_NOT_OK(dec.GetVarint64Signed(&cc.max));
      }
      uint64_t num_pages = 0;
      ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&num_pages));
      for (uint64_t p = 0; p < num_pages; ++p) {
        PageMeta pm;
        ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&pm.offset));
        ROTTNEST_RETURN_NOT_OK(dec.GetVarint32(&pm.size));
        ROTTNEST_RETURN_NOT_OK(dec.GetVarint32(&pm.num_values));
        ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&pm.first_row));
        cc.pages.push_back(pm);
      }
      rg.columns.push_back(std::move(cc));
    }
    out->row_groups.push_back(std::move(rg));
  }
  if (!dec.exhausted()) return Status::Corruption("trailing footer bytes");
  return Status::OK();
}

}  // namespace rottnest::format
