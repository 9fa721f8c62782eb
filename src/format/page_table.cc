#include "format/page_table.h"

namespace rottnest::format {

PageId PageTable::AddFile(const std::string& file_key, const FileMeta& meta,
                          size_t column_index) {
  PageId first = static_cast<PageId>(entries_.size());
  uint32_t file_index = static_cast<uint32_t>(files_.size());
  files_.push_back(file_key);
  file_first_page_.push_back(first);
  for (const RowGroupMeta& rg : meta.row_groups) {
    const ColumnChunkMeta& cc = rg.columns[column_index];
    for (const PageMeta& p : cc.pages) {
      PageEntry e;
      e.file_index = file_index;
      e.offset = p.offset;
      e.size = p.size;
      e.num_values = p.num_values;
      e.first_row = p.first_row;
      entries_.push_back(e);
    }
  }
  return first;
}

std::pair<PageId, PageId> PageTable::FilePageRange(uint32_t file_index) const {
  PageId begin = file_first_page_[file_index];
  PageId end = file_index + 1 < file_first_page_.size()
                   ? file_first_page_[file_index + 1]
                   : static_cast<PageId>(entries_.size());
  return {begin, end};
}

Result<PageId> PageTable::PageOfRow(uint32_t file_index, uint64_t row) const {
  auto [begin, end] = FilePageRange(file_index);
  // Pages of a file are ordered by first_row; binary search the last page
  // with first_row <= row.
  PageId lo = begin, hi = end;
  while (lo < hi) {
    PageId mid = lo + (hi - lo) / 2;
    if (entries_[mid].first_row <= row) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == begin) return Status::NotFound("row before first page");
  PageId candidate = lo - 1;
  const PageEntry& e = entries_[candidate];
  if (row >= e.first_row + e.num_values) {
    return Status::NotFound("row past last page of file");
  }
  return candidate;
}

void PageTable::Serialize(Buffer* out) const {
  PutVarint64(out, files_.size());
  for (const std::string& f : files_) PutLengthPrefixedString(out, f);
  for (PageId p : file_first_page_) PutVarint64(out, p);
  PutVarint64(out, entries_.size());
  for (const PageEntry& e : entries_) {
    PutVarint32(out, e.file_index);
    PutVarint64(out, e.offset);
    PutVarint32(out, e.size);
    PutVarint32(out, e.num_values);
    PutVarint64(out, e.first_row);
  }
}

Status PageTable::Deserialize(Decoder* dec, PageTable* out) {
  out->files_.clear();
  out->entries_.clear();
  out->file_first_page_.clear();
  uint64_t num_files = 0;
  ROTTNEST_RETURN_NOT_OK(dec->GetVarint64(&num_files));
  for (uint64_t i = 0; i < num_files; ++i) {
    std::string f;
    ROTTNEST_RETURN_NOT_OK(dec->GetLengthPrefixedString(&f));
    out->files_.push_back(std::move(f));
  }
  for (uint64_t i = 0; i < num_files; ++i) {
    uint64_t first = 0;
    ROTTNEST_RETURN_NOT_OK(dec->GetVarint64(&first));
    out->file_first_page_.push_back(static_cast<PageId>(first));
  }
  uint64_t num_entries = 0;
  ROTTNEST_RETURN_NOT_OK(dec->GetVarint64(&num_entries));
  out->entries_.reserve(num_entries);
  for (uint64_t i = 0; i < num_entries; ++i) {
    PageEntry e;
    ROTTNEST_RETURN_NOT_OK(dec->GetVarint32(&e.file_index));
    ROTTNEST_RETURN_NOT_OK(dec->GetVarint64(&e.offset));
    ROTTNEST_RETURN_NOT_OK(dec->GetVarint32(&e.size));
    ROTTNEST_RETURN_NOT_OK(dec->GetVarint32(&e.num_values));
    ROTTNEST_RETURN_NOT_OK(dec->GetVarint64(&e.first_row));
    if (e.file_index >= out->files_.size()) {
      return Status::Corruption("page entry references unknown file");
    }
    out->entries_.push_back(e);
  }
  return Status::OK();
}

PageId PageTable::Absorb(const PageTable& other) {
  PageId id_offset = static_cast<PageId>(entries_.size());
  uint32_t file_offset = static_cast<uint32_t>(files_.size());
  files_.insert(files_.end(), other.files_.begin(), other.files_.end());
  for (PageId first : other.file_first_page_) {
    file_first_page_.push_back(first + id_offset);
  }
  for (PageEntry e : other.entries_) {
    e.file_index += file_offset;
    entries_.push_back(e);
  }
  return id_offset;
}

}  // namespace rottnest::format
