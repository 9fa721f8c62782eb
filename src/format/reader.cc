#include "format/reader.h"

#include <cstring>

#include "common/coding.h"
#include "format/page.h"

namespace rottnest::format {

namespace {

constexpr size_t kFooterTailBytes = 64 << 10;
constexpr size_t kFooterSuffix = 8;  // fixed32 length + 4-byte magic.

// Parses the footer from the last `tail.size()` bytes of a file. Sets
// *parsed=false (without error) when the footer extends beyond the tail, in
// which case *footer_start tells the caller what to fetch.
Status ParseFooterFromTail(Slice tail, uint64_t file_size, FileMeta* meta,
                           uint64_t* footer_start, bool* parsed) {
  *parsed = false;
  if (tail.size() < kFooterSuffix) {
    return Status::Corruption("file too small for footer");
  }
  const uint8_t* suffix = tail.data() + tail.size() - kFooterSuffix;
  if (std::memcmp(suffix + 4, kFileMagic, 4) != 0) {
    return Status::Corruption("bad trailing magic");
  }
  uint32_t footer_len = DecodeFixed32(suffix);
  if (footer_len + kFooterSuffix + 4 > file_size) {
    return Status::Corruption("footer length exceeds file size");
  }
  *footer_start = file_size - kFooterSuffix - footer_len;
  if (footer_len + kFooterSuffix > tail.size()) {
    return Status::OK();  // Caller must fetch [footer_start, ...) itself.
  }
  Slice footer = tail.Subslice(tail.size() - kFooterSuffix - footer_len,
                               footer_len);
  ROTTNEST_RETURN_NOT_OK(FileMeta::Deserialize(footer, meta));
  *parsed = true;
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<FileReader>> FileReader::Open(
    objectstore::ObjectStore* store, std::string key, uint64_t object_size,
    objectstore::IoTrace* trace) {
  objectstore::RangeRequest req = FooterRequest(key, object_size);
  Buffer tail;
  if (trace != nullptr) trace->BeginRound();
  Status s = store->GetRange(key, req.offset, req.length, &tail);
  if (s.ok() && trace != nullptr) trace->RecordGet(tail.size());
  return OpenFromTail(store, std::move(key), object_size, s, tail, trace);
}

objectstore::RangeRequest FileReader::FooterRequest(const std::string& key,
                                                    uint64_t object_size) {
  uint64_t tail_len = std::min<uint64_t>(object_size, kFooterTailBytes);
  return {key, object_size - tail_len, tail_len + 1};
}

Result<std::unique_ptr<FileReader>> FileReader::OpenFromTail(
    objectstore::ObjectStore* store, std::string key, uint64_t object_size,
    const Status& read, const Buffer& tail, objectstore::IoTrace* trace) {
  // A read starting past the real end means the object is shorter than
  // the size the caller vouched for.
  if (read.IsInvalidArgument()) {
    return Status::Corruption("object smaller than its recorded size: " +
                              key);
  }
  ROTTNEST_RETURN_NOT_OK(read);
  if (tail.size() != std::min<uint64_t>(object_size, kFooterTailBytes)) {
    return Status::Corruption("object size differs from its recorded size: " +
                              key);
  }
  FileMeta meta;
  uint64_t footer_start = 0;
  bool parsed = false;
  ROTTNEST_RETURN_NOT_OK(ParseFooterFromTail(Slice(tail), object_size, &meta,
                                             &footer_start, &parsed));
  if (!parsed) {
    // Footer larger than the speculative tail read: fetch it exactly.
    Buffer footer;
    if (trace != nullptr) trace->BeginRound();
    ROTTNEST_RETURN_NOT_OK(store->GetRange(
        key, footer_start, object_size - kFooterSuffix - footer_start,
        &footer));
    if (trace != nullptr) trace->RecordGet(footer.size());
    ROTTNEST_RETURN_NOT_OK(FileMeta::Deserialize(Slice(footer), &meta));
  }
  return std::unique_ptr<FileReader>(
      new FileReader(store, std::move(key), std::move(meta)));
}

Status FileReader::ReadColumnChunk(size_t row_group, size_t column,
                                   objectstore::IoTrace* trace,
                                   ColumnVector* out) {
  if (row_group >= meta_.row_groups.size()) {
    return Status::InvalidArgument("row group out of range");
  }
  const RowGroupMeta& rg = meta_.row_groups[row_group];
  if (column >= rg.columns.size()) {
    return Status::InvalidArgument("column out of range");
  }
  const ColumnChunkMeta& cc = rg.columns[column];
  Buffer chunk;
  if (trace != nullptr) trace->BeginRound();
  ROTTNEST_RETURN_NOT_OK(
      store_->GetRange(key_, cc.offset, cc.total_size, &chunk));
  if (trace != nullptr) trace->RecordGet(chunk.size());

  *out = MakeEmptyColumn(meta_.schema.columns[column]);
  size_t pos = 0;
  while (pos < chunk.size()) {
    ColumnVector page_values;
    size_t consumed = 0;
    ROTTNEST_RETURN_NOT_OK(DecodePage(
        Slice(chunk.data() + pos, chunk.size() - pos),
        meta_.schema.columns[column], &page_values, &consumed));
    out->AppendFrom(page_values);
    pos += consumed;
  }
  return Status::OK();
}

Status FileReader::ReadColumn(size_t column, objectstore::IoTrace* trace,
                              ColumnVector* out) {
  if (column >= meta_.schema.columns.size()) {
    return Status::InvalidArgument("column out of range");
  }
  *out = MakeEmptyColumn(meta_.schema.columns[column]);
  for (size_t g = 0; g < meta_.row_groups.size(); ++g) {
    ColumnVector chunk;
    ROTTNEST_RETURN_NOT_OK(ReadColumnChunk(g, column, trace, &chunk));
    out->AppendFrom(chunk);
  }
  return Status::OK();
}

std::vector<objectstore::RangeRequest> PageRequests(
    const std::vector<PageFetch>& pages) {
  std::vector<objectstore::RangeRequest> requests;
  requests.reserve(pages.size());
  for (const PageFetch& pf : pages) {
    requests.push_back({pf.key, pf.page.offset, pf.page.size});
  }
  return requests;
}

Status DecodePages(const std::vector<PageFetch>& pages,
                   const std::vector<Buffer>& raw,
                   const ColumnSchema& column_schema,
                   std::vector<ColumnVector>* out) {
  out->clear();
  out->resize(pages.size());
  for (size_t i = 0; i < pages.size(); ++i) {
    ROTTNEST_RETURN_NOT_OK(
        DecodePage(Slice(raw[i]), column_schema, &(*out)[i]));
    if ((*out)[i].size() != pages[i].page.num_values) {
      return Status::Corruption("page value count mismatch");
    }
  }
  return Status::OK();
}

Status ReadPages(objectstore::ObjectStore* store,
                 const std::vector<PageFetch>& pages,
                 const ColumnSchema& column_schema, ThreadPool* pool,
                 objectstore::IoTrace* trace, std::vector<ColumnVector>* out) {
  std::vector<Buffer> raw;
  ROTTNEST_RETURN_NOT_OK(objectstore::ReadBatch(store, PageRequests(pages),
                                                pool, trace, &raw));
  return DecodePages(pages, raw, column_schema, out);
}

Status ParseFileMeta(Slice file, FileMeta* out) {
  if (file.size() < 4 + kFooterSuffix) {
    return Status::Corruption("file too small");
  }
  if (std::memcmp(file.data(), kFileMagic, 4) != 0) {
    return Status::Corruption("bad leading magic");
  }
  uint64_t footer_start = 0;
  bool parsed = false;
  ROTTNEST_RETURN_NOT_OK(
      ParseFooterFromTail(file, file.size(), out, &footer_start, &parsed));
  if (!parsed) return Status::Corruption("footer not contained in file");
  return Status::OK();
}

}  // namespace rottnest::format
