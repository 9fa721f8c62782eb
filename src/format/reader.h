// Readers for the columnar format.
//
// FileReader is the *traditional* reader: it opens the footer and reads
// whole column chunks (what Spark/Trino-style engines do — Fig 5 left).
//
// ReadPages is Rottnest's *custom page-granular* reader: given page byte
// ranges from a PageTable, it fetches exactly those pages with parallel
// range requests and bypasses the file footer entirely (Fig 5 right).
#ifndef ROTTNEST_FORMAT_READER_H_
#define ROTTNEST_FORMAT_READER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "format/metadata.h"
#include "format/types.h"
#include "objectstore/io_trace.h"
#include "objectstore/object_store.h"
#include "objectstore/read_batch.h"

namespace rottnest::format {

/// Footer-driven reader over a file in object storage.
class FileReader {
 public:
  /// Opens `key`, an object of `object_size` bytes — the size the lake
  /// snapshot already records (lake::DataFile::bytes) — so no HEAD is
  /// needed: one speculative tail GET (a second only for a footer larger
  /// than the tail) and the metadata parse. A size that does not match the
  /// object fails with Corruption, never with misparsed rows. `trace` may
  /// be null.
  static Result<std::unique_ptr<FileReader>> Open(
      objectstore::ObjectStore* store, std::string key, uint64_t object_size,
      objectstore::IoTrace* trace);

  /// The speculative tail read of a sized Open, for callers that issue it
  /// in one batch with other reads. It asks for one byte past the claimed
  /// end: a store truncates reads at the real end, so the returned length
  /// tells whether the object is exactly `object_size` bytes.
  static objectstore::RangeRequest FooterRequest(const std::string& key,
                                                 uint64_t object_size);

  /// Completes a sized Open from the status and bytes of the read that
  /// carried FooterRequest (any failure of that read fails the open).
  static Result<std::unique_ptr<FileReader>> OpenFromTail(
      objectstore::ObjectStore* store, std::string key, uint64_t object_size,
      const Status& read, const Buffer& tail, objectstore::IoTrace* trace);

  const FileMeta& meta() const { return meta_; }
  const std::string& key() const { return key_; }

  /// Reads and decodes one whole column chunk (one range GET spanning all
  /// of the chunk's pages). This is the traditional access path.
  Status ReadColumnChunk(size_t row_group, size_t column,
                         objectstore::IoTrace* trace, ColumnVector* out);

  /// Reads an entire column across all row groups (full-column scan, as a
  /// brute-force engine would).
  Status ReadColumn(size_t column, objectstore::IoTrace* trace,
                    ColumnVector* out);

 private:
  FileReader(objectstore::ObjectStore* store, std::string key, FileMeta meta)
      : store_(store), key_(std::move(key)), meta_(std::move(meta)) {}

  objectstore::ObjectStore* store_;
  std::string key_;
  FileMeta meta_;
};

/// A page to fetch: where it lives and how to decode it.
struct PageFetch {
  std::string key;       ///< Object key of the data file.
  PageMeta page;         ///< Byte range and row range.
};

/// The range request of each page, positionally aligned with `pages`.
std::vector<objectstore::RangeRequest> PageRequests(
    const std::vector<PageFetch>& pages);

/// Decodes fetched page bytes (`raw[i]` holds pages[i]) and checks each
/// page's value count against its PageMeta.
Status DecodePages(const std::vector<PageFetch>& pages,
                   const std::vector<Buffer>& raw,
                   const ColumnSchema& column_schema,
                   std::vector<ColumnVector>* out);

/// Fetches and decodes `pages` (one parallel round of range GETs, no footer
/// read; byte-adjacent pages of one file share a GET — see ReadBatch).
/// Results align positionally with `pages`.
Status ReadPages(objectstore::ObjectStore* store,
                 const std::vector<PageFetch>& pages,
                 const ColumnSchema& column_schema, ThreadPool* pool,
                 objectstore::IoTrace* trace, std::vector<ColumnVector>* out);

/// Parses a complete in-memory file image's footer (no object store) —
/// used right after writing, before upload.
Status ParseFileMeta(Slice file, FileMeta* out);

}  // namespace rottnest::format

#endif  // ROTTNEST_FORMAT_READER_H_
