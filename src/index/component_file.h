// Componentized index files (paper §V-B, Fig 6).
//
// An index file is a set of named, individually-compressed *components*
// plus a directory of their byte ranges. Query code reads the directory and
// the root component(s) in one tail range-read, then fetches exactly the
// leaf components a query needs in one parallel round — bounding the number
// of dependent object-store requests ("access depth") at ~2 regardless of
// index size, while keeping compression benefits.
//
// Layout:
//   [4-byte magic "RNI1"]
//   [component payloads, back-to-back, each compressed]
//   [directory: per component name/offset/sizes/codec/checksum, plus index
//    metadata]
//   [fixed64 directory checksum][fixed32 directory length]["RNI1"]
//
// Integrity: the directory carries a Hash64 checksum of itself (verified at
// open) and of every compressed component payload, so a truncated or
// bit-flipped index body surfaces as Corruption instead of being silently
// accepted — magic bytes alone only catch missing tails. Payloads inside
// the open's tail read are checksummed at open; fetched ones on fetch.
// Either way a component is decompressed only when a read first asks for
// it, and readers get views into the decoded copy rather than copies.
//
// Components written *last* land in the speculative tail read and cost no
// extra round — writers should emit leaves first and roots last.
#ifndef ROTTNEST_INDEX_COMPONENT_FILE_H_
#define ROTTNEST_INDEX_COMPONENT_FILE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/thread_pool.h"
#include "compress/lz.h"
#include "format/page_table.h"
#include "objectstore/io_trace.h"
#include "objectstore/object_store.h"

namespace rottnest::index {

/// Index kind stored in the directory.
enum class IndexType : uint8_t {
  kTrie = 0,
  kFm = 1,
  kIvfPq = 2,
  kKeyword = 3,
};

const char* IndexTypeName(IndexType t);

/// Inverse of IndexTypeName. Returns false for unknown names.
bool IndexTypeFromName(const std::string& name, IndexType* out);

/// One damaged component found by ComponentFileReader::VerifyComponents:
/// which component, and the Corruption/IO status explaining how it failed.
struct ComponentDamage {
  std::string name;
  Status status;
};

/// Per-component audit metadata exposed by ComponentFileReader::Components.
struct ComponentInfo {
  std::string name;
  uint64_t compressed_size = 0;
  /// True when the component landed in the Open tail read and its payload
  /// checksum was already verified there — a deep scrub can skip it.
  bool verified_at_open = false;
};

/// Builds one index file image in memory.
class ComponentFileWriter {
 public:
  ComponentFileWriter(IndexType type, std::string column)
      : type_(type), column_(std::move(column)) {
    for (char c : kMagic) file_.push_back(static_cast<uint8_t>(c));
  }

  /// Appends a component. Names must be unique. Uses LZ compression unless
  /// the payload is incompressible.
  Status AddComponent(const std::string& name, Slice payload);

  /// Appends several components in order. Payload compression — the
  /// CPU-heavy part — runs in parallel on `pool` (nullptr = inline);
  /// directory entries and the file image are appended serially in input
  /// order, so the image is byte-identical to equivalent AddComponent
  /// calls at any thread count.
  Status AddComponents(const std::vector<std::string>& names,
                       const std::vector<Buffer>& payloads, ThreadPool* pool);

  /// Finalizes and returns the file image.
  Status Finish(Buffer* out);

  size_t current_size() const { return file_.size(); }

 private:
  static constexpr char kMagic[4] = {'R', 'N', 'I', '1'};
  friend class ComponentFileReader;

  /// Appends an already-compressed payload plus its directory entry.
  Status AppendCompressed(const std::string& name, size_t uncompressed_size,
                          Buffer compressed, uint8_t codec);

  struct Entry {
    std::string name;
    uint64_t offset;
    uint32_t compressed_size;
    uint32_t uncompressed_size;
    uint8_t codec;
    uint64_t checksum;  ///< Hash64 of the compressed payload bytes.
  };

  IndexType type_;
  std::string column_;
  Buffer file_;
  std::vector<Entry> entries_;
  bool finished_ = false;
};

/// Reads an index file from object storage with tail-read + batched
/// component fetches. Thread-compatible (one instance per query).
///
/// Contract: Open verifies the directory checksum and the checksum of
/// every component payload inside the tail read, and keeps those verified
/// compressed bytes; no component is decompressed at open. ReadComponents
/// is the one decode path: it decompresses a component the first time a
/// read asks for it — from the kept tail bytes, or after one batched fetch
/// (checksummed on arrival) — and hands out views into the decoded cache.
class ComponentFileReader {
 public:
  /// Opens `key`: one HEAD + one tail range read (`tail_bytes`). Components
  /// wholly contained in the tail are checksummed here and later read with
  /// no further IO.
  static Result<std::unique_ptr<ComponentFileReader>> Open(
      objectstore::ObjectStore* store, std::string key,
      objectstore::IoTrace* trace, size_t tail_bytes = 256 << 10);

  IndexType type() const { return type_; }
  const std::string& column() const { return column_; }
  const std::string& key() const { return key_; }

  bool HasComponent(const std::string& name) const {
    return directory_.count(name) != 0;
  }

  /// Names of all components.
  std::vector<std::string> ComponentNames() const;

  /// Returns views of the decompressed payloads of `names`, aligned with
  /// `names`. Components not yet decoded are decoded now: tail-resident
  /// ones from the bytes Open kept (no IO), the rest after one parallel
  /// fetch round. A view stays valid until its component is Evict()ed or
  /// the reader is destroyed — later reads never move decoded bytes. A
  /// caller that needs the bytes beyond that copies them.
  Status ReadComponents(const std::vector<std::string>& names,
                        ThreadPool* pool, objectstore::IoTrace* trace,
                        std::vector<Slice>* out);

  /// Single-component convenience.
  Status ReadComponent(const std::string& name, ThreadPool* pool,
                       objectstore::IoTrace* trace, Slice* out);

  /// Audit metadata for every component, in name order.
  std::vector<ComponentInfo> Components() const;

  /// Deep audit: re-fetches the raw compressed bytes of `names` from the
  /// store (one IoTrace round, bypassing the decompressed cache) and checks
  /// each against its directory checksum. Does NOT fail fast — every fetch
  /// error or checksum mismatch is appended to `damage` and the scan
  /// continues; the return Status is only for invalid arguments (unknown
  /// component name). `bytes_fetched` (optional) accumulates compressed
  /// bytes actually read, for scrub byte budgets.
  Status VerifyComponents(const std::vector<std::string>& names,
                          objectstore::IoTrace* trace,
                          std::vector<ComponentDamage>* damage,
                          uint64_t* bytes_fetched);

  /// Drops one component from the decompressed cache, invalidating its
  /// views. Streaming merges bound their working set by evicting leaves
  /// after consuming them.
  void Evict(const std::string& name) { decoded_.erase(name); }

  /// Bytes of decompressed payload currently held.
  size_t decoded_bytes() const;

 private:
  ComponentFileReader(objectstore::ObjectStore* store, std::string key)
      : store_(store), key_(std::move(key)) {}

  using Entry = ComponentFileWriter::Entry;

  /// True when the component's payload lies in tail_ (checksummed at open).
  bool InTail(const Entry& e) const { return e.offset >= tail_start_; }

  objectstore::ObjectStore* store_;
  std::string key_;
  IndexType type_ = IndexType::kTrie;
  std::string column_;
  std::map<std::string, Entry> directory_;
  Buffer tail_;              ///< Open's tail read: verified, still compressed.
  uint64_t tail_start_ = 0;  ///< File offset of tail_[0].
  /// Decoded payloads. Map nodes never move, so views survive inserts.
  std::map<std::string, Buffer> decoded_;
};

/// Every index kind embeds the page table its postings refer to under this
/// component name, so searches resolve page ids without other metadata.
inline constexpr const char* kPageTableComponent = "pagetable";

/// Loads the embedded page table.
Status LoadPageTable(ComponentFileReader* reader, ThreadPool* pool,
                     objectstore::IoTrace* trace, format::PageTable* out);

}  // namespace rottnest::index

#endif  // ROTTNEST_INDEX_COMPONENT_FILE_H_
