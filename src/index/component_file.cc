#include "index/component_file.h"

#include <cstring>

#include "common/hash.h"
#include "objectstore/read_batch.h"

namespace rottnest::index {

namespace {

/// The AddComponent compression policy — LZ unless incompressible —
/// factored out so AddComponents can run it off-thread.
void CompressPayload(Slice payload, Buffer* compressed, uint8_t* codec) {
  *compressed = compress::LzCompress(payload);
  *codec = static_cast<uint8_t>(compress::Codec::kLz);
  if (compressed->size() >= payload.size()) {
    *compressed = payload.ToBuffer();
    *codec = static_cast<uint8_t>(compress::Codec::kNone);
  }
}

}  // namespace

constexpr char ComponentFileWriter::kMagic[4];

const char* IndexTypeName(IndexType t) {
  switch (t) {
    case IndexType::kTrie:
      return "trie";
    case IndexType::kFm:
      return "fm";
    case IndexType::kIvfPq:
      return "ivfpq";
    case IndexType::kKeyword:
      return "keyword";
  }
  return "unknown";
}

bool IndexTypeFromName(const std::string& name, IndexType* out) {
  for (IndexType t : {IndexType::kTrie, IndexType::kFm, IndexType::kIvfPq,
                      IndexType::kKeyword}) {
    if (name == IndexTypeName(t)) {
      *out = t;
      return true;
    }
  }
  return false;
}

Status ComponentFileWriter::AppendCompressed(const std::string& name,
                                             size_t uncompressed_size,
                                             Buffer compressed,
                                             uint8_t codec) {
  if (finished_) return Status::InvalidArgument("writer finished");
  for (const Entry& e : entries_) {
    if (e.name == name) {
      return Status::InvalidArgument("duplicate component: " + name);
    }
  }
  Entry e;
  e.name = name;
  e.offset = file_.size();
  e.compressed_size = static_cast<uint32_t>(compressed.size());
  e.uncompressed_size = static_cast<uint32_t>(uncompressed_size);
  e.codec = codec;
  e.checksum = Hash64(Slice(compressed));
  entries_.push_back(std::move(e));
  file_.insert(file_.end(), compressed.begin(), compressed.end());
  return Status::OK();
}

Status ComponentFileWriter::AddComponent(const std::string& name,
                                         Slice payload) {
  Buffer compressed;
  uint8_t codec = 0;
  CompressPayload(payload, &compressed, &codec);
  return AppendCompressed(name, payload.size(), std::move(compressed), codec);
}

Status ComponentFileWriter::AddComponents(
    const std::vector<std::string>& names, const std::vector<Buffer>& payloads,
    ThreadPool* pool) {
  if (names.size() != payloads.size()) {
    return Status::InvalidArgument("names/payloads size mismatch");
  }
  std::vector<Buffer> compressed(payloads.size());
  std::vector<uint8_t> codecs(payloads.size(), 0);
  auto compress_one = [&](size_t i) {
    CompressPayload(Slice(payloads[i]), &compressed[i], &codecs[i]);
  };
  if (pool != nullptr) {
    pool->ParallelFor(payloads.size(), compress_one);
  } else {
    for (size_t i = 0; i < payloads.size(); ++i) compress_one(i);
  }
  for (size_t i = 0; i < payloads.size(); ++i) {
    ROTTNEST_RETURN_NOT_OK(AppendCompressed(
        names[i], payloads[i].size(), std::move(compressed[i]), codecs[i]));
  }
  return Status::OK();
}

Status ComponentFileWriter::Finish(Buffer* out) {
  if (finished_) return Status::InvalidArgument("writer finished");
  Buffer dir;
  dir.push_back(static_cast<uint8_t>(type_));
  PutLengthPrefixedString(&dir, column_);
  PutVarint64(&dir, entries_.size());
  for (const Entry& e : entries_) {
    PutLengthPrefixedString(&dir, e.name);
    PutVarint64(&dir, e.offset);
    PutVarint32(&dir, e.compressed_size);
    PutVarint32(&dir, e.uncompressed_size);
    dir.push_back(e.codec);
    PutFixed64(&dir, e.checksum);
  }
  file_.insert(file_.end(), dir.begin(), dir.end());
  PutFixed64(&file_, Hash64(Slice(dir)));
  PutFixed32(&file_, static_cast<uint32_t>(dir.size()));
  file_.insert(file_.end(), kMagic, kMagic + 4);
  *out = std::move(file_);
  finished_ = true;
  return Status::OK();
}

Result<std::unique_ptr<ComponentFileReader>> ComponentFileReader::Open(
    objectstore::ObjectStore* store, std::string key,
    objectstore::IoTrace* trace, size_t tail_bytes) {
  objectstore::ObjectMeta meta;
  ROTTNEST_RETURN_NOT_OK(store->Head(key, &meta));
  if (meta.size < 20) return Status::Corruption("index file too small");

  uint64_t tail_len = std::min<uint64_t>(meta.size, tail_bytes);
  Buffer tail;
  if (trace != nullptr) trace->BeginRound();
  ROTTNEST_RETURN_NOT_OK(
      store->GetRange(key, meta.size - tail_len, tail_len, &tail));
  if (trace != nullptr) trace->RecordGet(tail.size());

  if (std::memcmp(tail.data() + tail.size() - 4, ComponentFileWriter::kMagic,
                  4) != 0) {
    return Status::Corruption("bad index magic: " + key);
  }
  // When the tail read happens to cover the whole file, verifying the
  // LEADING magic is free. (For larger files it goes unchecked: no read
  // path depends on it — the directory checksum is the integrity root.)
  if (tail_len == meta.size &&
      std::memcmp(tail.data(), ComponentFileWriter::kMagic, 4) != 0) {
    return Status::Corruption("bad leading index magic: " + key);
  }
  uint32_t dir_len = DecodeFixed32(tail.data() + tail.size() - 8);
  if (static_cast<uint64_t>(dir_len) + 20 > meta.size) {
    return Status::Corruption("directory length exceeds file");
  }
  if (dir_len + 16 > tail.size()) {
    // Directory bigger than the tail read: fetch it exactly (rare; only for
    // indices with very many components).
    if (trace != nullptr) trace->BeginRound();
    ROTTNEST_RETURN_NOT_OK(store->GetRange(key, meta.size - 16 - dir_len,
                                           dir_len + 16, &tail));
    if (trace != nullptr) trace->RecordGet(tail.size());
    tail_len = dir_len + 16;
  }

  std::unique_ptr<ComponentFileReader> reader(
      new ComponentFileReader(store, std::move(key)));
  Slice dir(tail.data() + tail.size() - 16 - dir_len, dir_len);
  uint64_t dir_checksum = DecodeFixed64(tail.data() + tail.size() - 16);
  if (Hash64(dir) != dir_checksum) {
    return Status::Corruption("index directory checksum mismatch: " +
                              reader->key_);
  }
  Decoder dec(dir);
  Slice type_byte;
  ROTTNEST_RETURN_NOT_OK(dec.GetBytes(1, &type_byte));
  if (type_byte[0] > static_cast<uint8_t>(IndexType::kKeyword)) {
    return Status::Corruption("bad index type");
  }
  reader->type_ = static_cast<IndexType>(type_byte[0]);
  ROTTNEST_RETURN_NOT_OK(dec.GetLengthPrefixedString(&reader->column_));
  uint64_t num_entries = 0;
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&num_entries));
  // Component payloads end where the directory starts.
  const uint64_t payload_end = meta.size - 16 - dir_len;
  reader->tail_start_ = meta.size - tail_len;
  for (uint64_t i = 0; i < num_entries; ++i) {
    Entry e;
    ROTTNEST_RETURN_NOT_OK(dec.GetLengthPrefixedString(&e.name));
    ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&e.offset));
    ROTTNEST_RETURN_NOT_OK(dec.GetVarint32(&e.compressed_size));
    ROTTNEST_RETURN_NOT_OK(dec.GetVarint32(&e.uncompressed_size));
    Slice codec;
    ROTTNEST_RETURN_NOT_OK(dec.GetBytes(1, &codec));
    e.codec = codec[0];
    ROTTNEST_RETURN_NOT_OK(dec.GetFixed64(&e.checksum));
    if (e.offset > payload_end ||
        e.compressed_size > payload_end - e.offset) {
      return Status::Corruption("component extends past payloads: " + e.name +
                                " in " + reader->key_);
    }

    // Verify components fully contained in the tail we already have; they
    // are decoded from it on first read.
    if (reader->InTail(e)) {
      Slice payload(tail.data() + (e.offset - reader->tail_start_),
                    e.compressed_size);
      if (Hash64(payload) != e.checksum) {
        return Status::Corruption("component checksum mismatch: " + e.name +
                                  " in " + reader->key_);
      }
    }
    std::string name = e.name;
    reader->directory_.emplace(std::move(name), std::move(e));
  }
  if (!dec.exhausted()) return Status::Corruption("trailing directory bytes");
  reader->tail_ = std::move(tail);
  return reader;
}

std::vector<std::string> ComponentFileReader::ComponentNames() const {
  std::vector<std::string> names;
  names.reserve(directory_.size());
  for (const auto& [name, e] : directory_) names.push_back(name);
  return names;
}

Status ComponentFileReader::ReadComponents(
    const std::vector<std::string>& names, ThreadPool* pool,
    objectstore::IoTrace* trace, std::vector<Slice>* out) {
  // Sort the names not yet decoded into tail-resident and to-fetch.
  std::vector<const Entry*> from_tail;
  std::vector<const Entry*> fetched;
  std::vector<objectstore::RangeRequest> requests;
  for (const std::string& name : names) {
    auto dir_it = directory_.find(name);
    if (dir_it == directory_.end()) {
      return Status::NotFound("no such component: " + name);
    }
    if (decoded_.count(name) != 0) continue;
    const Entry& e = dir_it->second;
    if (InTail(e)) {
      from_tail.push_back(&e);
    } else {
      requests.push_back({key_, e.offset, e.compressed_size});
      fetched.push_back(&e);
    }
  }

  std::vector<Buffer> raw;
  if (!requests.empty()) {
    ROTTNEST_RETURN_NOT_OK(
        objectstore::ReadBatch(store_, requests, pool, trace, &raw));
  }
  auto decode = [&](const Entry& e, Slice payload) -> Status {
    if (decoded_.count(e.name) != 0) return Status::OK();  // Named twice.
    Buffer plain;
    ROTTNEST_RETURN_NOT_OK(compress::Decompress(
        static_cast<compress::Codec>(e.codec), payload, e.uncompressed_size,
        &plain));
    decoded_.emplace(e.name, std::move(plain));
    return Status::OK();
  };
  for (const Entry* e : from_tail) {
    ROTTNEST_RETURN_NOT_OK(decode(
        *e, Slice(tail_.data() + (e->offset - tail_start_),
                  e->compressed_size)));
  }
  for (size_t m = 0; m < fetched.size(); ++m) {
    if (Hash64(Slice(raw[m])) != fetched[m]->checksum) {
      return Status::Corruption("component checksum mismatch: " +
                                fetched[m]->name + " in " + key_);
    }
    ROTTNEST_RETURN_NOT_OK(decode(*fetched[m], Slice(raw[m])));
  }

  out->clear();
  out->reserve(names.size());
  for (const std::string& name : names) {
    out->push_back(Slice(decoded_.find(name)->second));
  }
  return Status::OK();
}

Status ComponentFileReader::ReadComponent(const std::string& name,
                                          ThreadPool* pool,
                                          objectstore::IoTrace* trace,
                                          Slice* out) {
  auto it = decoded_.find(name);  // Hot in FM walks: skip the batch setup.
  if (it != decoded_.end()) {
    *out = Slice(it->second);
    return Status::OK();
  }
  std::vector<Slice> results;
  ROTTNEST_RETURN_NOT_OK(ReadComponents({name}, pool, trace, &results));
  *out = results[0];
  return Status::OK();
}

size_t ComponentFileReader::decoded_bytes() const {
  size_t total = 0;
  for (const auto& [name, plain] : decoded_) total += plain.size();
  return total;
}

std::vector<ComponentInfo> ComponentFileReader::Components() const {
  std::vector<ComponentInfo> infos;
  infos.reserve(directory_.size());
  for (const auto& [name, e] : directory_) {
    ComponentInfo info;
    info.name = name;
    info.compressed_size = e.compressed_size;
    info.verified_at_open = InTail(e);
    infos.push_back(std::move(info));
  }
  return infos;
}

Status ComponentFileReader::VerifyComponents(
    const std::vector<std::string>& names, objectstore::IoTrace* trace,
    std::vector<ComponentDamage>* damage, uint64_t* bytes_fetched) {
  for (const std::string& name : names) {
    if (directory_.count(name) == 0) {
      return Status::InvalidArgument("no such component: " + name);
    }
  }
  if (names.empty()) return Status::OK();
  if (trace != nullptr) trace->BeginRound();
  for (const std::string& name : names) {
    const Entry& e = directory_.at(name);
    Buffer raw;
    Status s = store_->GetRange(key_, e.offset, e.compressed_size, &raw);
    if (s.ok()) {
      if (trace != nullptr) trace->RecordGet(raw.size());
      if (bytes_fetched != nullptr) *bytes_fetched += raw.size();
      if (Hash64(Slice(raw)) != e.checksum) {
        s = Status::Corruption("component checksum mismatch: " + name +
                               " in " + key_);
      }
    }
    if (!s.ok()) damage->push_back({name, std::move(s)});
  }
  return Status::OK();
}

Status LoadPageTable(ComponentFileReader* reader, ThreadPool* pool,
                     objectstore::IoTrace* trace, format::PageTable* out) {
  Slice buf;
  ROTTNEST_RETURN_NOT_OK(
      reader->ReadComponent(kPageTableComponent, pool, trace, &buf));
  Decoder dec{buf};
  return format::PageTable::Deserialize(&dec, out);
}

}  // namespace rottnest::index
