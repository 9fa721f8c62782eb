#include "span_store.h"

#include <utility>

namespace perfbench {

using rottnest::Buffer;
using rottnest::Slice;
using rottnest::Status;
using rottnest::objectstore::ObjectMeta;

const char* KeyClassName(KeyClass c) {
  switch (c) {
    case KeyClass::kLake:
      return "lake";
    case KeyClass::kMetadata:
      return "metadata";
    case KeyClass::kIndex:
      return "index";
    case KeyClass::kFormat:
      return "format";
    case KeyClass::kOther:
      break;
  }
  return "other";
}

const char* StoreOpName(StoreOp op) {
  switch (op) {
    case StoreOp::kGet:
      return "get";
    case StoreOp::kHead:
      return "head";
    case StoreOp::kList:
      return "list";
    case StoreOp::kPut:
      return "put";
    case StoreOp::kDelete:
      break;
  }
  return "delete";
}

SpanStore::SpanStore(rottnest::objectstore::ObjectStore* inner,
                     std::string lake_root, std::string index_dir)
    : inner_(inner),
      lake_root_(std::move(lake_root)),
      index_dir_(std::move(index_dir)),
      base_(std::chrono::steady_clock::now()) {}

namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const std::string suf(suffix);
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

}  // namespace

KeyClass SpanStore::Classify(const std::string& key) const {
  if (StartsWith(key, lake_root_ + "/_log") ||
      StartsWith(key, lake_root_ + "/dv/")) {
    return KeyClass::kLake;
  }
  if (StartsWith(key, index_dir_ + "/_meta")) return KeyClass::kMetadata;
  if (EndsWith(key, ".index")) return KeyClass::kIndex;
  if (StartsWith(key, lake_root_ + "/data/")) return KeyClass::kFormat;
  return KeyClass::kOther;
}

uint64_t SpanStore::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - base_)
          .count());
}

template <typename Fn>
Status SpanStore::Track(StoreOp op, const std::string& key, Fn&& fn) {
  const KeyClass cls = Classify(key);
  const uint16_t tag = tag_.load(std::memory_order_relaxed);
  const uint64_t start = NowNs();
  uint64_t bytes = 0;
  Status s = fn(&bytes);
  const uint64_t end = NowNs();

  Counters& c = counters_[static_cast<size_t>(cls)];
  switch (op) {
    case StoreOp::kGet:
      c.gets.fetch_add(1, std::memory_order_relaxed);
      c.bytes_read.fetch_add(bytes, std::memory_order_relaxed);
      break;
    case StoreOp::kHead:
      c.heads.fetch_add(1, std::memory_order_relaxed);
      break;
    case StoreOp::kList:
      c.lists.fetch_add(1, std::memory_order_relaxed);
      break;
    case StoreOp::kPut:
      c.puts.fetch_add(1, std::memory_order_relaxed);
      c.bytes_written.fetch_add(bytes, std::memory_order_relaxed);
      break;
    case StoreOp::kDelete:
      c.deletes.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  c.busy_ns.fetch_add(end - start, std::memory_order_relaxed);

  if (recording_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(spans_mu_);
    spans_.push_back(Span{start, end, bytes, op, cls, tag});
  }
  return s;
}

Status SpanStore::Put(const std::string& key, Slice data) {
  Status s = Track(StoreOp::kPut, key, [&](uint64_t* bytes) {
    *bytes = data.size();
    return inner_->Put(key, data);
  });
  if (s.ok() && data_put_hook_ && Classify(key) == KeyClass::kFormat) {
    data_put_hook_(key);
  }
  return s;
}

Status SpanStore::PutIfAbsent(const std::string& key, Slice data) {
  return Track(StoreOp::kPut, key, [&](uint64_t* bytes) {
    *bytes = data.size();
    return inner_->PutIfAbsent(key, data);
  });
}

Status SpanStore::Get(const std::string& key, Buffer* out) {
  return Track(StoreOp::kGet, key, [&](uint64_t* bytes) {
    Status s = inner_->Get(key, out);
    if (s.ok()) *bytes = out->size();
    return s;
  });
}

Status SpanStore::GetRange(const std::string& key, uint64_t offset,
                           uint64_t length, Buffer* out) {
  return Track(StoreOp::kGet, key, [&](uint64_t* bytes) {
    Status s = inner_->GetRange(key, offset, length, out);
    if (s.ok()) *bytes = out->size();
    return s;
  });
}

Status SpanStore::Head(const std::string& key, ObjectMeta* out) {
  return Track(StoreOp::kHead, key,
               [&](uint64_t*) { return inner_->Head(key, out); });
}

Status SpanStore::List(const std::string& prefix,
                       std::vector<ObjectMeta>* out) {
  return Track(StoreOp::kList, prefix,
               [&](uint64_t*) { return inner_->List(prefix, out); });
}

Status SpanStore::Delete(const std::string& key) {
  return Track(StoreOp::kDelete, key,
               [&](uint64_t*) { return inner_->Delete(key); });
}

StoreTotals SpanStore::Totals() const {
  StoreTotals t;
  for (size_t i = 0; i < kNumKeyClasses; ++i) {
    const Counters& c = counters_[i];
    t[i].gets = c.gets.load();
    t[i].heads = c.heads.load();
    t[i].lists = c.lists.load();
    t[i].puts = c.puts.load();
    t[i].deletes = c.deletes.load();
    t[i].bytes_read = c.bytes_read.load();
    t[i].bytes_written = c.bytes_written.load();
    t[i].busy_ns = c.busy_ns.load();
  }
  return t;
}

std::vector<Span> SpanStore::TakeSpans() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(spans_mu_);
  out.swap(spans_);
  return out;
}

}  // namespace perfbench
