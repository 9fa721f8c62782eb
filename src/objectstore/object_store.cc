#include "objectstore/object_store.h"

#include <algorithm>

#include "obs/metrics.h"

namespace rottnest::objectstore {

SleepFn SimulatedSleeper(SimulatedClock* clock) {
  return [clock](Micros wait) { clock->Advance(wait); };
}

StoreMetrics ResolveStoreMetrics(obs::MetricsRegistry* registry,
                                 const std::string& name) {
  StoreMetrics m;
  if (registry == nullptr) return m;
  const std::string p = "store." + name + ".";
  m.gets = registry->GetCounter(p + "gets");
  m.puts = registry->GetCounter(p + "puts");
  m.lists = registry->GetCounter(p + "lists");
  m.deletes = registry->GetCounter(p + "deletes");
  m.heads = registry->GetCounter(p + "heads");
  m.bytes_read = registry->GetCounter(p + "bytes_read");
  m.bytes_written = registry->GetCounter(p + "bytes_written");
  m.cache_hits = registry->GetCounter(p + "cache_hits");
  m.cache_misses = registry->GetCounter(p + "cache_misses");
  m.cache_evictions = registry->GetCounter(p + "cache_evictions");
  m.cache_coalesced = registry->GetCounter(p + "coalesced");
  m.cache_wave_hits = registry->GetCounter(p + "wave_hits");
  m.cache_run_merged = registry->GetCounter(p + "run_merged");
  m.get_bytes = registry->GetHistogram(p + "get_bytes");
  return m;
}

Status ObjectStore::GetRun(const std::string& key,
                           const std::vector<ByteRange>& ranges,
                           std::vector<Buffer>* out) {
  out->clear();
  out->resize(ranges.size());
  if (ranges.empty()) return Status::OK();
  const uint64_t begin = ranges.front().offset;
  uint64_t prev = begin, end = begin;
  for (const ByteRange& r : ranges) {
    if (r.offset < prev || r.offset > end) {
      return Status::InvalidArgument("GetRun ranges do not form one run");
    }
    prev = r.offset;
    end = std::max(end, r.offset + r.length);
  }
  Buffer span;
  ROTTNEST_RETURN_NOT_OK(GetRange(key, begin, end - begin, &span));
  // Split with GetRange's own truncation semantics: a range running past
  // the end of the object is cut short, one starting past it is an error.
  for (size_t i = 0; i < ranges.size(); ++i) {
    const uint64_t rel = ranges[i].offset - begin;
    if (rel > span.size()) {
      return Status::InvalidArgument("range offset past end of object: " +
                                     key);
    }
    const uint64_t len = std::min<uint64_t>(ranges[i].length,
                                            span.size() - rel);
    (*out)[i].assign(span.begin() + rel, span.begin() + rel + len);
  }
  return Status::OK();
}

Status InMemoryObjectStore::MaybeFail(const char* op, const std::string& key) {
  // Caller holds mu_.
  if (failure_point_) return failure_point_(op, key);
  return Status::OK();
}

Status InMemoryObjectStore::Put(const std::string& key, Slice data) {
  std::lock_guard<std::mutex> lock(mu_);
  ROTTNEST_RETURN_NOT_OK(MaybeFail("put", key));
  stats_.puts.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_written.fetch_add(data.size(), std::memory_order_relaxed);
  obs::Increment(metrics_.puts);
  obs::Add(metrics_.bytes_written, data.size());
  Entry& e = objects_[key];
  e.data = data.ToBuffer();
  e.created_micros = clock_->NowMicros();
  return Status::OK();
}

Status InMemoryObjectStore::PutIfAbsent(const std::string& key, Slice data) {
  std::lock_guard<std::mutex> lock(mu_);
  ROTTNEST_RETURN_NOT_OK(MaybeFail("put_if_absent", key));
  stats_.puts.fetch_add(1, std::memory_order_relaxed);
  obs::Increment(metrics_.puts);
  if (objects_.count(key) != 0) {
    return Status::AlreadyExists("object exists: " + key);
  }
  stats_.bytes_written.fetch_add(data.size(), std::memory_order_relaxed);
  obs::Add(metrics_.bytes_written, data.size());
  Entry& e = objects_[key];
  e.data = data.ToBuffer();
  e.created_micros = clock_->NowMicros();
  return Status::OK();
}

Status InMemoryObjectStore::Get(const std::string& key, Buffer* out) {
  std::lock_guard<std::mutex> lock(mu_);
  ROTTNEST_RETURN_NOT_OK(MaybeFail("get", key));
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
  obs::Increment(metrics_.gets);
  auto it = objects_.find(key);
  if (it == objects_.end()) return Status::NotFound("no such object: " + key);
  *out = it->second.data;
  stats_.bytes_read.fetch_add(out->size(), std::memory_order_relaxed);
  obs::Add(metrics_.bytes_read, out->size());
  obs::Record(metrics_.get_bytes, out->size());
  return Status::OK();
}

Status InMemoryObjectStore::GetRange(const std::string& key, uint64_t offset,
                                     uint64_t length, Buffer* out) {
  std::lock_guard<std::mutex> lock(mu_);
  ROTTNEST_RETURN_NOT_OK(MaybeFail("get", key));
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
  obs::Increment(metrics_.gets);
  auto it = objects_.find(key);
  if (it == objects_.end()) return Status::NotFound("no such object: " + key);
  const Buffer& data = it->second.data;
  if (offset > data.size()) {
    return Status::InvalidArgument("range offset past end of object");
  }
  if (offset == data.size()) {
    // Zero-length read at EOF: valid per HTTP range semantics.
    out->clear();
    return Status::OK();
  }
  uint64_t avail = data.size() - offset;
  uint64_t n = std::min<uint64_t>(length, avail);
  out->assign(data.begin() + offset, data.begin() + offset + n);
  stats_.bytes_read.fetch_add(n, std::memory_order_relaxed);
  obs::Add(metrics_.bytes_read, n);
  obs::Record(metrics_.get_bytes, n);
  return Status::OK();
}

Status InMemoryObjectStore::Head(const std::string& key, ObjectMeta* out) {
  std::lock_guard<std::mutex> lock(mu_);
  ROTTNEST_RETURN_NOT_OK(MaybeFail("head", key));
  stats_.heads.fetch_add(1, std::memory_order_relaxed);
  obs::Increment(metrics_.heads);
  auto it = objects_.find(key);
  if (it == objects_.end()) return Status::NotFound("no such object: " + key);
  out->key = key;
  out->size = it->second.data.size();
  out->created_micros = it->second.created_micros;
  return Status::OK();
}

Status InMemoryObjectStore::List(const std::string& prefix,
                                 std::vector<ObjectMeta>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  ROTTNEST_RETURN_NOT_OK(MaybeFail("list", prefix));
  stats_.lists.fetch_add(1, std::memory_order_relaxed);
  obs::Increment(metrics_.lists);
  out->clear();
  for (auto it = objects_.lower_bound(prefix); it != objects_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    ObjectMeta m;
    m.key = it->first;
    m.size = it->second.data.size();
    m.created_micros = it->second.created_micros;
    out->push_back(std::move(m));
  }
  return Status::OK();
}

Status InMemoryObjectStore::Delete(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  ROTTNEST_RETURN_NOT_OK(MaybeFail("delete", key));
  stats_.deletes.fetch_add(1, std::memory_order_relaxed);
  obs::Increment(metrics_.deletes);
  objects_.erase(key);
  return Status::OK();
}

uint64_t InMemoryObjectStore::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [k, e] : objects_) total += e.data.size();
  return total;
}

size_t InMemoryObjectStore::ObjectCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return objects_.size();
}

}  // namespace rottnest::objectstore
