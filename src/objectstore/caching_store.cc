#include "objectstore/caching_store.h"

#include <algorithm>

#include "common/hash.h"
#include "obs/metrics.h"

namespace rottnest::objectstore {

namespace {

/// Fixed bookkeeping overhead charged per entry on top of the payload, so a
/// flood of tiny entries (Head metadata, short ranges) still respects the
/// byte budget.
constexpr uint64_t kEntryOverhead = 64;

}  // namespace

size_t CachingStore::EntryKeyHash::operator()(const EntryKey& k) const {
  uint64_t h = Hash64(Slice(k.key));
  h ^= Mix64(k.offset * 0x9e3779b97f4a7c15ull + k.length);
  return static_cast<size_t>(h);
}

CachingStore::CachingStore(ObjectStore* inner, CacheOptions options)
    : inner_(inner), options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  shard_capacity_ = options_.capacity_bytes / options_.shards;
  shards_.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

CachingStore::Shard& CachingStore::ShardFor(const EntryKey& k) {
  return *shards_[EntryKeyHash{}(k) % shards_.size()];
}

bool CachingStore::Lookup(const EntryKey& k, Buffer* data, ObjectMeta* meta) {
  Shard& shard = ShardFor(k);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(k);
  if (it == shard.index.end()) return false;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // Promote.
  if (data != nullptr) *data = it->second->data;
  if (meta != nullptr) *meta = it->second->meta;
  return true;
}

void CachingStore::Insert(EntryKey k, const Buffer* data,
                          const ObjectMeta* meta) {
  Entry e;
  e.charge = kEntryOverhead + k.key.size() + (data != nullptr ? data->size() : 0);
  if (e.charge > shard_capacity_) return;  // Never cache past the budget.
  e.key = k;
  if (data != nullptr) e.data = *data;
  if (meta != nullptr) e.meta = *meta;

  Shard& shard = ShardFor(k);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(k);
  if (it != shard.index.end()) {
    // A concurrent miss on the same range already populated it (objects are
    // immutable, so the payloads are identical); just promote.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  uint64_t charge = e.charge;
  shard.bytes += charge;
  shard.lru.push_front(std::move(e));
  shard.index.emplace(std::move(k), shard.lru.begin());
  stats_.cache_bytes.fetch_add(charge);
  EvictLocked(shard);
}

void CachingStore::EvictLocked(Shard& shard) {
  while (shard.bytes > shard_capacity_ && !shard.lru.empty()) {
    Entry& victim = shard.lru.back();
    shard.bytes -= victim.charge;
    stats_.cache_bytes.fetch_sub(victim.charge);
    stats_.cache_evictions.fetch_add(1);
    obs::Increment(metrics_.cache_evictions);
    shard.index.erase(victim.key);
    shard.lru.pop_back();
  }
}

std::shared_ptr<CachingStore::InFlight> CachingStore::Claim(
    const EntryKey& k, bool* leader) {
  std::lock_guard<std::mutex> lock(flights_mu_);
  auto it = flights_.find(k);
  if (it != flights_.end()) {
    // Coalesce onto the leader's in-flight fetch: one physical GET serves
    // every concurrent misser of this range.
    *leader = false;
    stats_.cache_coalesced.fetch_add(1);
    obs::Increment(metrics_.cache_coalesced);
    return it->second;
  }
  *leader = true;
  auto flight = std::make_shared<InFlight>();
  flights_.emplace(k, flight);
  return flight;
}

void CachingStore::Complete(const EntryKey& k, InFlight* flight,
                            const Status& s, const Buffer* data,
                            const ObjectMeta* meta) {
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->status = s;
    if (s.ok()) {
      // Copy: followers may still need it after the leader moves its own
      // result out.
      if (data != nullptr) flight->data = *data;
      if (meta != nullptr) flight->meta = *meta;
    }
    flight->done = true;
  }
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    flights_.erase(k);
  }
  flight->cv.notify_all();
}

Status CachingStore::Await(InFlight* flight, Buffer* data, ObjectMeta* meta) {
  std::unique_lock<std::mutex> lock(flight->mu);
  flight->cv.wait(lock, [&] { return flight->done; });
  if (flight->status.ok()) {
    if (data != nullptr) *data = flight->data;
    if (meta != nullptr) *meta = flight->meta;
  }
  return flight->status;
}

void CachingStore::RecordPhysicalGet(uint64_t bytes) {
  stats_.gets.fetch_add(1);
  stats_.bytes_read.fetch_add(bytes);
  obs::Increment(metrics_.gets);
  obs::Add(metrics_.bytes_read, bytes);
  obs::Record(metrics_.get_bytes, bytes);
}

Status CachingStore::MissFetch(
    EntryKey k, Buffer* data_out, ObjectMeta* meta_out,
    const std::function<Status(Buffer*, ObjectMeta*)>& fetch) {
  bool leader = false;
  std::shared_ptr<InFlight> flight = Claim(k, &leader);
  if (!leader) return Await(flight.get(), data_out, meta_out);

  Buffer data;
  ObjectMeta meta;
  Status s;
  if (Lookup(k, &data, &meta)) {
    // Another leader of this key inserted and retired its flight between
    // our miss and our claim: a hit after all, not a second fetch.
    stats_.cache_hits.fetch_add(1);
    obs::Increment(metrics_.cache_hits);
  } else if (WaveLookup(k, &data, &meta)) {
    // An earlier member of the current GET wave already fetched this range
    // (it may have aged out of the LRU since): serve it with no physical
    // request, and re-insert so the LRU observes the touch.
    stats_.cache_wave_hits.fetch_add(1);
    obs::Increment(metrics_.cache_wave_hits);
    s = Status::OK();
    Insert(k, data_out != nullptr ? &data : nullptr,
           meta_out != nullptr ? &meta : nullptr);
  } else {
    stats_.cache_misses.fetch_add(1);
    obs::Increment(metrics_.cache_misses);
    s = fetch(&data, &meta);
    if (s.ok()) {
      Insert(k, data_out != nullptr ? &data : nullptr,
             meta_out != nullptr ? &meta : nullptr);
      WaveRecord(k, data_out != nullptr ? &data : nullptr,
                 meta_out != nullptr ? &meta : nullptr);
    }
  }
  Complete(k, flight.get(), s, &data, &meta);
  if (s.ok()) {
    if (data_out != nullptr) *data_out = std::move(data);
    if (meta_out != nullptr) *meta_out = meta;
  }
  return s;
}

Status CachingStore::Get(const std::string& key, Buffer* out) {
  EntryKey k{key, 0, kWholeObject};
  if (Lookup(k, out, nullptr)) {
    stats_.cache_hits.fetch_add(1);
    obs::Increment(metrics_.cache_hits);
    return Status::OK();
  }
  return MissFetch(std::move(k), out, nullptr,
                   [this, &key](Buffer* data, ObjectMeta*) {
                     ROTTNEST_RETURN_NOT_OK(inner_->Get(key, data));
                     RecordPhysicalGet(data->size());
                     return Status::OK();
                   });
}

Status CachingStore::GetRange(const std::string& key, uint64_t offset,
                              uint64_t length, Buffer* out) {
  if (GetCached(key, offset, length, out)) return Status::OK();
  EntryKey k{key, offset, length};
  return MissFetch(
      std::move(k), out, nullptr,
      [this, &key, offset, length](Buffer* data, ObjectMeta*) {
        ROTTNEST_RETURN_NOT_OK(inner_->GetRange(key, offset, length, data));
        RecordPhysicalGet(data->size());
        return Status::OK();
      });
}

bool CachingStore::GetCached(const std::string& key, uint64_t offset,
                             uint64_t length, Buffer* out) {
  if (!Lookup(EntryKey{key, offset, length}, out, nullptr)) return false;
  stats_.cache_hits.fetch_add(1);
  obs::Increment(metrics_.cache_hits);
  return true;
}

Status CachingStore::GetRun(const std::string& key,
                            const std::vector<ByteRange>& ranges,
                            std::vector<Buffer>* out) {
  const size_t n = ranges.size();
  out->clear();
  out->resize(n);
  if (n == 0) return Status::OK();
  stats_.cache_run_merged.fetch_add(n - 1);
  obs::Add(metrics_.cache_run_merged, n - 1);
  // Every page keeps its own (key, offset, length) entry: resolve each one
  // as a hit, a wave-ledger hit, a follower of another reader's in-flight
  // fetch, or a miss this call leads.
  std::vector<std::shared_ptr<InFlight>> flights(n);
  std::vector<size_t> fetch;   // Led misses, in offset order.
  std::vector<size_t> follow;  // Pages another reader is fetching.
  for (size_t i = 0; i < n; ++i) {
    const ByteRange& r = ranges[i];
    if (GetCached(key, r.offset, r.length, &(*out)[i])) continue;
    EntryKey k{key, r.offset, r.length};
    bool leader = false;
    flights[i] = Claim(k, &leader);
    if (!leader) {
      follow.push_back(i);
    } else if (GetCached(key, r.offset, r.length, &(*out)[i])) {
      // Inserted by a leader that retired between our lookup and claim.
      Complete(k, flights[i].get(), Status::OK(), &(*out)[i], nullptr);
    } else if (WaveLookup(k, &(*out)[i], nullptr)) {
      stats_.cache_wave_hits.fetch_add(1);
      obs::Increment(metrics_.cache_wave_hits);
      Insert(k, &(*out)[i], nullptr);
      Complete(k, flights[i].get(), Status::OK(), &(*out)[i], nullptr);
    } else {
      stats_.cache_misses.fetch_add(1);
      obs::Increment(metrics_.cache_misses);
      fetch.push_back(i);
    }
  }

  // Only runs of adjacent misses coalesce: a resident page between two
  // misses splits them into two GETs, so no byte is fetched twice.
  Status first_error;
  for (size_t b = 0; b < fetch.size();) {
    size_t e = b + 1;
    uint64_t end = ranges[fetch[b]].offset + ranges[fetch[b]].length;
    while (e < fetch.size() && ranges[fetch[e]].offset <= end) {
      end = std::max(end, ranges[fetch[e]].offset + ranges[fetch[e]].length);
      ++e;
    }
    std::vector<ByteRange> sub;
    sub.reserve(e - b);
    for (size_t j = b; j < e; ++j) sub.push_back(ranges[fetch[j]]);
    std::vector<Buffer> bufs(1);
    Status s = sub.size() == 1
                   ? inner_->GetRange(key, sub[0].offset, sub[0].length,
                                      &bufs[0])
                   : inner_->GetRun(key, sub, &bufs);
    if (s.ok()) {
      uint64_t span = 0;
      for (size_t j = 0; j < sub.size(); ++j) {
        span = std::max(span, sub[j].offset - sub[0].offset + bufs[j].size());
      }
      RecordPhysicalGet(span);
    } else if (first_error.ok()) {
      first_error = s;
    }
    for (size_t j = b; j < e; ++j) {
      const size_t i = fetch[j];
      EntryKey k{key, ranges[i].offset, ranges[i].length};
      if (s.ok()) {
        (*out)[i] = std::move(bufs[j - b]);
        Insert(k, &(*out)[i], nullptr);
        WaveRecord(k, &(*out)[i], nullptr);
      }
      Complete(k, flights[i].get(), s, &(*out)[i], nullptr);
    }
    b = e;
  }

  // Followers last: every flight this call leads is complete by now.
  for (size_t i : follow) {
    Status s = Await(flights[i].get(), &(*out)[i], nullptr);
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

Status CachingStore::Head(const std::string& key, ObjectMeta* out) {
  if (!options_.cache_heads) {
    stats_.heads.fetch_add(1);
    obs::Increment(metrics_.heads);
    return inner_->Head(key, out);
  }
  EntryKey k{key, kHeadEntry, 0};
  if (Lookup(k, nullptr, out)) {
    stats_.cache_hits.fetch_add(1);
    obs::Increment(metrics_.cache_hits);
    return Status::OK();
  }
  return MissFetch(std::move(k), nullptr, out,
                   [this, &key](Buffer*, ObjectMeta* meta) {
                     ROTTNEST_RETURN_NOT_OK(inner_->Head(key, meta));
                     stats_.heads.fetch_add(1);
                     obs::Increment(metrics_.heads);
                     return Status::OK();
                   });
}

Status CachingStore::Put(const std::string& key, Slice data) {
  Invalidate(key);  // Overwrites are outside the immutability contract.
  Status s = inner_->Put(key, data);
  if (s.ok()) {
    stats_.puts.fetch_add(1);
    stats_.bytes_written.fetch_add(data.size());
    obs::Increment(metrics_.puts);
    obs::Add(metrics_.bytes_written, data.size());
  }
  return s;
}

Status CachingStore::PutIfAbsent(const std::string& key, Slice data) {
  Status s = inner_->PutIfAbsent(key, data);
  if (s.ok()) {
    stats_.puts.fetch_add(1);
    stats_.bytes_written.fetch_add(data.size());
    obs::Increment(metrics_.puts);
    obs::Add(metrics_.bytes_written, data.size());
  }
  return s;
}

Status CachingStore::List(const std::string& prefix,
                          std::vector<ObjectMeta>* out) {
  stats_.lists.fetch_add(1);
  obs::Increment(metrics_.lists);
  return inner_->List(prefix, out);
}

Status CachingStore::Delete(const std::string& key) {
  Invalidate(key);  // A vacuumed key must not resurrect from cache.
  Status s = inner_->Delete(key);
  if (s.ok()) {
    stats_.deletes.fetch_add(1);
    obs::Increment(metrics_.deletes);
  }
  return s;
}

void CachingStore::BeginWave() {
  std::lock_guard<std::mutex> lock(wave_mu_);
  ++wave_depth_;
}

void CachingStore::EndWave() {
  std::lock_guard<std::mutex> lock(wave_mu_);
  if (wave_depth_ > 0 && --wave_depth_ == 0) {
    wave_ledger_.clear();
    wave_bytes_ = 0;
  }
}

size_t CachingStore::WaveLedgerEntries() const {
  std::lock_guard<std::mutex> lock(wave_mu_);
  return wave_ledger_.size();
}

bool CachingStore::WaveLookup(const EntryKey& k, Buffer* data,
                              ObjectMeta* meta) {
  std::lock_guard<std::mutex> lock(wave_mu_);
  if (wave_depth_ == 0) return false;
  auto it = wave_ledger_.find(k);
  if (it == wave_ledger_.end()) return false;
  if (data != nullptr) *data = it->second.data;
  if (meta != nullptr) *meta = it->second.meta;
  return true;
}

void CachingStore::WaveRecord(const EntryKey& k, const Buffer* data,
                              const ObjectMeta* meta) {
  std::lock_guard<std::mutex> lock(wave_mu_);
  if (wave_depth_ == 0) return;
  uint64_t charge =
      kEntryOverhead + k.key.size() + (data != nullptr ? data->size() : 0);
  if (wave_bytes_ + charge > options_.wave_ledger_bytes) return;
  auto [it, inserted] = wave_ledger_.try_emplace(k);
  if (!inserted) return;  // A racing leader of the same range beat us.
  if (data != nullptr) it->second.data = *data;
  if (meta != nullptr) it->second.meta = *meta;
  wave_bytes_ += charge;
}

void CachingStore::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const Entry& e : shard->lru) stats_.cache_bytes.fetch_sub(e.charge);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
}

void CachingStore::Invalidate(const std::string& key) {
  // Entries of one object may land in any shard (the offset participates in
  // the shard hash), so scan them all. Mutations are rare in this workload;
  // reads never pay this cost.
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->key.key == key) {
        shard->bytes -= it->charge;
        stats_.cache_bytes.fetch_sub(it->charge);
        shard->index.erase(it->key);
        it = shard->lru.erase(it);
      } else {
        ++it;
      }
    }
  }
}

uint64_t CachingStore::ResidentBytes() const {
  return stats_.cache_bytes.load();
}

size_t CachingStore::EntryCount() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->lru.size();
  }
  return n;
}

}  // namespace rottnest::objectstore
