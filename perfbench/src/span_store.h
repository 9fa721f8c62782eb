// The benchmark's own ObjectStore decorator. It sits under the client (and
// over the latency-injecting store), counts every request by operation and
// by the layer that owns the key, and — when recording is on — keeps one
// span per request in memory: operation, key class, start, end, bytes and
// an attribution tag. Nothing inside the program is changed to measure it.
#ifndef PERFBENCH_SPAN_STORE_H_
#define PERFBENCH_SPAN_STORE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "objectstore/object_store.h"

namespace perfbench {

/// The layer a key belongs to, from its path alone.
enum class KeyClass : uint8_t {
  kLake = 0,      ///< `<root>/_log/` entries/checkpoints and `<root>/dv/`.
  kMetadata = 1,  ///< `<index_dir>/_meta/` (the index registry's log).
  kIndex = 2,     ///< `*.index` objects.
  kFormat = 3,    ///< `<root>/data/` columnar data files.
  kOther = 4,
};
constexpr size_t kNumKeyClasses = 5;
const char* KeyClassName(KeyClass c);

enum class StoreOp : uint8_t { kGet, kHead, kList, kPut, kDelete };
const char* StoreOpName(StoreOp op);

/// One physical request as seen from below the client.
struct Span {
  uint64_t start_ns = 0;  ///< Since the store was created.
  uint64_t end_ns = 0;
  uint64_t bytes = 0;
  StoreOp op = StoreOp::kGet;
  KeyClass cls = KeyClass::kOther;
  uint16_t tag = 0;  ///< Attribution tag current when the request started.
};

/// Plain per-class request totals (a snapshot of the live counters).
struct ClassTotals {
  uint64_t gets = 0, heads = 0, lists = 0, puts = 0, deletes = 0;
  uint64_t bytes_read = 0, bytes_written = 0, busy_ns = 0;

  uint64_t reads() const { return gets + heads + lists; }
  ClassTotals operator-(const ClassTotals& o) const {
    ClassTotals d;
    d.gets = gets - o.gets;
    d.heads = heads - o.heads;
    d.lists = lists - o.lists;
    d.puts = puts - o.puts;
    d.deletes = deletes - o.deletes;
    d.bytes_read = bytes_read - o.bytes_read;
    d.bytes_written = bytes_written - o.bytes_written;
    d.busy_ns = busy_ns - o.busy_ns;
    return d;
  }
  ClassTotals& operator+=(const ClassTotals& o) {
    gets += o.gets;
    heads += o.heads;
    lists += o.lists;
    puts += o.puts;
    deletes += o.deletes;
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    busy_ns += o.busy_ns;
    return *this;
  }
};

using StoreTotals = std::array<ClassTotals, kNumKeyClasses>;

inline ClassTotals Sum(const StoreTotals& t) {
  ClassTotals s;
  for (const ClassTotals& c : t) s += c;
  return s;
}

class SpanStore : public rottnest::objectstore::ObjectStore {
 public:
  /// `inner` must outlive the decorator. `lake_root` and `index_dir` name
  /// the table root and the client's index prefix, for key classification.
  SpanStore(rottnest::objectstore::ObjectStore* inner, std::string lake_root,
            std::string index_dir);

  SpanStore(const SpanStore&) = delete;
  SpanStore& operator=(const SpanStore&) = delete;

  rottnest::Status Put(const std::string& key,
                       rottnest::Slice data) override;
  rottnest::Status PutIfAbsent(const std::string& key,
                               rottnest::Slice data) override;
  rottnest::Status Get(const std::string& key,
                       rottnest::Buffer* out) override;
  rottnest::Status GetRange(const std::string& key, uint64_t offset,
                            uint64_t length, rottnest::Buffer* out) override;
  rottnest::Status Head(const std::string& key,
                        rottnest::objectstore::ObjectMeta* out) override;
  rottnest::Status List(
      const std::string& prefix,
      std::vector<rottnest::objectstore::ObjectMeta>* out) override;
  rottnest::Status Delete(const std::string& key) override;

  const rottnest::Clock& clock() const override { return inner_->clock(); }
  const rottnest::objectstore::IoStats& stats() const override {
    return inner_->stats();
  }

  /// Called with the key of every successful data-file PUT, before the
  /// call returns — so a loader learns which object holds the batch it is
  /// appending before the commit makes it visible. Set before use.
  void SetDataPutHook(std::function<void(const std::string&)> hook) {
    data_put_hook_ = std::move(hook);
  }

  /// Spans are kept only while recording is on; counters always count.
  void SetRecording(bool on) { recording_.store(on); }
  /// Tag stamped on spans from now on (serial attribution passes).
  void SetTag(uint16_t tag) { tag_.store(tag); }

  KeyClass Classify(const std::string& key) const;
  StoreTotals Totals() const;
  std::vector<Span> TakeSpans();

 private:
  struct Counters {
    std::atomic<uint64_t> gets{0}, heads{0}, lists{0}, puts{0}, deletes{0};
    std::atomic<uint64_t> bytes_read{0}, bytes_written{0}, busy_ns{0};
  };

  template <typename Fn>
  rottnest::Status Track(StoreOp op, const std::string& key, Fn&& fn);
  uint64_t NowNs() const;

  rottnest::objectstore::ObjectStore* inner_;
  std::string lake_root_;
  std::string index_dir_;
  std::chrono::steady_clock::time_point base_;
  std::array<Counters, kNumKeyClasses> counters_;
  std::function<void(const std::string&)> data_put_hook_;
  std::atomic<bool> recording_{false};
  std::atomic<uint16_t> tag_{0};
  std::mutex spans_mu_;
  std::vector<Span> spans_;  ///< Guarded by spans_mu_.
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_STORE_H_
