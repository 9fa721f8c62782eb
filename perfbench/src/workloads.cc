#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/clock.h"
#include "core/rottnest.h"
#include "dataset.h"
#include "lake/metadata_table.h"
#include "lake/table.h"
#include "objectstore/fault_injection.h"
#include "probes.h"
#include "serve/query_engine.h"
#include "span_store.h"

namespace perfbench {
namespace {

using rottnest::Micros;
using rottnest::Result;
using rottnest::Status;
using rottnest::core::Query;
using rottnest::core::QueryResponse;
using rottnest::core::Rottnest;
using rottnest::core::RottnestOptions;
using rottnest::core::SearchOptions;
using rottnest::core::SearchResult;
using rottnest::index::IndexType;
using rottnest::lake::Table;
using rottnest::objectstore::FaultInjectingStore;
using rottnest::objectstore::FaultOptions;
using rottnest::objectstore::InMemoryObjectStore;
using rottnest::objectstore::IoTrace;
using rottnest::objectstore::ObjectMeta;
using rottnest::objectstore::ObjectStore;
using rottnest::serve::QueryEngine;
using rottnest::serve::ServeOptions;
using SteadyClock = std::chrono::steady_clock;

constexpr char kRoot[] = "lake/bench";
constexpr char kIndexDir[] = "idx/bench";
/// Every store request: S3's ~30 ms time-to-first-byte scaled down.
constexpr Micros kRequestLatencyMicros = 1000;
constexpr size_t kClientThreads = 4;  ///< RottnestOptions::num_threads.
constexpr size_t kWriterThreads = 2;  ///< The ingest writer's own client.
constexpr int kSetups = 3;            ///< Setups per run; setup_s = median.
constexpr size_t kAttributionQueries = 16;  ///< Per kind, traced runs.
/// Ingest: batches between Compact/Vacuum/checkpoint rounds. One batch is
/// five commits (an append and four index builds), so this is every ~10.
constexpr size_t kMaintenanceEvery = 2;

/// The (column, index type) pairs every workload builds.
const std::pair<const char*, IndexType> kIndexes[] = {
    {"uuid", IndexType::kTrie},
    {"body", IndexType::kFm},
    {"body", IndexType::kKeyword},
    {"vec", IndexType::kIvfPq},
};

enum class Shape { kHotServe, kColdSearch, kIngestMixed };

struct WorkloadSpec {
  Shape shape = Shape::kHotServe;
  DataSpec data;
  size_t files = 8;
  /// Build all four indexes after appending this many files (cumulative);
  /// files past the last entry stay unindexed.
  std::vector<size_t> index_after;
  bool compact = false;  ///< Compact + Vacuum after the last Index.
  int clients = 4;
  bool via_engine = true;  ///< serve::QueryEngine, else Rottnest::Execute.
  uint64_t cache_bytes = 64ull << 20;
  size_t warmup_queries = 0;  ///< 0 = every distinct pool query once.
};

/// The serving mix shared by hot_serve and ingest_mixed readers: ~50%
/// UUID, ~25% two-term keyword, ~25% vector over Zipfian hot needles.
DataSpec HotData() {
  DataSpec d;
  d.base_rows = 8000;
  d.pool[KindIndex(QueryKind::kUuid)] = 128;
  d.pool[KindIndex(QueryKind::kKeyword)] = 64;
  d.pool[KindIndex(QueryKind::kVector)] = 64;
  // Rarer terms: a two-term AND hits a few pages, so every hot keyword
  // query costs about the same whichever pairs the seed makes hot.
  d.term_rank_min = 300;
  d.term_rank_max = 3000;
  d.mix[KindIndex(QueryKind::kUuid)] = 0.50;
  d.mix[KindIndex(QueryKind::kKeyword)] = 0.25;
  d.mix[KindIndex(QueryKind::kVector)] = 0.25;
  d.needle_zipf_s = 1.0;
  d.tenants = 4;
  return d;
}

bool SpecFor(const std::string& name, WorkloadSpec* s) {
  if (name == "hot_serve") {
    s->shape = Shape::kHotServe;
    s->data = HotData();
    s->files = 8;
    s->index_after = {4, 8};
    s->compact = true;
    s->clients = 4;
    return true;
  }
  if (name == "ingest_mixed") {
    s->shape = Shape::kIngestMixed;
    s->data = HotData();
    s->data.ingest_batches = 200;
    s->data.ingest_batch_rows = 200;
    s->files = 8;
    s->index_after = {4, 8};
    s->compact = true;
    s->clients = 3;
    return true;
  }
  if (name == "cold_search") {
    s->shape = Shape::kColdSearch;
    DataSpec& d = s->data;
    d.base_rows = 8000;
    d.needles = 200;
    d.common_regexes = 32;
    d.term_rank_max = 300;
    d.random_delete_frac = 0.05;
    d.clustered_delete_frac = 0.05;
    d.pool[KindIndex(QueryKind::kSubstring)] = 200;
    d.pool[KindIndex(QueryKind::kRegex)] = 96;
    d.pool[KindIndex(QueryKind::kKeyword)] = 200;
    d.pool[KindIndex(QueryKind::kCount)] = 200;
    d.pool[KindIndex(QueryKind::kVector)] = 100;
    d.mix[KindIndex(QueryKind::kSubstring)] = 0.25;
    d.mix[KindIndex(QueryKind::kRegex)] = 0.20;
    d.mix[KindIndex(QueryKind::kKeyword)] = 0.25;
    d.mix[KindIndex(QueryKind::kCount)] = 0.20;
    d.mix[KindIndex(QueryKind::kVector)] = 0.10;
    s->files = 8;
    s->index_after = {3, 5, 7};
    s->compact = false;
    s->clients = 2;
    s->via_engine = false;
    s->cache_bytes = 256ull << 10;
    s->warmup_queries = 16;
    return true;
  }
  return false;
}

RottnestOptions ClientOptions(uint64_t cache_bytes, size_t threads) {
  RottnestOptions o;
  o.index_dir = kIndexDir;
  o.num_threads = threads;
  o.cache_bytes = cache_bytes;
  o.fm.block_size = 16 << 10;
  o.ivfpq.nlist = 32;
  o.ivfpq.num_subquantizers = 4;
  o.ivfpq.default_nprobe = 8;
  o.ivfpq.default_refine = 64;
  return o;
}

rottnest::format::WriterOptions FileOptions() {
  rottnest::format::WriterOptions o;
  o.target_page_bytes = 8 << 10;
  o.target_row_group_bytes = 256 << 10;
  return o;
}

FaultOptions LatencyOnly() {
  FaultOptions o;
  o.base_latency_micros = kRequestLatencyMicros;
  return o;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

const SteadyClock::time_point kProcessStart = SteadyClock::now();

double Now() {
  return std::chrono::duration<double>(SteadyClock::now() - kProcessStart)
      .count();
}

// ---------------------------------------------------------------------------
// Bookkeeping: which data file holds which generated rows, and a span per
// top-level call the benchmark makes.

class FileMap {
 public:
  void Add(const std::string& path, uint64_t first, uint64_t count) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    files_[path] = {first, count};
  }
  /// Global id of row `row` of data file `path`.
  bool Resolve(const std::string& path, uint64_t row, uint64_t* id) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = files_.find(path);
    if (it == files_.end() || row >= it->second.second) return false;
    *id = it->second.first + row;
    return true;
  }

 private:
  mutable std::shared_mutex mu_;
  std::map<std::string, std::pair<uint64_t, uint64_t>> files_;
};

struct CallSpan {
  std::string name;
  double start_s = 0;
  double end_s = 0;
};

class CallLog {
 public:
  template <typename Fn>
  auto Time(const std::string& name, Fn&& fn) {
    const double start = Now();
    auto result = fn();
    Add(name, start, Now());
    return result;
  }
  void Add(const std::string& name, double start, double end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, end});
  }
  /// Mean duration of the calls named `name` (0 when none ran).
  double MeanSeconds(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    double total = 0;
    size_t n = 0;
    for (const CallSpan& s : spans_) {
      if (s.name != name) continue;
      total += s.end_s - s.start_s;
      ++n;
    }
    return n == 0 ? 0 : total / static_cast<double>(n);
  }
  std::vector<CallSpan> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<CallSpan> spans_;
};

// ---------------------------------------------------------------------------
// Store stacks.

/// One benchmark dataset behind its own store stack:
///   table, client -> [SpanStore, traced runs] -> FaultInjectingStore(1 ms)
///   -> InMemoryObjectStore.
struct World {
  explicit World(bool traced) : mem(&clock), slow(&mem, LatencyOnly()) {
    if (traced) {
      spans = std::make_unique<SpanStore>(&slow, kRoot, kIndexDir);
      top = spans.get();
    } else {
      top = &slow;
    }
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  rottnest::SystemClock clock;
  InMemoryObjectStore mem;
  FaultInjectingStore slow;
  std::unique_ptr<SpanStore> spans;
  ObjectStore* top = nullptr;
  FileMap files;
  CallLog calls;
  std::unique_ptr<Table> table;
  std::unique_ptr<Rottnest> client;
  std::unique_ptr<QueryEngine> engine;
};

/// The writer side: its own table and client over a counting SpanStore
/// whose data-file PUT hook records which file holds the batch being
/// appended, before the commit makes it visible to readers.
class Loader {
 public:
  Loader(ObjectStore* under, FileMap* files)
      : span_(under, kRoot, kIndexDir), files_(files) {
    span_.SetDataPutHook([this](const std::string& key) {
      files_->Add(key, pending_first_, pending_count_);
    });
  }
  Loader(const Loader&) = delete;
  Loader& operator=(const Loader&) = delete;

  Status Create() {
    ROTTNEST_ASSIGN_OR_RETURN(
        table_, Table::Create(&span_, kRoot, BenchSchema(), FileOptions()));
    StartClient(kClientThreads);
    return Status::OK();
  }
  Status Open() {
    ROTTNEST_ASSIGN_OR_RETURN(table_, Table::Open(&span_, kRoot));
    StartClient(kWriterThreads);
    return Status::OK();
  }

  Result<rottnest::lake::Version> Append(const Inputs& in, uint64_t first,
                                         uint64_t n, CallLog* calls) {
    pending_first_ = first;
    pending_count_ = n;
    return calls->Time("append", [&] { return table_->Append(in.Batch(first, n)); });
  }

  Status IndexAll(CallLog* calls) {
    for (const auto& [column, type] : kIndexes) {
      ROTTNEST_RETURN_NOT_OK(
          calls->Time("index", [&] { return client_->Index(column, type); })
              .status());
    }
    return Status::OK();
  }

  /// Compact every index type, Vacuum down to `min_snapshot`, and
  /// checkpoint both logs.
  Status Maintain(rottnest::lake::Version min_snapshot, CallLog* calls) {
    for (const auto& [column, type] : kIndexes) {
      ROTTNEST_RETURN_NOT_OK(
          calls->Time("compact", [&] { return client_->Compact(column, type); })
              .status());
    }
    ROTTNEST_RETURN_NOT_OK(
        calls->Time("vacuum", [&] { return client_->Vacuum(min_snapshot); })
            .status());
    return Checkpoint(calls);
  }

  Status Checkpoint(CallLog* calls) {
    ROTTNEST_RETURN_NOT_OK(
        calls->Time("checkpoint", [&] { return table_->Checkpoint(); })
            .status());
    return calls
        ->Time("checkpoint",
               [&] { return client_->metadata().Checkpoint(); })
        .status();
  }

  Table* table() { return table_.get(); }
  SpanStore* span() { return &span_; }

 private:
  void StartClient(size_t threads) {
    client_ = std::make_unique<Rottnest>(&span_, table_.get(),
                                         ClientOptions(0, threads));
  }

  SpanStore span_;
  FileMap* files_;
  uint64_t pending_first_ = 0;  ///< Batch being appended (writer thread).
  uint64_t pending_count_ = 0;
  std::unique_ptr<Table> table_;
  std::unique_ptr<Rottnest> client_;
};

/// The ingest writer's stack: its own latency store over the shared bucket.
struct WriterStack {
  WriterStack(ObjectStore* bucket, FileMap* files)
      : slow(bucket, LatencyOnly()), loader(&slow, files) {}
  FaultInjectingStore slow;
  Loader loader;
};

Result<QueryResponse> Execute(World* w, Query q) {
  if (w->engine != nullptr) return w->engine->Execute(std::move(q));
  return w->client->Execute(q);
}

// ---------------------------------------------------------------------------
// Answer checking.

/// Per-query outcomes, summed per client thread and merged.
struct Tally {
  uint64_t attempted = 0, ok = 0, failed = 0, wrong = 0;
  uint64_t search = 0, shortfall = 0;
  std::array<uint64_t, kNumKinds> kind_search{}, kind_shortfall{};
  double recall_sum = 0;
  uint64_t recall_n = 0;
  uint64_t pages_probed = 0, files_scanned = 0, indexes_queried = 0;
  uint64_t matches = 0;
  uint64_t rounds = 0, traced = 0;
  std::vector<double> latency_ms;
  std::string first_wrong, first_error;

  void Merge(const Tally& o) {
    attempted += o.attempted;
    ok += o.ok;
    failed += o.failed;
    wrong += o.wrong;
    search += o.search;
    shortfall += o.shortfall;
    for (size_t i = 0; i < kNumKinds; ++i) {
      kind_search[i] += o.kind_search[i];
      kind_shortfall[i] += o.kind_shortfall[i];
    }
    recall_sum += o.recall_sum;
    recall_n += o.recall_n;
    pages_probed += o.pages_probed;
    files_scanned += o.files_scanned;
    indexes_queried += o.indexes_queried;
    matches += o.matches;
    rounds += o.rounds;
    traced += o.traced;
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    if (first_wrong.empty()) first_wrong = o.first_wrong;
    if (first_error.empty()) first_error = o.first_error;
  }
};

/// Why match `m` is not a correct answer to `q`, or "" when it is.
std::string CheckMatch(const Inputs& in, const FileMap& files,
                       const PoolQuery& q,
                       const rottnest::core::RowMatch& m,
                       std::unordered_set<uint64_t>* seen) {
  uint64_t id = 0;
  if (!files.Resolve(m.file, m.row, &id)) return "row of an unknown file";
  if (in.deleted(id)) return "deleted row";
  if (!seen->insert(id).second) return "duplicate row";
  const Row& row = in.rows()[id];
  std::string expected;
  switch (q.kind) {
    case QueryKind::kUuid:
      expected = row.uuid;
      break;
    case QueryKind::kVector:
      expected.assign(reinterpret_cast<const char*>(row.vec.data()),
                      row.vec.size() * sizeof(float));
      break;
    default:
      expected = row.body;
  }
  if (m.value != expected) return "value differs from the generated row";
  if (!q.Matches(row)) return "row does not satisfy the query";
  return "";
}

void Evaluate(const Inputs& in, const FileMap& files, const PoolQuery& q,
              const Result<QueryResponse>& r, const IoTrace* trace,
              Tally* t) {
  ++t->attempted;
  const char* kind = rottnest::core::QueryKindName(q.kind);
  if (!r.ok()) {
    ++t->failed;
    if (t->first_error.empty()) {
      t->first_error = std::string(kind) + ": " + r.status().ToString();
    }
    return;
  }
  if (trace != nullptr) {
    t->rounds += trace->depth();
    ++t->traced;
  }
  const QueryResponse& resp = r.value();
  if (q.kind == QueryKind::kCount) {
    if (resp.count == q.live_matches) {
      ++t->ok;
      return;
    }
    ++t->wrong;
    ++t->failed;
    if (t->first_wrong.empty()) {
      t->first_wrong = "count '" + q.needle + "' returned " +
                       std::to_string(resp.count) + ", expected " +
                       std::to_string(q.live_matches);
    }
    return;
  }
  const SearchResult& res = resp.result;
  std::unordered_set<uint64_t> seen;
  bool wrong = false;
  for (const auto& m : res.matches) {
    std::string why = CheckMatch(in, files, q, m, &seen);
    if (why.empty()) continue;
    wrong = true;
    if (t->first_wrong.empty()) {
      t->first_wrong = std::string(kind) + " query: " + why + " (" + m.file +
                       " row " + std::to_string(m.row) + ")";
    }
  }
  const size_t ki = KindIndex(q.kind);
  const uint64_t expected =
      std::min<uint64_t>(in.spec().k, q.live_matches);
  ++t->search;
  ++t->kind_search[ki];
  if (res.matches.size() < expected) {
    ++t->shortfall;
    ++t->kind_shortfall[ki];
  }
  if (q.kind == QueryKind::kVector && !q.truth.empty()) {
    size_t hits = 0;
    for (const auto& m : res.matches) {
      uint64_t id = 0;
      if (!files.Resolve(m.file, m.row, &id)) continue;
      if (std::find(q.truth.begin(), q.truth.end(), id) != q.truth.end()) {
        ++hits;
      }
    }
    t->recall_sum +=
        static_cast<double>(hits) / static_cast<double>(q.truth.size());
    ++t->recall_n;
  }
  t->pages_probed += res.pages_probed;
  t->files_scanned += res.files_scanned;
  t->indexes_queried += res.indexes_queried;
  t->matches += res.matches.size();
  if (wrong) ++t->wrong;
  if (wrong || res.partial) {
    ++t->failed;
  } else {
    ++t->ok;
  }
}

// ---------------------------------------------------------------------------
// Setup: dataset build, Index, Compact and cache warm-up.

struct SetupResult {
  double seconds = 0;
  double ingest_seconds = 0;  ///< Append + Index of the base rows.
  uint64_t rows = 0;
  uint64_t user_bytes = 0;
  uint64_t bytes_written = 0;  ///< Every PUT of the setup.
};

Status WarmUp(const WorkloadSpec& spec, const Inputs& in, World* w) {
  std::vector<const PoolQuery*> queries;
  if (spec.warmup_queries == 0) {
    for (size_t ki = 0; ki < kNumKinds; ++ki) {
      for (const PoolQuery& q : in.pool(KindAt(ki))) queries.push_back(&q);
    }
  } else {
    // A slot space the timed clients never use.
    for (uint64_t r = 0; r < spec.warmup_queries; ++r) {
      queries.push_back(&in.QueryFor(1000, r, nullptr));
    }
  }
  std::atomic<size_t> next{0};
  std::mutex mu;
  Status first = Status::OK();
  auto worker = [&] {
    for (size_t i = next++; i < queries.size(); i = next++) {
      auto r = Execute(w, in.MakeQuery(*queries[i], SearchOptions{}));
      if (!r.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        if (first.ok()) first = r.status();
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < spec.clients; ++c) threads.emplace_back(worker);
  for (auto& th : threads) th.join();
  return first;
}

Status Setup(const WorkloadSpec& spec, const Inputs& in, World* w,
             SetupResult* out) {
  const auto start = SteadyClock::now();
  {
    Loader loader(&w->slow, &w->files);
    ROTTNEST_RETURN_NOT_OK(loader.Create());
    const uint64_t base = in.base_rows();
    size_t round = 0;
    rottnest::lake::Version version = 0;
    for (size_t f = 0; f < spec.files; ++f) {
      const uint64_t first = base * f / spec.files;
      const uint64_t last = base * (f + 1) / spec.files;
      ROTTNEST_ASSIGN_OR_RETURN(
          version, loader.Append(in, first, last - first, &w->calls));
      if (round < spec.index_after.size() && f + 1 == spec.index_after[round]) {
        ROTTNEST_RETURN_NOT_OK(loader.IndexAll(&w->calls));
        ++round;
      }
    }
    out->ingest_seconds = SecondsSince(start);
    out->rows = base;
    out->user_bytes = in.UserBytes(0, base);
    if (in.deleted_rows() > 0) {
      ROTTNEST_ASSIGN_OR_RETURN(
          version,
          w->calls.Time("delete", [&] {
            return loader.table()->DeleteWhere(
                "ts", [&](const rottnest::format::ColumnVector& col,
                          size_t i) {
                  return in.deleted(static_cast<uint64_t>(col.ints()[i]));
                });
          }));
    }
    if (spec.compact) {
      ROTTNEST_RETURN_NOT_OK(loader.Maintain(version, &w->calls));
    } else {
      ROTTNEST_RETURN_NOT_OK(loader.Checkpoint(&w->calls));
    }
    out->bytes_written = Sum(loader.span()->Totals()).bytes_written;
  }

  ROTTNEST_ASSIGN_OR_RETURN(w->table, Table::Open(w->top, kRoot));
  w->client = std::make_unique<Rottnest>(
      w->top, w->table.get(), ClientOptions(spec.cache_bytes, kClientThreads));
  if (spec.via_engine) {
    w->engine = std::make_unique<QueryEngine>(w->client.get(), ServeOptions{});
  }
  ROTTNEST_RETURN_NOT_OK(WarmUp(spec, in, w));
  out->seconds = SecondsSince(start);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Timed phase.

struct PhaseResult {
  Tally tally;
  double seconds = 0;
  double cpu_s = 0;
  uint64_t reads = 0;       ///< Bucket GET+HEAD+LIST (readers only).
  uint64_t bytes_read = 0;  ///< Bucket bytes read (readers only).
  uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  uint64_t cache_coalesced = 0, cache_wave_hits = 0, cache_resident = 0;
  uint64_t waves = 0, wave_queries = 0, shed = 0, pin_conflicts = 0;
  StoreTotals reader{};  ///< The client's SpanStore delta (traced worlds).
  // Ingest writer.
  uint64_t writer_rows = 0, writer_user_bytes = 0, writer_batches = 0;
  double writer_seconds = 0;
  ClassTotals writer;
  std::string writer_error;
};

void WriterLoop(const Inputs& in, World* w, Loader* loader,
                SteadyClock::time_point deadline, PhaseResult* out) {
  const auto start = SteadyClock::now();
  Status s = Status::OK();
  for (size_t b = 0; SteadyClock::now() < deadline &&
                     b < in.spec().ingest_batches;
       ++b) {
    const uint64_t first = in.IngestFirst(b);
    const uint64_t n = in.spec().ingest_batch_rows;
    auto version = loader->Append(in, first, n, &w->calls);
    s = version.status();
    if (s.ok()) s = loader->IndexAll(&w->calls);
    if (!s.ok()) break;
    out->writer_rows += n;
    out->writer_user_bytes += in.UserBytes(first, n);
    ++out->writer_batches;
    if ((b + 1) % kMaintenanceEvery == 0) {
      s = loader->Maintain(version.value(), &w->calls);
      if (!s.ok()) break;
    }
  }
  if (!s.ok()) out->writer_error = s.ToString();
  out->writer_seconds = SecondsSince(start);
}

Status RunPhase(const WorkloadSpec& spec, const Inputs& in, World* w,
                int seconds, bool traced, PhaseResult* out) {
  std::unique_ptr<WriterStack> writer;
  if (spec.shape == Shape::kIngestMixed) {
    writer = std::make_unique<WriterStack>(&w->mem, &w->files);
    ROTTNEST_RETURN_NOT_OK(writer->loader.Open());
  }
  const auto& mem_stats = w->mem.stats();
  const auto& cache_stats = w->client->cache()->stats();
  const uint64_t reads0 =
      mem_stats.gets.load() + mem_stats.heads.load() + mem_stats.lists.load();
  const uint64_t bytes0 = mem_stats.bytes_read.load();
  const uint64_t hits0 = cache_stats.cache_hits.load();
  const uint64_t misses0 = cache_stats.cache_misses.load();
  const uint64_t evict0 = cache_stats.cache_evictions.load();
  const uint64_t coal0 = cache_stats.cache_coalesced.load();
  const uint64_t wave0 = cache_stats.cache_wave_hits.load();
  rottnest::serve::EngineStats none;
  const auto& es = w->engine != nullptr ? w->engine->stats() : none;
  const uint64_t waves0 = es.waves.load(), wq0 = es.wave_queries.load();
  const uint64_t shed0 = es.shed.load(), pin0 = es.pin_conflicts.load();
  const StoreTotals spans0 =
      w->spans != nullptr ? w->spans->Totals() : StoreTotals{};
  const ClassTotals writer0 =
      writer != nullptr ? Sum(writer->loader.span()->Totals()) : ClassTotals{};
  if (traced) w->spans->SetRecording(true);

  const double cpu0 = CpuSeconds();
  const auto start = SteadyClock::now();
  const auto deadline = start + std::chrono::seconds(seconds);
  std::vector<Tally> tallies(static_cast<size_t>(spec.clients));
  std::vector<double> client_seconds(tallies.size());
  std::vector<std::thread> threads;
  for (int c = 0; c < spec.clients; ++c) {
    threads.emplace_back([&, c] {
      Tally& t = tallies[static_cast<size_t>(c)];
      for (uint64_t r = 0; SteadyClock::now() < deadline; ++r) {
        std::string tenant;
        const PoolQuery& q = in.QueryFor(c, r, &tenant);
        IoTrace trace;
        SearchOptions opts;
        if (traced) opts.trace = &trace;
        Query query = in.MakeQuery(q, opts);
        query.tenant = tenant;
        const double t0 = Now();
        auto res = Execute(w, std::move(query));
        const double t1 = Now();
        t.latency_ms.push_back((t1 - t0) * 1000.0);
        if (traced) {
          w->calls.Add(std::string("query.") +
                           rottnest::core::QueryKindName(q.kind),
                       t0, t1);
        }
        Evaluate(in, w->files, q, res, traced ? &trace : nullptr, &t);
      }
      client_seconds[static_cast<size_t>(c)] = SecondsSince(start);
    });
  }
  if (writer != nullptr) {
    threads.emplace_back([&] {
      WriterLoop(in, w, &writer->loader, deadline, out);
    });
  }
  for (auto& th : threads) th.join();
  out->cpu_s = CpuSeconds() - cpu0;
  // The query phase ends with its last client; an ingest writer may
  // overrun the deadline finishing its batch and is timed on its own.
  out->seconds =
      *std::max_element(client_seconds.begin(), client_seconds.end());
  for (const Tally& t : tallies) out->tally.Merge(t);

  out->reads = mem_stats.gets.load() + mem_stats.heads.load() +
               mem_stats.lists.load() - reads0;
  out->bytes_read = mem_stats.bytes_read.load() - bytes0;
  if (writer != nullptr) {
    out->writer = Sum(writer->loader.span()->Totals()) - writer0;
    out->reads -= out->writer.reads();
    out->bytes_read -= out->writer.bytes_read;
  }
  out->cache_hits = cache_stats.cache_hits.load() - hits0;
  out->cache_misses = cache_stats.cache_misses.load() - misses0;
  out->cache_evictions = cache_stats.cache_evictions.load() - evict0;
  out->cache_coalesced = cache_stats.cache_coalesced.load() - coal0;
  out->cache_wave_hits = cache_stats.cache_wave_hits.load() - wave0;
  out->cache_resident = w->client->cache()->ResidentBytes();
  out->waves = es.waves.load() - waves0;
  out->wave_queries = es.wave_queries.load() - wq0;
  out->shed = es.shed.load() - shed0;
  out->pin_conflicts = es.pin_conflicts.load() - pin0;
  if (w->spans != nullptr) {
    const StoreTotals spans1 = w->spans->Totals();
    for (size_t i = 0; i < kNumKeyClasses; ++i) {
      out->reader[i] = spans1[i] - spans0[i];
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Inspection of a built world (bare store: no latency, not in any phase).

struct WorldShape {
  uint64_t data_bytes = 0;   ///< Live data files.
  uint64_t index_bytes = 0;  ///< Committed index objects.
  uint64_t log_entries = 0, meta_entries = 0;
  std::map<std::string, size_t> unindexed;  ///< Per index type.
};

uint64_t CountLogEntries(ObjectStore* store, const std::string& prefix) {
  std::vector<ObjectMeta> objs;
  if (!store->List(prefix, &objs).ok()) return 0;
  uint64_t n = 0;
  for (const ObjectMeta& o : objs) {
    const std::string base = o.key.substr(o.key.rfind('/') + 1);
    if (base.size() == 25 && base.compare(20, 5, ".json") == 0) ++n;
  }
  return n;
}

Status Inspect(World* w, WorldShape* out) {
  ROTTNEST_ASSIGN_OR_RETURN(std::unique_ptr<Table> table,
                            Table::Open(&w->mem, kRoot));
  ROTTNEST_ASSIGN_OR_RETURN(rottnest::lake::Snapshot snap,
                            table->GetSnapshot());
  out->data_bytes = snap.TotalBytes();
  rottnest::lake::MetadataTable meta(&w->mem, kIndexDir);
  ROTTNEST_ASSIGN_OR_RETURN(std::vector<rottnest::lake::IndexEntry> entries,
                            meta.ReadAll());
  std::map<std::string, std::unordered_set<std::string>> covered;
  for (const auto& e : entries) {
    ObjectMeta m;
    ROTTNEST_RETURN_NOT_OK(w->mem.Head(e.index_path, &m));
    out->index_bytes += m.size;
    covered[e.index_type].insert(e.covered_files.begin(),
                                 e.covered_files.end());
  }
  for (const auto& [column, type] : kIndexes) {
    const std::string name = rottnest::index::IndexTypeName(type);
    size_t n = 0;
    for (const auto& f : snap.files) n += covered[name].count(f.path) == 0;
    out->unindexed[name] = n;
  }
  out->log_entries = CountLogEntries(&w->mem, std::string(kRoot) + "/_log/");
  out->meta_entries =
      CountLogEntries(&w->mem, std::string(kIndexDir) + "/_meta/");
  return Status::OK();
}

void PrintProperties(const WorkloadSpec& spec, const Inputs& in, World* w,
                     const WorldShape& shape) {
  const uint64_t resident = w->client->cache()->ResidentBytes();
  std::fprintf(stderr, "measured properties (after setup):\n");
  std::fprintf(stderr,
               "  cache budget %.3f MB; resident after warm-up %.3f MB; "
               "index+data footprint %.3f MB (budget/footprint %.3f)\n",
               static_cast<double>(spec.cache_bytes) / 1e6,
               static_cast<double>(resident) / 1e6,
               static_cast<double>(shape.index_bytes + shape.data_bytes) / 1e6,
               Ratio(static_cast<double>(spec.cache_bytes),
                     static_cast<double>(shape.index_bytes + shape.data_bytes)));
  std::fprintf(stderr,
               "  queries repeating an earlier needle: %.3f of the first "
               "%d\n",
               in.RepeatShare(spec.clients, 2000), 2000);
  std::fprintf(stderr, "  rows deleted: %llu of %llu (%.3f)\n",
               static_cast<unsigned long long>(in.deleted_rows()),
               static_cast<unsigned long long>(in.base_rows()),
               Ratio(static_cast<double>(in.deleted_rows()),
                     static_cast<double>(in.base_rows())));
  std::fprintf(stderr, "  unindexed data files:");
  for (const auto& [type, n] : shape.unindexed) {
    std::fprintf(stderr, " %s=%zu", type.c_str(), n);
  }
  std::fprintf(stderr,
               "\n  log length: %llu table log entries, %llu index-registry "
               "entries (both checkpointed)\n",
               static_cast<unsigned long long>(shape.log_entries),
               static_cast<unsigned long long>(shape.meta_entries));
}

// ---------------------------------------------------------------------------
// Traced runs: serial per-kind attribution and the span dump.

struct KindAttribution {
  std::array<StoreTotals, kNumKinds> per_kind{};
  std::array<uint64_t, kNumKinds> queries{};
};

void AttributeKinds(const Inputs& in, World* w, Tally* tally,
                    KindAttribution* out) {
  for (size_t ki = 0; ki < kNumKinds; ++ki) {
    const auto& pool = in.pool(KindAt(ki));
    for (size_t j = 0; j < pool.size() && j < kAttributionQueries; ++j) {
      w->spans->SetTag(static_cast<uint16_t>(ki + 1));
      auto res = Execute(w, in.MakeQuery(pool[j], SearchOptions{}));
      Evaluate(in, w->files, pool[j], res, nullptr, tally);
      ++out->queries[ki];
    }
  }
  w->spans->SetTag(0);
}

void FoldSpans(const std::vector<Span>& spans, KindAttribution* out) {
  for (const Span& s : spans) {
    if (s.tag == 0 || s.tag > kNumKinds) continue;
    ClassTotals& c = out->per_kind[s.tag - 1][static_cast<size_t>(s.cls)];
    switch (s.op) {
      case StoreOp::kGet:
        ++c.gets;
        c.bytes_read += s.bytes;
        break;
      case StoreOp::kHead:
        ++c.heads;
        break;
      case StoreOp::kList:
        ++c.lists;
        break;
      default:
        break;
    }
    c.busy_ns += s.end_ns - s.start_ns;
  }
}

void WriteSpans(const RunArgs& args, const std::vector<Span>& spans,
                const std::vector<CallSpan>& calls) {
  if (args.out_dir.empty()) return;
  const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                           std::to_string(args.seed) + ".jsonl";
  std::ofstream f(path);
  for (const CallSpan& c : calls) {
    f << "{\"span\":\"call\",\"name\":\"" << c.name
      << "\",\"start_s\":" << c.start_s << ",\"end_s\":" << c.end_s << "}\n";
  }
  for (const Span& s : spans) {
    f << "{\"span\":\"request\",\"op\":\"" << StoreOpName(s.op)
      << "\",\"layer\":\"" << KeyClassName(s.cls)
      << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
      << ",\"bytes\":" << s.bytes << ",\"tag\":" << s.tag << "}\n";
  }
  std::fprintf(stderr, "spans written to %s (%zu requests, %zu calls)\n",
               path.c_str(), spans.size(), calls.size());
}

// ---------------------------------------------------------------------------
// Metrics.

double PerQuery(double v, const Tally& t) {
  return Ratio(v, static_cast<double>(t.attempted));
}

double P50(const Tally& t) { return Percentile(t.latency_ms, 0.50); }

double Qps(const PhaseResult& p) {
  return Ratio(static_cast<double>(p.tally.ok), p.seconds);
}

void EndToEndMetrics(const WorkloadSpec& spec,
                     const std::vector<SetupResult>& setups,
                     const PhaseResult& p, const WorldShape& shape,
                     std::vector<Metric>* m) {
  const Tally& t = p.tally;
  std::vector<double> setup_s, ingest_rate, write_amp;
  for (const SetupResult& s : setups) {
    setup_s.push_back(s.seconds);
    ingest_rate.push_back(Ratio(static_cast<double>(s.rows), s.ingest_seconds));
    write_amp.push_back(Ratio(static_cast<double>(s.bytes_written),
                              static_cast<double>(s.user_bytes)));
  }
  m->push_back({"setup_s", Median(setup_s), "s"});
  m->push_back({"query_p50_ms", P50(t), "ms"});
  m->push_back({"query_p99_ms", Percentile(t.latency_ms, 0.99), "ms"});
  m->push_back({"query_qps", Qps(p), "1/s"});
  m->push_back({"query_ok_frac",
                Ratio(static_cast<double>(t.ok), static_cast<double>(t.attempted)),
                "fraction"});
  m->push_back({"topk_complete_frac",
                1.0 - Ratio(static_cast<double>(t.shortfall),
                            static_cast<double>(t.search)),
                "fraction"});
  m->push_back({"recall_at_k",
                Ratio(t.recall_sum, static_cast<double>(t.recall_n)),
                "fraction"});
  m->push_back({"requests_per_query", PerQuery(static_cast<double>(p.reads), t),
                "count"});
  m->push_back({"read_mb_per_query",
                PerQuery(static_cast<double>(p.bytes_read) / 1e6, t), "MB"});
  if (spec.shape == Shape::kIngestMixed) {
    m->push_back({"ingest_rows_per_s",
                  Ratio(static_cast<double>(p.writer_rows), p.writer_seconds),
                  "1/s"});
    m->push_back({"write_amp",
                  Ratio(static_cast<double>(p.writer.bytes_written),
                        static_cast<double>(p.writer_user_bytes)),
                  "ratio"});
  } else {
    m->push_back({"ingest_rows_per_s", Median(ingest_rate), "1/s"});
    m->push_back({"write_amp", Median(write_amp), "ratio"});
  }
  m->push_back({"index_bytes_ratio",
                Ratio(static_cast<double>(shape.index_bytes),
                      static_cast<double>(shape.data_bytes)),
                "ratio"});
  m->push_back({"peak_rss_mb", PeakRssMb(), "MB"});
}

void PerLayerMetrics(const PhaseResult& untraced, const PhaseResult& p,
                     const KindAttribution& kinds, const WorldShape& shape,
                     World* w, std::vector<Metric>* m) {
  const Tally& t = p.tally;
  const ClassTotals all = Sum(p.reader);
  auto per_q = [&](double v) { return PerQuery(v, t); };
  auto cls = [&](KeyClass c) { return p.reader[static_cast<size_t>(c)]; };

  m->push_back({"objectstore.get_per_query", per_q(all.gets), "1/query"});
  m->push_back({"objectstore.head_per_query", per_q(all.heads), "1/query"});
  m->push_back({"objectstore.list_per_query", per_q(all.lists), "1/query"});
  m->push_back({"objectstore.busy_ms_per_query", per_q(all.busy_ns / 1e6),
                "ms"});
  m->push_back({"objectstore.rounds_per_query",
                Ratio(static_cast<double>(t.rounds),
                      static_cast<double>(t.traced)),
                "1/query"});

  m->push_back({"cache.hit_ratio",
                Ratio(static_cast<double>(p.cache_hits),
                      static_cast<double>(p.cache_hits + p.cache_misses)),
                "fraction"});
  m->push_back({"cache.evictions", per_q(p.cache_evictions), "1/query"});
  m->push_back({"cache.coalesced", per_q(p.cache_coalesced), "1/query"});
  m->push_back({"cache.wave_hits", per_q(p.cache_wave_hits), "1/query"});
  m->push_back({"cache.resident_mb",
                static_cast<double>(p.cache_resident) / 1e6, "MB"});

  const ClassTotals lake = cls(KeyClass::kLake);
  m->push_back({"lake.log_requests_per_query", per_q(lake.reads()),
                "1/query"});
  m->push_back({"lake.log_ms_per_query", per_q(lake.busy_ns / 1e6), "ms"});
  m->push_back({"lake.log_entries", static_cast<double>(shape.log_entries),
                "count"});
  const ClassTotals meta = cls(KeyClass::kMetadata);
  m->push_back({"metadata.requests_per_query", per_q(meta.reads()),
                "1/query"});
  m->push_back({"metadata.ms_per_query", per_q(meta.busy_ns / 1e6), "ms"});
  const ClassTotals index = cls(KeyClass::kIndex);
  m->push_back({"index.requests_per_query", per_q(index.reads()),
                "1/query"});
  m->push_back({"index.read_kb_per_query", per_q(index.bytes_read / 1e3),
                "KB"});
  const ClassTotals format = cls(KeyClass::kFormat);
  m->push_back({"format.page_requests_per_query", per_q(format.gets),
                "1/query"});
  m->push_back({"format.page_kb_per_query", per_q(format.bytes_read / 1e3),
                "KB"});

  const double search = static_cast<double>(t.search);
  m->push_back({"core.cpu_ms_per_query", per_q(p.cpu_s * 1e3), "ms"});
  m->push_back({"core.pages_probed_per_query",
                Ratio(static_cast<double>(t.pages_probed), search),
                "1/query"});
  m->push_back({"core.files_scanned_per_query",
                Ratio(static_cast<double>(t.files_scanned), search),
                "1/query"});
  m->push_back({"core.matches_per_probed_page",
                Ratio(static_cast<double>(t.matches),
                      static_cast<double>(t.pages_probed)),
                "ratio"});
  m->push_back({"core.indexes_queried_per_query",
                Ratio(static_cast<double>(t.indexes_queried), search),
                "1/query"});
  m->push_back({"core.topk_shortfall_frac",
                Ratio(static_cast<double>(t.shortfall), search), "fraction"});
  m->push_back({"core.index_s", w->calls.MeanSeconds("index"), "s"});
  m->push_back({"core.compact_s", w->calls.MeanSeconds("compact"), "s"});
  m->push_back({"core.vacuum_s", w->calls.MeanSeconds("vacuum"), "s"});
  for (size_t ki = 0; ki < kNumKinds; ++ki) {
    const std::string prefix =
        std::string("core.") + rottnest::core::QueryKindName(KindAt(ki)) + ".";
    const double n = static_cast<double>(kinds.queries[ki]);
    const StoreTotals& k = kinds.per_kind[ki];
    auto reads = [&](KeyClass c) {
      return Ratio(static_cast<double>(k[static_cast<size_t>(c)].reads()), n);
    };
    m->push_back({prefix + "requests_per_query",
                  Ratio(static_cast<double>(Sum(k).reads()), n), "1/query"});
    m->push_back({prefix + "lake_requests_per_query", reads(KeyClass::kLake),
                  "1/query"});
    m->push_back({prefix + "metadata_requests_per_query",
                  reads(KeyClass::kMetadata), "1/query"});
    m->push_back({prefix + "index_requests_per_query",
                  reads(KeyClass::kIndex), "1/query"});
    m->push_back({prefix + "topk_shortfall_frac",
                  Ratio(static_cast<double>(t.kind_shortfall[ki]),
                        static_cast<double>(t.kind_search[ki])),
                  "fraction"});
  }

  m->push_back({"serve.waves", static_cast<double>(p.waves), "count"});
  m->push_back({"serve.mean_wave_size",
                Ratio(static_cast<double>(p.wave_queries),
                      static_cast<double>(p.waves)),
                "count"});
  m->push_back({"serve.shed", static_cast<double>(p.shed), "count"});
  m->push_back({"serve.pin_conflicts", static_cast<double>(p.pin_conflicts),
                "count"});

  const double p50_u = P50(untraced.tally);
  m->push_back({"trace.p50_overhead_frac",
                Ratio(P50(t) - p50_u, p50_u), "fraction"});
  m->push_back({"trace.qps_overhead_frac",
                Ratio(Qps(untraced) - Qps(p), Qps(untraced)), "fraction"});
}

bool Fail(const char* what, const Status& s) {
  std::fprintf(stderr, "FAILED: %s: %s\n", what, s.ToString().c_str());
  return false;
}

void PrintPhase(const char* label, const PhaseResult& p) {
  const Tally& t = p.tally;
  std::fprintf(stderr,
               "%s: %llu queries in %.2f s (%llu ok, %llu failed, %llu "
               "wrong), p50 %.2f ms, p99 %.2f ms (%zu samples)\n",
               label, static_cast<unsigned long long>(t.attempted), p.seconds,
               static_cast<unsigned long long>(t.ok),
               static_cast<unsigned long long>(t.failed),
               static_cast<unsigned long long>(t.wrong), P50(t),
               Percentile(t.latency_ms, 0.99), t.latency_ms.size());
  if (!t.first_error.empty()) {
    std::fprintf(stderr, "  first error: %s\n", t.first_error.c_str());
  }
  if (!t.first_wrong.empty()) {
    std::fprintf(stderr, "  FALSE POSITIVE: %s\n", t.first_wrong.c_str());
  }
  if (p.writer_batches > 0 || !p.writer_error.empty()) {
    std::fprintf(stderr, "  writer: %llu batches (%llu rows) in %.2f s%s%s\n",
                 static_cast<unsigned long long>(p.writer_batches),
                 static_cast<unsigned long long>(p.writer_rows),
                 p.writer_seconds, p.writer_error.empty() ? "" : ", error: ",
                 p.writer_error.c_str());
  }
}

void Account(const PhaseResult& p, RunReport* report) {
  report->attempted += p.tally.attempted + p.writer_batches;
  report->failed += p.tally.failed + (p.writer_error.empty() ? 0 : 1);
  if (p.tally.wrong > 0) report->correct = false;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  WorkloadSpec spec;
  return SpecFor(name, &spec);
}

bool RunWorkload(const RunArgs& args, RunReport* report) {
  WorkloadSpec spec;
  if (!SpecFor(args.workload, &spec)) return false;
  const auto gen_start = SteadyClock::now();
  const Inputs in(spec.data, args.seed);
  std::fprintf(stderr, "%s seed %llu: inputs generated in %.2f s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               SecondsSince(gen_start));

  // Setups: untraced runs keep the last world for the timed phase; traced
  // runs time one untraced phase and one traced phase on fresh worlds.
  const int setups = args.trace ? 2 : kSetups;
  std::vector<SetupResult> results;
  std::vector<std::unique_ptr<World>> worlds;
  for (int i = 0; i < setups; ++i) {
    const bool traced_world = args.trace && i == setups - 1;
    auto world = std::make_unique<World>(traced_world);
    SetupResult r;
    Status s = Setup(spec, in, world.get(), &r);
    if (!s.ok()) return Fail("setup", s);
    std::fprintf(stderr, "setup %d: %.3f s (ingest %.3f s)\n", i, r.seconds,
                 r.ingest_seconds);
    if (i == 0) {
      WorldShape shape;
      s = Inspect(world.get(), &shape);
      if (!s.ok()) return Fail("inspect", s);
      PrintProperties(spec, in, world.get(), shape);
    }
    results.push_back(r);
    if (args.trace || i == setups - 1) {
      worlds.push_back(std::move(world));
    }
  }

  PhaseResult first;
  Status s = RunPhase(spec, in, worlds.front().get(), args.seconds,
                      /*traced=*/false, &first);
  if (!s.ok()) return Fail("timed phase", s);
  PrintPhase("untraced phase", first);
  Account(first, report);

  if (!args.trace) {
    WorldShape shape;
    s = Inspect(worlds.front().get(), &shape);
    if (!s.ok()) return Fail("inspect", s);
    EndToEndMetrics(spec, results, first, shape, &report->metrics);
    return true;
  }

  World* w = worlds.back().get();
  PhaseResult traced;
  s = RunPhase(spec, in, w, args.seconds, /*traced=*/true, &traced);
  if (!s.ok()) return Fail("traced phase", s);
  PrintPhase("traced phase", traced);
  Account(traced, report);

  KindAttribution kinds;
  Tally attribution;
  AttributeKinds(in, w, &attribution, &kinds);
  if (attribution.wrong > 0) {
    report->correct = false;
    std::fprintf(stderr, "  FALSE POSITIVE: %s\n",
                 attribution.first_wrong.c_str());
  }
  w->spans->SetRecording(false);
  const std::vector<Span> spans = w->spans->TakeSpans();
  FoldSpans(spans, &kinds);
  WriteSpans(args, spans, w->calls.spans());

  WorldShape shape;
  s = Inspect(w, &shape);
  if (!s.ok()) return Fail("inspect", s);
  PerLayerMetrics(first, traced, kinds, shape, w, &report->metrics);
  ProbeTargets targets;
  targets.bare = &w->mem;
  targets.lake_root = kRoot;
  const RottnestOptions options = ClientOptions(spec.cache_bytes, kClientThreads);
  targets.options = &options;
  targets.inputs = &in;
  s = RunProbes(targets, &report->metrics);
  if (!s.ok()) return Fail("probes", s);
  return true;
}

}  // namespace perfbench
