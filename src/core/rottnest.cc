#include "core/rottnest.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <locale>
#include <map>
#include <mutex>
#include <regex>
#include <set>

#include "common/hash.h"
#include "core/obs_internal.h"
#include "format/reader.h"
#include "index/ivfpq/kmeans.h"
#include "index/keyword/keyword_index.h"
#include "index/trie/trie_index.h"
#include "objectstore/read_batch.h"

namespace rottnest::core {

namespace {

using format::ColumnSchema;
using format::ColumnVector;
using format::PageFetch;
using format::PageId;
using format::PageTable;
using format::PhysicalType;
using index::ComponentFileReader;
using index::IndexType;
using lake::DataFile;
using lake::IndexEntry;
using lake::Snapshot;

/// Threads of the client's I/O executor: the requests one wave keeps in
/// flight. A request holds its executor thread for its whole latency, and
/// the width/depth model (§V-B) prices a wave as one round however wide, so
/// this counts requests in flight, not cores, and is fixed apart from the
/// compute pool's `RottnestOptions::num_threads`.
constexpr size_t kIoExecutorThreads = 16;

/// Views value `row` of a decoded column as raw bytes. The view is valid
/// while `col` is alive and unmodified.
std::string_view ValueAt(const ColumnVector& col, size_t row) {
  switch (col.type()) {
    case PhysicalType::kByteArray:
      return col.strings()[row];
    case PhysicalType::kFixedLenByteArray:
      return col.fixed().at(row).ToStringView();
    case PhysicalType::kInt64:
      return std::string_view(
          reinterpret_cast<const char*>(&col.ints()[row]), 8);
    case PhysicalType::kDouble:
      return std::string_view(
          reinterpret_cast<const char*>(&col.doubles()[row]), 8);
  }
  return {};
}

/// The deletion vectors one search needs, read through the client cache.
/// DV objects are write-once and uniquely named (`dv/<name>.dv`; a delete
/// writes a NEW object and commits a new DataFile::dv_path), so a cached
/// copy can never be stale. Loads never run on their own: Queue() adds the
/// missing DVs to a read wave the caller issues anyway — the page probe,
/// or a scanned file's footer open — and Load() parses what came back.
/// Thread-safe: per-file scan tasks load concurrently.
class DvCache {
 public:
  explicit DvCache(const Snapshot& snapshot) : snapshot_(snapshot) {}

  /// Appends a whole-object read of the DV of each of `files` that has one
  /// and is not loaded yet. Returns the DV keys queued, aligned with the
  /// requests appended.
  std::vector<std::string> Queue(const std::vector<std::string>& files,
                                 std::vector<objectstore::RangeRequest>* reqs) {
    std::vector<std::string> queued;
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& f : files) {
      const DataFile* df = snapshot_.FindFile(f);
      if (df == nullptr || df->dv_path.empty()) continue;
      if (loaded_.count(df->dv_path) != 0) continue;
      if (std::find(queued.begin(), queued.end(), df->dv_path) !=
          queued.end()) {
        continue;
      }
      queued.push_back(df->dv_path);
      reqs->push_back({df->dv_path, 0, 0});
    }
    return queued;
  }

  /// Parses the bodies read for Queue()'s keys (`bodies[i]` is queued[i]).
  Status Load(const std::vector<std::string>& queued, const Buffer* bodies) {
    for (size_t i = 0; i < queued.size(); ++i) {
      lake::DeletionVector dv;
      ROTTNEST_RETURN_NOT_OK(
          lake::DeletionVector::Deserialize(Slice(bodies[i]), &dv));
      std::lock_guard<std::mutex> lock(mu_);
      loaded_.emplace(queued[i], std::move(dv));
    }
    return Status::OK();
  }

  /// The deletion vector of `file` (empty when it has none). A file whose
  /// DV was never loaded is an Internal error, never a silently live row.
  /// The pointer stays valid for the cache's lifetime.
  Result<const lake::DeletionVector*> For(const std::string& file) const {
    static const lake::DeletionVector kNone;
    const DataFile* df = snapshot_.FindFile(file);
    if (df == nullptr || df->dv_path.empty()) return &kNone;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = loaded_.find(df->dv_path);
    if (it == loaded_.end()) {
      return Status::Internal("deletion vector not loaded: " + df->dv_path);
    }
    return &it->second;
  }

  /// True if (file, row) is deleted in the snapshot.
  Result<bool> IsDeleted(const std::string& file, uint64_t row) const {
    ROTTNEST_ASSIGN_OR_RETURN(const lake::DeletionVector* dv, For(file));
    return dv->Contains(row);
  }

 private:
  const Snapshot& snapshot_;
  mutable std::mutex mu_;
  std::map<std::string, lake::DeletionVector> loaded_;  ///< By DV key.
};

/// In-situ probe (paper §IV-B step 2): reads the candidate pages and the
/// not-yet-loaded deletion vectors of their files in ONE parallel wave
/// (byte-adjacent pages share a GET), then decodes the pages.
Status ProbePages(objectstore::ObjectStore* store, ThreadPool* io,
                  const std::vector<PageFetch>& fetches,
                  const ColumnSchema& column_schema, DvCache* dvs,
                  objectstore::IoTrace* trace,
                  std::vector<ColumnVector>* out) {
  std::vector<objectstore::RangeRequest> reqs = format::PageRequests(fetches);
  std::vector<std::string> files;
  files.reserve(fetches.size());
  for (const PageFetch& f : fetches) files.push_back(f.key);
  std::vector<std::string> dv_keys = dvs->Queue(files, &reqs);
  std::vector<Buffer> raw;
  ROTTNEST_RETURN_NOT_OK(
      objectstore::ReadBatch(store, reqs, io, trace, &raw));
  ROTTNEST_RETURN_NOT_OK(dvs->Load(dv_keys, raw.data() + fetches.size()));
  raw.resize(fetches.size());
  return format::DecodePages(fetches, raw, column_schema, out);
}

}  // namespace

struct Rottnest::Plan {
  Snapshot snapshot;
  std::vector<IndexEntry> indexes;
  std::vector<DataFile> unindexed;
  int column_index = -1;

  /// Leaves every snapshot file to the exact scan path, for a pattern the
  /// FM indexes cannot answer (index::HasReservedBytes). Not an index
  /// failure: nothing is degraded or quarantined.
  void ScanEverything() {
    indexes.clear();
    unindexed = snapshot.files;
  }
};

namespace {

/// Applies the structured-attribute ScanRange (paper §VI): prunes row
/// groups via min/max statistics and verifies the attribute in situ for
/// candidate rows. One instance per search; caches readers and attribute
/// chunks per (file, row group). Thread-safe (per-file scan tasks share
/// it); readers open at the snapshot's recorded file sizes.
class RangeFilter {
 public:
  RangeFilter(objectstore::ObjectStore* store, const Snapshot& snapshot,
              const format::Schema& schema,
              const std::optional<ScanRange>& range)
      : store_(store), snapshot_(snapshot) {
    if (!range.has_value()) return;
    col_idx_ = schema.FindColumn(range->column);
    range_ = *range;
    active_ = true;
  }

  bool active() const { return active_; }

  Status Validate() const {
    if (active_ && col_idx_ < 0) {
      return Status::InvalidArgument("no such range column: " +
                                     range_.column);
    }
    return Status::OK();
  }

  /// True if row group `rg` of the file may contain rows in range.
  bool RowGroupMayMatch(const format::RowGroupMeta& rg) const {
    if (!active_) return true;
    const format::ColumnChunkMeta& cc = rg.columns[col_idx_];
    if (!cc.has_stats) return true;
    return cc.min <= range_.max && cc.max >= range_.min;
  }

  /// True if row `row` (file-global) of `file` is inside the range.
  /// Reads (and caches) the attribute chunk of the containing row group.
  Result<bool> RowInRange(const std::string& file, uint64_t row,
                          objectstore::IoTrace* trace) {
    if (!active_) return true;
    std::lock_guard<std::mutex> lock(mu_);
    ROTTNEST_ASSIGN_OR_RETURN(format::FileReader * reader, Reader(file, trace));
    const format::FileMeta& meta = reader->meta();
    // Find the row group containing `row`.
    size_t g = 0;
    while (g + 1 < meta.row_groups.size() &&
           meta.row_groups[g + 1].first_row <= row) {
      ++g;
    }
    const format::RowGroupMeta& rg = meta.row_groups[g];
    if (!RowGroupMayMatch(rg)) return false;
    auto key = std::make_pair(file, g);
    auto it = chunks_.find(key);
    if (it == chunks_.end()) {
      format::ColumnVector col;
      ROTTNEST_RETURN_NOT_OK(
          reader->ReadColumnChunk(g, col_idx_, trace, &col));
      it = chunks_.emplace(key, std::move(col)).first;
    }
    return range_.Contains(it->second.ints()[row - rg.first_row]);
  }

  /// Drops matches outside the range.
  Status FilterMatches(std::vector<RowMatch>* matches,
                       objectstore::IoTrace* trace) {
    if (!active_) return Status::OK();
    std::vector<RowMatch> kept;
    kept.reserve(matches->size());
    for (RowMatch& m : *matches) {
      ROTTNEST_ASSIGN_OR_RETURN(bool in, RowInRange(m.file, m.row, trace));
      if (in) kept.push_back(std::move(m));
    }
    *matches = std::move(kept);
    return Status::OK();
  }

 private:
  Result<format::FileReader*> Reader(const std::string& file,
                                     objectstore::IoTrace* trace) {
    auto it = readers_.find(file);
    if (it == readers_.end()) {
      const DataFile* df = snapshot_.FindFile(file);
      if (df == nullptr) return Status::NotFound("not in snapshot: " + file);
      ROTTNEST_ASSIGN_OR_RETURN(
          std::unique_ptr<format::FileReader> r,
          format::FileReader::Open(store_, file, df->bytes, trace));
      it = readers_.emplace(file, std::move(r)).first;
    }
    return it->second.get();
  }

  objectstore::ObjectStore* store_;
  const Snapshot& snapshot_;
  std::mutex mu_;  ///< Guards readers_ and chunks_.
  bool active_ = false;
  int col_idx_ = -1;
  ScanRange range_;
  std::map<std::string, std::unique_ptr<format::FileReader>> readers_;
  std::map<std::pair<std::string, size_t>, format::ColumnVector> chunks_;
};

/// Compiles `pattern` into `re`. The regex scanner narrows each pattern
/// character through the global locale's ctype<char>, whose narrow() fills
/// a per-facet cache on first use without a lock: two queries compiling
/// at once race on it (ThreadSanitizer reports it in libstdc++). The cache
/// is filled once here, before the first compile, so compiles only read it.
void CompileRegex(const std::string& pattern, std::regex* re) {
  [[maybe_unused]] static const bool narrow_cache_filled = [] {
    const auto& ctype = std::use_facet<std::ctype<char>>(std::locale());
    for (int c = 0; c < 256; ++c) ctype.narrow(static_cast<char>(c), '\0');
    return true;
  }();
  re->assign(pattern, std::regex::ECMAScript);
}

/// Extracts the longest literal run every match of an ECMAScript regex must
/// contain, for FM-index location ("" when none is guaranteed). Only runs
/// outside every group count: a group may be optional, repeated, a
/// lookaround or an alternation.
std::string LongestRegexLiteral(const std::string& pattern) {
  std::string best, current;
  size_t depth = 0;  // Group nesting; literals count only at depth 0.
  auto flush = [&] {
    if (current.size() > best.size()) best = current;
    current.clear();
  };
  for (size_t i = 0; i < pattern.size(); ++i) {
    char c = pattern[i];
    switch (c) {
      case '\\':
        // Escaped char: a guaranteed literal only for escaped punctuation.
        // An escaped letter or digit is a class, an anchor, a
        // back-reference or a code-unit escape, whose operand (\xHH,
        // \uHHHH, \cX) is skipped with it.
        if (i + 1 < pattern.size() && !std::isalnum(static_cast<unsigned char>(
                                          pattern[i + 1]))) {
          if (depth == 0) current.push_back(pattern[i + 1]);
          ++i;
        } else {
          flush();
          if (++i < pattern.size()) {
            const char e = pattern[i];
            i += e == 'x' ? 2 : e == 'u' ? 4 : e == 'c' ? 1 : 0;
          }
        }
        break;
      case '*':
      case '+':
      case '?':
      case '{':
        // Quantifier: the preceding char was optional/repeated, so a
        // literal directly before it is not guaranteed (e.g. the 'o' in
        // "fo*"); drop its last char from the guaranteed run.
        if (!current.empty()) current.pop_back();
        flush();
        // Skip the {...} body.
        while (c == '{' && i + 1 < pattern.size() && pattern[i] != '}') ++i;
        break;
      case '|':
        // Alternation invalidates any guarantee: nothing is required.
        return std::string();
      case '(':
        ++depth;
        flush();
        break;
      case ')':
        if (depth > 0) --depth;
        flush();
        break;
      case '.':
      case '[':
      case ']':
      case '^':
      case '$':
        flush();
        // Skip character classes wholesale; an escaped char (\]) inside
        // one does not close it.
        if (c == '[') {
          while (++i < pattern.size() && pattern[i] != ']') {
            if (pattern[i] == '\\') ++i;
          }
        }
        break;
      default:
        if (depth == 0) current.push_back(c);
    }
  }
  flush();
  return best;
}

/// Graceful-degradation bookkeeping (one instance per search): index files
/// that fail to open or query — missing object, truncated tail, checksum
/// mismatch — are skipped and their covered files demoted to the brute-scan
/// path, so a corrupt index degrades performance instead of failing the
/// query. The degradation is reported through SearchResult.
class DegradedIndexes {
 public:
  void RecordSuccess(const IndexEntry& e) {
    ok_covered_.insert(e.covered_files.begin(), e.covered_files.end());
  }

  void RecordFailure(const IndexEntry& e, Status status,
                     SearchResult* result) {
    failures_.emplace_back(&e, std::move(status));
    ++result->indexes_degraded;
    result->degraded_indexes.push_back(e.index_path);
  }

  /// Snapshot files whose only index coverage failed — these must be
  /// scanned unconditionally so the result set matches a fault-free query.
  std::vector<const DataFile*> FilesToScan(const Snapshot& snapshot) const {
    std::vector<const DataFile*> out;
    std::set<std::string> emitted;
    for (const auto& [e, status] : failures_) {
      for (const std::string& f : e->covered_files) {
        if (ok_covered_.count(f) != 0) continue;  // Still covered elsewhere.
        const DataFile* df = snapshot.FindFile(f);
        if (df == nullptr) continue;
        if (emitted.insert(f).second) out.push_back(df);
      }
    }
    return out;
  }

  /// The failures with their statuses, for Rottnest::HandleSearchFailures.
  const std::vector<std::pair<const IndexEntry*, Status>>& failures() const {
    return failures_;
  }

 private:
  std::set<std::string> ok_covered_;
  std::vector<std::pair<const IndexEntry*, Status>> failures_;
};

/// The failures the tail-tolerance contract degrades into a partial result
/// rather than a hard error or a brute-scan fallback: an expired deadline
/// (keeping going is exactly what the deadline forbids) and an unavailable
/// dependency (circuit breaker open or store down — scanning through the
/// same broken store would only dig the hole deeper). Everything else keeps
/// its existing handling: Corruption/NotFound degrade with a scan fallback,
/// other codes fail the query.
bool IsCutShort(const Status& s) {
  return s.IsDeadlineExceeded() || s.IsUnavailable();
}

/// Records `what` (an index object key or a phase name) as cut short. The
/// first cut supplies partial_reason; later ones only extend the list.
void MarkCutShort(SearchResult* result, std::string what, const Status& s) {
  result->partial = true;
  result->cut_short.push_back(std::move(what));
  if (result->partial_reason.empty()) result->partial_reason = s.ToString();
}

/// Scans one file's column row by row, honoring the RangeFilter's row-group
/// pruning and per-row attribute check and the file's deletion vector:
/// `visit(row, value)` runs for the live rows passing the range. The sized
/// footer open (no HEAD) and the file's DV load share one read wave.
/// *scanned reports whether any row group was read. The operation deadline
/// is checked per row group (page batch), so one huge file cannot blow
/// past the time budget.
Status ScanFileRows(
    objectstore::ObjectStore* store, ThreadPool* io, const DataFile& file,
    int col_idx, RangeFilter* rf, DvCache* dvs, const Deadline& deadline,
    objectstore::IoTrace* trace, bool* scanned,
    const std::function<Status(uint64_t, std::string_view)>& visit) {
  *scanned = false;
  std::vector<objectstore::RangeRequest> reqs = {
      format::FileReader::FooterRequest(file.path, file.bytes)};
  std::vector<std::string> dv_keys = dvs->Queue({file.path}, &reqs);
  std::vector<Buffer> raw;
  Status read = objectstore::ReadBatch(store, reqs, io, trace, &raw);
  ROTTNEST_ASSIGN_OR_RETURN(
      std::unique_ptr<format::FileReader> reader,
      format::FileReader::OpenFromTail(store, file.path, file.bytes, read,
                                       raw[0], trace));
  ROTTNEST_RETURN_NOT_OK(dvs->Load(dv_keys, raw.data() + 1));
  ROTTNEST_ASSIGN_OR_RETURN(const lake::DeletionVector* dv,
                            dvs->For(file.path));
  const format::FileMeta& meta = reader->meta();
  for (size_t g = 0; g < meta.row_groups.size(); ++g) {
    ROTTNEST_RETURN_NOT_OK(deadline.Check("scan"));
    const format::RowGroupMeta& rg = meta.row_groups[g];
    if (!rf->RowGroupMayMatch(rg)) continue;  // Min/max pruning.
    ColumnVector col;
    ROTTNEST_RETURN_NOT_OK(reader->ReadColumnChunk(g, col_idx, trace, &col));
    *scanned = true;
    for (size_t r = 0; r < col.size(); ++r) {
      uint64_t row = rg.first_row + r;
      if (dv->Contains(row)) continue;
      if (rf->active()) {
        ROTTNEST_ASSIGN_OR_RETURN(bool in, rf->RowInRange(file.path, row,
                                                          trace));
        if (!in) continue;
      }
      ROTTNEST_RETURN_NOT_OK(visit(row, ValueAt(col, r)));
    }
  }
  return Status::OK();
}

/// Runs `task(i, trace_i)` for i in [0, n) concurrently on `pool` — the
/// fan-out ACROSS indexes (or across the files of a scan), on top of
/// whatever within-task parallelism each task already uses. `max_width`
/// bounds the concurrency (0 = all n at once, the §V-B default); at a
/// bound the per-task IoTraces are merged in waves of `max_width` chains,
/// otherwise zipped via MergeParallel, so the recorded dependent-round
/// depth honestly reflects the width actually run — the deepest single
/// chain at full width, not the sum over tasks (§V-B: width is cheap,
/// depth is not). When `op` is non-null and tracing, every task also gets
/// a `label(i)` child span under the op root carrying its trace totals as
/// exclusive I/O; spans are created and attributed in plan order on the
/// calling thread, so the span tree is deterministic regardless of how the
/// tasks interleave. Statuses come back positionally so the caller can
/// apply its degraded-index policy per entry in plan order.
///
/// `deadline` is the operation deadline: every task re-installs a copy as
/// its pool thread's ambient deadline (thread-locals do not follow work
/// onto pool threads), so the store stack below — retry backoff, hedging —
/// observes it; a task whose start finds the deadline already expired is
/// cut short with DeadlineExceeded (naming `what`) without running, so an
/// expired fan-out drains at task granularity instead of paying n full
/// tasks.
std::vector<Status> FanOut(
    ThreadPool* pool, size_t n, size_t max_width, const Deadline& deadline,
    const char* what, objectstore::IoTrace* trace, internal::OpObs* op,
    const std::function<std::string(size_t)>& label,
    const std::function<Status(size_t, objectstore::IoTrace*)>& task) {
  std::vector<Status> statuses(n);
  if (n == 0) return statuses;
  auto guarded_task = [&](size_t i, objectstore::IoTrace* t) -> Status {
    ROTTNEST_RETURN_NOT_OK(deadline.Check(what));
    ScopedOpDeadline ambient(deadline);
    return task(i, t);
  };
  const bool spans = op != nullptr && op->tracing();
  if (n == 1 && !spans) {  // Nothing concurrent to model; record into parent.
    statuses[0] = guarded_task(0, trace);
    return statuses;
  }
  std::vector<obs::SpanId> span_ids;
  if (spans) {
    span_ids.reserve(n);
    Micros now = op->NowMicros();
    for (size_t i = 0; i < n; ++i) {
      span_ids.push_back(
          op->tracer()->StartSpan(label(i), op->root_id(), now));
    }
  }
  const bool need_children = trace != nullptr || spans;
  std::vector<objectstore::IoTrace> children(need_children ? n : 0);
  const size_t width = max_width == 0 ? n : std::min(max_width, n);
  auto run = [&](size_t i) {
    statuses[i] = guarded_task(i, need_children ? &children[i] : nullptr);
  };
  if (n == 1) {
    run(0);
  } else if (width >= n) {
    pool->ParallelFor(n, run);
  } else {
    pool->ParallelFor(n, width, run);
  }
  if (spans) {
    Micros now = op->NowMicros();
    for (size_t i = 0; i < n; ++i) {
      op->Attribute(span_ids[i], internal::SpanIoFromTrace(children[i]));
      op->tracer()->EndSpan(span_ids[i], now);
    }
  }
  if (trace != nullptr) {
    if (width >= n) {
      std::vector<const objectstore::IoTrace*> ptrs;
      ptrs.reserve(children.size());
      for (const auto& c : children) ptrs.push_back(&c);
      trace->MergeParallel(ptrs);
    } else {
      internal::MergeWaves(trace, children, width);
    }
  }
  return statuses;
}

/// Verified matches of one search, deduplicated by (file, row) across the
/// probe and scan paths.
class MatchSet {
 public:
  explicit MatchSet(std::vector<RowMatch>* out) : out_(out) {}
  void Add(RowMatch m) {
    if (seen_.insert({m.file, m.row}).second) out_->push_back(std::move(m));
  }
  size_t size() const { return out_->size(); }

 private:
  std::vector<RowMatch>* out_;
  std::set<std::pair<std::string, uint64_t>> seen_;
};

/// A search's row predicate, run by the probe and the scan: true when
/// `value` matches. Scoring scans set *distance.
using RowPredicate =
    std::function<bool(std::string_view value, float* distance)>;

/// The per-search inputs of the brute-scan fallback.
struct FileScan {
  objectstore::ObjectStore* store;
  ThreadPool* pool;  ///< Compute pool: the per-file fan-out.
  ThreadPool* io;    ///< I/O executor: each file's read waves.
  int col_idx;
  RangeFilter* rf;
  DvCache* dvs;
  const Deadline& deadline;
  size_t width;  ///< Fan-out width across files (0 = all at once).
  RowPredicate pred;

  /// Scans `f`, appending its matches in row order to `out` — at most
  /// `limit` of them (the predicate is not run past it).
  Status One(const DataFile& f, objectstore::IoTrace* trace,
             std::vector<RowMatch>* out, bool* scanned,
             size_t limit = SIZE_MAX) const {
    return ScanFileRows(
        store, io, f, col_idx, rf, dvs, deadline, trace, scanned,
        [&](uint64_t row, std::string_view v) -> Status {
          float dist = 0;
          if (out->size() < limit && pred(v, &dist)) {
            out->push_back({f.path, row, std::string(v), dist});
          }
          return Status::OK();
        });
  }

  /// Scans every file of `files` concurrently (one task per file, traces
  /// merged like the index fan-out), then adds each file's matches to
  /// `sink` in `files` order. Rows a cut-short file verified before the cut
  /// are kept; the first failure in `files` order is returned.
  Status All(const std::vector<const DataFile*>& files,
             objectstore::IoTrace* trace, MatchSet* sink,
             size_t* files_scanned) const {
    std::vector<std::vector<RowMatch>> found(files.size());
    std::vector<char> scanned(files.size(), 0);
    std::vector<Status> statuses = FanOut(
        pool, files.size(), width, deadline, "scan", trace, nullptr,
        nullptr, [&](size_t i, objectstore::IoTrace* t) -> Status {
          bool did = false;
          Status s = One(*files[i], t, &found[i], &did);
          scanned[i] = did;
          return s;
        });
    Status first;
    for (size_t i = 0; i < files.size(); ++i) {
      for (RowMatch& m : found[i]) sink->Add(std::move(m));
      if (scanned[i]) ++*files_scanned;
      if (first.ok() && !statuses[i].ok()) first = statuses[i];
    }
    return first;
  }

  /// The top-k-conditional fallback: scans `files` one at a time while
  /// `sink` holds fewer than k matches.
  Status UntilK(const std::vector<DataFile>& files, size_t k,
                objectstore::IoTrace* trace, MatchSet* sink,
                size_t* files_scanned) const {
    for (const DataFile& f : files) {
      if (sink->size() >= k) break;
      std::vector<RowMatch> found;
      bool did = false;
      Status s = One(f, trace, &found, &did, k - sink->size());
      for (RowMatch& m : found) sink->Add(std::move(m));
      if (did) ++*files_scanned;
      ROTTNEST_RETURN_NOT_OK(s);
    }
    return Status::OK();
  }
};

/// Resolved fan-out width of a search (reported in Stats::parallelism).
size_t ResolvedFanOut(size_t n, size_t max_width) {
  if (n == 0) return 1;
  return max_width == 0 ? n : std::min(max_width, n);
}

/// Fills SearchResult::stats at the end of a search: physical store deltas
/// (requests, bytes, cache/retry/fault events) from the op's snapshots,
/// IoTrace-derived depth and S3 projections when the caller traced, wall
/// time, and the resolved fan-out width.
void FinishSearchStats(const SearchOptions& opts, const internal::OpObs& op,
                       std::chrono::steady_clock::time_point wall_start,
                       size_t fanout, SearchResult* result) {
  op.FillDeltaStats(&result->stats);
  if (opts.trace != nullptr) {
    objectstore::S3Model s3;
    result->stats.io_depth = opts.trace->depth();
    result->stats.simulated_latency_ms = opts.trace->ProjectedLatencyMs(s3);
    result->stats.simulated_cost_usd = opts.trace->RequestCostUsd(s3);
  }
  result->stats.wall_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  result->stats.parallelism = fanout;
}

/// The deadline a search runs under: a pre-resolved absolute deadline
/// (SearchOptions::deadline, the serving path — resolved at SUBMIT time so
/// queue wait already counted against it) takes precedence over a
/// budget-derived one computed here (the direct-call path).
Deadline ResolveSearchDeadline(const SearchOptions& opts, const Clock* clock) {
  if (!opts.deadline.infinite()) return opts.deadline;
  return Deadline::After(clock, opts.time_budget_micros);
}

}  // namespace

namespace internal {

// Merges per-item IoTraces into `trace` the way the maintenance pipeline
// actually overlaps them: waves of `parallelism` concurrent chains, waves
// paid sequentially. At width 1 this degenerates to appending every chain
// back to back, so the recorded depth — and the projected latency derived
// from it — honestly reflects the resolved pipeline width. Width changes
// the trace, never the bytes; request/byte totals are width-invariant.
void MergeWaves(objectstore::IoTrace* trace,
                const std::vector<objectstore::IoTrace>& children,
                size_t parallelism) {
  if (trace == nullptr) return;
  if (parallelism == 0) parallelism = 1;
  for (size_t begin = 0; begin < children.size(); begin += parallelism) {
    size_t end = std::min(children.size(), begin + parallelism);
    std::vector<const objectstore::IoTrace*> wave;
    wave.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) wave.push_back(&children[i]);
    trace->MergeParallel(wave);
  }
}

}  // namespace internal

Rottnest::Rottnest(objectstore::ObjectStore* store, lake::Table* table,
                   RottnestOptions options)
    : store_(store),
      table_(table),
      options_(std::move(options)),
      metadata_(store, options_.index_dir),
      pool_(options_.num_threads),
      io_(kIoExecutorThreads) {
  if (options_.cache_bytes > 0) {
    objectstore::CacheOptions copts;
    copts.capacity_bytes = options_.cache_bytes;
    copts.shards = options_.cache_shards;
    copts.cache_heads = options_.cache_heads;
    cache_store_ =
        std::make_unique<objectstore::CachingStore>(store_, copts);
  }
}

void Rottnest::InvalidateCachedIndex(const std::string& key) {
  if (cache_store_ != nullptr) cache_store_->Invalidate(key);
}

size_t Rottnest::HandleSearchFailures(
    const SearchOptions& opts,
    const std::vector<std::pair<const IndexEntry*, Status>>& failed) {
  if (failed.empty()) return 0;
  std::vector<std::string> quarantine;
  for (const auto& [entry, status] : failed) {
    // A checksum mismatch may have come off the client cache — drop the
    // poisoned blocks so the next read observes the bucket, not the cache.
    if (status.IsCorruption()) InvalidateCachedIndex(entry->index_path);
    if (opts.auto_quarantine &&
        (status.IsCorruption() || status.IsNotFound())) {
      quarantine.push_back(entry->index_path);
    }
  }
  if (quarantine.empty()) return 0;
  // Best-effort: losing the CommitNext race just leaves quarantining to
  // the next degraded query (or Scrub + Repair).
  auto committed = metadata_.Update({}, quarantine);
  return committed.ok() ? quarantine.size() : 0;
}

std::string Rottnest::NewIndexName() {
  // Names must be unique across concurrent clients (the §IV-D proof
  // assumes uploaded files are owned exclusively by one process), so mix
  // in per-instance and process-wide entropy, not just the clock.
  static std::atomic<uint64_t> process_counter{0};
  uint64_t id = Mix64(static_cast<uint64_t>(store_->clock().NowMicros())) ^
                Mix64(reinterpret_cast<uintptr_t>(this)) ^
                Mix64(++name_counter_ * 0x9e37 +
                      process_counter.fetch_add(1)) ^
                Hash64(Slice(options_.index_dir));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return options_.index_dir + "/" + buf + ".index";
}

// ---------------------------------------------------------------------------
// maintenance plumbing

Rottnest::MaintenancePlan Rottnest::ResolveMaintenance(
    const MaintenanceOptions& opts, Micros start) const {
  MaintenancePlan plan;
  plan.parallelism = opts.parallelism != 0 ? opts.parallelism
                     : options_.num_threads != 0 ? options_.num_threads
                                                 : 1;
  plan.byte_budget = opts.byte_budget;
  Micros budget = opts.time_budget_micros != 0 ? opts.time_budget_micros
                                               : options_.index_timeout_micros;
  plan.deadline = start + budget;
  return plan;
}

void Rottnest::FinishMaintenanceStats(
    objectstore::IoTrace* local, const MaintenanceOptions& opts,
    const MaintenancePlan& plan,
    std::chrono::steady_clock::time_point wall_start,
    const internal::OpObs* op, MaintenanceStats* stats) const {
  objectstore::S3Model s3;
  if (op != nullptr) op->FillResilienceStats(stats);
  stats->gets = local->total_gets();
  stats->lists = local->total_lists();
  stats->bytes_read = local->total_bytes();
  stats->io_depth = local->depth();
  stats->simulated_latency_ms = local->ProjectedLatencyMs(s3);
  stats->simulated_cost_usd = local->RequestCostUsd(s3);
  stats->wall_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  stats->parallelism = plan.parallelism;
  stats->dry_run = opts.dry_run;
  // Single-child MergeParallel = sequential append of this op's rounds.
  if (opts.trace != nullptr) opts.trace->MergeParallel({local});
}

// ---------------------------------------------------------------------------
// index

namespace {

/// One data file's extracted index inputs, produced off-thread by the
/// staging stage of the Index pipeline. Page ids are file-relative; the
/// consumer offsets them by the file's first page-table id when folding
/// into the builders.
struct StagedFile {
  format::FileMeta meta;
  uint64_t staged_bytes = 0;  ///< Rough footprint, for the byte budget.
  std::vector<std::pair<index::Key128, PageId>> trie_postings;
  std::vector<Buffer> fm_page_texts;  ///< One prepared text per page.
  std::vector<float> vectors;         ///< Row-major.
  std::vector<std::pair<PageId, uint32_t>> vector_locations;
  /// One sorted, deduplicated token set per page (keyword index).
  std::vector<std::vector<std::string>> keyword_page_tokens;
};

/// Stage one data file: download + decode its column chunks and extract
/// the per-page index inputs (keys / prepared texts / vectors). Pure apart
/// from object-store reads, so any thread may run it; all ordering happens
/// at the consumer. The deadline is checked per column chunk (page batch),
/// not per file, so one huge file cannot blow past the time budget.
Status StageFile(objectstore::ObjectStore* store, const DataFile& f,
                 int col_idx, IndexType type, Micros deadline,
                 objectstore::IoTrace* trace, StagedFile* out) {
  if (store->clock().NowMicros() >= deadline) {
    return Status::Aborted("index operation exceeded timeout");
  }
  // If the file was garbage-collected meanwhile, abort and retry later
  // (paper §IV-A step 2).
  auto reader_r = format::FileReader::Open(store, f.path, f.bytes, trace);
  if (!reader_r.ok()) {
    if (reader_r.status().IsNotFound()) {
      return Status::Aborted("data file vanished during indexing: " + f.path);
    }
    return reader_r.status();
  }
  auto& reader = *reader_r.value();
  out->meta = reader.meta();

  PageId page = 0;
  for (size_t g = 0; g < reader.meta().row_groups.size(); ++g) {
    if (store->clock().NowMicros() >= deadline) {
      return Status::Aborted("index operation exceeded timeout");
    }
    const auto& rg = reader.meta().row_groups[g];
    // Read the whole chunk once and split by page boundaries.
    ColumnVector chunk;
    ROTTNEST_RETURN_NOT_OK(reader.ReadColumnChunk(g, col_idx, trace, &chunk));
    size_t value_index = 0;
    for (const format::PageMeta& pm : rg.columns[col_idx].pages) {
      switch (type) {
        case IndexType::kTrie:
          for (uint32_t i = 0; i < pm.num_values; ++i) {
            out->trie_postings.emplace_back(
                index::KeyFromValue(Slice(ValueAt(chunk, value_index + i))),
                page);
          }
          break;
        case IndexType::kFm: {
          std::vector<std::string> values;
          values.reserve(pm.num_values);
          for (uint32_t i = 0; i < pm.num_values; ++i) {
            values.emplace_back(ValueAt(chunk, value_index + i));
          }
          Buffer prepared;
          index::FmIndexBuilder::PreparePageText(values, &prepared);
          out->fm_page_texts.push_back(std::move(prepared));
          break;
        }
        case IndexType::kIvfPq:
          for (uint32_t i = 0; i < pm.num_values; ++i) {
            Slice v = chunk.fixed().at(value_index + i);
            const float* vec = index::VectorFromValue(v);
            out->vectors.insert(out->vectors.end(), vec,
                                vec + v.size() / sizeof(float));
            out->vector_locations.emplace_back(page, i);
          }
          break;
        case IndexType::kKeyword: {
          std::vector<std::string> values;
          values.reserve(pm.num_values);
          for (uint32_t i = 0; i < pm.num_values; ++i) {
            values.emplace_back(ValueAt(chunk, value_index + i));
          }
          std::vector<std::string> tokens;
          index::KeywordIndexBuilder::PreparePageTokens(values, &tokens);
          out->keyword_page_tokens.push_back(std::move(tokens));
          break;
        }
      }
      ++page;
      value_index += pm.num_values;
    }
  }

  uint64_t bytes =
      out->trie_postings.size() * sizeof(std::pair<index::Key128, PageId>) +
      out->vectors.size() * sizeof(float) +
      out->vector_locations.size() * sizeof(std::pair<PageId, uint32_t>);
  for (const Buffer& b : out->fm_page_texts) bytes += b.size();
  for (const std::vector<std::string>& toks : out->keyword_page_tokens) {
    for (const std::string& t : toks) bytes += t.size() + sizeof(std::string);
  }
  out->staged_bytes = std::max<uint64_t>(bytes, 1);
  return Status::OK();
}

}  // namespace

Result<IndexReport> Rottnest::BuildIndexFile(
    const std::string& column, IndexType type,
    const std::vector<DataFile>& files, const MaintenancePlan& plan,
    objectstore::IoTrace* trace, internal::OpObs* op) {
  int col_idx = table_->schema().FindColumn(column);
  if (col_idx < 0) return Status::InvalidArgument("no such column: " + column);
  const ColumnSchema& col_schema = table_->schema().columns[col_idx];

  PageTable pages;
  index::TrieIndexBuilder trie_builder(column);
  index::FmIndexBuilder fm_builder(column, options_.fm);
  index::KeywordIndexBuilder keyword_builder(column);
  std::unique_ptr<index::IvfPqIndexBuilder> ivf_builder;
  uint32_t dim = 0;
  if (type == IndexType::kIvfPq) {
    if (col_schema.type != PhysicalType::kFixedLenByteArray ||
        col_schema.fixed_len % 4 != 0) {
      return Status::InvalidArgument("vector index needs float fixed-len");
    }
    dim = col_schema.fixed_len / 4;
    ivf_builder = std::make_unique<index::IvfPqIndexBuilder>(column, dim,
                                                             options_.ivfpq);
  }

  // Producer/consumer pipeline: up to plan.parallelism threads (the caller
  // plus pool helpers) stage files — download + decompress + extract — while
  // the calling thread folds staged files into the builders STRICTLY in
  // file order, so the builders see exactly the serial feed and the emitted
  // object is byte-identical at any thread count. Files are claimed in
  // order; a byte budget stalls staging ahead of the consumer, except for
  // the head-of-line file, which is always admitted so progress is
  // guaranteed. Each staging records into its own IoTrace; the per-file
  // traces are merged below in waves of plan.parallelism concurrent chains
  // (MergeWaves), so depth honestly tracks the pipeline width.
  const size_t n = files.size();
  std::vector<StagedFile> staged(n);
  std::vector<objectstore::IoTrace> child_traces(n);
  std::vector<Status> statuses(n, Status::OK());
  std::vector<char> done(n, 0);

  struct PipelineState {
    std::mutex mu;
    std::condition_variable cv;
    size_t next_claim = 0;
    size_t next_consume = 0;
    uint64_t staged_bytes = 0;
    bool quit = false;
    size_t active_helpers = 0;
  } pipe;

  auto stage_one = [&](size_t i) {
    StagedFile sf;
    Status s = StageFile(store_, files[i], col_idx, type, plan.deadline,
                         &child_traces[i], &sf);
    std::lock_guard<std::mutex> lock(pipe.mu);
    staged[i] = std::move(sf);
    statuses[i] = std::move(s);
    done[i] = 1;
    pipe.staged_bytes += staged[i].staged_bytes;
    pipe.cv.notify_all();
  };

  auto helper_loop = [&] {
    for (;;) {
      size_t i;
      {
        std::unique_lock<std::mutex> lock(pipe.mu);
        pipe.cv.wait(lock, [&] {
          if (pipe.quit || pipe.next_claim >= n) return true;
          // Budget admission; the head-of-line file is always admitted.
          return plan.byte_budget == 0 ||
                 pipe.staged_bytes < plan.byte_budget ||
                 pipe.next_claim == pipe.next_consume;
        });
        if (pipe.quit || pipe.next_claim >= n) {
          --pipe.active_helpers;
          pipe.cv.notify_all();
          return;
        }
        i = pipe.next_claim++;
      }
      stage_one(i);
    }
  };

  size_t helpers = 0;
  if (n > 1 && plan.parallelism > 1) {
    helpers = std::min({plan.parallelism - 1, n - 1, pool_.num_threads()});
    pipe.active_helpers = helpers;
    for (size_t h = 0; h < helpers; ++h) pool_.Submit(helper_loop);
  }
  // The helpers reference this stack frame: every exit path below must run
  // this join first.
  auto join_helpers = [&] {
    std::unique_lock<std::mutex> lock(pipe.mu);
    pipe.quit = true;
    pipe.cv.notify_all();
    pipe.cv.wait(lock, [&] { return pipe.active_helpers == 0; });
  };

  IndexReport report;
  Status pipeline_status = Status::OK();
  for (size_t i = 0; i < n; ++i) {
    // Stage inline if no helper has claimed file i yet — the consumer
    // never blocks behind an unclaimed head-of-line file (and this is the
    // whole loop when parallelism == 1).
    bool stage_inline = false;
    {
      std::lock_guard<std::mutex> lock(pipe.mu);
      if (pipe.next_claim == i) {
        pipe.next_claim = i + 1;
        stage_inline = true;
      }
    }
    if (stage_inline) stage_one(i);
    {
      std::unique_lock<std::mutex> lock(pipe.mu);
      pipe.cv.wait(lock, [&] { return done[i] != 0; });
    }
    if (!statuses[i].ok()) {
      pipeline_status = statuses[i];
      break;
    }

    // Fold into the builders in file order.
    StagedFile& sf = staged[i];
    PageId first_page = pages.AddFile(files[i].path, sf.meta, col_idx);
    switch (type) {
      case IndexType::kTrie:
        for (const auto& [key, page] : sf.trie_postings) {
          trie_builder.Add(key, first_page + page);
        }
        break;
      case IndexType::kFm:
        for (const Buffer& text : sf.fm_page_texts) {
          fm_builder.AddPreparedPage(Slice(text));
        }
        break;
      case IndexType::kIvfPq:
        for (size_t v = 0; v < sf.vector_locations.size(); ++v) {
          ivf_builder->Add(sf.vectors.data() + v * dim,
                           first_page + sf.vector_locations[v].first,
                           sf.vector_locations[v].second);
        }
        break;
      case IndexType::kKeyword:
        for (size_t p = 0; p < sf.keyword_page_tokens.size(); ++p) {
          for (std::string& term : sf.keyword_page_tokens[p]) {
            keyword_builder.Add(std::move(term),
                                first_page + static_cast<PageId>(p));
          }
        }
        break;
    }
    report.covered_files.push_back(files[i].path);
    report.rows += files[i].rows;

    // Release the byte budget and wake stalled stagers.
    {
      std::lock_guard<std::mutex> lock(pipe.mu);
      pipe.staged_bytes -= sf.staged_bytes;
      pipe.next_consume = i + 1;
      pipe.cv.notify_all();
    }
    staged[i] = StagedFile();  // Free the staged payload eagerly.
  }
  if (helpers > 0) join_helpers();

  // Merge per-file traces in file order — also on failure, so aborted ops
  // still account for the IO they did. Waves of plan.parallelism chains
  // overlap; serial builds pay the chains back to back. The span tree
  // mirrors the same structure: one `stage:<file>` child per staged file,
  // carrying its chain's trace totals as exclusive I/O. (No enclosing
  // phase span around the pipeline — the staging I/O is already claimed by
  // the stage spans, and a phase delta would claim it a second time.)
  internal::MergeWaves(trace, child_traces, plan.parallelism);
  if (op != nullptr && op->tracing()) {
    Micros now = op->NowMicros();
    for (size_t i = 0; i < n; ++i) {
      obs::SpanId sid = op->tracer()->StartSpan("stage:" + files[i].path,
                                                op->root_id(), now);
      op->Attribute(sid, internal::SpanIoFromTrace(child_traces[i]));
      op->tracer()->EndSpan(sid, now);
    }
  }
  ROTTNEST_RETURN_NOT_OK(pipeline_status);

  Buffer image;
  {
    internal::OpPhase phase(op, "build");
    ThreadPool* finish_pool = plan.parallelism > 1 ? &pool_ : nullptr;
    switch (type) {
      case IndexType::kTrie:
        ROTTNEST_RETURN_NOT_OK(
            trie_builder.Finish(pages, finish_pool, &image));
        break;
      case IndexType::kFm:
        ROTTNEST_RETURN_NOT_OK(fm_builder.Finish(pages, finish_pool, &image));
        break;
      case IndexType::kIvfPq:
        ROTTNEST_RETURN_NOT_OK(
            ivf_builder->Finish(pages, finish_pool, &image));
        break;
      case IndexType::kKeyword:
        ROTTNEST_RETURN_NOT_OK(
            keyword_builder.Finish(pages, finish_pool, &image));
        break;
    }
  }
  if (store_->clock().NowMicros() >= plan.deadline) {
    return Status::Aborted("index operation exceeded timeout");
  }

  // Upload, then commit (upload-before-commit preserves Existence).
  report.index_path = NewIndexName();
  {
    internal::OpPhase phase(op, "upload");
    ROTTNEST_RETURN_NOT_OK(store_->Put(report.index_path, Slice(image)));
  }
  return report;
}

Result<IndexReport> Rottnest::Index(const std::string& column, IndexType type,
                                    const MaintenanceOptions& opts) {
  auto wall_start = std::chrono::steady_clock::now();
  Micros start = store_->clock().NowMicros();
  MaintenancePlan plan = ResolveMaintenance(opts, start);
  internal::OpObs op(store_, cache_store_.get(), opts.obs, "index");
  objectstore::IoTrace local;

  // Plan: snapshot files not yet indexed for (column, type). Cost model:
  // one manifest read + one metadata-table read.
  std::vector<DataFile> fresh;
  uint64_t fresh_rows = 0;
  {
    internal::OpPhase phase(&op, "plan");
    local.RecordList();
    local.RecordList();
    ROTTNEST_ASSIGN_OR_RETURN(std::shared_ptr<const MetadataState> state,
                              ResolveMetadata());
    std::set<std::string> indexed;
    for (const IndexEntry& e : state->entries) {
      if (e.column != column || e.index_type != IndexTypeName(type)) continue;
      indexed.insert(e.covered_files.begin(), e.covered_files.end());
    }
    for (const DataFile& f : state->snapshot.files) {
      if (indexed.count(f.path) == 0) {
        fresh.push_back(f);
        fresh_rows += f.rows;
      }
    }
  }
  IndexReport report;
  if (fresh.empty()) {  // Nothing to do.
    FinishMaintenanceStats(&local, opts, plan, wall_start, &op,
                           &report.stats);
    return report;
  }
  if (type == IndexType::kIvfPq &&
      fresh_rows < options_.min_vector_index_rows) {
    return Status::Aborted(
        "below vector index minimum size; leave to brute-force scan");
  }
  if (opts.dry_run) {
    for (const DataFile& f : fresh) report.covered_files.push_back(f.path);
    report.rows = fresh_rows;
    FinishMaintenanceStats(&local, opts, plan, wall_start, &op,
                           &report.stats);
    return report;
  }

  ROTTNEST_ASSIGN_OR_RETURN(
      report, BuildIndexFile(column, type, fresh, plan, &local, &op));

  // Commit.
  {
    internal::OpPhase phase(&op, "commit");
    IndexEntry entry;
    entry.index_path = report.index_path;
    entry.index_type = IndexTypeName(type);
    entry.column = column;
    entry.covered_files = report.covered_files;
    entry.rows = report.rows;
    entry.created_micros = store_->clock().NowMicros();
    auto committed = metadata_.Update({entry}, {});
    if (!committed.ok()) return committed.status();
  }
  FinishMaintenanceStats(&local, opts, plan, wall_start, &op, &report.stats);
  return report;
}

// ---------------------------------------------------------------------------
// search

Result<std::shared_ptr<const MetadataState>> Rottnest::ResolveMetadata(
    lake::Version version) {
  std::shared_ptr<const MetadataState> held;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    held = state_;
  }
  lake::ReplayTask lake_log, registry;
  lake_log.log = &table_->log();
  lake_log.version = version;
  registry.log = &metadata_.log();
  if (held != nullptr) {
    lake_log.since = held->snapshot.version;
    registry.since = held->registry_version;
  }
  lake::TxnLog::ReplayAll({&lake_log, &registry}, &io_);
  if (lake_log.unchanged() && registry.unchanged()) return held;

  MetadataState built;
  ROTTNEST_ASSIGN_OR_RETURN(
      built.snapshot,
      table_->SnapshotFrom(lake_log, held ? &held->snapshot : nullptr));
  ROTTNEST_ASSIGN_OR_RETURN(
      built.entries, lake::MetadataTable::EntriesFrom(
                         registry, held ? &held->entries : nullptr));
  built.registry_version = registry.status.ok() ? registry.replayed : -1;
  auto next = std::make_shared<const MetadataState>(std::move(built));
  if (version >= 0) return next;  // Time travel: never the held state.

  std::lock_guard<std::mutex> lock(state_mu_);
  if (state_ == nullptr ||
      (next->snapshot.version >= state_->snapshot.version &&
       next->registry_version >= state_->registry_version)) {
    state_ = next;
  }
  return next;
}

Result<std::shared_ptr<const MetadataState>> Rottnest::StateFor(
    const SearchOptions& opts) {
  if (opts.metadata != nullptr &&
      (opts.snapshot < 0 ||
       opts.snapshot == opts.metadata->snapshot.version)) {
    return opts.metadata;
  }
  // Plan cost model: one manifest read + one metadata-table read.
  if (opts.trace != nullptr) {
    opts.trace->RecordList();
    opts.trace->RecordList();
  }
  return ResolveMetadata(opts.snapshot);
}

Status Rottnest::MakePlan(const std::string& column, IndexType type,
                          const SearchOptions& opts, Plan* out) {
  ROTTNEST_ASSIGN_OR_RETURN(std::shared_ptr<const MetadataState> state,
                            StateFor(opts));
  out->snapshot = state->snapshot;
  out->column_index = table_->schema().FindColumn(column);
  if (out->column_index < 0) {
    return Status::InvalidArgument("no such column: " + column);
  }

  std::set<std::string> covered;
  for (const IndexEntry& e : state->entries) {
    if (e.column != column || e.index_type != IndexTypeName(type)) continue;
    // An index is relevant iff it covers at least one live snapshot file.
    bool relevant = false;
    for (const std::string& f : e.covered_files) {
      if (out->snapshot.ContainsFile(f)) {
        relevant = true;
        covered.insert(f);
      }
    }
    if (relevant) out->indexes.push_back(e);
  }
  for (const DataFile& f : out->snapshot.files) {
    if (covered.count(f.path) == 0) out->unindexed.push_back(f);
  }
  return Status::OK();
}

namespace {

/// Per-query miss log ("Cracking Vector Search Indexes", PAPERS.md): how
/// many snapshot data files the planner found covered by NO index of the
/// queried kind. Recorded on every search so a future query-adaptive
/// Index/Compact can prioritize hot uncovered partitions. `result` may be
/// null (counting queries have no SearchResult surface).
void RecordUncovered(const SearchOptions& opts, size_t uncovered,
                     SearchResult* result) {
  if (result != nullptr) result->stats.uncovered_files = uncovered;
  if (uncovered > 0 && opts.obs != nullptr && opts.obs->metrics != nullptr) {
    opts.obs->metrics->GetCounter("op.search.uncovered_files")
        ->Add(uncovered);
  }
}

/// Finds one index's candidate pages for a search: `hits` receives pages
/// that may hold a match, a superset the probe verifies.
using PageLocate = std::function<Status(
    ComponentFileReader* reader, objectstore::IoTrace* trace,
    std::vector<PageId>* hits)>;

}  // namespace

/// One search's shared per-query state. The end-to-end deadline (0 = none;
/// a submit-time absolute deadline wins, see ResolveSearchDeadline) is
/// installed as the ambient one; admission/overload policy lives in the
/// serving layer, so a direct call runs unadmitted. The op's
/// instrumentation is named after the query kind. Prepare() then plans the
/// search; the range filter, DV cache, degradation ledger and result serve
/// every phase after it. Count, which has no deadline and no SearchResult,
/// keeps its own setup.
struct Rottnest::ExecContext {
  ExecContext(Rottnest* db, const char* op_name, const SearchOptions& opts)
      : db(db),
        opts(opts),
        trace(opts.trace),
        deadline(ResolveSearchDeadline(opts, &db->store_->clock())),
        ambient(deadline),
        op(db->store_, db->cache_store_.get(), opts.obs, op_name),
        rf(db->read_store(), plan.snapshot, db->table_->schema(), opts.range),
        dvs(plan.snapshot) {}

  /// Plans the search over `column`'s indexes of `type` and records the
  /// files none of them covers.
  Status Prepare(const std::string& column, IndexType type) {
    {
      internal::OpPhase phase(&op, "plan");
      ROTTNEST_RETURN_NOT_OK(db->MakePlan(column, type, opts, &plan));
    }
    ROTTNEST_RETURN_NOT_OK(rf.Validate());
    RecordUncovered(opts, plan.unindexed.size(), &result);
    return Status::OK();
  }

  const ColumnSchema& column() const {
    return db->table_->schema().columns[plan.column_index];
  }

  /// The index fan-out (paper §IV-B step 1): opens every planned index and
  /// runs `query` on it concurrently, each into its own slot, then returns
  /// the successful slots concatenated in plan order. A failing index
  /// degrades to scanning its covered files (degraded.FilesToScan) rather
  /// than failing the whole query, and goes to HandleSearchFailures.
  template <typename T>
  std::vector<T> QueryIndexes(
      const std::function<Status(ComponentFileReader*, objectstore::IoTrace*,
                                 std::vector<T>*)>& query) {
    const std::vector<IndexEntry>& indexes = plan.indexes;
    std::vector<std::vector<T>> per_index(indexes.size());
    std::vector<Status> statuses = FanOut(
        &db->pool_, indexes.size(), opts.parallelism, deadline, "index query",
        trace, &op, [&](size_t i) { return "index:" + indexes[i].index_path; },
        [&](size_t i, objectstore::IoTrace* t) -> Status {
          ROTTNEST_ASSIGN_OR_RETURN(
              std::unique_ptr<ComponentFileReader> reader,
              ComponentFileReader::Open(db->read_store(),
                                        indexes[i].index_path, t));
          return query(reader.get(), t, &per_index[i]);
        });
    std::vector<T> found;
    size_t indexes_cut = 0;
    for (size_t i = 0; i < indexes.size(); ++i) {
      if (statuses[i].ok()) {
        degraded.RecordSuccess(indexes[i]);
        found.insert(found.end(), per_index[i].begin(), per_index[i].end());
      } else if (IsCutShort(statuses[i])) {
        // Deadline/breaker cuts degrade to a partial result, NOT to the
        // brute-scan fallback a corrupt index gets.
        MarkCutShort(&result, indexes[i].index_path, statuses[i]);
        ++indexes_cut;
      } else {
        degraded.RecordFailure(indexes[i], statuses[i], &result);
      }
    }
    result.indexes_queried =
        indexes.size() - result.indexes_degraded - indexes_cut;
    result.indexes_quarantined =
        db->HandleSearchFailures(opts, degraded.failures());
    return found;
  }

  /// Runs one serial phase (probe or scan) under its span, once the
  /// deadline allows it to start. A deadline or breaker cut marks the
  /// result partial and keeps what the phase found; any other failure
  /// fails the search.
  Status Phase(const char* name, const std::function<Status()>& body) {
    internal::OpPhase phase(&op, name);
    Status s = deadline.Check(name);
    if (s.ok()) s = body();
    if (!IsCutShort(s)) return s;
    MarkCutShort(&result, name, s);
    return Status::OK();
  }

  /// The brute-scan fallback over the planned column with `pred`.
  FileScan Scan(RowPredicate pred) {
    return FileScan{db->read_store(), &db->pool_,      &db->io_,
                    plan.column_index, &rf,           &dvs,
                    deadline,          opts.parallelism, std::move(pred)};
  }

  /// The candidate→verify page pipeline (paper §IV-B steps 1–3) of the
  /// kinds that verify rows one by one. `locate` finds candidate pages in
  /// each index (it is not called when the plan has none); the probe reads
  /// them in place and keeps the live rows passing `match` and the range.
  /// Files whose only index failed are then scanned in full, since a
  /// fault-free query would have consulted their index regardless of k;
  /// unindexed files are scanned one at a time while fewer than k rows
  /// matched. The answer is cut to k.
  Result<SearchResult> Pages(size_t k, const PageLocate& locate,
                             const RowPredicate& match) {
    std::vector<PageFetch> fetches = QueryIndexes<PageFetch>(
        [&](ComponentFileReader* reader, objectstore::IoTrace* t,
            std::vector<PageFetch>* out) -> Status {
          std::vector<PageId> hits;
          ROTTNEST_RETURN_NOT_OK(locate(reader, t, &hits));
          if (hits.empty()) return Status::OK();
          PageTable pages;
          ROTTNEST_RETURN_NOT_OK(
              index::LoadPageTable(reader, &db->io_, t, &pages));
          for (PageId p : hits) {
            // Filter postings pointing outside the snapshot (paper §IV-B
            // step 2).
            if (!plan.snapshot.ContainsFile(pages.file_of(p))) continue;
            out->push_back(pages.MakeFetch(p));
          }
          return Status::OK();
        });
    MatchSet found(&result.matches);
    ROTTNEST_RETURN_NOT_OK(Phase("probe", [&]() -> Status {
      std::vector<ColumnVector> probed;
      ROTTNEST_RETURN_NOT_OK(ProbePages(db->read_store(), &db->io_, fetches,
                                        column(), &dvs, trace, &probed));
      result.pages_probed = fetches.size();
      float unused = 0;
      for (size_t i = 0; i < fetches.size(); ++i) {
        for (size_t r = 0; r < probed[i].size(); ++r) {
          std::string_view v = ValueAt(probed[i], r);
          if (!match(v, &unused)) continue;
          uint64_t row = fetches[i].page.first_row + r;
          ROTTNEST_ASSIGN_OR_RETURN(bool deleted,
                                    dvs.IsDeleted(fetches[i].key, row));
          if (!deleted) found.Add({fetches[i].key, row, std::string(v), 0});
        }
      }
      return rf.FilterMatches(&result.matches, trace);
    }));
    FileScan fs = Scan(match);
    ROTTNEST_RETURN_NOT_OK(Phase("scan", [&]() -> Status {
      ROTTNEST_RETURN_NOT_OK(fs.All(degraded.FilesToScan(plan.snapshot),
                                    trace, &found, &result.files_scanned));
      return fs.UntilK(plan.unindexed, k, trace, &found,
                       &result.files_scanned);
    }));
    if (result.matches.size() > k) result.matches.resize(k);
    return Finish();
  }

  /// Substring search's page pipeline, also a regex's literal prefilter.
  /// Occurrences cluster within pages, so the locate asks for 4k+16 of
  /// them. A pattern the FM indexes cannot hold is answered by scanning.
  Result<SearchResult> FmPages(const std::string& pattern, size_t k) {
    if (index::HasReservedBytes(Slice(pattern))) plan.ScanEverything();
    return Pages(
        k,
        [&](ComponentFileReader* reader, objectstore::IoTrace* t,
            std::vector<PageId>* hits) {
          return index::FmLocatePages(reader, &db->io_, t, Slice(pattern),
                                      4 * k + 16, hits);
        },
        [&](std::string_view v, float*) {
          return v.find(pattern) != std::string_view::npos;
        });
  }

  /// Fills the result's stats and hands the result out.
  SearchResult Finish() {
    FinishSearchStats(opts, op, wall_start,
                      ResolvedFanOut(plan.indexes.size(), opts.parallelism),
                      &result);
    return std::move(result);
  }

  Rottnest* const db;
  const SearchOptions& opts;
  objectstore::IoTrace* const trace;
  const std::chrono::steady_clock::time_point wall_start =
      std::chrono::steady_clock::now();
  const Deadline deadline;
  ScopedOpDeadline ambient;
  internal::OpObs op;
  Plan plan;
  RangeFilter rf;
  DvCache dvs;
  DegradedIndexes degraded;
  SearchResult result;
};

Result<SearchResult> Rottnest::ExecUuid(const std::string& column,
                                        Slice value, size_t k,
                                        const SearchOptions& opts) {
  ExecContext ctx(this, "search_uuid", opts);
  ROTTNEST_RETURN_NOT_OK(ctx.Prepare(column, IndexType::kTrie));
  const index::Key128 key = index::KeyFromValue(value);
  return ctx.Pages(
      k,
      [&](ComponentFileReader* reader, objectstore::IoTrace* t,
          std::vector<PageId>* hits) {
        return index::TrieQuery(reader, &io_, t, key, hits);
      },
      [&](std::string_view v, float*) { return Slice(v) == value; });
}

Result<SearchResult> Rottnest::ExecSubstring(const std::string& column,
                                             const std::string& pattern,
                                             size_t k,
                                             const SearchOptions& opts) {
  ExecContext ctx(this, "search_substring", opts);
  ROTTNEST_RETURN_NOT_OK(ctx.Prepare(column, IndexType::kFm));
  return ctx.FmPages(pattern, k);
}

Result<SearchResult> Rottnest::ExecVector(const std::string& column,
                                          const float* query, uint32_t dim,
                                          size_t k,
                                          const SearchOptions& opts) {
  ExecContext ctx(this, "search_vector", opts);
  // Per-query knobs default from the client's IvfPqOptions (v2 API).
  const uint32_t nprobe = opts.params.vector.nprobe != 0
                              ? opts.params.vector.nprobe
                              : options_.ivfpq.default_nprobe;
  const uint32_t refine = opts.params.vector.refine != 0
                              ? opts.params.vector.refine
                              : options_.ivfpq.default_refine;
  ROTTNEST_RETURN_NOT_OK(ctx.Prepare(column, IndexType::kIvfPq));
  if (ctx.column().fixed_len != dim * 4) {
    return Status::InvalidArgument("query dim does not match column");
  }

  // Gather approximate candidates across all index files, aggregated in
  // plan order so the global refine cut is deterministic.
  struct Cand {
    std::string file;
    PageId page_in_table;
    PageFetch fetch;
    uint32_t row_in_page;
    float approx;
  };
  std::vector<Cand> candidates = ctx.QueryIndexes<Cand>(
      [&](ComponentFileReader* reader, objectstore::IoTrace* t,
          std::vector<Cand>* out) -> Status {
        std::vector<index::VectorCandidate> hits;
        ROTTNEST_RETURN_NOT_OK(index::IvfPqSearch(reader, &io_, t, query, dim,
                                                  nprobe, refine, &hits));
        if (hits.empty()) return Status::OK();
        PageTable pages;
        ROTTNEST_RETURN_NOT_OK(index::LoadPageTable(reader, &io_, t, &pages));
        for (const auto& h : hits) {
          if (!ctx.plan.snapshot.ContainsFile(pages.file_of(h.page))) continue;
          out->push_back({pages.file_of(h.page), h.page,
                          pages.MakeFetch(h.page), h.row_in_page,
                          h.approx_dist});
        }
        return Status::OK();
      });

  // Keep the globally best `refine` candidates for exact reranking.
  std::sort(candidates.begin(), candidates.end(),
            [](const Cand& a, const Cand& b) { return a.approx < b.approx; });
  if (candidates.size() > refine) candidates.resize(refine);

  std::vector<RowMatch> matches;
  MatchSet found(&matches);
  ROTTNEST_RETURN_NOT_OK(ctx.Phase("probe", [&]() -> Status {
    // Fetch candidate pages (deduplicated) in one round.
    std::map<std::pair<std::string, uint64_t>, size_t> fetch_index;
    std::vector<PageFetch> fetches;
    for (const Cand& c : candidates) {
      auto key = std::make_pair(c.fetch.key, c.fetch.page.offset);
      if (fetch_index.emplace(key, fetches.size()).second) {
        fetches.push_back(c.fetch);
      }
    }
    std::vector<ColumnVector> probed;
    ROTTNEST_RETURN_NOT_OK(ProbePages(read_store(), &io_, fetches,
                                      ctx.column(), &ctx.dvs, ctx.trace,
                                      &probed));
    ctx.result.pages_probed = fetches.size();

    for (const Cand& c : candidates) {
      size_t fi = fetch_index.at({c.fetch.key, c.fetch.page.offset});
      if (c.row_in_page >= probed[fi].size()) continue;
      Slice raw = probed[fi].fixed().at(c.row_in_page);
      float dist = index::SquaredL2(query, index::VectorFromValue(raw), dim);
      uint64_t row = c.fetch.page.first_row + c.row_in_page;
      ROTTNEST_ASSIGN_OR_RETURN(bool deleted, ctx.dvs.IsDeleted(c.file, row));
      if (!deleted) found.Add({c.file, row, raw.ToString(), dist});
    }
    return ctx.rf.FilterMatches(&matches, ctx.trace);
  }));

  // Scoring queries must rank ALL data: unindexed files are always scanned
  // exhaustively (paper §IV-B step 3), and so are files whose only index
  // coverage degraded — all of them at once.
  FileScan fs = ctx.Scan([&](std::string_view v, float* dist) {
    *dist = index::SquaredL2(query, reinterpret_cast<const float*>(v.data()),
                             dim);
    return true;
  });
  ROTTNEST_RETURN_NOT_OK(ctx.Phase("scan", [&]() -> Status {
    std::vector<const DataFile*> to_scan;
    for (const DataFile& f : ctx.plan.unindexed) to_scan.push_back(&f);
    for (const DataFile* f : ctx.degraded.FilesToScan(ctx.plan.snapshot)) {
      to_scan.push_back(f);
    }
    return fs.All(to_scan, ctx.trace, &found, &ctx.result.files_scanned);
  }));

  std::sort(matches.begin(), matches.end(),
            [](const RowMatch& a, const RowMatch& b) {
              return a.distance < b.distance;
            });
  if (matches.size() > k) matches.resize(k);
  ctx.result.matches = std::move(matches);
  return ctx.Finish();
}

Result<SearchResult> Rottnest::ExecRegex(const std::string& column,
                                         const std::string& pattern,
                                         size_t k,
                                         const SearchOptions& opts) {
  std::regex re;
  // <regex> throws on bad patterns; confine it here and convert to Status
  // (library code is otherwise exception-free).
  try {
    CompileRegex(pattern, &re);
  } catch (const std::regex_error& e) {
    return Status::InvalidArgument(std::string("bad regex: ") + e.what());
  }

  ExecContext ctx(this, "search_regex", opts);
  ROTTNEST_RETURN_NOT_OK(ctx.Prepare(column, IndexType::kFm));
  const std::string literal = LongestRegexLiteral(pattern);
  if (literal.size() < 3) {
    // No usable literal: the exact scan of every file in the snapshot.
    ctx.plan.ScanEverything();
    return ctx.Pages(k, nullptr, [&](std::string_view v, float*) {
      return std::regex_search(v.begin(), v.end(), re);
    });
  }
  // Locate the guaranteed literal through the FM-index, widened past k
  // since not every row holding it matches, then verify the full regex in
  // situ on every candidate (the literal-prefilter strategy of production
  // log search).
  ROTTNEST_ASSIGN_OR_RETURN(SearchResult result,
                            ctx.FmPages(literal, std::max(k * 8, k + 32)));
  std::vector<RowMatch> candidates = std::move(result.matches);
  result.matches.clear();
  for (RowMatch& m : candidates) {
    if (result.matches.size() >= k) break;
    if (std::regex_search(m.value, re)) result.matches.push_back(std::move(m));
  }
  return result;
}

Result<SearchResult> Rottnest::ExecKeyword(const std::string& column,
                                           const std::vector<std::string>& terms,
                                           size_t k,
                                           const SearchOptions& opts) {
  // Normalize the query through the SAME tokenizer the build used. Each
  // term must normalize to exactly one token — "foo bar" as one term is a
  // malformed query, not an AND of two.
  const bool require_all = opts.params.keyword.mode == KeywordMode::kAnd;
  if (terms.empty()) {
    return Status::InvalidArgument("keyword query needs at least one term");
  }
  std::vector<std::string> norm;
  norm.reserve(terms.size());
  for (const std::string& t : terms) {
    std::string one;
    if (!index::NormalizeTerm(Slice(t), &one)) {
      return Status::InvalidArgument(
          "keyword term must normalize to exactly one token: '" + t + "'");
    }
    norm.push_back(std::move(one));
  }
  std::sort(norm.begin(), norm.end());
  norm.erase(std::unique(norm.begin(), norm.end()), norm.end());
  if (norm.size() > opts.params.keyword.max_terms) {
    return Status::InvalidArgument("keyword query exceeds max_terms");
  }

  ExecContext ctx(this, "search_keyword", opts);
  ROTTNEST_RETURN_NOT_OK(ctx.Prepare(column, IndexType::kKeyword));
  // The in-situ verification predicate: a row matches when its tokens
  // contain every (AND) / any (OR) query term. Page hits are a superset
  // signal — a page holds many rows — so verification is what makes the
  // matches exact.
  const index::KeywordRowMatcher row_matcher(norm, require_all);
  return ctx.Pages(
      k,
      [&](ComponentFileReader* reader, objectstore::IoTrace* t,
          std::vector<PageId>* hits) {
        return index::KeywordQueryMany(reader, &io_, t, norm, require_all,
                                       hits);
      },
      [&](std::string_view v, float*) { return row_matcher.Matches(v); });
}

Result<uint64_t> Rottnest::ExecCount(const std::string& column,
                                     const std::string& pattern,
                                     const SearchOptions& opts) {
  if (opts.range.has_value()) {
    return Status::NotSupported(
        "CountSubstring does not support ScanRange; use SearchSubstring");
  }
  internal::OpObs op(store_, cache_store_.get(), opts.obs,
                     "count_substring");
  Plan plan;
  {
    internal::OpPhase phase(&op, "plan");
    ROTTNEST_RETURN_NOT_OK(MakePlan(column, IndexType::kFm, opts, &plan));
  }

  RecordUncovered(opts, plan.unindexed.size(), nullptr);
  if (index::HasReservedBytes(Slice(pattern))) plan.ScanEverything();

  // An index count is exact only when everything it covers is live and
  // deletion-free; otherwise those files are counted by scanning.
  std::set<std::string> scan_files;
  for (const DataFile& f : plan.unindexed) scan_files.insert(f.path);

  // Partition first (pure plan state, no IO): an index can answer exactly
  // only when everything it covers is live and deletion-free.
  std::vector<const IndexEntry*> exact_entries;
  for (const IndexEntry& entry : plan.indexes) {
    bool exact = true;
    for (const std::string& f : entry.covered_files) {
      const DataFile* df = plan.snapshot.FindFile(f);
      if (df == nullptr || !df->dv_path.empty()) {
        exact = false;
        break;
      }
    }
    if (!exact) {
      for (const std::string& f : entry.covered_files) {
        if (plan.snapshot.ContainsFile(f)) scan_files.insert(f);
      }
      continue;
    }
    exact_entries.push_back(&entry);
  }

  // Fan out the FM-index backward-search counts across the exact indexes.
  // No deadline: a count has no partial-result surface — it is exact or it
  // is an error — so the tail-tolerance contract does not apply here and
  // time_budget_micros is deliberately not plumbed through.
  std::vector<uint64_t> counts(exact_entries.size(), 0);
  std::vector<Status> statuses = FanOut(
      &pool_, exact_entries.size(), opts.parallelism, Deadline(),
      "index query", opts.trace, &op,
      [&](size_t i) { return "index:" + exact_entries[i]->index_path; },
      [&](size_t i, objectstore::IoTrace* t) -> Status {
        ROTTNEST_ASSIGN_OR_RETURN(
            std::unique_ptr<ComponentFileReader> reader,
            ComponentFileReader::Open(read_store(),
                                      exact_entries[i]->index_path, t));
        return index::FmCount(reader.get(), &io_, t, Slice(pattern),
                              &counts[i]);
      });

  uint64_t total = 0;
  std::set<std::string> exact_counted;   // Files counted via an index.
  std::set<std::string> degraded_files;  // Covered by failed indexes only.
  std::vector<std::pair<const IndexEntry*, Status>> failed;
  for (size_t i = 0; i < exact_entries.size(); ++i) {
    const IndexEntry& entry = *exact_entries[i];
    if (!statuses[i].ok()) {
      // Degrade an unreadable index to scanning its covered files.
      for (const std::string& f : entry.covered_files) {
        if (plan.snapshot.ContainsFile(f)) degraded_files.insert(f);
      }
      failed.emplace_back(&entry, statuses[i]);
      continue;
    }
    total += counts[i];
    exact_counted.insert(entry.covered_files.begin(),
                         entry.covered_files.end());
  }
  HandleSearchFailures(opts, failed);
  // Files already counted through a healthy index must not be re-counted by
  // the degraded-scan path.
  for (const std::string& f : degraded_files) {
    if (exact_counted.count(f) == 0) scan_files.insert(f);
  }

  // Scan path: exact occurrence counting with deletion vectors applied,
  // every file at once (each file's DV loads with its footer open).
  internal::OpPhase scan_phase(&op, "scan");
  std::vector<const DataFile*> files;
  for (const std::string& f : scan_files) {
    const DataFile* df = plan.snapshot.FindFile(f);
    if (df != nullptr) files.push_back(df);
  }
  DvCache dvs(plan.snapshot);
  RangeFilter all_rows(read_store(), plan.snapshot, table_->schema(),
                       std::nullopt);
  std::vector<uint64_t> file_counts(files.size(), 0);
  statuses = FanOut(
      &pool_, files.size(), opts.parallelism, Deadline(), "scan", opts.trace,
      nullptr, nullptr, [&](size_t i, objectstore::IoTrace* t) -> Status {
        bool scanned = false;
        return ScanFileRows(
            read_store(), &io_, *files[i], plan.column_index, &all_rows,
            &dvs, Deadline(), t, &scanned,
            [&](uint64_t, std::string_view v) -> Status {
              for (size_t pos = v.find(pattern); pos != std::string_view::npos;
                   pos = v.find(pattern, pos + 1)) {
                ++file_counts[i];
              }
              return Status::OK();
            });
      });
  for (size_t i = 0; i < files.size(); ++i) {
    ROTTNEST_RETURN_NOT_OK(statuses[i]);
    total += file_counts[i];
  }
  return total;
}

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kUuid:
      return "uuid";
    case QueryKind::kSubstring:
      return "substring";
    case QueryKind::kRegex:
      return "regex";
    case QueryKind::kVector:
      return "vector";
    case QueryKind::kKeyword:
      return "keyword";
    case QueryKind::kCount:
      return "count";
  }
  return "unknown";
}

Result<QueryResponse> Rottnest::Execute(const Query& q) {
  QueryResponse resp;
  resp.kind = q.kind;
  switch (q.kind) {
    case QueryKind::kUuid: {
      ROTTNEST_ASSIGN_OR_RETURN(
          resp.result, ExecUuid(q.column, Slice(q.needle), q.k, q.options));
      return resp;
    }
    case QueryKind::kSubstring: {
      ROTTNEST_ASSIGN_OR_RETURN(
          resp.result, ExecSubstring(q.column, q.needle, q.k, q.options));
      return resp;
    }
    case QueryKind::kRegex: {
      ROTTNEST_ASSIGN_OR_RETURN(
          resp.result, ExecRegex(q.column, q.needle, q.k, q.options));
      return resp;
    }
    case QueryKind::kVector: {
      if (q.vector.empty()) {
        return Status::InvalidArgument(
            "vector query requires a non-empty query vector");
      }
      ROTTNEST_ASSIGN_OR_RETURN(
          resp.result,
          ExecVector(q.column, q.vector.data(),
                     static_cast<uint32_t>(q.vector.size()), q.k, q.options));
      return resp;
    }
    case QueryKind::kKeyword: {
      if (q.terms.empty()) {
        return Status::InvalidArgument(
            "keyword query requires at least one term");
      }
      ROTTNEST_ASSIGN_OR_RETURN(
          resp.result, ExecKeyword(q.column, q.terms, q.k, q.options));
      return resp;
    }
    case QueryKind::kCount: {
      ROTTNEST_ASSIGN_OR_RETURN(resp.count,
                                ExecCount(q.column, q.needle, q.options));
      return resp;
    }
  }
  return Status::InvalidArgument("unknown query kind");
}

// The classic per-kind methods: thin Query-building wrappers over Execute,
// so both spellings of the API share one code path (and one contract).

Result<SearchResult> Rottnest::SearchUuid(const std::string& column,
                                          Slice value, size_t k,
                                          const SearchOptions& opts) {
  ROTTNEST_ASSIGN_OR_RETURN(
      QueryResponse resp, Execute(Query::Uuid(column, value.ToString(), k, opts)));
  return std::move(resp.result);
}

Result<SearchResult> Rottnest::SearchSubstring(const std::string& column,
                                               const std::string& pattern,
                                               size_t k,
                                               const SearchOptions& opts) {
  ROTTNEST_ASSIGN_OR_RETURN(QueryResponse resp,
                            Execute(Query::Substring(column, pattern, k, opts)));
  return std::move(resp.result);
}

Result<SearchResult> Rottnest::SearchVector(const std::string& column,
                                            const float* query, uint32_t dim,
                                            size_t k,
                                            const SearchOptions& opts) {
  ROTTNEST_ASSIGN_OR_RETURN(
      QueryResponse resp,
      Execute(Query::Vector(column, std::vector<float>(query, query + dim), k,
                            opts)));
  return std::move(resp.result);
}

Result<SearchResult> Rottnest::SearchKeyword(const std::string& column,
                                             const std::vector<std::string>& terms,
                                             size_t k,
                                             const SearchOptions& opts) {
  ROTTNEST_ASSIGN_OR_RETURN(
      QueryResponse resp,
      Execute(Query::MakeKeyword(column, terms, opts.params.keyword.mode, k,
                                 opts)));
  return std::move(resp.result);
}

Result<SearchResult> Rottnest::SearchRegex(const std::string& column,
                                           const std::string& pattern,
                                           size_t k,
                                           const SearchOptions& opts) {
  ROTTNEST_ASSIGN_OR_RETURN(QueryResponse resp,
                            Execute(Query::Regex(column, pattern, k, opts)));
  return std::move(resp.result);
}

Result<uint64_t> Rottnest::CountSubstring(const std::string& column,
                                          const std::string& pattern,
                                          const SearchOptions& opts) {
  ROTTNEST_ASSIGN_OR_RETURN(QueryResponse resp,
                            Execute(Query::Count(column, pattern, opts)));
  return resp.count;
}

Result<std::vector<IndexDescription>> Rottnest::DescribeIndexes(
    const SearchOptions& opts) {
  // Same plan-state cost model as a search (StateFor).
  internal::OpObs op(store_, cache_store_.get(), opts.obs,
                     "describe_indexes");
  ROTTNEST_ASSIGN_OR_RETURN(std::shared_ptr<const MetadataState> state,
                            StateFor(opts));
  std::vector<IndexDescription> result;
  result.reserve(state->entries.size());
  for (const IndexEntry& e : state->entries) {
    IndexDescription d;
    objectstore::ObjectMeta meta;
    ROTTNEST_RETURN_NOT_OK(read_store()->Head(e.index_path, &meta));
    d.bytes = meta.size;
    for (const std::string& f : e.covered_files) {
      if (state->snapshot.ContainsFile(f)) {
        d.covers_live_files = true;
        break;
      }
    }
    d.entry = e;
    result.push_back(std::move(d));
  }
  return result;
}

// ---------------------------------------------------------------------------
// compact

Result<CompactReport> Rottnest::Compact(const std::string& column,
                                        IndexType type,
                                        const MaintenanceOptions& opts) {
  auto wall_start = std::chrono::steady_clock::now();
  Micros start = store_->clock().NowMicros();
  MaintenancePlan plan = ResolveMaintenance(opts, start);
  internal::OpObs op(store_, cache_store_.get(), opts.obs, "compact");
  objectstore::IoTrace local;

  // Plan: bin-pack all small index files of (column, type) into one merge.
  std::vector<IndexEntry> small;
  {
    internal::OpPhase phase(&op, "plan");
    local.RecordList();
    ROTTNEST_ASSIGN_OR_RETURN(std::vector<IndexEntry> entries,
                              metadata_.ReadAll(&io_));
    for (const IndexEntry& e : entries) {
      if (e.column != column || e.index_type != IndexTypeName(type)) continue;
      objectstore::ObjectMeta meta;
      ROTTNEST_RETURN_NOT_OK(store_->Head(e.index_path, &meta));
      if (meta.size < opts.small_index_bytes) small.push_back(e);
    }
  }
  CompactReport report;
  if (small.size() < 2) {
    FinishMaintenanceStats(&local, opts, plan, wall_start, &op,
                           &report.stats);
    return report;
  }

  // Deterministic merge order. ReadAll orders entries by index path, and
  // index object names are randomized — so two processes compacting
  // identical logical state would otherwise merge in different orders and
  // emit different (equally valid) bytes. Sort by commit time, then first
  // covered file, then path, so the output depends only on logical state.
  std::sort(small.begin(), small.end(),
            [](const IndexEntry& a, const IndexEntry& b) {
              if (a.created_micros != b.created_micros) {
                return a.created_micros < b.created_micros;
              }
              const std::string& fa =
                  a.covered_files.empty() ? a.index_path : a.covered_files[0];
              const std::string& fb =
                  b.covered_files.empty() ? b.index_path : b.covered_files[0];
              if (fa != fb) return fa < fb;
              return a.index_path < b.index_path;
            });

  if (opts.dry_run) {
    for (const IndexEntry& e : small) report.replaced.push_back(e.index_path);
    FinishMaintenanceStats(&local, opts, plan, wall_start, &op,
                           &report.stats);
    return report;
  }

  // Open every input and prefetch its components concurrently (one IoTrace
  // per input, merged as parallel chains). Prefetching stops once the
  // cumulative input size exceeds the byte budget; unprefetched inputs are
  // instead streamed leaf-by-leaf during the merge.
  const size_t k = small.size();
  std::vector<std::unique_ptr<ComponentFileReader>> readers(k);
  std::vector<objectstore::IoTrace> child_traces(k);
  std::vector<Status> open_statuses(k, Status::OK());
  std::vector<char> prefetch(k, 0);
  {
    uint64_t cumulative = 0;
    for (size_t i = 0; i < k; ++i) {
      objectstore::ObjectMeta meta;
      if (store_->Head(small[i].index_path, &meta).ok()) {
        cumulative += meta.size;
      }
      prefetch[i] =
          (plan.byte_budget == 0 || cumulative <= plan.byte_budget) ? 1 : 0;
    }
  }
  pool_.ParallelFor(k, plan.parallelism, [&](size_t i) {
    auto r = ComponentFileReader::Open(store_, small[i].index_path,
                                       &child_traces[i]);
    if (!r.ok()) {
      open_statuses[i] = r.status();
      return;
    }
    readers[i] = std::move(r).value();
    if (prefetch[i]) {
      std::vector<Slice> ignored;
      open_statuses[i] = readers[i]->ReadComponents(
          readers[i]->ComponentNames(), nullptr, &child_traces[i], &ignored);
    }
  });
  internal::MergeWaves(&local, child_traces, plan.parallelism);
  if (op.tracing()) {  // One `input:<path>` span per prefetched merge input.
    Micros now = op.NowMicros();
    for (size_t i = 0; i < k; ++i) {
      obs::SpanId sid = op.tracer()->StartSpan(
          "input:" + small[i].index_path, op.root_id(), now);
      op.Attribute(sid, internal::SpanIoFromTrace(child_traces[i]));
      op.tracer()->EndSpan(sid, now);
    }
  }
  for (size_t i = 0; i < k; ++i) {
    if (!open_statuses[i].ok()) return open_statuses[i];
  }
  std::vector<ComponentFileReader*> raw_readers;
  raw_readers.reserve(k);
  for (const auto& r : readers) raw_readers.push_back(r.get());

  // Merge (streaming; prefetched components are cache hits, so a fully
  // prefetched merge performs no further rounds).
  ThreadPool* merge_pool = plan.parallelism > 1 ? &pool_ : nullptr;
  Buffer merged;
  {
    internal::OpPhase phase(&op, "merge");
    switch (type) {
      case IndexType::kTrie:
        ROTTNEST_RETURN_NOT_OK(index::TrieMerge(raw_readers, merge_pool,
                                                &local, column, &merged));
        break;
      case IndexType::kFm:
        ROTTNEST_RETURN_NOT_OK(index::FmMerge(raw_readers, merge_pool,
                                              &local, column, options_.fm,
                                              &merged));
        break;
      case IndexType::kIvfPq:
        ROTTNEST_RETURN_NOT_OK(index::IvfPqMerge(raw_readers, merge_pool,
                                                 &local, column, &merged));
        break;
      case IndexType::kKeyword:
        ROTTNEST_RETURN_NOT_OK(index::KeywordMerge(raw_readers, merge_pool,
                                                   &local, column, &merged));
        break;
    }
  }
  if (store_->clock().NowMicros() >= plan.deadline) {
    return Status::Aborted("compact operation exceeded timeout");
  }

  internal::OpPhase commit_phase(&op, "commit");
  // Upload, then commit the swap transactionally.
  report.merged_path = NewIndexName();
  ROTTNEST_RETURN_NOT_OK(store_->Put(report.merged_path, Slice(merged)));

  IndexEntry merged_entry;
  merged_entry.index_path = report.merged_path;
  merged_entry.index_type = IndexTypeName(type);
  merged_entry.column = column;
  uint64_t rows = 0;
  for (const IndexEntry& e : small) {
    merged_entry.covered_files.insert(merged_entry.covered_files.end(),
                                      e.covered_files.begin(),
                                      e.covered_files.end());
    rows += e.rows;
    report.replaced.push_back(e.index_path);
  }
  merged_entry.rows = rows;
  merged_entry.created_micros = store_->clock().NowMicros();
  auto committed = metadata_.Update({merged_entry}, report.replaced);
  if (!committed.ok()) return committed.status();
  commit_phase.End();
  FinishMaintenanceStats(&local, opts, plan, wall_start, &op, &report.stats);
  return report;
}

// ---------------------------------------------------------------------------
// vacuum

Result<VacuumReport> Rottnest::Vacuum(lake::Version min_snapshot,
                                      const MaintenanceOptions& opts) {
  auto wall_start = std::chrono::steady_clock::now();
  Micros start = store_->clock().NowMicros();
  MaintenancePlan plan = ResolveMaintenance(opts, start);
  internal::OpObs op(store_, cache_store_.get(), opts.obs, "vacuum");
  objectstore::IoTrace local;
  VacuumReport report;

  std::vector<std::string> remove;
  std::set<std::string> keep;
  {
    internal::OpPhase phase(&op, "plan");
    // Plan: data files live in any snapshot >= min_snapshot.
    local.RecordList();
    ROTTNEST_ASSIGN_OR_RETURN(Snapshot latest,
                              table_->GetSnapshot(-1, &io_));
    std::set<std::string> active;
    for (lake::Version v = std::max<lake::Version>(min_snapshot, 0);
         v <= latest.version; ++v) {
      local.RecordList();
      auto snap = table_->GetSnapshot(v, &io_);
      if (!snap.ok()) return snap.status();
      for (const DataFile& f : snap.value().files) active.insert(f.path);
    }

    // Greedy cover: repeatedly keep the index file covering the most
    // not-yet covered active data files; stop when coverage cannot grow.
    // Coverage is tracked per (column, index_type): an fm index on one
    // column cannot shadow a trie on another just because both span the
    // same data files — treating them as interchangeable would vacuum away
    // a live index (which ReadAll's name-sorted order made
    // nondeterministic to boot).
    local.RecordList();
    ROTTNEST_ASSIGN_OR_RETURN(std::vector<IndexEntry> entries,
                              metadata_.ReadAll(&io_));
    auto cover_key = [](const IndexEntry& e, const std::string& f) {
      return e.column + '\x1f' + e.index_type + '\x1f' + f;
    };
    std::set<std::string> covered;
    for (;;) {
      const IndexEntry* best = nullptr;
      size_t best_gain = 0;
      for (const IndexEntry& e : entries) {
        if (keep.count(e.index_path)) continue;
        size_t gain = 0;
        for (const std::string& f : e.covered_files) {
          if (active.count(f) != 0 && covered.count(cover_key(e, f)) == 0) {
            ++gain;
          }
        }
        if (gain > best_gain) {
          best_gain = gain;
          best = &e;
        }
      }
      if (best == nullptr) break;
      keep.insert(best->index_path);
      for (const std::string& f : best->covered_files) {
        if (active.count(f)) covered.insert(cover_key(*best, f));
      }
    }
    for (const IndexEntry& e : entries) {
      if (keep.count(e.index_path) == 0) remove.push_back(e.index_path);
    }
  }

  // Commit: delete metadata rows for unselected entries (reported but not
  // applied under dry_run).
  internal::OpPhase commit_phase(&op, "commit");
  report.removed_entries = remove;
  report.metadata_entries_removed = remove.size();
  if (!remove.empty() && !opts.dry_run) {
    auto committed = metadata_.Update({}, remove);
    if (!committed.ok()) return committed.status();
  }

  // Remove: physically delete index objects that are unreferenced AND older
  // than the index timeout (younger ones may be uncommitted in-flight
  // uploads — the timeout rule of §IV-C/§IV-D).
  std::set<std::string> referenced;
  if (opts.dry_run) {
    // Metadata was not updated: the post-commit reference set is `keep`.
    referenced = keep;
  } else {
    local.RecordList();
    ROTTNEST_ASSIGN_OR_RETURN(std::vector<IndexEntry> remaining,
                              metadata_.ReadAll(&io_));
    for (const IndexEntry& e : remaining) referenced.insert(e.index_path);
  }

  local.RecordList();
  std::vector<objectstore::ObjectMeta> listing;
  ROTTNEST_RETURN_NOT_OK(store_->List(options_.index_dir + "/", &listing));
  Micros cutoff =
      store_->clock().NowMicros() - options_.index_timeout_micros;
  std::vector<std::string> deletable;
  for (const auto& obj : listing) {
    // Only touch index files; the metadata table lives under _meta/.
    if (obj.key.size() < 6 ||
        obj.key.compare(obj.key.size() - 6, 6, ".index") != 0) {
      continue;
    }
    if (referenced.count(obj.key) != 0) continue;
    if (obj.created_micros > cutoff) continue;
    deletable.push_back(obj.key);
  }
  if (opts.dry_run) {
    report.deleted_objects = deletable;
    report.objects_deleted = deletable.size();
    FinishMaintenanceStats(&local, opts, plan, wall_start, &op,
                           &report.stats);
    return report;
  }
  commit_phase.End();

  {
    internal::OpPhase phase(&op, "delete");
    // Physical deletes are independent: fan out on the pipeline width.
    std::vector<Status> delete_statuses(deletable.size(), Status::OK());
    pool_.ParallelFor(deletable.size(), plan.parallelism, [&](size_t i) {
      delete_statuses[i] = store_->Delete(deletable[i]);
    });
    for (size_t i = 0; i < deletable.size(); ++i) {
      if (!delete_statuses[i].ok()) return delete_statuses[i];
      report.deleted_objects.push_back(deletable[i]);
      ++report.objects_deleted;
    }
  }
  FinishMaintenanceStats(&local, opts, plan, wall_start, &op, &report.stats);
  return report;
}

// CheckInvariants, Scrub and Repair live in scrub.cc.

}  // namespace rottnest::core
