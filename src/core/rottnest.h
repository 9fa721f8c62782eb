// Rottnest client (paper §IV): the four-API protocol — `index`, `search`,
// `compact`, `vacuum` — that keeps lightweight secondary indices consistent
// with a data lake *on demand*, using only strong read-after-write
// consistency and a global store clock. The two invariants:
//
//   Existence   — every index file referenced by the metadata table is
//                 present in the bucket (upload-before-commit;
//                 commit-before-delete + timeout guard in vacuum);
//   Consistency — an index file correctly indexes its data files if they
//                 still exist (both are immutable).
//
// Search plans against a snapshot: indexed files are answered through the
// index files + in-situ page probes; postings referring to files outside
// the snapshot are filtered; unindexed files fall back to scanning.
//
// ## The unified Query API (v3) and the stable v2 search methods
//
// The single typed entry point of the query side is
//
//   Execute(Query) -> QueryResponse
//
// where `Query` (core/query.h) is a variant over the six query kinds —
// UUID / substring / regex / vector / keyword / count — carrying the
// column, the needle (query vector, or term list), `k` and one
// `SearchOptions`. The serving layer (`serve::QueryEngine`) consumes
// exactly this API. The classic per-kind methods are thin wrappers over
// Execute:
//
//   SearchUuid(column, value, k, opts)        — trie exact match
//   SearchSubstring(column, pattern, k, opts) — FM-index substring
//   SearchRegex(column, pattern, k, opts)     — literal-prefiltered regex
//   SearchVector(column, query, dim, k, opts) — IVF-PQ ANN + in-situ rerank
//   SearchKeyword(column, terms, k, opts)     — boolean AND/OR keyword
//   CountSubstring(column, pattern, opts)     — occurrence counting
//   DescribeIndexes(opts)                     — EXPLAIN-style introspection
//   CheckInvariants(opts)                     — protocol invariant audit
//
// Every entry point takes exactly one optional `SearchOptions` argument
// carrying the cross-cutting knobs — snapshot pin, IoTrace recording, the
// structured-attribute ScanRange filter, and the per-kind parameter block
// (`SearchOptions::params`: `params.vector` defaulting from
// `IvfPqOptions`, `params.keyword` for the boolean mode and term cap). The
// pre-v2 positional `(snapshot, trace)` overloads are gone; there is
// exactly one public signature per search kind. Introspection shares the
// same shape:
// `DescribeIndexes` computes liveness against `opts.snapshot` and
// `CheckInvariants` records its reads into `opts.trace` (its existence
// probes intentionally bypass the client cache — an audit must observe the
// bucket, not the cache).
//
// Direct calls are UNADMITTED: overload policy (admission control, fair
// scheduling, batching) lives in the serving layer's `ServeOptions`, not
// here — a single-tenant embedding pays nothing for it.
//
// ## The v2 maintenance API
//
// The write-side mirrors the search shape: every maintenance entry point
// takes exactly one optional `MaintenanceOptions` argument —
//
//   Index(column, type, opts)   — cover fresh snapshot files
//   Compact(column, type, opts) — LSM-style small-index merge
//   Vacuum(min_snapshot, opts)  — metadata GC + physical deletion
//
// carrying the cross-cutting maintenance knobs: `parallelism` (pipeline
// width; output bytes are identical at ANY setting), `byte_budget`
// (bounded-memory staging/prefetch), `time_budget_micros` (overrides the
// client timeout; enforced per page batch, not per file), `dry_run`
// (plan + report without mutating anything) and an `IoTrace*`. Each report
// carries `MaintenanceStats`: request/byte totals, dependent-round depth
// (parallel chains merged via the MergeParallel max-depth convention) and
// the simulated S3 latency/cost those imply. The pre-v2 positional
// signatures (`Compact(column, type, small_index_bytes)`) are gone.
//
// Internally `Index` runs a producer/consumer pipeline: worker threads
// stage per-file column extraction (download + decompress + key/text/vector
// extraction) while the calling thread folds staged files into the index
// builders strictly in file order — so the emitted index object is
// byte-identical to the serial build. `Compact` prefetches its inputs
// concurrently (up to `byte_budget`) and streams the merge.
//
// ## Caching & fan-out (the query hot path)
//
// With `RottnestOptions::cache_bytes > 0` the client routes every
// index-component, footer and data-page read through a process-wide sharded
// read-through LRU (`objectstore::CachingStore`) — sound because index and
// data files are immutable — and repeated queries touch the object store
// only for snapshot/metadata state. Searches additionally fan out across
// the applicable index files of a plan on the client thread pool, so the
// dependent-GET depth of a multi-index snapshot is the depth of ONE index
// chain, not their sum (§V-B). The requests themselves — page and
// component waves, and the metadata waves — run on a separate I/O
// executor, so a saturated compute pool never serializes them. The client
// keeps the metadata state it last resolved (MetadataState): a plan probes
// the tail of both logs in one wave of HEADs and applies only entries
// committed since, so a steady-state plan waits one metadata round.
// Per-query cache accounting is reported in `SearchResult`; aggregate
// counters live in the cache's `IoStats`.
#ifndef ROTTNEST_CORE_ROTTNEST_H_
#define ROTTNEST_CORE_ROTTNEST_H_

#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/thread_pool.h"
#include "core/query.h"
#include "index/component_file.h"
#include "index/fm/fm_index.h"
#include "index/ivfpq/ivfpq_index.h"
#include "lake/metadata_table.h"
#include "lake/table.h"
#include "objectstore/caching_store.h"
#include "objectstore/io_trace.h"
#include "obs/obs_context.h"
#include "obs/stats.h"

namespace rottnest::core {

namespace internal {
class OpObs;  // Per-operation instrumentation glue (core/obs_internal.h).
}  // namespace internal

/// Client configuration.
struct RottnestOptions {
  std::string index_dir;  ///< Object-store prefix for index files.
  /// Protocol timeout (paper §IV-A step 4): index/compact runs exceeding it
  /// abort; vacuum may physically delete uncommitted objects older than it.
  Micros index_timeout_micros = 10LL * 60 * 1'000'000;
  /// Vector indexing aborts below this row count in favour of brute force
  /// (paper footnote 2).
  uint64_t min_vector_index_rows = 0;
  index::FmOptions fm;
  index::IvfPqOptions ivfpq;
  /// Threads of the client's compute pool (index fan-out, decode, verify,
  /// builds). Store requests run on a separate I/O executor of fixed width
  /// (16 requests in flight, see io_executor()), so a request blocked on
  /// the store never holds a compute thread and this sizes compute only.
  size_t num_threads = 8;
  /// Byte budget for the client-side read-through cache over index
  /// components, file footers and data pages (0 = caching off). Safe at any
  /// size: the cached objects are immutable, so entries never go stale —
  /// they only age out of the LRU.
  uint64_t cache_bytes = 0;
  /// Shards of the cache (mutex-per-shard; contention knob, not capacity).
  size_t cache_shards = 16;
  /// Also cache Head() metadata (CacheOptions::cache_heads). Disable when
  /// an exact GET-path reconciliation is wanted: with heads uncached the
  /// cache's hit/miss/coalesced/wave counters cover byte reads only, so
  /// per-query traced GETs reconcile exactly against them (the serving
  /// bench's invariant).
  bool cache_heads = true;
};
// NOTE: the pre-serve admission knobs (`max_concurrent_searches`,
// `max_queued_searches`) moved to serve::ServeOptions — overload policy
// lives in the serving layer; direct Search* calls are unadmitted.

// RowMatch, CommonOptions, SearchResult, ScanRange, SearchParams (the
// per-kind VectorSearchParams/KeywordSearchParams block), SearchOptions
// and the typed Query/QueryResponse variant live in core/query.h (included
// above) — the query-side API is one header.

/// Optional knobs common to all maintenance calls (the one options
/// argument of the v2 write-side API — see the header comment). The
/// cross-cutting knobs live in CommonOptions.
struct MaintenanceOptions : CommonOptions {
  /// Plan and report (covered files, rows, merge inputs, deletions)
  /// without writing objects or committing metadata.
  bool dry_run = false;
  /// Compact only: merge committed index files smaller than this.
  uint64_t small_index_bytes = UINT64_MAX;
};

/// IO/cost accounting attached to every maintenance report — the unified
/// obs::Stats surface (the pre-obs MaintenanceStats fields are a strict
/// subset, so existing `.stats.gets` call sites keep compiling).
using MaintenanceStats = obs::Stats;

/// Outcome of one `Index` call.
struct IndexReport {
  std::string index_path;  ///< Empty if nothing new to index (or dry run).
  std::vector<std::string> covered_files;
  uint64_t rows = 0;
  MaintenanceStats stats;
};

/// Outcome of one `Compact` call.
struct CompactReport {
  std::string merged_path;  ///< Empty if nothing was compacted (or dry run).
  std::vector<std::string> replaced;
  MaintenanceStats stats;
};

/// Outcome of one `Vacuum` call.
struct VacuumReport {
  size_t metadata_entries_removed = 0;
  size_t objects_deleted = 0;
  std::vector<std::string> removed_entries;  ///< Index paths GC'd from metadata.
  std::vector<std::string> deleted_objects;  ///< Object keys physically deleted.
  MaintenanceStats stats;
};

/// How bad one Scrub finding is.
enum class ScrubSeverity {
  kWarning,  ///< Legal but untidy state (e.g. an uncommitted orphan object).
  kError,    ///< Invariant violation: queries over this index degrade.
};

/// What kind of damage a Scrub finding describes.
enum class ScrubFindingKind {
  kMissingIndex,          ///< Committed entry, object absent (Existence).
  kCorruptIndex,          ///< Directory/magic/structure fails to open.
  kCorruptComponent,      ///< A component payload fails its Hash64 checksum.
  kUnreadableIndex,       ///< Open failed for a non-corruption reason (IO).
  kInconsistentPageTable, ///< Page table names files outside covered set.
  kOrphanObject,          ///< Index object in the bucket, not in metadata.
  kCorruptCheckpoint,     ///< Checkpoint object fails parse/checksum (rot).
  kDanglingCheckpoint,    ///< _last_checkpoint names a missing/unusable
                          ///< checkpoint, or is itself unparseable.
  kOrphanCheckpoint,      ///< Valid checkpoint not named by the pointer —
                          ///< a legal crash residue (warning).
};

const char* ScrubFindingKindName(ScrubFindingKind k);

/// One finding of a Scrub audit.
struct ScrubFinding {
  ScrubFindingKind kind = ScrubFindingKind::kCorruptIndex;
  ScrubSeverity severity = ScrubSeverity::kError;
  std::string index_path;  ///< The index object concerned.
  std::string component;   ///< Blamed component (kCorruptComponent only).
  std::string detail;      ///< Human-readable explanation.
  /// The damaged entry's (column, index type), from its metadata entry —
  /// what Repair re-Indexes. Empty for orphan findings. Carrying these in
  /// the finding (not re-derived from metadata at Repair time) makes a
  /// retried Repair converge even when a crashed attempt already
  /// quarantined the entry.
  std::string column;
  std::string index_type;
  Micros age_micros = 0;   ///< Object age at scrub time (orphans only).
};

/// Knobs for Scrub. parallelism = indexes audited concurrently;
/// byte_budget = deep verification stops re-fetching component payloads
/// once this many bytes have been read (components already verified in the
/// open tail read are free and never skipped).
struct ScrubOptions : CommonOptions {
  /// Re-fetch and checksum every component payload (the expensive part).
  /// false = structural audit only: existence, directory, page table.
  bool deep = true;
};

/// Outcome of one Scrub: ALL findings, not just the first.
struct ScrubReport {
  std::vector<ScrubFinding> findings;  ///< Sorted; empty = pristine.
  size_t indexes_checked = 0;
  size_t checkpoints_checked = 0;  ///< Checkpoint objects audited (deep).
  size_t components_verified = 0;
  size_t components_skipped = 0;  ///< Deep checks skipped by byte_budget.
  uint64_t bytes_verified = 0;
  MaintenanceStats stats;

  /// True when no finding is an error (warnings — orphans — allowed).
  bool clean() const {
    for (const auto& f : findings) {
      if (f.severity == ScrubSeverity::kError) return false;
    }
    return true;
  }
};

/// Knobs for Repair (parallelism = rebuild/delete fan-out width).
struct RepairOptions : CommonOptions {
  bool quarantine = true;      ///< Remove damaged entries from metadata.
  bool reindex = true;         ///< Re-Index columns uncovered by quarantine.
  bool gc_orphans = true;      ///< Delete orphan objects past the grace period.
  /// Rebuild rotten/dangling metadata-plane checkpoints from the log.
  bool rebuild_checkpoints = true;
  /// Orphans younger than this are left alone — they may be an in-flight
  /// Index upload that has not committed yet. 0 = the client's
  /// index_timeout_micros (the same guard Vacuum uses).
  Micros orphan_grace_micros = 0;
  bool dry_run = false;        ///< Plan and report without mutating anything.
};

/// Outcome of one Repair.
struct RepairReport {
  std::vector<std::string> quarantined;      ///< Entries removed from metadata.
  std::vector<std::string> rebuilt;          ///< New index objects committed.
  std::vector<std::string> orphans_deleted;  ///< Orphan objects deleted.
  /// Fresh checkpoint objects written over rotten/dangling ones.
  std::vector<std::string> checkpoints_rebuilt;
  uint64_t rebuilt_rows = 0;
  MaintenanceStats stats;
};

/// Both logs of a client resolved at one version pair: the table snapshot
/// and the live index registry. Immutable once built and shared by every
/// plan that resolved to it (see Rottnest::ResolveMetadata).
struct MetadataState {
  lake::Snapshot snapshot;  ///< Its `version` is the table log's.
  std::vector<lake::IndexEntry> entries;  ///< Live entries, by index path.
  lake::Version registry_version = -1;    ///< -1: the registry is empty.
};

/// One committed index entry plus its physical size — `DescribeIndexes`.
struct IndexDescription {
  lake::IndexEntry entry;
  uint64_t bytes = 0;
  bool covers_live_files = false;  ///< Any covered file in latest snapshot.
};

/// The Rottnest client. Instances are cheap; every call re-plans against
/// the current state, so independent processes can run index / search /
/// compact / vacuum concurrently (the paper's deployment model).
class Rottnest {
 public:
  /// `store` and `table` must outlive the client.
  Rottnest(objectstore::ObjectStore* store, lake::Table* table,
           RottnestOptions options);

  /// Indexes data files of the latest snapshot not yet covered for
  /// (column, type). No-op (empty index_path) when nothing is new. Runs
  /// the parallel staging pipeline described in the header comment; the
  /// index object is byte-identical at any `opts.parallelism`.
  Result<IndexReport> Index(const std::string& column, index::IndexType type,
                            const MaintenanceOptions& opts = {});

  /// The single typed entry point of the query side: dispatches `q` to the
  /// matching search/count implementation and wraps the outcome in a
  /// QueryResponse. Every Search*/Count* method below is a thin wrapper
  /// over this. Unadmitted — overload policy lives in serve::QueryEngine,
  /// which consumes exactly this API.
  Result<QueryResponse> Execute(const Query& q);

  /// Exact-match search on a high-cardinality column via the trie index.
  /// Returns up to k verified matches.
  Result<SearchResult> SearchUuid(const std::string& column, Slice value,
                                  size_t k, const SearchOptions& opts = {});

  /// Exact substring search via the FM-index.
  Result<SearchResult> SearchSubstring(const std::string& column,
                                       const std::string& pattern, size_t k,
                                       const SearchOptions& opts = {});

  /// Approximate nearest-neighbour search via IVF-PQ with in-situ
  /// refinement: `opts.params.vector.nprobe` lists probed,
  /// `opts.params.vector.refine` full vectors fetched and reranked exactly
  /// (0 = the IvfPqOptions defaults). Unindexed files are always scanned
  /// (scoring query).
  Result<SearchResult> SearchVector(const std::string& column,
                                    const float* query, uint32_t dim,
                                    size_t k, const SearchOptions& opts = {});

  /// Boolean keyword search over a text column via the tokenized inverted
  /// index: rows containing every term (`opts.params.keyword.mode` =
  /// kAnd, the default) or any term (kOr). Terms are normalized through
  /// the index tokenizer; each must normalize to exactly one token, and at
  /// most `opts.params.keyword.max_terms` distinct terms are accepted.
  /// Every candidate row is verified in situ, so matches are exact.
  Result<SearchResult> SearchKeyword(const std::string& column,
                                     const std::vector<std::string>& terms,
                                     size_t k, const SearchOptions& opts = {});

  /// Regex search over a text column. The longest literal run (>= 3
  /// chars) inside the pattern is located through the FM-index and every
  /// candidate is verified in situ with std::regex (ECMAScript). Patterns
  /// without a usable literal fall back to brute-force scanning — the same
  /// strategy production log-search systems use.
  Result<SearchResult> SearchRegex(const std::string& column,
                                   const std::string& pattern, size_t k,
                                   const SearchOptions& opts = {});

  /// Counts occurrences of `pattern` across the snapshot without fetching
  /// any data pages — FM-index backward search over indexed files plus a
  /// scan of unindexed ones. The paper's LLM-corpus-exploration workload
  /// ("is this eval set leaked, and how often?") in one call. The count is
  /// of substring occurrences, not rows.
  Result<uint64_t> CountSubstring(const std::string& column,
                                  const std::string& pattern,
                                  const SearchOptions& opts = {});

  /// Lists committed index entries with their object sizes and liveness —
  /// an EXPLAIN-style introspection aid. Liveness is computed against
  /// `opts.snapshot` (-1 = latest); plan-state reads are recorded into
  /// `opts.trace`.
  Result<std::vector<IndexDescription>> DescribeIndexes(
      const SearchOptions& opts = {});

  /// LSM-style index compaction: merges committed index files of
  /// (column, type) smaller than `opts.small_index_bytes` into one. Merge
  /// inputs are ordered deterministically (by commit time, then coverage,
  /// then path), prefetched concurrently up to `opts.byte_budget`, and
  /// streamed through bounded-memory merges.
  Result<CompactReport> Compact(const std::string& column,
                                index::IndexType type,
                                const MaintenanceOptions& opts = {});

  /// Garbage collection (paper §IV-C): keeps a greedy minimal set of index
  /// files covering the data files of snapshots >= `min_snapshot`, removes
  /// the rest from the metadata table, then physically deletes index
  /// objects that are unreferenced AND older than the index timeout.
  /// Physical deletes fan out on `opts.parallelism`.
  Result<VacuumReport> Vacuum(lake::Version min_snapshot,
                              const MaintenanceOptions& opts = {});

  /// Anti-entropy audit: checks every committed index for existence,
  /// directory integrity, (deep) all component payload checksums and
  /// page-table↔metadata consistency, and lists orphaned index objects.
  /// Never fails fast — every problem becomes a ScrubFinding with a
  /// severity; the call itself only errors when the audit cannot run at
  /// all (metadata unreadable). Indexes are audited concurrently on
  /// `opts.parallelism` threads with wave-merged IoTraces, like Compact.
  /// Existence and component reads deliberately bypass the client cache —
  /// an audit must observe the bucket. Cached blocks of any index found
  /// corrupt are invalidated as a side effect.
  Result<ScrubReport> Scrub(const ScrubOptions& opts = {});

  /// Heals the findings of a Scrub: (1) quarantines damaged index entries
  /// — one transactional CommitNext removing them from the metadata table,
  /// so searches fall back to brute scans of the uncovered files; (2)
  /// re-`Index`es each affected (column, type), re-covering those files
  /// with fresh index objects; (3) deletes orphan objects older than the
  /// grace period (Vacuum's timeout rule). The order makes every prefix
  /// crash-safe: quarantine is one atomic commit, re-indexing is the
  /// ordinary crash-safe Index protocol, and orphan deletion only touches
  /// objects provably outside the protocol window.
  Result<RepairReport> Repair(const ScrubReport& report,
                              const RepairOptions& opts = {});

  /// Verifies the Existence invariant (and basic consistency) — used by
  /// protocol crash tests after every injected failure. Implemented on
  /// Scrub (shallow audit): reports ALL violations joined into one Status
  /// instead of failing on the first. Shares the SearchOptions plumbing
  /// (`opts.trace` records the audit's reads); the invariants themselves
  /// are global, so `opts.snapshot` does not narrow them, and existence
  /// probes deliberately bypass the client cache. Orphan warnings — legal
  /// under the protocol — do not fail the check.
  Status CheckInvariants(const SearchOptions& opts = {});

  /// Resolves the table snapshot at `version` (< 0 = latest) together
  /// with the latest index registry, both logs in shared waves on the I/O
  /// executor. "Latest" starts from the newest state this client has
  /// resolved: one wave of two tail HEADs per log, and if a tail moved, one
  /// more wave of GETs for just the new entries, applied to the held state
  /// (an entry gone to log retention falls back to a full replay). The
  /// result becomes the held state unless a newer one is already held. An
  /// explicit `version` replays the table log in full, so time travel
  /// below the retention floor fails with the typed
  /// NotFound("version truncated ..."); its result is not held.
  Result<std::shared_ptr<const MetadataState>> ResolveMetadata(
      lake::Version version = -1);

  lake::MetadataTable& metadata() { return metadata_; }
  lake::Table* table() { return table_; }
  const RottnestOptions& options() const { return options_; }

  /// The client-side cache, or nullptr when cache_bytes == 0. Exposes
  /// hit/miss/evict/bytes counters through its IoStats; the non-const
  /// overload additionally allows AttachMetrics(&registry).
  const objectstore::CachingStore* cache() const {
    return cache_store_.get();
  }
  objectstore::CachingStore* cache() { return cache_store_.get(); }

  /// The client's shared compute pool — the serving layer runs its query
  /// waves on it so one process has ONE compute pool (searches nest their
  /// own fan-outs on the same pool; ParallelFor is nested-safe).
  ThreadPool* pool() { return &pool_; }

  /// The client's I/O executor: store calls only (ReadBatch waves and the
  /// metadata-plane waves). Its 16 threads are the requests one wave keeps
  /// in flight, fixed apart from `num_threads`; see IssueWave
  /// (objectstore/read_batch.h).
  ThreadPool* io_executor() { return &io_; }

  /// The store clock (deadlines, admission EWMA, latency accounting).
  const Clock& clock() const { return store_->clock(); }

 private:
  struct Plan;

  /// Per-call maintenance knobs after defaulting against RottnestOptions.
  struct MaintenancePlan {
    size_t parallelism = 1;
    uint64_t byte_budget = 0;  ///< 0 = unbounded.
    Micros deadline = 0;       ///< Absolute store-clock deadline.
  };
  MaintenancePlan ResolveMaintenance(const MaintenanceOptions& opts,
                                     Micros start) const;

  /// Fills `stats` from the op-local trace + wall clock + the op's
  /// cache/retry/fault deltas (`op` may be null) and appends the local
  /// trace to `opts.trace` (if any).
  void FinishMaintenanceStats(objectstore::IoTrace* local,
                              const MaintenanceOptions& opts,
                              const MaintenancePlan& plan,
                              std::chrono::steady_clock::time_point wall_start,
                              const internal::OpObs* op,
                              MaintenanceStats* stats) const;

  /// Builds one index file covering `files` and returns its object key.
  /// Stages per-file extraction on up to `plan.parallelism` threads while
  /// the calling thread feeds builders in file order (see header comment).
  /// Per-file staging spans and build/upload phases attach to `op` (may be
  /// null).
  Result<IndexReport> BuildIndexFile(const std::string& column,
                                     index::IndexType type,
                                     const std::vector<lake::DataFile>& files,
                                     const MaintenancePlan& plan,
                                     objectstore::IoTrace* trace,
                                     internal::OpObs* op);

  /// The metadata state a query plans against: `opts.metadata` when it
  /// matches `opts.snapshot` (no request, nothing traced), else
  /// ResolveMetadata(opts.snapshot), which `opts.trace` records with the
  /// plan cost model: one manifest read + one metadata-table read.
  Result<std::shared_ptr<const MetadataState>> StateFor(
      const SearchOptions& opts);

  /// Computes which committed index entries apply to the snapshot and
  /// which snapshot files are unindexed.
  Status MakePlan(const std::string& column, index::IndexType type,
                  const SearchOptions& opts, Plan* out);

  std::string NewIndexName();

  /// The store immutable reads go through: the cache when enabled, the raw
  /// store otherwise. Metadata/txn-log reads and writes stay on `store_`.
  objectstore::ObjectStore* read_store() {
    return cache_store_ != nullptr
               ? static_cast<objectstore::ObjectStore*>(cache_store_.get())
               : store_;
  }

  /// Post-fan-out handling of per-index failures: invalidates poisoned
  /// cache entries for corrupt indexes and, with opts.auto_quarantine,
  /// removes corrupt/missing entries from the metadata table. Returns how
  /// many entries were quarantined.
  size_t HandleSearchFailures(
      const SearchOptions& opts,
      const std::vector<std::pair<const lake::IndexEntry*, Status>>& failed);

  /// Invalidates every cached block of `key` (no-op when caching is off).
  void InvalidateCachedIndex(const std::string& key);

  // The per-kind implementations Execute dispatches to (the public
  // Search*/Count* methods are Query-building wrappers over Execute). Every
  // search kind runs on one ExecContext: shared setup, index fan-out and
  // phases; UUID, substring, keyword and regex share its page pipeline and
  // supply only their index lookup and row predicate (rottnest.cc).
  struct ExecContext;
  Result<SearchResult> ExecUuid(const std::string& column, Slice value,
                                size_t k, const SearchOptions& opts);
  Result<SearchResult> ExecSubstring(const std::string& column,
                                     const std::string& pattern, size_t k,
                                     const SearchOptions& opts);
  Result<SearchResult> ExecVector(const std::string& column,
                                  const float* query, uint32_t dim, size_t k,
                                  const SearchOptions& opts);
  Result<SearchResult> ExecRegex(const std::string& column,
                                 const std::string& pattern, size_t k,
                                 const SearchOptions& opts);
  Result<SearchResult> ExecKeyword(const std::string& column,
                                   const std::vector<std::string>& terms,
                                   size_t k, const SearchOptions& opts);
  Result<uint64_t> ExecCount(const std::string& column,
                             const std::string& pattern,
                             const SearchOptions& opts);

  objectstore::ObjectStore* store_;
  lake::Table* table_;
  RottnestOptions options_;
  std::unique_ptr<objectstore::CachingStore> cache_store_;
  lake::MetadataTable metadata_;
  ThreadPool pool_;
  ThreadPool io_;
  uint64_t name_counter_ = 0;
  std::mutex state_mu_;
  /// The newest "latest" state resolved; only ever replaced by a newer one.
  std::shared_ptr<const MetadataState> state_;
};

namespace internal {

/// Merges per-item IoTraces into `trace` in waves of `parallelism`
/// concurrent chains (waves sequential) — the convention every parallel
/// maintenance op (Index, Compact, Vacuum, Scrub) uses so the recorded
/// depth honestly reflects the requested width while request/byte totals
/// stay width-invariant. Shared between rottnest.cc and scrub.cc.
void MergeWaves(objectstore::IoTrace* trace,
                const std::vector<objectstore::IoTrace>& children,
                size_t parallelism);

}  // namespace internal

}  // namespace rottnest::core

#endif  // ROTTNEST_CORE_ROTTNEST_H_
