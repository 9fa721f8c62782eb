// The unified query-side API of the Rottnest client: the option/result
// types shared by every search kind, plus the typed `Query`/`QueryResponse`
// variant that is the single entry point of the serving layer
// (`Rottnest::Execute`, `serve::QueryEngine::Execute`).
//
// One `Query` names a kind (UUID / substring / regex / vector / keyword /
// count), the target column, the needle (query vector, or term list), the
// match budget `k` and a full `SearchOptions`; one `QueryResponse` carries
// either a `SearchResult` (the search kinds) or a count. The classic
// `Rottnest::Search*` methods are thin wrappers that build a `Query`, call
// `Execute`, and unpack the response — so every knob, deadline and stat
// surface behaves identically whether a caller goes through the typed API
// or the convenience methods.
//
// Per-kind knobs live in `SearchOptions::params` (`SearchParams`), one
// sub-struct per kind that has any: `params.vector` (nprobe/refine) and
// `params.keyword` (boolean mode, term cap). Kinds ignore the other kinds'
// params, so one `SearchOptions` value can serve a mixed workload.
#ifndef ROTTNEST_CORE_QUERY_H_
#define ROTTNEST_CORE_QUERY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "lake/txn_log.h"
#include "objectstore/io_trace.h"
#include "obs/obs_context.h"
#include "obs/stats.h"

namespace rottnest::core {

struct MetadataState;  // Both logs resolved at one version pair (rottnest.h).

/// One verified search hit.
struct RowMatch {
  std::string file;    ///< Data file object key.
  uint64_t row = 0;    ///< File-global row index.
  std::string value;   ///< The matched column value (raw bytes).
  float distance = 0;  ///< Exact distance (vector search only).
};

/// Knobs shared by EVERY options struct of the v2 API — searches,
/// maintenance (Index/Compact/Vacuum) and anti-entropy (Scrub/Repair) all
/// derive their options from this base, so the cross-cutting concerns have
/// exactly one spelling:
///
///   parallelism        — fan-out / pipeline width (0 = client default);
///   byte_budget        — bounded-memory staging / prefetch / verification;
///   time_budget_micros — per-call deadline override;
///   trace              — IoTrace access-pattern recording;
///   obs                — the opt-in observability context (metrics
///                        registry + hierarchical span tracer + store-stack
///                        stat hooks). nullptr = observability off, and
///                        every instrumented path is allocation-free.
struct CommonOptions {
  /// Parallel width: index fan-out for searches, staging/prefetch pipeline
  /// width for maintenance. 0 = the operation's natural default (full
  /// index fan-out for searches, RottnestOptions::num_threads for
  /// maintenance); 1 = fully serial. Maintenance output bytes are
  /// identical at ANY setting.
  size_t parallelism = 0;
  /// Cap on bytes staged ahead of the consumer (Index), prefetched
  /// (Compact) or deep-verified (Scrub). 0 = unbounded. The head-of-line
  /// item is always admitted, so any budget still makes progress.
  uint64_t byte_budget = 0;
  /// Maintenance: overrides RottnestOptions::index_timeout_micros for this
  /// call (0 = use the client default). Searches: an END-TO-END deadline —
  /// 0 means no deadline at all (searches have no implicit timeout). On
  /// expiry the query stops cooperatively at page-batch granularity and
  /// returns a structured partial result (SearchResult::partial/cut_short)
  /// instead of hanging or erroring. Enforced per page batch.
  Micros time_budget_micros = 0;
  /// Access-pattern recording. Per-item parallel chains are merged in
  /// waves of `parallelism` concurrent chains (waves sequential), so the
  /// recorded depth — and the simulated latency derived from it — reflects
  /// the width actually requested. Request/byte totals are width-invariant.
  objectstore::IoTrace* trace = nullptr;
  /// Observability: when non-null, the operation emits registry metrics,
  /// opens a root span (under obs->parent) with phase/fan-out children
  /// carrying exclusive per-span I/O, and fills the retry/fault fields of
  /// its obs::Stats from the context's stat hooks.
  obs::ObsContext* obs = nullptr;
};

/// Search outcome plus plan accounting (used by the TCO benches).
struct SearchResult {
  std::vector<RowMatch> matches;
  size_t indexes_queried = 0;
  size_t files_scanned = 0;   ///< Unindexed files brute-scanned.
  size_t pages_probed = 0;    ///< In-situ page reads.
  /// Graceful degradation: index files that could not be read (missing,
  /// truncated, checksum mismatch) are skipped and their covered files
  /// answered through the brute-scan path instead of failing the query.
  size_t indexes_degraded = 0;                ///< Unreadable indexes skipped.
  std::vector<std::string> degraded_indexes;  ///< Their object keys.
  /// The unified cost surface (obs::Stats): physical request/byte totals,
  /// cache deltas, retries/faults absorbed below the query, wall time and —
  /// when `opts.trace` is set — the IoTrace-derived depth and simulated S3
  /// latency/cost projections. (The pre-obs `cache_hits`/`cache_misses`
  /// top-level aliases are gone; read `stats.cache_hits` etc.)
  obs::Stats stats;
  /// Degraded indexes removed from the metadata table by this query
  /// (only with SearchOptions::auto_quarantine; best-effort).
  size_t indexes_quarantined = 0;
  /// Tail-tolerance degradation surface (mirrors the corrupt-index
  /// contract above): when the operation deadline expires mid-query or a
  /// store's circuit breaker is open, the query returns what it has
  /// instead of hanging or failing. `partial` is set, `cut_short` lists
  /// the index children (by object key) — or phases, for the scan/probe
  /// stages — that were stopped early, and `partial_reason` says why.
  /// Unlike corrupt-index degradation, cut-short children get NO brute-
  /// scan fallback: the deadline is exactly the promise not to keep going.
  /// A partial result may be missing matches; matches present are still
  /// verified exact.
  bool partial = false;
  std::vector<std::string> cut_short;
  std::string partial_reason;
};

/// An inclusive range predicate on an int64 column (e.g. a timestamp),
/// the paper's "structured attribute" filter (§VI): searches prune data
/// files and row groups via the format's min/max statistics and verify the
/// attribute in situ for every match.
struct ScanRange {
  std::string column;
  int64_t min = INT64_MIN;
  int64_t max = INT64_MAX;

  bool Contains(int64_t v) const { return v >= min && v <= max; }
};

/// Vector (ANN) search parameters. Zero means "use the client's
/// IvfPqOptions default" (default_nprobe / default_refine).
struct VectorSearchParams {
  uint32_t nprobe = 0;  ///< Inverted lists probed.
  uint32_t refine = 0;  ///< Candidates exactly reranked in situ.
};

/// Boolean combinator for keyword queries.
enum class KeywordMode {
  kAnd,  ///< Rows must contain every term.
  kOr,   ///< Rows must contain at least one term.
};

/// Keyword (inverted-index) search parameters.
struct KeywordSearchParams {
  KeywordMode mode = KeywordMode::kAnd;
  /// Cap on distinct normalized terms per query; queries exceeding it are
  /// rejected with InvalidArgument rather than silently truncated.
  size_t max_terms = 8;
};

/// Per-kind parameter block, folded into SearchOptions so every search
/// kind has one signature. Each kind reads only its own sub-struct.
struct SearchParams {
  VectorSearchParams vector;    ///< kVector only.
  KeywordSearchParams keyword;  ///< kKeyword only.
};

/// Optional knobs common to all search calls (the one options argument of
/// the v2 API — see the rottnest.h header comment). `parallelism` bounds
/// the index fan-out width (0 = all applicable indexes concurrently, the
/// default §V-B behaviour); trace/obs live in CommonOptions.
struct SearchOptions : CommonOptions {
  lake::Version snapshot{-1};              ///< -1 = latest.
  std::optional<ScanRange> range;          ///< Structured-attribute filter.
  SearchParams params;                     ///< Per-kind knobs.
  /// When a query degrades on a corrupt or missing index, also remove that
  /// index from the metadata table (transactional CommitNext), so later
  /// queries re-plan without it and Index can re-cover the files. Safe
  /// because indexes are disposable; best-effort — a lost race with a
  /// concurrent committer leaves quarantining to the next query or Scrub.
  bool auto_quarantine = false;
  /// Pre-resolved ABSOLUTE deadline, taking precedence over
  /// `time_budget_micros` when set (non-infinite). This is how the serving
  /// layer makes queue wait count against the budget: the engine resolves
  /// the deadline at SUBMIT time, so by the time the query starts planning
  /// the clock has already been running — a budget-derived deadline
  /// computed at execution start would silently restart it. Direct callers
  /// normally leave this default and use `time_budget_micros`.
  Deadline deadline;
  /// Pre-resolved metadata state (Rottnest::ResolveMetadata), planned
  /// against instead of resolving both logs again — used when `snapshot`
  /// is -1 or names its table version. This is how the serving layer
  /// resolves the logs once per wave: every member plans against the
  /// wave's state and issues no metadata request of its own. Direct
  /// callers normally leave this null.
  std::shared_ptr<const MetadataState> metadata;
};

/// The query kinds of the unified API — one per Search*/Count* entry point.
enum class QueryKind {
  kUuid,       ///< Exact match on a high-cardinality column (trie index).
  kSubstring,  ///< Exact substring search (FM-index).
  kRegex,      ///< Literal-prefiltered regex search.
  kVector,     ///< IVF-PQ ANN with in-situ exact rerank.
  kKeyword,    ///< Boolean AND/OR over terms (inverted index).
  kCount,      ///< Substring occurrence count (no page fetches).
};

const char* QueryKindName(QueryKind kind);

/// One typed query: the single unit of work of the serving layer. Build
/// with the factory helpers (`Query::Uuid(...)` etc.) or aggregate-style.
struct Query {
  QueryKind kind = QueryKind::kUuid;
  std::string column;
  /// The needle: exact value bytes (kUuid), substring pattern
  /// (kSubstring/kCount) or regex pattern (kRegex). Unused for
  /// kVector/kKeyword.
  std::string needle;
  std::vector<float> vector;        ///< The query vector (kVector only).
  std::vector<std::string> terms;   ///< The query terms (kKeyword only).
  size_t k = 10;              ///< Match budget (ignored by kCount).
  SearchOptions options;
  /// Serving-layer scheduling key: which tenant's fair queue this query
  /// joins ("" = the default tenant). Ignored by direct Rottnest::Execute.
  std::string tenant;

  static Query Uuid(std::string column, std::string value, size_t k,
                    SearchOptions options = {}) {
    Query q;
    q.kind = QueryKind::kUuid;
    q.column = std::move(column);
    q.needle = std::move(value);
    q.k = k;
    q.options = std::move(options);
    return q;
  }
  static Query Substring(std::string column, std::string pattern, size_t k,
                         SearchOptions options = {}) {
    Query q;
    q.kind = QueryKind::kSubstring;
    q.column = std::move(column);
    q.needle = std::move(pattern);
    q.k = k;
    q.options = std::move(options);
    return q;
  }
  static Query Regex(std::string column, std::string pattern, size_t k,
                     SearchOptions options = {}) {
    Query q;
    q.kind = QueryKind::kRegex;
    q.column = std::move(column);
    q.needle = std::move(pattern);
    q.k = k;
    q.options = std::move(options);
    return q;
  }
  static Query Vector(std::string column, std::vector<float> query, size_t k,
                      SearchOptions options = {}) {
    Query q;
    q.kind = QueryKind::kVector;
    q.column = std::move(column);
    q.vector = std::move(query);
    q.k = k;
    q.options = std::move(options);
    return q;
  }
  static Query MakeKeyword(std::string column, std::vector<std::string> terms,
                           KeywordMode mode, size_t k,
                           SearchOptions options = {}) {
    Query q;
    q.kind = QueryKind::kKeyword;
    q.column = std::move(column);
    q.terms = std::move(terms);
    q.k = k;
    q.options = std::move(options);
    q.options.params.keyword.mode = mode;
    return q;
  }
  static Query Count(std::string column, std::string pattern,
                     SearchOptions options = {}) {
    Query q;
    q.kind = QueryKind::kCount;
    q.column = std::move(column);
    q.needle = std::move(pattern);
    q.options = std::move(options);
    return q;
  }
};

/// The typed response: `result` for the search kinds, `count` for kCount.
struct QueryResponse {
  QueryKind kind = QueryKind::kUuid;
  SearchResult result;
  uint64_t count = 0;
};

}  // namespace rottnest::core

#endif  // ROTTNEST_CORE_QUERY_H_
