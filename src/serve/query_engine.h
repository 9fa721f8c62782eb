// The serving front-end (ROADMAP item 1): one long-lived QueryEngine per
// process, accepting thousands of concurrent in-flight queries over the
// shared client state — ONE sharded CachingStore, ONE ThreadPool, ONE
// MetricsRegistry — behind the unified `Query`/`QueryResponse` API
// (core/query.h).
//
// What the engine adds over a direct `Rottnest::Execute` call:
//
//   * Admission (the PR-6 AdmissionController, wrapped): bounded queue,
//     concurrency cap, EWMA-predicted-wait shedding — a query that would
//     blow its deadline just waiting is rejected typed ResourceExhausted
//     at submit, BEFORE any planning I/O. The knobs moved here from
//     RottnestOptions (`ServeOptions::max_concurrent`/`max_queue`);
//     direct Search* calls run unadmitted.
//   * Per-tenant FAIR SCHEDULING: each tenant (Query::tenant) gets a FIFO
//     queue and a weight (`ServeOptions::tenant_weights`); the dispatcher
//     picks queries by stride scheduling (pass += 1/weight, min pass
//     first), so a flooding tenant cannot starve the others — throughput
//     divides by weight under saturation.
//   * REQUEST BATCHING: the dispatcher drains up to `batch_max` queries
//     (lingering `batch_window_micros` to fill the wave) and runs them as
//     one GET WAVE on the shared pool, bracketed by the cache's
//     BeginWave/EndWave — queries whose plans touch the same index blocks
//     coalesce into one physical GET (IoStats::cache_wave_hits), extending
//     the cache's key-level single flight to wave level. Waves are
//     serialized, which is exactly what makes the store-wide ledger
//     wave-scoped. Per-query IoTraces still record every LOGICAL read, so
//     traced GETs reconcile exactly against physical IoStats:
//        Σ traced gets == Δ(hits + misses + coalesced + wave_hits).
//   * DEADLINES THAT INCLUDE QUEUE WAIT: the engine resolves each query's
//     deadline at SUBMIT time (`SearchOptions::deadline`), so time spent
//     in the fair queue counts against `time_budget_micros`; a query whose
//     deadline expires while queued fails typed DeadlineExceeded when
//     picked — before any planning I/O. Inside a wave each member keeps
//     its OWN deadline (the earliest-deadline member cuts itself short
//     while its wave-mates run on), and a failed shared fetch propagates
//     per-query (failures are never ledger-cached).
//   * SNAPSHOT PINNING: each wave resolves both logs once
//     (Rottnest::ResolveMetadata: two tail HEADs per log in one round, and
//     GETs only for entries committed since the client's held state) and
//     hands that state to every member that asked for "latest"
//     (options.snapshot < 0) through SearchOptions::metadata — wave-mates
//     plan against one consistent metadata state with zero metadata
//     requests of their own. A concurrent Vacuum that removes an object of
//     the pinned state mid-query surfaces as typed retryable Unavailable
//     ("pinned snapshot ...; retry"), never a spurious NotFound. Queries
//     that pinned their own snapshot keep their typed NotFound contract.
//
// Execute() blocks the calling thread until its query completes — the
// closed-loop serving model; thousands of callers may block concurrently.
#ifndef ROTTNEST_SERVE_QUERY_ENGINE_H_
#define ROTTNEST_SERVE_QUERY_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/admission.h"
#include "core/query.h"
#include "core/rottnest.h"

namespace rottnest::obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
}  // namespace rottnest::obs

namespace rottnest::serve {

/// Serving-layer policy: overload, fairness and batching knobs. (The
/// pre-serve `RottnestOptions::max_concurrent_searches` /
/// `max_queued_searches` admission knobs live here now.)
struct ServeOptions {
  /// Queries allowed to execute concurrently (one wave is sized to at most
  /// this). Clamped to >= 1.
  int max_concurrent = 8;
  /// Queries allowed to wait in the tenant queues; arrivals beyond this
  /// are shed typed ResourceExhausted.
  int max_queue = 64;
  /// Seed for the admission EWMA before any query completes.
  Micros initial_service_micros = 50'000;
  /// Default `time_budget_micros` applied to queries that carry none
  /// (0 = no default deadline). Resolved at submit, so queue wait counts.
  Micros default_time_budget_micros = 0;
  /// Queries per GET wave (clamped to [1, max_concurrent]). 1 = batching
  /// off: every query runs alone, no wave ledger — the unbatched baseline
  /// the serve bench compares against.
  size_t batch_max = 8;
  /// How long the dispatcher lingers for stragglers to fill a wave once it
  /// holds at least one query. 0 = take only what is already queued.
  Micros batch_window_micros = 300;
  /// Per-tenant scheduling weights (unlisted tenants weigh 1.0; a tenant
  /// with weight w gets w× the picks of a weight-1 tenant under load).
  std::map<std::string, double> tenant_weights;
  /// Start with the dispatcher paused (tests: stage a queue deterministic-
  /// ally, then Resume()).
  bool start_paused = false;
};

/// Cumulative engine accounting (monotonic; read with .load()).
struct EngineStats {
  std::atomic<uint64_t> submitted{0};         ///< Execute() calls accepted.
  std::atomic<uint64_t> shed{0};              ///< Rejected at submit.
  std::atomic<uint64_t> expired_in_queue{0};  ///< Died queued, never ran.
  std::atomic<uint64_t> completed{0};         ///< Got a result (incl. queue
                                              ///< expiry and shutdown).
  std::atomic<uint64_t> failed{0};            ///< Completed with an error.
  std::atomic<uint64_t> waves{0};             ///< GET waves dispatched.
  std::atomic<uint64_t> wave_queries{0};      ///< Queries across all waves.
  std::atomic<uint64_t> pinned{0};            ///< State pinned by engine.
  std::atomic<uint64_t> pin_conflicts{0};     ///< Pinned state's object
                                              ///< vanished mid-query
                                              ///< (retryable).
};

/// Pre-resolved `serve.<name>.*` metric handles (nullptr-safe).
struct EngineMetrics {
  obs::Counter* submitted = nullptr;
  obs::Counter* shed = nullptr;
  obs::Counter* expired = nullptr;
  obs::Counter* completed = nullptr;
  obs::Counter* failed = nullptr;
  obs::Counter* waves = nullptr;
  obs::Counter* wave_queries = nullptr;
  obs::Counter* pinned = nullptr;
  obs::Counter* pin_conflicts = nullptr;
  obs::Gauge* queue_depth = nullptr;
  obs::Histogram* wave_size = nullptr;
  obs::Histogram* latency_micros = nullptr;
};

EngineMetrics ResolveEngineMetrics(obs::MetricsRegistry* registry,
                                   const std::string& name);

/// The multi-tenant serving front-end. `client` must outlive the engine.
/// Thread-safe: Execute() may be called from any number of threads.
class QueryEngine {
 public:
  QueryEngine(core::Rottnest* client, ServeOptions options);
  ~QueryEngine();  // Shutdown() + join.

  /// Submits `q` and blocks until it completes (or is shed / expires in
  /// queue / the engine shuts down). The deadline is resolved HERE, so
  /// queue wait counts against the budget.
  Result<core::QueryResponse> Execute(core::Query q);

  /// Stops accepting queries, fails everything still queued with
  /// Unavailable, and joins the dispatcher. Idempotent.
  void Shutdown();

  /// Test hooks: freeze/unfreeze the dispatcher (queued queries accumulate
  /// while paused — admission shedding still applies).
  void Pause();
  void Resume();

  /// Queries currently waiting in the tenant queues.
  size_t QueueDepth() const;

  /// Completed-query count per tenant (fairness observability).
  std::map<std::string, uint64_t> TenantCompleted() const;

  const EngineStats& stats() const { return stats_; }
  const core::AdmissionController& admission() const { return admission_; }
  const ServeOptions& options() const { return options_; }

  /// Mirrors engine events into `registry` under `serve.<name>.*` and the
  /// wrapped controller's under `admission.<name>.*`. Attach before use.
  void AttachMetrics(obs::MetricsRegistry* registry,
                     const std::string& name = "serve");

 private:
  /// One in-flight query: the submitter blocks on `cv` until `done`.
  struct Request {
    core::Query query;
    Deadline deadline;
    Micros submitted_at = 0;
    /// The engine pinned this query's metadata state (the query asked for
    /// "latest"); a mid-flight NotFound then means a concurrent vacuum
    /// removed an object of that state — converted to typed retryable
    /// Unavailable rather than surfaced as a spurious NotFound.
    bool engine_pinned = false;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::optional<Result<core::QueryResponse>> result;
  };

  /// One tenant's FIFO plus its stride-scheduling state.
  struct TenantQueue {
    std::deque<std::shared_ptr<Request>> queue;
    double pass = 0;    ///< Virtual time of the next pick.
    double stride = 1;  ///< 1 / weight.
  };

  void DispatcherLoop();
  /// Picks the next request in weighted-fair order (min pass, map-order
  /// tie-break). Caller holds mu_ and has checked queued_ > 0.
  std::shared_ptr<Request> PickLocked();
  /// Executes one wave of requests concurrently on the client pool,
  /// bracketed by the cache's BeginWave/EndWave when it can coalesce.
  void RunWave(std::vector<std::shared_ptr<Request>>& wave);
  void Complete(const std::shared_ptr<Request>& req,
                Result<core::QueryResponse> result);

  core::Rottnest* client_;
  ServeOptions options_;
  core::AdmissionController admission_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< Wakes the dispatcher.
  std::map<std::string, TenantQueue> tenants_;
  size_t queued_ = 0;
  double vtime_ = 0;  ///< Pass of the most recent pick (new-tenant floor).
  bool paused_ = false;
  bool shutdown_ = false;
  std::map<std::string, uint64_t> tenant_completed_;

  EngineStats stats_;
  EngineMetrics metrics_;
  std::thread dispatcher_;
};

}  // namespace rottnest::serve

#endif  // ROTTNEST_SERVE_QUERY_ENGINE_H_
