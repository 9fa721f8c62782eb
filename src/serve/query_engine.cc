#include "serve/query_engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/metrics.h"

namespace rottnest::serve {

namespace {

// How long the dispatcher's cv waits may block in REAL time. All deadline
// decisions read the injected clock; the real-time bound only keeps
// SimulatedClock tests from hanging on a wait the simulation has already
// satisfied.
constexpr auto kDispatcherPoll = std::chrono::milliseconds(1);

}  // namespace

EngineMetrics ResolveEngineMetrics(obs::MetricsRegistry* registry,
                                   const std::string& name) {
  EngineMetrics m;
  if (registry == nullptr) return m;
  const std::string p = "serve." + name + ".";
  m.submitted = registry->GetCounter(p + "submitted");
  m.shed = registry->GetCounter(p + "shed");
  m.expired = registry->GetCounter(p + "expired_in_queue");
  m.completed = registry->GetCounter(p + "completed");
  m.failed = registry->GetCounter(p + "failed");
  m.waves = registry->GetCounter(p + "waves");
  m.wave_queries = registry->GetCounter(p + "wave_queries");
  m.pinned = registry->GetCounter(p + "pinned");
  m.pin_conflicts = registry->GetCounter(p + "pin_conflicts");
  m.queue_depth = registry->GetGauge(p + "queue_depth");
  m.wave_size = registry->GetHistogram(p + "wave_size");
  m.latency_micros = registry->GetHistogram(p + "latency_micros");
  return m;
}

namespace {

core::AdmissionOptions ToAdmissionOptions(const ServeOptions& o) {
  core::AdmissionOptions a;
  a.max_concurrent = std::max(1, o.max_concurrent);
  a.max_queue = std::max(0, o.max_queue);
  a.initial_service_micros = o.initial_service_micros;
  return a;
}

}  // namespace

QueryEngine::QueryEngine(core::Rottnest* client, ServeOptions options)
    : client_(client),
      options_(std::move(options)),
      admission_(&client->clock(), ToAdmissionOptions(options_)) {
  options_.max_concurrent = std::max(1, options_.max_concurrent);
  options_.batch_max = std::clamp<size_t>(
      options_.batch_max, 1, static_cast<size_t>(options_.max_concurrent));
  paused_ = options_.start_paused;
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

QueryEngine::~QueryEngine() { Shutdown(); }

void QueryEngine::AttachMetrics(obs::MetricsRegistry* registry,
                                const std::string& name) {
  metrics_ = ResolveEngineMetrics(registry, name);
  admission_.AttachMetrics(registry, name);
  // The serving surface owns the metadata-plane counters too: replay /
  // checkpoint traffic of the client's logs shows up as `meta.*`.
  client_->table()->AttachMetrics(registry);
  client_->metadata().AttachMetrics(registry);
}

Result<core::QueryResponse> QueryEngine::Execute(core::Query q) {
  const Clock& clock = client_->clock();
  // Resolve the deadline at SUBMIT time: the per-query budget (or the
  // engine default) starts ticking now, so time spent queued counts
  // against it. Execution later reuses this exact absolute deadline via
  // SearchOptions::deadline — it is never re-derived from the budget.
  if (q.options.deadline.infinite()) {
    Micros budget = q.options.time_budget_micros > 0
                        ? q.options.time_budget_micros
                        : options_.default_time_budget_micros;
    q.options.deadline = Deadline::After(&clock, budget);
  }

  auto req = std::make_shared<Request>();
  req->deadline = q.options.deadline;
  req->submitted_at = clock.NowMicros();
  req->query = std::move(q);

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status::Unavailable("query engine is shut down");
    }
    // Admission policy: queue cap + predicted-wait shed, typed
    // ResourceExhausted — never blocks, never touches storage.
    Status admit = admission_.NoteArrival(req->deadline);
    if (!admit.ok()) {
      stats_.shed.fetch_add(1, std::memory_order_relaxed);
      obs::Increment(metrics_.shed);
      return admit;
    }
    stats_.submitted.fetch_add(1, std::memory_order_relaxed);
    obs::Increment(metrics_.submitted);
    TenantQueue& tq = tenants_[req->query.tenant];
    if (tq.queue.empty()) {
      auto it = options_.tenant_weights.find(req->query.tenant);
      double w = it != options_.tenant_weights.end() && it->second > 0
                     ? it->second
                     : 1.0;
      tq.stride = 1.0 / w;
      // (Re)joining tenants start at the current virtual time — an idle
      // tenant must not bank credit and burst past active ones.
      tq.pass = std::max(tq.pass, vtime_);
    }
    tq.queue.push_back(req);
    ++queued_;
    obs::Set(metrics_.queue_depth, static_cast<int64_t>(queued_));
  }
  cv_.notify_all();

  std::unique_lock<std::mutex> lock(req->mu);
  req->cv.wait(lock, [&] { return req->done; });
  return std::move(*req->result);
}

void QueryEngine::Shutdown() {
  std::vector<std::shared_ptr<Request>> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    for (auto& [tenant, tq] : tenants_) {
      for (auto& r : tq.queue) orphans.push_back(std::move(r));
      tq.queue.clear();
    }
    queued_ = 0;
    obs::Set(metrics_.queue_depth, 0);
  }
  cv_.notify_all();
  for (auto& r : orphans) {
    admission_.CancelArrival(/*expired_in_queue=*/false);
    Complete(r, Status::Unavailable("query engine shut down while queued"));
  }
  if (dispatcher_.joinable()) dispatcher_.join();
}

void QueryEngine::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void QueryEngine::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

size_t QueryEngine::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

std::map<std::string, uint64_t> QueryEngine::TenantCompleted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenant_completed_;
}

std::shared_ptr<QueryEngine::Request> QueryEngine::PickLocked() {
  // Stride scheduling: pick the non-empty tenant with the minimum pass
  // (map order breaks ties deterministically), then advance its pass by
  // its stride — a weight-w tenant is picked w times as often.
  TenantQueue* best = nullptr;
  for (auto& [tenant, tq] : tenants_) {
    if (tq.queue.empty()) continue;
    if (best == nullptr || tq.pass < best->pass) best = &tq;
  }
  if (best == nullptr) return nullptr;
  vtime_ = best->pass;
  best->pass += best->stride;
  std::shared_ptr<Request> req = std::move(best->queue.front());
  best->queue.pop_front();
  --queued_;
  obs::Set(metrics_.queue_depth, static_cast<int64_t>(queued_));
  return req;
}

void QueryEngine::DispatcherLoop() {
  for (;;) {
    std::vector<std::shared_ptr<Request>> wave;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return shutdown_ || (!paused_ && queued_ > 0); });
      if (shutdown_) return;
      const size_t wave_cap = options_.batch_max;
      // Gather: drain what is queued in fair order, lingering up to
      // batch_window_micros for stragglers to fill the wave. The linger
      // uses short real cv waits but gives up as soon as the wave is full
      // or the window closes — it trades a bounded sliver of latency for
      // GET coalescing across wave members.
      const Clock& clock = client_->clock();
      const Micros window_close =
          clock.NowMicros() + options_.batch_window_micros;
      // Real-time backstop: under SimulatedClock the injected clock may
      // never advance, so the linger must also close after the window's
      // worth of REAL time or the dispatcher would poll forever.
      const auto real_close =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(options_.batch_window_micros);
      for (;;) {
        while (wave.size() < wave_cap && queued_ > 0) {
          std::shared_ptr<Request> req = PickLocked();
          if (req == nullptr) break;
          if (req->deadline.expired()) {
            // Died waiting in the fair queue: typed failure BEFORE any
            // planning I/O (satellite: queue wait counts against the
            // ambient budget).
            admission_.CancelArrival(/*expired_in_queue=*/true);
            stats_.expired_in_queue.fetch_add(1, std::memory_order_relaxed);
            obs::Increment(metrics_.expired);
            lock.unlock();
            Complete(req, Status::DeadlineExceeded(
                              "query deadline expired in serve queue "
                              "before any planning I/O"));
            lock.lock();
            continue;
          }
          wave.push_back(std::move(req));
        }
        if (wave.size() >= wave_cap || shutdown_ || paused_) break;
        if (wave.empty()) break;  // Everything picked had expired; re-wait.
        if (options_.batch_window_micros <= 0 ||
            clock.NowMicros() >= window_close ||
            std::chrono::steady_clock::now() >= real_close) {
          break;
        }
        cv_.wait_for(lock, kDispatcherPoll);
      }
    }
    if (!wave.empty()) RunWave(wave);
  }
}

void QueryEngine::RunWave(std::vector<std::shared_ptr<Request>>& wave) {
  objectstore::CachingStore* cache = client_->cache();
  const bool coalesce = cache != nullptr && wave.size() > 1;
  stats_.waves.fetch_add(1, std::memory_order_relaxed);
  stats_.wave_queries.fetch_add(wave.size(), std::memory_order_relaxed);
  obs::Increment(metrics_.waves);
  obs::Add(metrics_.wave_queries, wave.size());
  obs::Record(metrics_.wave_size, wave.size());

  // Resolve both logs once for the wave: every member that asked for
  // "latest" plans against this one state and issues no metadata request
  // of its own — a steady-state wave costs two tail HEADs per log, in one
  // concurrent round on the client's I/O executor. Resolution failure
  // (cold store hiccup, empty table) leaves members unpinned — Execute
  // resolves latest itself, exactly as before.
  std::shared_ptr<const core::MetadataState> state;
  {
    auto resolved = client_->ResolveMetadata();
    if (resolved.ok()) state = resolved.MoveValue();
  }
  for (auto& req : wave) {
    if (state != nullptr && req->query.options.snapshot < 0) {
      req->query.options.snapshot = state->snapshot.version;
      req->query.options.metadata = state;
      req->engine_pinned = true;
      stats_.pinned.fetch_add(1, std::memory_order_relaxed);
      obs::Increment(metrics_.pinned);
    }
  }

  // One RAII slot per member: releasing each ticket feeds the admission
  // EWMA with that query's observed service time.
  std::vector<core::AdmissionTicket> tickets;
  tickets.reserve(wave.size());
  for (size_t i = 0; i < wave.size(); ++i) {
    tickets.push_back(admission_.StartScheduled());
  }

  if (coalesce) cache->BeginWave();
  // The wave runs on the client's shared pool. Each member installs its
  // own ambient deadline inside Execute (via SearchOptions::deadline), so
  // the earliest-deadline member cuts itself short while wave-mates run
  // on; a failed shared fetch is never ledger-cached, so it propagates to
  // every member that needed the range.
  client_->pool()->ParallelFor(wave.size(), [&](size_t i) {
    Result<core::QueryResponse> result = client_->Execute(wave[i]->query);
    if (!result.ok() && result.status().IsNotFound() &&
        wave[i]->engine_pinned) {
      // An object of the state the ENGINE pinned vanished mid-query (a
      // concurrent Vacuum won the race). The caller asked for "latest",
      // so this is not their error — convert to typed retryable
      // Unavailable; a retry re-pins against the new latest.
      stats_.pin_conflicts.fetch_add(1, std::memory_order_relaxed);
      obs::Increment(metrics_.pin_conflicts);
      result = Status::Unavailable(
          "pinned snapshot " +
          std::to_string(wave[i]->query.options.snapshot) +
          " truncated or vacuumed mid-query; retry");
    }
    tickets[i].Release();
    Complete(wave[i], std::move(result));
  });
  if (coalesce) cache->EndWave();
}

void QueryEngine::Complete(const std::shared_ptr<Request>& req,
                           Result<core::QueryResponse> result) {
  stats_.completed.fetch_add(1, std::memory_order_relaxed);
  obs::Increment(metrics_.completed);
  if (!result.ok()) {
    stats_.failed.fetch_add(1, std::memory_order_relaxed);
    obs::Increment(metrics_.failed);
  }
  obs::Record(metrics_.latency_micros,
              client_->clock().NowMicros() - req->submitted_at);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++tenant_completed_[req->query.tenant];
  }
  {
    std::lock_guard<std::mutex> lock(req->mu);
    req->result.emplace(std::move(result));
    req->done = true;
  }
  req->cv.notify_all();
}

}  // namespace rottnest::serve
