// Fixed-size thread pool. A Rottnest client owns two: the compute pool
// (index fan-out and builds, decode, verify, brute-force scans), sized by
// RottnestOptions::num_threads, and the I/O executor, whose 16 threads are
// the object-store requests one wave keeps in flight ("width").
#ifndef ROTTNEST_COMMON_THREAD_POOL_H_
#define ROTTNEST_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rottnest {

/// A simple FIFO thread pool. Tasks must not throw (library code is
/// exception-free); a throwing task terminates the process.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads) : shutdown_(false) {
    if (num_threads == 0) num_threads = 1;
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task for execution.
  void Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  /// Runs `fn(i)` for i in [0, n) across the pool and blocks until all
  /// iterations complete. Iterations are claimed dynamically from a shared
  /// counter, and the CALLING thread participates in the claiming loop, so
  /// ParallelFor may be nested arbitrarily (a pool task may itself call
  /// ParallelFor — the search planner fans out per-index tasks whose index
  /// queries fan out component reads): even with every worker busy, the
  /// caller drains its own iterations and progress is guaranteed — the old
  /// submit-and-wait scheme deadlocked once blocked outer tasks occupied
  /// all workers.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
    ParallelFor(n, workers_.size() + 1, fn);
  }

  /// Bounded variant: at most `max_parallelism` threads (the caller plus
  /// helpers) claim iterations — the maintenance pipeline's parallelism
  /// knob. `max_parallelism <= 1` degenerates to a plain serial loop on the
  /// calling thread.
  void ParallelFor(size_t n, size_t max_parallelism,
                   const std::function<void(size_t)>& fn) {
    if (n == 0) return;
    if (n == 1 || max_parallelism <= 1) {
      for (size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    struct State {
      std::atomic<size_t> next{0};
      std::atomic<size_t> done{0};
      size_t n = 0;
      const std::function<void(size_t)>* fn = nullptr;
      std::mutex mu;
      std::condition_variable cv;
    };
    auto state = std::make_shared<State>();
    state->n = n;
    state->fn = &fn;
    // Claims iterations until none remain. Late-arriving helpers (scheduled
    // behind other work) find the counter exhausted and exit without ever
    // touching `fn` — which is why the caller may safely return (and destroy
    // `fn`) as soon as all n iterations are DONE, not when all helpers ran.
    auto work = [](const std::shared_ptr<State>& st) {
      for (;;) {
        size_t i = st->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= st->n) return;
        (*st->fn)(i);
        if (st->done.fetch_add(1, std::memory_order_acq_rel) + 1 == st->n) {
          std::lock_guard<std::mutex> lock(st->mu);
          st->cv.notify_all();
        }
      }
    };
    size_t helpers = std::min({workers_.size(), n - 1, max_parallelism - 1});
    for (size_t h = 0; h < helpers; ++h) {
      Submit([state, work] { work(state); });
    }
    work(state);
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) == state->n;
    });
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
        if (shutdown_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  bool shutdown_;
};

}  // namespace rottnest

#endif  // ROTTNEST_COMMON_THREAD_POOL_H_
