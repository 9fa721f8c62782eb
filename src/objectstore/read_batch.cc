#include "objectstore/read_batch.h"

#include <algorithm>
#include <mutex>

#include "common/deadline.h"

namespace rottnest::objectstore {

namespace {

/// One request actually issued: a whole-object Get, or a run of distinct
/// byte-adjacent/overlapping ranges of one key. `slots[j]` lists the
/// positions in the caller's request vector that ranges[j] answers
/// (duplicates share one range).
struct Run {
  const std::string* key = nullptr;
  bool whole = false;
  std::vector<ByteRange> ranges;
  std::vector<std::vector<size_t>> slots;
  uint64_t end = 0;  ///< Exclusive end of the run's span.
};

bool IsWhole(const RangeRequest& r) { return r.offset == 0 && r.length == 0; }

/// Groups the requests at `pending` positions into runs: ranges of one key
/// merge while they start at or before the span built so far (gap 0).
/// Whole-object and zero-length reads stay singletons.
std::vector<Run> PlanRuns(const std::vector<RangeRequest>& requests,
                          std::vector<size_t> order) {
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const RangeRequest& x = requests[a];
    const RangeRequest& y = requests[b];
    if (x.key != y.key) return x.key < y.key;
    if (x.offset != y.offset) return x.offset < y.offset;
    if (x.length != y.length) return x.length < y.length;
    return a < b;
  });
  std::vector<Run> runs;
  for (size_t i : order) {
    const RangeRequest& r = requests[i];
    const bool whole = IsWhole(r);
    if (!runs.empty() && whole) {
      Run& cur = runs.back();
      if (cur.whole && *cur.key == r.key) {
        cur.slots.back().push_back(i);  // Duplicate whole-object read.
        continue;
      }
    } else if (!runs.empty() && r.length > 0) {
      Run& cur = runs.back();
      if (!cur.whole && *cur.key == r.key && r.offset <= cur.end &&
          cur.ranges.back().length > 0) {
        const ByteRange& last = cur.ranges.back();
        if (last.offset == r.offset && last.length == r.length) {
          cur.slots.back().push_back(i);  // Duplicate: share the range.
        } else {
          cur.ranges.push_back({r.offset, r.length});
          cur.slots.push_back({i});
          cur.end = std::max(cur.end, r.offset + r.length);
        }
        continue;
      }
    }
    Run run;
    run.key = &r.key;
    run.whole = whole;
    run.ranges.push_back({r.offset, r.length});
    run.slots.push_back({i});
    run.end = r.offset + r.length;
    runs.push_back(std::move(run));
  }
  return runs;
}

}  // namespace

void IssueWave(ThreadPool* io, size_t n,
               const std::function<void(size_t)>& issue) {
  if (io == nullptr || n <= 1) {
    for (size_t i = 0; i < n; ++i) issue(i);
    return;
  }
  const Deadline deadline = CurrentDeadline();
  io->ParallelFor(n, [&](size_t i) {
    ScopedOpDeadline ambient(deadline);
    issue(i);
  });
}

Status ReadBatch(ObjectStore* store, const std::vector<RangeRequest>& requests,
                 ThreadPool* io, IoTrace* trace,
                 std::vector<Buffer>* results) {
  results->clear();
  results->resize(requests.size());
  if (requests.empty()) return Status::OK();
  if (trace != nullptr) trace->BeginRound();

  // Resident ranges are served first, one by one, so a resident page never
  // splits a run of misses into GETs issued one after another.
  std::vector<size_t> pending;
  for (size_t i = 0; i < requests.size(); ++i) {
    const RangeRequest& r = requests[i];
    if (!IsWhole(r) &&
        store->GetCached(r.key, r.offset, r.length, &(*results)[i])) {
      if (trace != nullptr) trace->RecordGet((*results)[i].size());
    } else {
      pending.push_back(i);
    }
  }
  const std::vector<Run> runs = PlanRuns(requests, std::move(pending));
  std::mutex err_mu;
  Status first_error;

  auto do_run = [&](size_t r) {
    const Run& run = runs[r];
    std::vector<Buffer> out(1);
    Status s;
    if (run.whole) {
      s = store->Get(*run.key, &out[0]);
    } else if (run.ranges.size() == 1) {
      s = store->GetRange(*run.key, run.ranges[0].offset,
                          run.ranges[0].length, &out[0]);
    } else {
      s = store->GetRun(*run.key, run.ranges, &out);
    }
    if (!s.ok()) {
      // Error contract (see header): every slot of the failed run stays a
      // zero-length buffer, never partial bytes of a sibling range.
      std::lock_guard<std::mutex> lock(err_mu);
      if (first_error.ok()) first_error = s;
      return;
    }
    if (trace != nullptr) {
      // One request for the whole run: its bytes are the span returned.
      uint64_t span = 0;
      for (size_t j = 0; j < out.size(); ++j) {
        span = std::max(span, run.ranges[j].offset - run.ranges[0].offset +
                                  out[j].size());
      }
      trace->RecordGet(span);
    }
    for (size_t j = 0; j < out.size(); ++j) {
      const std::vector<size_t>& slots = run.slots[j];
      for (size_t k = 0; k + 1 < slots.size(); ++k) {
        (*results)[slots[k]] = out[j];
      }
      (*results)[slots.back()] = std::move(out[j]);
    }
  };

  IssueWave(io, runs.size(), do_run);
  return first_error;
}

}  // namespace rottnest::objectstore
