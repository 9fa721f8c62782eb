// Parallel batched byte-range reads: the "width" primitive of §V-B. All
// requests in one batch are issued concurrently and count as one dependent
// round in the IoTrace. Byte-adjacent or overlapping ranges of one object
// coalesce into one ranged GET (ObjectStore::GetRun), so a batch of
// neighbouring pages costs one request and not one byte more.
#ifndef ROTTNEST_OBJECTSTORE_READ_BATCH_H_
#define ROTTNEST_OBJECTSTORE_READ_BATCH_H_

#include <functional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "objectstore/io_trace.h"
#include "objectstore/object_store.h"

namespace rottnest::objectstore {

/// One byte-range read request. length == 0 means "whole object".
struct RangeRequest {
  std::string key;
  uint64_t offset = 0;
  uint64_t length = 0;
};

/// Runs `issue(i)` for every i in [0, n) on the I/O executor `io` — the
/// calling thread claims calls too — and returns once all are done; runs
/// them inline when `io` is null. Every call runs under the caller's
/// ambient deadline (thread-locals do not follow work onto executor
/// threads), so retry and hedging layers below still observe it. `issue`
/// should only make store calls: parsing, decoding and verification belong
/// to the caller, after the wave, so an executor thread is only ever held
/// by a request in flight.
void IssueWave(ThreadPool* io, size_t n,
               const std::function<void(size_t)>& issue);

/// Issues all `requests` concurrently on the I/O executor `io` (or inline
/// when null; see IssueWave), recording them as one round in `trace` (if
/// non-null). Ranges the store serves from memory (GetCached) are taken
/// first; of the rest, requests for the same key whose ranges touch or
/// overlap (gap 0) are merged into one run and read with one GetRun, and
/// duplicates are read once. The trace records one GET per cached range and
/// per issued request (a run's span bytes). Results are positionally
/// aligned with requests. Returns the first error encountered,
/// with all other runs still attempted. Error contract: a failed request
/// leaves a ZERO-LENGTH buffer at its position — and a failed run at every
/// position it covers — never whatever partial bytes the store wrote
/// before failing, so a caller that decides to tolerate the error
/// (degraded reads) can distinguish "failed slot" from data without
/// consulting per-slot statuses.
Status ReadBatch(ObjectStore* store, const std::vector<RangeRequest>& requests,
                 ThreadPool* io, IoTrace* trace,
                 std::vector<Buffer>* results);

}  // namespace rottnest::objectstore

#endif  // ROTTNEST_OBJECTSTORE_READ_BATCH_H_
