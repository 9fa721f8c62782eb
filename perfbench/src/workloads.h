// The benchmark's workloads (see perfbench/README.md for why each exists):
//
//   hot_serve    — 4 closed-loop clients through serve::QueryEngine over a
//                  compacted, fully cached dataset (UUID/keyword/vector).
//   cold_search  — 2 closed-loop clients on Rottnest::Execute over
//                  uncompacted indexes, one unindexed file, ~10% deleted
//                  rows and a cache far smaller than the working set.
//   ingest_mixed — 1 writer appending, indexing, compacting, vacuuming and
//                  checkpointing while 3 clients run the hot_serve mix.
//
// Every store request pays a real 1 ms latency (FaultInjectingStore over
// InMemoryObjectStore, no faults, no tail), for the table and the client
// alike.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 10;   ///< Length of one timed phase.
  bool trace = false; ///< Per-layer (traced) run instead of end-to-end.
  std::string out_dir;  ///< Where a traced run writes its spans.
};

bool IsWorkload(const std::string& name);

/// Runs one workload. Returns false, after printing why on stderr, when
/// the run could not complete (an operation the workload needs failed).
bool RunWorkload(const RunArgs& args, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
