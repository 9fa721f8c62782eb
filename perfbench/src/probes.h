// Layer probes: timed direct calls to one layer's public functions on the
// workload's own objects, read from the bare in-memory store (no injected
// latency), so each probe is that layer's CPU cost alone.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/rottnest.h"
#include "dataset.h"
#include "objectstore/object_store.h"
#include "report.h"

namespace perfbench {

struct ProbeTargets {
  rottnest::objectstore::ObjectStore* bare = nullptr;
  std::string lake_root;
  const rottnest::core::RottnestOptions* options = nullptr;
  const Inputs* inputs = nullptr;
};

/// Appends lake.get_snapshot_ms, metadata.read_all_ms, the index.*_us
/// lookups, format.decode_page_us and compress.lz_decompress_mb_per_s.
rottnest::Status RunProbes(const ProbeTargets& t, std::vector<Metric>* out);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
