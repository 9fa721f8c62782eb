// Shared measurement harness for the figure benches: builds the synthetic
// workloads, runs indexed and brute-force searches, projects S3 latencies
// from recorded access patterns, and derives the §VI cost parameters at
// paper scale (the copy-data baseline enters by its cost alone).
#ifndef ROTTNEST_BENCH_BENCH_UTIL_H_
#define ROTTNEST_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baseline/brute_force.h"
#include "common/json.h"
#include "core/rottnest.h"
#include "objectstore/object_store.h"
#include "obs/metrics.h"
#include "tco/tco.h"
#include "workload/generators.h"

namespace rottnest::bench {

/// Wall-clock seconds of `fn`.
double TimeSeconds(const std::function<void()>& fn);

/// One fully-built experiment environment: dataset + Rottnest client.
struct Env {
  SimulatedClock clock;
  std::unique_ptr<objectstore::InMemoryObjectStore> store;
  std::unique_ptr<lake::Table> table;
  std::unique_ptr<core::Rottnest> client;
  workload::DatasetSpec spec;
  objectstore::S3Model s3;
  double index_build_s = 0;  ///< Wall-clock spent in Index + Compact.
  uint64_t data_bytes = 0;
  uint64_t index_bytes = 0;

  /// Builds the dataset and (optionally) indexes + compacts `column` with
  /// the given index type.
  static std::unique_ptr<Env> Create(const workload::DatasetSpec& spec,
                                     const core::RottnestOptions& options,
                                     const format::WriterOptions& writer);

  /// Indexes `column`, then compacts all index files into one. Records
  /// build time and index bytes.
  Status IndexAndCompact(const std::string& column, index::IndexType type);

  /// Total bytes under the index dir (index files only).
  uint64_t MeasureIndexBytes() const;
};

/// Latency of one Rottnest query projected onto S3 (IO rounds) plus the
/// measured CPU time of the call.
struct QueryMeasurement {
  double latency_s = 0;
  double gets = 0;
  size_t matches = 0;
};

/// Runs `queries` substring searches and averages.
QueryMeasurement MeasureSubstring(Env* env, const std::string& column,
                                  const std::vector<std::string>& patterns,
                                  size_t k);

/// Runs UUID point lookups and averages.
QueryMeasurement MeasureUuid(Env* env, const std::string& column,
                             const std::vector<std::string>& values,
                             size_t k);

/// Runs vector searches and averages; also reports recall@k against an
/// exact scan when `ground_truth` is provided.
struct VectorMeasurement : QueryMeasurement {
  double recall = 0;
};
VectorMeasurement MeasureVector(
    Env* env, const std::string& column,
    const std::vector<std::vector<float>>& queries, size_t k, uint32_t nprobe,
    uint32_t refine,
    const std::vector<std::vector<std::pair<std::string, uint64_t>>>*
        ground_truth = nullptr);

/// Brute-force latency (projected) for one representative query per type.
double MeasureBruteForceSubstring(Env* env, const std::string& pattern,
                                  size_t workers);
double MeasureBruteForceUuid(Env* env, const std::string& value,
                             size_t workers);
double MeasureBruteForceVector(Env* env, const std::vector<float>& query,
                               size_t workers);

/// Exact ground truth for vector queries: top-k (file, row) per query.
std::vector<std::vector<std::pair<std::string, uint64_t>>> VectorGroundTruth(
    Env* env, const std::vector<std::vector<float>>& queries, size_t k);

/// Prints a section header so bench output reads as a report.
void PrintHeader(const std::string& figure, const std::string& title);

/// Writes `root` to `path` as a BENCH_*.json payload, folding the
/// registry's SnapshotJson() in under "metrics_snapshot" — the block the
/// bench-JSON schema check (tools/check_bench_json.py, a ctest) requires
/// of every emitted BENCH_*.json. A null registry writes an empty
/// snapshot. Returns false if the file could not be written.
bool WriteBenchJson(const std::string& path, Json::Object root,
                    const obs::MetricsRegistry* registry);

}  // namespace rottnest::bench

#endif  // ROTTNEST_BENCH_BENCH_UTIL_H_
