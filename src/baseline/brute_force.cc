#include "baseline/brute_force.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "format/reader.h"
#include "index/ivfpq/kmeans.h"

namespace rottnest::baseline {

using format::ColumnVector;
using format::PhysicalType;

double BruteForceScanSeconds(double total_bytes,
                             const BruteForceOptions& options,
                             const objectstore::S3Model& s3) {
  double w = static_cast<double>(std::max<size_t>(options.workers, 1));
  double streams = static_cast<double>(
      std::max<size_t>(options.streams_per_worker, 1));
  double per_worker_bytes = total_bytes / w;
  double chunks = std::max(1.0, per_worker_bytes / (128.0 * 1024 * 1024));
  double per_worker_bw = std::min(streams * s3.per_stream_mbps * 1e6,
                                  options.worker_nic_bytes_per_s);
  double read_s = std::ceil(chunks / streams) * s3.ttfb_ms / 1000.0 +
                  per_worker_bytes / per_worker_bw;
  double scan_s = per_worker_bytes / (options.scan_bytes_per_s * streams);
  return read_s + scan_s + options.coordination_overhead_s +
         options.per_worker_overhead_s * w;
}

BruteForceEngine::BruteForceEngine(objectstore::ObjectStore* store,
                                   lake::Table* table,
                                   BruteForceOptions options,
                                   const objectstore::S3Model& s3)
    : store_(store),
      table_(table),
      options_(options),
      s3_(s3),
      pool_(std::min<size_t>(options.workers, 32)) {}

Status BruteForceEngine::ScanColumn(
    const std::string& column,
    const std::function<void(const std::string&, uint64_t,
                             const format::ColumnVector&)>& visit,
    BruteForceResult* result) {
  int col_idx = table_->schema().FindColumn(column);
  if (col_idx < 0) return Status::InvalidArgument("no such column: " + column);
  ROTTNEST_ASSIGN_OR_RETURN(lake::Snapshot snap, table_->GetSnapshot());

  // Collect every (file, row group) scan task with its chunk size.
  struct Task {
    std::string file;
    size_t row_group;
    uint64_t first_row;
    uint64_t chunk_bytes;
  };
  std::vector<Task> tasks;
  std::vector<std::unique_ptr<format::FileReader>> readers;
  std::vector<size_t> task_reader;
  for (const lake::DataFile& f : snap.files) {
    ROTTNEST_ASSIGN_OR_RETURN(std::unique_ptr<format::FileReader> reader,
                              format::FileReader::Open(store_, f.path, f.bytes,
                                                       nullptr));
    const format::FileMeta& meta = reader->meta();
    for (size_t g = 0; g < meta.row_groups.size(); ++g) {
      tasks.push_back({f.path, g, meta.row_groups[g].first_row,
                       meta.row_groups[g].columns[col_idx].total_size});
      task_reader.push_back(readers.size());
    }
    readers.push_back(std::move(reader));
  }

  // Execute the scan (actual correctness path).
  std::mutex mu;
  Status first_error;
  uint64_t bytes = 0;
  pool_.ParallelFor(tasks.size(), [&](size_t t) {
    ColumnVector col;
    Status s = readers[task_reader[t]]->ReadColumnChunk(
        tasks[t].row_group, col_idx, nullptr, &col);
    std::lock_guard<std::mutex> lock(mu);
    if (!s.ok()) {
      if (first_error.ok()) first_error = s;
      return;
    }
    bytes += tasks[t].chunk_bytes;
    visit(tasks[t].file, tasks[t].first_row, col);
  });
  ROTTNEST_RETURN_NOT_OK(first_error);
  result->bytes_scanned = bytes;

  // Latency projection: chunks round-robin across W workers (one instance
  // each); a worker reads its chunks with `streams_per_worker` concurrent
  // S3 streams, capped by its NIC; scan CPU overlaps across its cores.
  size_t w = std::max<size_t>(options_.workers, 1);
  size_t streams = std::max<size_t>(options_.streams_per_worker, 1);
  std::vector<uint64_t> worker_bytes(w, 0);
  std::vector<uint64_t> worker_chunks(w, 0);
  for (size_t t = 0; t < tasks.size(); ++t) {
    worker_bytes[t % w] += tasks[t].chunk_bytes;
    worker_chunks[t % w] += 1;
  }
  double per_worker_bw =
      std::min(static_cast<double>(streams) * s3_.per_stream_mbps * 1e6,
               options_.worker_nic_bytes_per_s);
  double slowest = 0;
  for (size_t i = 0; i < w; ++i) {
    double rounds = std::ceil(static_cast<double>(worker_chunks[i]) /
                              static_cast<double>(streams));
    double read_s = rounds * s3_.ttfb_ms / 1000.0 +
                    static_cast<double>(worker_bytes[i]) / per_worker_bw;
    double scan_s = static_cast<double>(worker_bytes[i]) /
                    (options_.scan_bytes_per_s *
                     static_cast<double>(streams));
    slowest = std::max(slowest, read_s + scan_s);
  }
  result->projected_latency_s = slowest + options_.coordination_overhead_s +
                                options_.per_worker_overhead_s *
                                    static_cast<double>(w);
  return Status::OK();
}

Result<BruteForceResult> BruteForceEngine::SearchUuid(
    const std::string& column, Slice value, size_t k) {
  BruteForceResult result;
  std::mutex mu;
  ROTTNEST_RETURN_NOT_OK(ScanColumn(
      column,
      [&](const std::string& file, uint64_t first_row,
          const ColumnVector& col) {
        for (size_t r = 0; r < col.size(); ++r) {
          if (col.fixed().at(r) == value) {
            std::lock_guard<std::mutex> lock(mu);
            result.matches.push_back(
                {file, first_row + r, col.fixed().at(r).ToString(), 0});
          }
        }
      },
      &result));
  if (result.matches.size() > k) result.matches.resize(k);
  return result;
}

Result<BruteForceResult> BruteForceEngine::SearchSubstring(
    const std::string& column, const std::string& pattern, size_t k) {
  BruteForceResult result;
  std::mutex mu;
  ROTTNEST_RETURN_NOT_OK(ScanColumn(
      column,
      [&](const std::string& file, uint64_t first_row,
          const ColumnVector& col) {
        for (size_t r = 0; r < col.size(); ++r) {
          if (col.strings()[r].find(pattern) != std::string::npos) {
            std::lock_guard<std::mutex> lock(mu);
            result.matches.push_back(
                {file, first_row + r, col.strings()[r], 0});
          }
        }
      },
      &result));
  if (result.matches.size() > k) result.matches.resize(k);
  return result;
}

Result<BruteForceResult> BruteForceEngine::SearchVector(
    const std::string& column, const float* query, uint32_t dim, size_t k) {
  BruteForceResult result;
  std::mutex mu;
  std::vector<core::RowMatch> all;
  ROTTNEST_RETURN_NOT_OK(ScanColumn(
      column,
      [&](const std::string& file, uint64_t first_row,
          const ColumnVector& col) {
        std::vector<core::RowMatch> local;
        for (size_t r = 0; r < col.size(); ++r) {
          Slice raw = col.fixed().at(r);
          float d = index::SquaredL2(query, index::VectorFromValue(raw), dim);
          local.push_back({file, first_row + r, raw.ToString(), d});
        }
        // Keep only the local top-k before merging.
        if (local.size() > k) {
          std::partial_sort(local.begin(), local.begin() + k, local.end(),
                            [](const core::RowMatch& a,
                               const core::RowMatch& b) {
                              return a.distance < b.distance;
                            });
          local.resize(k);
        }
        std::lock_guard<std::mutex> lock(mu);
        all.insert(all.end(), local.begin(), local.end());
      },
      &result));
  std::sort(all.begin(), all.end(),
            [](const core::RowMatch& a, const core::RowMatch& b) {
              return a.distance < b.distance;
            });
  if (all.size() > k) all.resize(k);
  result.matches = std::move(all);
  return result;
}

}  // namespace rottnest::baseline
