// Reproduces Fig 11 and §VII-C: the in-situ-querying design ablation.
//
//   (1) Rottnest as designed: page-granular custom reader, no data copy.
//   (2) "Copy data into a custom format": index storage additionally holds
//       a full copy of the data (cpm_r grows by the data size, ic_r by the
//       copy-writing compute); queries get ideal-granularity reads.
//   (3) "No custom reader": in-situ probes must read whole row-group
//       column chunks instead of single pages (open-source reader
//       behaviour), inflating cpq_r.
//
// Plus the §VII-C latency table: Rottnest page reads vs an ideal custom
// format that fetches exactly the needed bytes without decompression
// (the Lance cold-cache comparison).
#include <cstdio>

#include "bench/bench_util.h"

namespace rottnest::bench {
namespace {

using index::IndexType;
using workload::DatasetSpec;

}  // namespace
}  // namespace rottnest::bench

int main() {
  using namespace rottnest;
  using namespace rottnest::bench;

  // --- UUID workload (the paper's Fig 11 subject). -------------------------
  DatasetSpec spec;
  spec.total_rows = 60000;
  spec.num_files = 4;
  spec.doc_chars = 24;
  spec.vector_dim = 8;
  core::RottnestOptions options;
  options.index_dir = "idx/uuid";
  format::WriterOptions writer;
  writer.target_page_bytes = 64 << 10;
  writer.target_row_group_bytes = 4 << 20;
  auto env = Env::Create(spec, options, writer);
  (void)env->IndexAndCompact("uuid", IndexType::kTrie);

  workload::UuidGenerator ids(spec.seed);
  std::vector<std::string> values;
  for (int i = 0; i < 16; ++i) values.push_back(ids.IdFor(i * 991 % 60000));

  // Measure the real configuration with a detailed trace.
  objectstore::IoTrace trace;
  core::SearchOptions opts;
  opts.trace = &trace;
  size_t pages_probed = 0;
  double cpu_s = TimeSeconds([&] {
    for (const std::string& v : values) {
      auto r = env->client->SearchUuid("uuid", Slice(v), 10, opts);
      if (r.ok()) pages_probed += r.value().pages_probed;
    }
  });
  double n = static_cast<double>(values.size());
  double lat_pages =
      trace.ProjectedLatencyMs(env->s3) / 1000.0 / n + cpu_s / n;
  double gets = static_cast<double>(trace.total_gets()) / n;

  // Average page and chunk sizes of the uuid column.
  auto snap = env->table->GetSnapshot().MoveValue();
  auto reader = format::FileReader::Open(env->store.get(), snap.files[0].path,
                                         snap.files[0].bytes, nullptr)
                    .MoveValue();
  int col = env->table->schema().FindColumn("uuid");
  const auto& cc0 = reader->meta().row_groups[0].columns[col];
  // At paper scale, Parquet row groups are 128MB and the indexed column
  // dominates them (§V-A): chunk-granular probes read ~100MB. Our miniature
  // chunks would understate the effect, so use the paper-scale figure.
  double chunk_bytes = 100e6;
  double page_bytes =
      cc0.pages.empty() ? 1024 : static_cast<double>(cc0.pages[0].size);
  double probes_per_query = pages_probed / n;

  // (3) no custom reader: each probe fetches a whole column chunk.
  double lat_chunks =
      lat_pages +
      probes_per_query *
          (env->s3.RoundLatencyMs(static_cast<uint64_t>(chunk_bytes), 1) -
           env->s3.RoundLatencyMs(static_cast<uint64_t>(page_bytes), 1)) /
          1000.0;
  // (2) ideal custom format: probes fetch ~2KB exactly.
  double lat_ideal =
      lat_pages + probes_per_query *
                      (env->s3.RoundLatencyMs(2048, 1) -
                       env->s3.RoundLatencyMs(
                           static_cast<uint64_t>(page_bytes), 1)) /
                      1000.0;

  double scale = 2e9 / static_cast<double>(spec.total_rows);
  rottnest::baseline::BruteForceOptions bf_opts;
  bf_opts.workers = 8;
  double bf_s = rottnest::baseline::BruteForceScanSeconds(
      static_cast<double>(env->data_bytes) * scale, bf_opts, env->s3);

  auto derive = [&](double query_s, double extra_storage_bytes,
                    double extra_build_s) {
    tco::MeasuredWorkload m;
    m.data_bytes = static_cast<double>(env->data_bytes);
    m.index_bytes =
        static_cast<double>(env->index_bytes) + extra_storage_bytes;
    m.rottnest_query_s = query_s;
    m.rottnest_gets_per_query = gets;
    m.brute_force_query_s = bf_s;
    m.index_build_s = env->index_build_s + extra_build_s;
    m.copy_memory_bytes = static_cast<double>(env->data_bytes) * 1.2;
    return tco::DeriveCostParams(m, tco::Pricing{}, scale);
  };

  PrintHeader("Figure 11", "in-situ querying ablation (UUID search)");
  struct Config {
    const char* name;
    tco::CostParams params;
    double query_s;
  };
  // Copying the data costs ~1 extra pass over it at build time.
  std::vector<Config> configs = {
      {"rottnest (in-situ + custom reader)", derive(lat_pages, 0, 0),
       lat_pages},
      {"with data copy in custom format",
       derive(lat_ideal, static_cast<double>(env->data_bytes),
              env->index_build_s * 0.5),
       lat_ideal},
      {"without custom reader (chunk reads)", derive(lat_chunks, 0, 0),
       lat_chunks},
  };
  std::printf("%-38s %10s %10s %10s %14s %14s\n", "config", "query_s",
              "cpm_r", "ic_r", "bf->rn @10mo", "rn->copy @10mo");
  for (const Config& c : configs) {
    tco::Boundaries b = tco::ComputeBoundaries(c.params, 10);
    std::printf("%-38s %10.3f %10.2f %10.2f %14.3g %14.3g\n", c.name,
                c.query_s, c.params.cpm_r, c.params.ic_r, b.bf_to_rottnest,
                b.rottnest_to_copy);
  }
  std::printf("\n(paper: the copy shrinks the brute-force band several "
              "fold on long horizons; chunk-granular reads push Rottnest "
              "below the copy-data approach over several orders)\n");

  // --- §VII-C: Rottnest vs ideal custom format (Lance), vector search. -----
  PrintHeader("§VII-C", "vector search: page reads vs ideal custom format");
  DatasetSpec vspec;
  vspec.total_rows = 15000;
  vspec.num_files = 4;
  vspec.doc_chars = 24;
  vspec.vector_dim = 64;
  core::RottnestOptions voptions;
  voptions.index_dir = "idx/vec";
  voptions.ivfpq.nlist = 96;
  voptions.ivfpq.num_subquantizers = 8;
  auto venv = Env::Create(vspec, voptions, format::WriterOptions{});
  (void)venv->IndexAndCompact("vec", IndexType::kIvfPq);
  workload::VectorGenerator vecs(vspec.seed, vspec.vector_dim);
  std::vector<std::vector<float>> queries;
  for (int i = 0; i < 10; ++i) {
    queries.push_back(vecs.QueryNear(i * 733 % vspec.total_rows, 1.0));
  }
  auto truth = VectorGroundTruth(venv.get(), queries, 10);
  std::printf("%8s %10s %14s %18s\n", "target", "achieved",
              "rottnest_s", "ideal_format_s");
  struct Target {
    double recall;
    uint32_t nprobe, refine;
  };
  for (Target t : {Target{0.87, 2, 200}, Target{0.92, 4, 200},
                   Target{0.97, 8, 400}}) {
    objectstore::IoTrace vtrace;
    size_t vpages = 0;
    VectorMeasurement m = MeasureVector(venv.get(), "vec", queries, 10,
                                        t.nprobe, t.refine, &truth);
    (void)vtrace;
    (void)vpages;
    // Ideal format: each refined vector read costs a ~256B exact fetch
    // instead of a page fetch; both are TTFB-bound, so the difference is
    // small — mirroring Lance's 1.90s vs Rottnest's 2.09s.
    double per_probe_delta =
        (venv->s3.RoundLatencyMs(256, 1) -
         venv->s3.RoundLatencyMs(64 << 10, 1)) /
        1000.0;
    double ideal = m.latency_s + per_probe_delta;  // One probe round.
    std::printf("%8.2f %10.3f %14.3f %18.3f\n", t.recall, m.recall,
                m.latency_s, ideal);
  }
  std::printf("\n(paper: 2.09 vs 1.90 / 2.30 vs 1.94 / 2.81 vs 2.72 "
              "seconds — comparable at all targets)\n");
  return 0;
}
