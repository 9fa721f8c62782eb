// Reproduces Fig 10: (a) S3 byte-range read latency vs request granularity
// at different concurrency levels — flat until ~1MB, then linear, largely
// concurrency-independent until the NIC saturates; (b) reading raw ~300KB
// byte ranges vs reading+decoding real data pages through the custom
// page-granular reader — decompression overhead is negligible next to the
// request latency.
#include <cstdio>

#include "bench/bench_util.h"
#include "format/page_table.h"
#include "format/reader.h"

namespace rottnest::bench {
namespace {

void Fig10a() {
  PrintHeader("Figure 10a",
              "S3 range-read latency (ms) vs granularity and concurrency");
  rottnest::objectstore::S3Model s3;
  std::vector<size_t> concurrency = {1, 8, 64, 512};
  std::printf("%12s", "read_bytes");
  for (size_t c : concurrency) std::printf("  conc=%-6zu", c);
  std::printf("\n");
  for (size_t kb : {1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}) {
    std::printf("%10dKB", static_cast<int>(kb));
    for (size_t c : concurrency) {
      std::printf("  %10.1f", s3.RoundLatencyMs(kb * 1024ull, c));
    }
    std::printf("\n");
  }
  std::printf("\n(parquet pages ~300KB sit in the flat latency-bound "
              "regime; 128MB row groups in the linear throughput-bound "
              "regime)\n");
}

void Fig10b() {
  PrintHeader("Figure 10b",
              "raw 300KB ranges vs real page reads (fetch+decode)");
  // Build a text file whose pages are ~300KB raw.
  workload::DatasetSpec spec;
  spec.total_rows = 4000;
  spec.num_files = 1;
  spec.doc_chars = 1200;
  spec.vector_dim = 8;
  core::RottnestOptions options;
  options.index_dir = "idx/none";
  format::WriterOptions writer;
  writer.target_page_bytes = 300 << 10;
  writer.target_row_group_bytes = 8 << 20;
  auto env = Env::Create(spec, options, writer);

  auto snap = env->table->GetSnapshot().MoveValue();
  auto reader = format::FileReader::Open(env->store.get(),
                                         snap.files[0].path,
                                         snap.files[0].bytes, nullptr)
                    .MoveValue();
  int col = env->table->schema().FindColumn("body");
  format::PageTable table;
  table.AddFile(snap.files[0].path, reader->meta(), col);

  rottnest::objectstore::S3Model s3;
  std::printf("%8s %16s %16s %14s\n", "pages", "raw_range_ms",
              "page_decode_ms", "decode_share");
  for (size_t num_pages : {1, 2, 4, 8}) {
    num_pages = std::min<size_t>(num_pages, table.num_pages());
    // Raw byte ranges: pure IO model on the pages' compressed sizes.
    rottnest::objectstore::IoTrace raw_trace;
    raw_trace.BeginRound();
    for (size_t p = 0; p < num_pages; ++p) {
      raw_trace.RecordGet(table.entry(static_cast<format::PageId>(p)).size);
    }
    double raw_ms = raw_trace.ProjectedLatencyMs(s3);

    // Real page reads: same IO plus measured decode CPU.
    rottnest::objectstore::IoTrace page_trace;
    std::vector<format::PageFetch> fetches;
    for (size_t p = 0; p < num_pages; ++p) {
      fetches.push_back(table.MakeFetch(static_cast<format::PageId>(p)));
    }
    std::vector<format::ColumnVector> decoded;
    double cpu_s = TimeSeconds([&] {
      (void)format::ReadPages(env->store.get(), fetches,
                              env->table->schema().columns[col], nullptr,
                              &page_trace, &decoded);
    });
    double page_ms = page_trace.ProjectedLatencyMs(s3) + cpu_s * 1000.0;
    std::printf("%8zu %16.2f %16.2f %13.1f%%\n", num_pages, raw_ms, page_ms,
                100.0 * (page_ms - raw_ms) / page_ms);
  }
  std::printf("\n(decode overhead stays a small share of total read "
              "latency — the paper's finding that a custom format's more "
              "granular reads would not help)\n");
}

}  // namespace
}  // namespace rottnest::bench

int main() {
  rottnest::bench::Fig10a();
  rottnest::bench::Fig10b();
  return 0;
}
