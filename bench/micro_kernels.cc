// google-benchmark microbenchmarks of the CPU kernels underneath Rottnest:
// compression, suffix-array construction, page encode/decode, k-means,
// hashing, varint coding, keyword row verification and FM locate. These bound the compute side of ic_r and
// cpq_r in the TCO model. Also verifies the observability layer's
// off-by-default contract: with no ObsContext, the instrumented hot paths
// perform ZERO heap allocations (counted via a global operator new
// override in this TU).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/coding.h"
#include "common/hash.h"
#include "common/random.h"
#include "compress/lz.h"
#include "core/obs_internal.h"
#include "format/page.h"
#include "index/fm/fm_index.h"
#include "index/fm/suffix_array.h"
#include "index/ivfpq/kmeans.h"
#include "index/keyword/keyword_index.h"
#include "objectstore/object_store.h"
#include "obs/metrics.h"
#include "obs/span.h"

// Counts every heap allocation in the process — the obs-off benchmark
// below asserts the instrumented paths add none. The replacements pair
// operator new with malloc and operator delete with free on purpose; GCC
// cannot see that pairing across inlined allocations and flags each free.
static std::atomic<uint64_t> g_heap_allocs{0};

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace rottnest {
namespace {

Buffer MakeTextLike(size_t size, uint64_t seed) {
  Random rng(seed);
  static const char* words[] = {"error", "lake", "index", "page",
                                "vector", "scan", "query", "shard"};
  Buffer out;
  out.reserve(size + 8);
  while (out.size() < size) {
    const char* w = words[rng.NextZipf(8, 1.1)];
    while (*w) out.push_back(static_cast<uint8_t>(*w++));
    out.push_back(' ');
  }
  out.resize(size);
  return out;
}

void BM_LzCompressText(benchmark::State& state) {
  Buffer input = MakeTextLike(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    Buffer out = compress::LzCompress(Slice(input));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LzCompressText)->Arg(64 << 10)->Arg(1 << 20);

void BM_LzDecompressText(benchmark::State& state) {
  Buffer input = MakeTextLike(static_cast<size_t>(state.range(0)), 1);
  Buffer compressed = compress::LzCompress(Slice(input));
  Buffer out;
  for (auto _ : state) {
    (void)compress::LzDecompress(Slice(compressed), input.size(), &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LzDecompressText)->Arg(64 << 10)->Arg(1 << 20);

// Both copy paths of the decoder: long-offset repeats (non-overlapping
// memcpy) interleaved with short-period runs (offset < length, byte loop).
// Arg(0) is the run period in bytes.
void BM_LzDecompress(benchmark::State& state) {
  const size_t period = static_cast<size_t>(state.range(0));
  Buffer block = MakeTextLike(4096, 7);
  Buffer input;
  Random rng(8);
  while (input.size() < (1 << 20)) {
    input.insert(input.end(), block.begin(), block.end());
    const size_t run = 64 + rng.Uniform(1024);
    for (size_t i = 0; i < run; ++i) {
      input.push_back(static_cast<uint8_t>('a' + i % period));
    }
  }
  Buffer compressed = compress::LzCompress(Slice(input));
  Buffer out;
  for (auto _ : state) {
    (void)compress::LzDecompress(Slice(compressed), input.size(), &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * input.size());
}
BENCHMARK(BM_LzDecompress)->Arg(1)->Arg(3)->Arg(16);

void BM_SuffixArrayBuild(benchmark::State& state) {
  Buffer text = MakeTextLike(static_cast<size_t>(state.range(0)), 2);
  for (auto& b : text) {
    if (b == 0) b = 1;
  }
  text.push_back(0);
  for (auto _ : state) {
    auto sa = index::BuildSuffixArray(Slice(text));
    benchmark::DoNotOptimize(sa.value().data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SuffixArrayBuild)->Arg(64 << 10)->Arg(512 << 10);

void BM_PageEncodeDecode(benchmark::State& state) {
  Random rng(3);
  format::ColumnVector::Strings values;
  for (int i = 0; i < 1000; ++i) {
    std::string v;
    for (int w = 0; w < 20; ++w) {
      v += "tok" + std::to_string(rng.Uniform(500)) + " ";
    }
    values.push_back(std::move(v));
  }
  format::ColumnVector col(values);
  format::ColumnSchema schema{"body", format::PhysicalType::kByteArray, 0};
  for (auto _ : state) {
    Buffer page;
    format::EncodePage(col, 0, col.size(), compress::Codec::kLz, &page);
    format::ColumnVector decoded;
    (void)format::DecodePage(Slice(page), schema, &decoded);
    benchmark::DoNotOptimize(decoded.size());
  }
}
BENCHMARK(BM_PageEncodeDecode);

void BM_KMeansIteration(benchmark::State& state) {
  Random rng(4);
  size_t n = 4000, dim = 64;
  std::vector<float> data(n * dim);
  for (auto& f : data) f = static_cast<float>(rng.NextGaussian());
  for (auto _ : state) {
    auto result = index::TrainKMeans(data.data(), n, dim, 64, 2, 7);
    benchmark::DoNotOptimize(result.value().centroids.data());
  }
}
BENCHMARK(BM_KMeansIteration);

void BM_Hash64(benchmark::State& state) {
  Buffer data = MakeTextLike(static_cast<size_t>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hash64(Slice(data)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Hash64)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_VarintRoundTrip(benchmark::State& state) {
  Random rng(6);
  std::vector<uint64_t> values(10000);
  for (auto& v : values) v = rng.Next() >> rng.Uniform(64);
  for (auto _ : state) {
    Buffer buf;
    for (uint64_t v : values) PutVarint64(&buf, v);
    Decoder dec{Slice(buf)};
    uint64_t out = 0, sum = 0;
    while (!dec.exhausted()) {
      (void)dec.GetVarint64(&out);
      sum += out;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_VarintRoundTrip);

/// Zipf-distributed sentences over a syllable vocabulary (the shape of the
/// perfbench text column): `rows` values of 14..23 words.
std::vector<std::string> MakeZipfRows(size_t rows, uint64_t seed) {
  Random rng(seed);
  static const char kConsonants[] = "bcdfghjklmnprstvwz";
  static const char kVowels[] = "aeiou";
  std::vector<std::string> vocab(4096);
  for (std::string& w : vocab) {
    for (uint64_t s = 1 + rng.Uniform(3); s > 0; --s) {
      w.push_back(kConsonants[rng.Uniform(sizeof(kConsonants) - 1)]);
      w.push_back(kVowels[rng.Uniform(sizeof(kVowels) - 1)]);
    }
  }
  std::vector<std::string> out(rows);
  for (std::string& row : out) {
    for (uint64_t w = 14 + rng.Uniform(10); w > 0; --w) {
      row += vocab[rng.NextZipf(vocab.size(), 1.1)];
      row += rng.Uniform(8) == 0 ? ". " : " ";
    }
  }
  return out;
}

// The in-situ keyword predicate over one decoded page of Zipf rows, for a
// two-term AND (Arg 0) or OR (Arg 1) query whose terms are a common and a
// rare word. The predicate streams tokens; any heap allocation per
// iteration is a regression and fails the benchmark.
void BM_KeywordRowMatch(benchmark::State& state) {
  const std::vector<std::string> rows = MakeZipfRows(1000, 11);
  std::vector<std::string> tokens;
  index::Tokenize(Slice(rows[0]), &tokens);
  index::Tokenize(Slice(rows[1]), &tokens);
  const index::KeywordRowMatcher matcher({tokens.front(), tokens.back()},
                                         /*require_all=*/state.range(0) == 0);
  uint64_t allocs = 0;
  size_t matched = 0;
  size_t bytes = 0;
  for (const std::string& r : rows) bytes += r.size();
  for (auto _ : state) {
    uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    for (const std::string& r : rows) matched += matcher.Matches(r) ? 1 : 0;
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    benchmark::DoNotOptimize(matched);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
  if (allocs != 0) state.SkipWithError("row predicate allocated on the heap");
}
BENCHMARK(BM_KeywordRowMatch)->Arg(0)->Arg(1);

// Substring locate against an in-memory FM index (~300 KB of text over 64
// pages): Open (tail read + checksums) plus FmLocatePages for a needle
// planted in 50 rows, so the timing covers the decode-on-first-read and
// view-based block access of one cold locate.
void BM_FmLocatePages(benchmark::State& state) {
  std::vector<std::string> rows = MakeZipfRows(2560, 12);
  for (size_t i = 0; i < 50; ++i) rows[(i * 51) % rows.size()] += " qxneedlez";
  index::FmIndexBuilder builder("body", index::FmOptions{});
  format::FileMeta meta;
  meta.schema.columns.push_back({"body", format::PhysicalType::kByteArray, 0});
  format::RowGroupMeta rg;
  format::ColumnChunkMeta chunk;
  const size_t rows_per_page = rows.size() / 64;
  for (size_t p = 0; p < 64; ++p) {
    builder.AddPageValues(std::vector<std::string>(
        rows.begin() + p * rows_per_page,
        rows.begin() + (p + 1) * rows_per_page));
    format::PageMeta pm;
    pm.num_values = static_cast<uint32_t>(rows_per_page);
    pm.first_row = p * rows_per_page;
    chunk.pages.push_back(pm);
  }
  rg.columns.push_back(chunk);
  rg.num_rows = rows.size();
  meta.row_groups.push_back(rg);
  format::PageTable pages;
  pages.AddFile("data/f.lake", meta, 0);
  Buffer file;
  if (!builder.Finish(pages, &file).ok()) std::abort();
  SimulatedClock clock;
  objectstore::InMemoryObjectStore store(&clock);
  if (!store.Put("idx/fm.index", Slice(file)).ok()) std::abort();

  size_t found = 0;
  for (auto _ : state) {
    auto reader =
        index::ComponentFileReader::Open(&store, "idx/fm.index", nullptr);
    std::vector<format::PageId> hits;
    if (!reader.ok() ||
        !index::FmLocatePages(reader.value().get(), nullptr, nullptr,
                              Slice(std::string_view("qxneedlez")), 64, &hits)
             .ok()) {
      state.SkipWithError("locate failed");
      break;
    }
    benchmark::DoNotOptimize(hits.data());
    found = hits.size();
  }
  state.counters["pages_found"] = static_cast<double>(found);
}
BENCHMARK(BM_FmLocatePages);

// The off-by-default acceptance gate: one pass over every instrumented
// primitive with observability OFF — null metric handles, null tracer,
// null ObsContext through OpObs/OpPhase, and a store GET with no metrics
// attached — must touch the heap zero times per iteration.
void BM_ObsOffHotPathZeroAlloc(benchmark::State& state) {
  SimulatedClock clock;
  objectstore::InMemoryObjectStore store(&clock);
  const std::string key = "k";
  Buffer payload(256, 0x5a);
  if (!store.Put(key, Slice(payload)).ok()) std::abort();
  Buffer out;
  if (!store.Get(key, &out).ok()) std::abort();  // Warm `out`'s capacity.

  uint64_t allocs = 0;
  for (auto _ : state) {
    uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    // Null-safe emission helpers (the store/retry/fault emission sites).
    obs::Add(static_cast<obs::Counter*>(nullptr), 42);
    obs::Increment(static_cast<obs::Counter*>(nullptr));
    obs::Record(static_cast<obs::Histogram*>(nullptr), 4096);
    // A span with tracing off.
    obs::ScopedSpan span(nullptr, &clock, "op", obs::kNoSpan);
    span.AddIo(obs::SpanIo{});
    // A whole operation's instrumentation under a null ObsContext.
    {
      core::internal::OpObs op(&store, nullptr, nullptr, "bench");
      core::internal::OpPhase phase(&op, "plan");
      op.Finish();
    }
    // An instrumented physical read with no metrics attached.
    if (!store.Get(key, &out).ok()) std::abort();
    benchmark::DoNotOptimize(out.data());
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
  }
  state.counters["heap_allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
  if (allocs != 0) {
    state.SkipWithError("obs-off hot path allocated on the heap");
  }
}
BENCHMARK(BM_ObsOffHotPathZeroAlloc);

}  // namespace
}  // namespace rottnest

BENCHMARK_MAIN();
