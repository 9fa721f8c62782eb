#include "probes.h"

#include <chrono>
#include <memory>

#include "common/coding.h"
#include "compress/lz.h"
#include "format/page.h"
#include "format/page_table.h"
#include "index/component_file.h"
#include "index/fm/fm_index.h"
#include "index/ivfpq/ivfpq_index.h"
#include "index/keyword/keyword_index.h"
#include "index/trie/trie_index.h"
#include "lake/metadata_table.h"
#include "lake/table.h"

namespace perfbench {

using rottnest::Buffer;
using rottnest::Decoder;
using rottnest::Slice;
using rottnest::Status;
using rottnest::format::PageId;
using rottnest::index::ComponentFileReader;
using rottnest::index::IndexType;

namespace {

constexpr int kRepeats = 15;    ///< Calls per metadata-plane probe.
constexpr size_t kLookups = 64; ///< Distinct lookups per index probe.
constexpr size_t kPages = 32;   ///< Pages decoded per format probe.

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}

/// Median wall micros of `call(i)` over `n` calls (after one untimed call,
/// so the reader's component cache is warm — the hot path).
template <typename Fn>
Status MedianMicros(size_t n, Fn&& call, double* out) {
  ROTTNEST_RETURN_NOT_OK(call(0));
  std::vector<double> us;
  for (size_t i = 0; i < n; ++i) {
    auto t = Clock::now();
    ROTTNEST_RETURN_NOT_OK(call(i));
    us.push_back(MicrosSince(t));
  }
  *out = Median(us);
  return Status::OK();
}

/// Sample of `n` pool queries of `kind`, cycling when the pool is smaller.
std::vector<const PoolQuery*> Sample(const Inputs& in, QueryKind kind,
                                     size_t n) {
  std::vector<const PoolQuery*> out;
  const auto& pool = in.pool(kind);
  for (size_t i = 0; i < n && !pool.empty(); ++i) {
    out.push_back(&pool[i % pool.size()]);
  }
  return out;
}

}  // namespace

Status RunProbes(const ProbeTargets& t, std::vector<Metric>* out) {
  const Inputs& in = *t.inputs;
  const std::string& index_dir = t.options->index_dir;

  ROTTNEST_ASSIGN_OR_RETURN(std::unique_ptr<rottnest::lake::Table> table,
                            rottnest::lake::Table::Open(t.bare, t.lake_root));
  double snapshot_us = 0;
  ROTTNEST_RETURN_NOT_OK(MedianMicros(
      kRepeats, [&](size_t) { return table->GetSnapshot().status(); },
      &snapshot_us));
  out->push_back({"lake.get_snapshot_ms", snapshot_us / 1000.0, "ms"});

  rottnest::lake::MetadataTable meta(t.bare, index_dir);
  double read_all_us = 0;
  ROTTNEST_RETURN_NOT_OK(MedianMicros(
      kRepeats, [&](size_t) { return meta.ReadAll().status(); },
      &read_all_us));
  out->push_back({"metadata.read_all_ms", read_all_us / 1000.0, "ms"});

  // One reader per index type: the committed entry covering the most rows.
  ROTTNEST_ASSIGN_OR_RETURN(std::vector<rottnest::lake::IndexEntry> entries,
                            meta.ReadAll());
  auto open = [&](IndexType type)
      -> rottnest::Result<std::unique_ptr<ComponentFileReader>> {
    const rottnest::lake::IndexEntry* best = nullptr;
    for (const auto& e : entries) {
      if (e.index_type != rottnest::index::IndexTypeName(type)) continue;
      if (best == nullptr || e.rows > best->rows) best = &e;
    }
    if (best == nullptr) return Status::NotFound("no index of this type");
    return ComponentFileReader::Open(t.bare, best->index_path, nullptr);
  };

  std::vector<PageId> pages;
  {
    ROTTNEST_ASSIGN_OR_RETURN(auto reader, open(IndexType::kTrie));
    std::vector<std::string> keys;
    for (const PoolQuery* q : Sample(in, QueryKind::kUuid, kLookups)) {
      keys.push_back(q->needle);
    }
    for (uint64_t g = 0; keys.size() < kLookups; ++g) {
      keys.push_back(in.rows()[g].uuid);
    }
    double us = 0;
    ROTTNEST_RETURN_NOT_OK(MedianMicros(
        kLookups,
        [&](size_t i) {
          pages.clear();
          return rottnest::index::TrieQuery(
              reader.get(), nullptr, nullptr,
              rottnest::index::KeyFromValue(Slice(keys[i])), &pages);
        },
        &us));
    out->push_back({"index.trie_query_us", us, "us"});
  }

  std::vector<std::vector<std::string>> terms;
  for (const PoolQuery* q : Sample(in, QueryKind::kKeyword, kLookups)) {
    terms.push_back(q->terms);
  }
  std::vector<std::string> patterns;
  for (const PoolQuery* q : Sample(in, QueryKind::kSubstring, kLookups)) {
    patterns.push_back(q->needle);
  }
  for (size_t i = 0; patterns.size() < kLookups && i < terms.size(); ++i) {
    patterns.push_back(terms[i][0]);
  }

  Buffer page_bytes_all;
  std::vector<std::pair<size_t, size_t>> page_spans;  // offset, size
  {
    ROTTNEST_ASSIGN_OR_RETURN(auto reader, open(IndexType::kFm));
    double us = 0;
    if (!patterns.empty()) {
      ROTTNEST_RETURN_NOT_OK(MedianMicros(
          patterns.size(),
          [&](size_t i) {
            pages.clear();
            return rottnest::index::FmLocatePages(
                reader.get(), nullptr, nullptr, Slice(patterns[i]),
                4 * in.spec().k + 16, &pages);
          },
          &us));
    }
    out->push_back({"index.fm_locate_us", us, "us"});

    // The body column's page table, embedded in the FM index, names the
    // workload's own data pages for the format and compress probes.
    rottnest::format::PageTable table_pages;
    ROTTNEST_RETURN_NOT_OK(rottnest::index::LoadPageTable(
        reader.get(), nullptr, nullptr, &table_pages));
    for (PageId p = 0; p < table_pages.num_pages() && p < kPages; ++p) {
      auto fetch = table_pages.MakeFetch(p);
      Buffer bytes;
      ROTTNEST_RETURN_NOT_OK(t.bare->GetRange(fetch.key, fetch.page.offset,
                                              fetch.page.size, &bytes));
      page_spans.emplace_back(page_bytes_all.size(), bytes.size());
      page_bytes_all.insert(page_bytes_all.end(), bytes.begin(), bytes.end());
    }
  }
  {
    ROTTNEST_ASSIGN_OR_RETURN(auto reader, open(IndexType::kKeyword));
    double us = 0;
    if (!terms.empty()) {
      ROTTNEST_RETURN_NOT_OK(MedianMicros(
          terms.size(),
          [&](size_t i) {
            pages.clear();
            return rottnest::index::KeywordQueryMany(
                reader.get(), nullptr, nullptr, terms[i],
                /*require_all=*/true, &pages);
          },
          &us));
    }
    out->push_back({"index.keyword_query_us", us, "us"});
  }
  {
    ROTTNEST_ASSIGN_OR_RETURN(auto reader, open(IndexType::kIvfPq));
    auto vectors = Sample(in, QueryKind::kVector, kLookups);
    double us = 0;
    std::vector<rottnest::index::VectorCandidate> cands;
    if (!vectors.empty()) {
      ROTTNEST_RETURN_NOT_OK(MedianMicros(
          vectors.size(),
          [&](size_t i) {
            cands.clear();
            return rottnest::index::IvfPqSearch(
                reader.get(), nullptr, nullptr, vectors[i]->vec.data(), kDim,
                t.options->ivfpq.default_nprobe,
                t.options->ivfpq.default_refine, &cands);
          },
          &us));
    }
    out->push_back({"index.ivfpq_search_us", us, "us"});
  }

  const rottnest::format::ColumnSchema body = BenchSchema().columns[2];
  auto page_at = [&](size_t i) {
    return Slice(page_bytes_all.data() + page_spans[i].first,
                 page_spans[i].second);
  };
  double decode_us = 0;
  if (!page_spans.empty()) {
    rottnest::format::ColumnVector cv;
    ROTTNEST_RETURN_NOT_OK(MedianMicros(
        page_spans.size(),
        [&](size_t i) {
          return rottnest::format::DecodePage(page_at(i), body, &cv);
        },
        &decode_us));
  }
  out->push_back({"format.decode_page_us", decode_us, "us"});

  // LZ throughput over the same pages' compressed payloads (the page
  // header: num_values, raw size, compressed size, codec, checksum).
  uint64_t raw_bytes = 0;
  double lz_us = 0;
  for (size_t i = 0; i < page_spans.size(); ++i) {
    Decoder dec(page_at(i));
    uint64_t values = 0, raw = 0, compressed = 0, checksum = 0;
    Slice codec, payload;
    ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&values));
    ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&raw));
    ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&compressed));
    ROTTNEST_RETURN_NOT_OK(dec.GetBytes(1, &codec));
    ROTTNEST_RETURN_NOT_OK(dec.GetFixed64(&checksum));
    ROTTNEST_RETURN_NOT_OK(dec.GetBytes(compressed, &payload));
    if (codec[0] != static_cast<uint8_t>(rottnest::compress::Codec::kLz)) {
      continue;
    }
    for (int rep = 0; rep < kRepeats; ++rep) {
      Buffer plain;
      auto t0 = Clock::now();
      ROTTNEST_RETURN_NOT_OK(
          rottnest::compress::LzDecompress(payload, raw, &plain));
      lz_us += MicrosSince(t0);
      raw_bytes += raw;
    }
  }
  out->push_back({"compress.lz_decompress_mb_per_s",
                  lz_us > 0 ? static_cast<double>(raw_bytes) / lz_us : 0,
                  "MB/s"});
  return Status::OK();
}

}  // namespace perfbench
