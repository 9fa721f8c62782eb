#include "index/ivfpq/ivfpq_index.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/random.h"
#include "index/ivfpq/kmeans.h"

namespace rottnest::index {

namespace {

constexpr const char* kMetaComponent = "meta";
constexpr const char* kCentroidsComponent = "centroids";
constexpr const char* kCodebooksComponent = "codebooks";

std::string ListName(uint32_t l) { return "list." + std::to_string(l); }

struct IvfMeta {
  uint32_t dim = 0;
  uint32_t nlist = 0;
  uint32_t m = 0;  ///< Subquantizers.
  uint64_t num_vectors = 0;

  uint32_t sub_dim() const { return dim / m; }
};

void SerializeMeta(const IvfMeta& meta, Buffer* out) {
  PutVarint32(out, meta.dim);
  PutVarint32(out, meta.nlist);
  PutVarint32(out, meta.m);
  PutVarint64(out, meta.num_vectors);
}

Status DeserializeMeta(Slice payload, IvfMeta* out) {
  Decoder dec(payload);
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint32(&out->dim));
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint32(&out->nlist));
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint32(&out->m));
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&out->num_vectors));
  if (!dec.exhausted()) return Status::Corruption("trailing ivf meta");
  if (out->m == 0 || out->dim == 0 || out->dim % out->m != 0) {
    return Status::Corruption("bad ivf meta geometry");
  }
  return Status::OK();
}

void PutFloats(const float* data, size_t count, Buffer* out) {
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(data);
  out->insert(out->end(), bytes, bytes + count * sizeof(float));
}

Status GetFloats(Slice payload, size_t expected, std::vector<float>* out) {
  if (payload.size() != expected * sizeof(float)) {
    return Status::Corruption("float array size mismatch");
  }
  out->resize(expected);
  std::memcpy(out->data(), payload.data(), payload.size());
  return Status::OK();
}

/// One inverted-list entry.
struct ListEntry {
  format::PageId page;
  uint32_t row_in_page;
  std::vector<uint8_t> code;  ///< M bytes.
};

void SerializeList(const std::vector<ListEntry>& entries, uint32_t m,
                   Buffer* out) {
  PutVarint64(out, entries.size());
  for (const ListEntry& e : entries) {
    PutVarint32(out, e.page);
    PutVarint32(out, e.row_in_page);
    out->insert(out->end(), e.code.begin(), e.code.end());
    (void)m;
  }
}

Status DeserializeList(Slice payload, uint32_t m,
                       std::vector<ListEntry>* out) {
  Decoder dec(payload);
  uint64_t n = 0;
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&n));
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ListEntry e;
    ROTTNEST_RETURN_NOT_OK(dec.GetVarint32(&e.page));
    ROTTNEST_RETURN_NOT_OK(dec.GetVarint32(&e.row_in_page));
    Slice code;
    ROTTNEST_RETURN_NOT_OK(dec.GetBytes(m, &code));
    e.code.assign(code.data(), code.data() + m);
    out->push_back(std::move(e));
  }
  if (!dec.exhausted()) return Status::Corruption("trailing list bytes");
  return Status::OK();
}

/// Product quantizer: encode/decode against per-subspace codebooks
/// (m * 256 * sub_dim floats, indexed [sub][code][dim]).
std::vector<uint8_t> PqEncode(const std::vector<float>& codebooks,
                              const IvfMeta& meta, const float* vec) {
  uint32_t sd = meta.sub_dim();
  std::vector<uint8_t> code(meta.m);
  for (uint32_t s = 0; s < meta.m; ++s) {
    const float* sub = vec + s * sd;
    const float* book = codebooks.data() + static_cast<size_t>(s) * 256 * sd;
    uint32_t best = 0;
    float best_dist = std::numeric_limits<float>::max();
    for (uint32_t c = 0; c < 256; ++c) {
      float d = SquaredL2(sub, book + static_cast<size_t>(c) * sd, sd);
      if (d < best_dist) {
        best_dist = d;
        best = c;
      }
    }
    code[s] = static_cast<uint8_t>(best);
  }
  return code;
}

void PqDecode(const std::vector<float>& codebooks, const IvfMeta& meta,
              const uint8_t* code, float* out) {
  uint32_t sd = meta.sub_dim();
  for (uint32_t s = 0; s < meta.m; ++s) {
    const float* book = codebooks.data() + static_cast<size_t>(s) * 256 * sd;
    std::memcpy(out + s * sd, book + static_cast<size_t>(code[s]) * sd,
                sd * sizeof(float));
  }
}

/// ADC lookup table: distances from the query's subvectors to every
/// codeword; a code's distance is the sum of m table entries.
std::vector<float> BuildAdcTable(const std::vector<float>& codebooks,
                                 const IvfMeta& meta, const float* query) {
  uint32_t sd = meta.sub_dim();
  std::vector<float> table(static_cast<size_t>(meta.m) * 256);
  for (uint32_t s = 0; s < meta.m; ++s) {
    const float* sub = query + s * sd;
    const float* book = codebooks.data() + static_cast<size_t>(s) * 256 * sd;
    for (uint32_t c = 0; c < 256; ++c) {
      table[s * 256 + c] =
          SquaredL2(sub, book + static_cast<size_t>(c) * sd, sd);
    }
  }
  return table;
}

float AdcDistance(const std::vector<float>& table, uint32_t m,
                  const uint8_t* code) {
  float sum = 0.0f;
  for (uint32_t s = 0; s < m; ++s) sum += table[s * 256 + code[s]];
  return sum;
}

/// Writes the complete index file from trained quantizers + filled lists.
Status EmitIvfFile(const std::string& column, const IvfMeta& meta,
                   const std::vector<float>& centroids,
                   const std::vector<float>& codebooks,
                   const std::vector<std::vector<ListEntry>>& lists,
                   const format::PageTable& pages, ThreadPool* pool,
                   Buffer* out) {
  ComponentFileWriter writer(IndexType::kIvfPq, column);

  // Serialize lists in parallel (component order is fixed up front, so the
  // file bytes do not depend on thread count), then append everything in
  // one AddComponents call so compression rides `pool` too.
  std::vector<std::string> names;
  std::vector<Buffer> payloads;
  names.reserve(meta.nlist + 4);
  payloads.resize(meta.nlist + 4);

  names.push_back(kPageTableComponent);
  pages.Serialize(&payloads[0]);
  for (uint32_t l = 0; l < meta.nlist; ++l) names.push_back(ListName(l));
  auto serialize_list = [&](size_t l) {
    SerializeList(lists[l], meta.m, &payloads[1 + l]);
  };
  if (pool != nullptr) {
    pool->ParallelFor(meta.nlist, serialize_list);
  } else {
    for (uint32_t l = 0; l < meta.nlist; ++l) serialize_list(l);
  }
  names.push_back(kCodebooksComponent);
  PutFloats(codebooks.data(), codebooks.size(), &payloads[1 + meta.nlist]);
  names.push_back(kCentroidsComponent);
  PutFloats(centroids.data(), centroids.size(), &payloads[2 + meta.nlist]);
  names.push_back(kMetaComponent);
  SerializeMeta(meta, &payloads[3 + meta.nlist]);

  ROTTNEST_RETURN_NOT_OK(writer.AddComponents(names, payloads, pool));
  return writer.Finish(out);
}

/// Loads meta + centroids + codebooks (normally all cached from the tail).
Status OpenQuantizers(ComponentFileReader* reader, ThreadPool* pool,
                      objectstore::IoTrace* trace, IvfMeta* meta,
                      std::vector<float>* centroids,
                      std::vector<float>* codebooks) {
  if (reader->type() != IndexType::kIvfPq) {
    return Status::InvalidArgument("not an ivfpq index");
  }
  std::vector<Slice> parts;
  ROTTNEST_RETURN_NOT_OK(reader->ReadComponents(
      {kMetaComponent, kCentroidsComponent, kCodebooksComponent}, pool, trace,
      &parts));
  ROTTNEST_RETURN_NOT_OK(DeserializeMeta(parts[0], meta));
  ROTTNEST_RETURN_NOT_OK(GetFloats(
      parts[1], static_cast<size_t>(meta->nlist) * meta->dim,
      centroids));
  ROTTNEST_RETURN_NOT_OK(GetFloats(
      parts[2],
      static_cast<size_t>(meta->m) * 256 * meta->sub_dim(), codebooks));
  return Status::OK();
}

}  // namespace

void IvfPqIndexBuilder::Add(const float* vector, format::PageId page,
                            uint32_t row_in_page) {
  vectors_.insert(vectors_.end(), vector, vector + dim_);
  locations_.emplace_back(page, row_in_page);
}

Status IvfPqIndexBuilder::Finish(const format::PageTable& pages,
                                 ThreadPool* pool, Buffer* out) {
  size_t n = locations_.size();
  if (n == 0) return Status::InvalidArgument("no vectors to index");
  if (dim_ % options_.num_subquantizers != 0) {
    return Status::InvalidArgument("dim must be divisible by subquantizers");
  }
  IvfMeta meta;
  meta.dim = dim_;
  meta.m = options_.num_subquantizers;
  meta.nlist = std::min<uint32_t>(options_.nlist,
                                  static_cast<uint32_t>(n));
  meta.num_vectors = n;

  // Deterministic training sample.
  size_t train_n = std::min<size_t>(n, options_.max_training_vectors);
  std::vector<float> train;
  if (train_n == n) {
    train = vectors_;
  } else {
    Random rng(options_.seed);
    train.reserve(train_n * dim_);
    for (size_t i = 0; i < train_n; ++i) {
      size_t pick = rng.Uniform(n);
      train.insert(train.end(), vectors_.begin() + pick * dim_,
                   vectors_.begin() + (pick + 1) * dim_);
    }
  }

  // Coarse quantizer.
  ROTTNEST_ASSIGN_OR_RETURN(
      KMeansResult coarse,
      TrainKMeans(train.data(), train_n, dim_, meta.nlist,
                  options_.kmeans_iterations, options_.seed));
  meta.nlist = coarse.k;

  // PQ codebooks: residuals are skipped (plain PQ on raw vectors) for
  // simplicity; each subspace trains its own 256-codeword book.
  uint32_t sd = dim_ / meta.m;
  std::vector<float> codebooks(static_cast<size_t>(meta.m) * 256 * sd);
  std::vector<float> sub_train(train_n * sd);
  for (uint32_t s = 0; s < meta.m; ++s) {
    for (size_t i = 0; i < train_n; ++i) {
      std::memcpy(sub_train.data() + i * sd, train.data() + i * dim_ + s * sd,
                  sd * sizeof(float));
    }
    ROTTNEST_ASSIGN_OR_RETURN(
        KMeansResult book,
        TrainKMeans(sub_train.data(), train_n, sd, 256,
                    options_.kmeans_iterations, options_.seed + s + 1));
    // book.k may be < 256 for tiny inputs; replicate the last centroid so
    // code bytes are always valid.
    for (uint32_t c = 0; c < 256; ++c) {
      uint32_t src = std::min(c, book.k - 1);
      std::memcpy(codebooks.data() + (static_cast<size_t>(s) * 256 + c) * sd,
                  book.centroids.data() + static_cast<size_t>(src) * sd,
                  sd * sizeof(float));
    }
  }

  // Assign and encode every vector. Both steps are pure per vector, so
  // they fan out on `pool` into per-vector slots; the inverted lists are
  // then filled serially in vector order, keeping list contents (and the
  // file bytes) identical to the serial build.
  std::vector<uint32_t> assignment(n);
  std::vector<std::vector<uint8_t>> codes(n);
  auto encode_one = [&](size_t i) {
    const float* vec = vectors_.data() + i * dim_;
    assignment[i] = NearestCentroid(coarse.centroids, meta.nlist, dim_, vec);
    codes[i] = PqEncode(codebooks, meta, vec);
  };
  if (pool != nullptr) {
    pool->ParallelFor(n, encode_one);
  } else {
    for (size_t i = 0; i < n; ++i) encode_one(i);
  }
  std::vector<std::vector<ListEntry>> lists(meta.nlist);
  for (size_t i = 0; i < n; ++i) {
    ListEntry e;
    e.page = locations_[i].first;
    e.row_in_page = locations_[i].second;
    e.code = std::move(codes[i]);
    lists[assignment[i]].push_back(std::move(e));
  }
  return EmitIvfFile(column_, meta, coarse.centroids, codebooks, lists, pages,
                     pool, out);
}

Status IvfPqSearch(ComponentFileReader* reader, ThreadPool* pool,
                   objectstore::IoTrace* trace, const float* query,
                   uint32_t dim, uint32_t nprobe, size_t max_candidates,
                   std::vector<VectorCandidate>* out) {
  out->clear();
  IvfMeta meta;
  std::vector<float> centroids, codebooks;
  ROTTNEST_RETURN_NOT_OK(
      OpenQuantizers(reader, pool, trace, &meta, &centroids, &codebooks));
  if (dim != meta.dim) return Status::InvalidArgument("query dim mismatch");

  std::vector<uint32_t> probes =
      NearestCentroids(centroids, meta.nlist, meta.dim, query, nprobe);
  std::vector<std::string> names;
  names.reserve(probes.size());
  for (uint32_t l : probes) names.push_back(ListName(l));
  std::vector<Slice> lists;
  // One parallel round for all probed lists.
  ROTTNEST_RETURN_NOT_OK(reader->ReadComponents(names, pool, trace, &lists));

  std::vector<float> table = BuildAdcTable(codebooks, meta, query);
  std::vector<VectorCandidate> candidates;
  for (const Slice& payload : lists) {
    std::vector<ListEntry> entries;
    ROTTNEST_RETURN_NOT_OK(DeserializeList(payload, meta.m, &entries));
    for (const ListEntry& e : entries) {
      VectorCandidate c;
      c.page = e.page;
      c.row_in_page = e.row_in_page;
      c.approx_dist = AdcDistance(table, meta.m, e.code.data());
      candidates.push_back(c);
    }
  }
  size_t keep = std::min(max_candidates, candidates.size());
  std::partial_sort(candidates.begin(), candidates.begin() + keep,
                    candidates.end(),
                    [](const VectorCandidate& a, const VectorCandidate& b) {
                      return a.approx_dist < b.approx_dist;
                    });
  candidates.resize(keep);
  *out = std::move(candidates);
  return Status::OK();
}

Status IvfPqMerge(const std::vector<ComponentFileReader*>& inputs,
                  ThreadPool* pool, objectstore::IoTrace* trace,
                  const std::string& column, Buffer* out) {
  if (inputs.empty()) return Status::InvalidArgument("no inputs to merge");

  // Survivor quantizers: the first input's.
  IvfMeta meta;
  std::vector<float> centroids, codebooks;
  ROTTNEST_RETURN_NOT_OK(OpenQuantizers(inputs[0], pool, trace, &meta,
                                        &centroids, &codebooks));

  format::PageTable merged_pages;
  std::vector<std::vector<ListEntry>> lists(meta.nlist);
  uint64_t total_vectors = 0;

  for (size_t idx = 0; idx < inputs.size(); ++idx) {
    ComponentFileReader* input = inputs[idx];
    IvfMeta in_meta;
    std::vector<float> in_centroids, in_codebooks;
    ROTTNEST_RETURN_NOT_OK(OpenQuantizers(input, pool, trace, &in_meta,
                                          &in_centroids, &in_codebooks));
    if (in_meta.dim != meta.dim) {
      return Status::InvalidArgument("merge inputs disagree on dim");
    }
    format::PageTable table;
    ROTTNEST_RETURN_NOT_OK(LoadPageTable(input, pool, trace, &table));
    format::PageId page_offset = merged_pages.Absorb(table);

    // Read all lists of this input in one round.
    std::vector<std::string> names;
    for (uint32_t l = 0; l < in_meta.nlist; ++l) names.push_back(ListName(l));
    std::vector<Slice> in_lists;
    ROTTNEST_RETURN_NOT_OK(
        input->ReadComponents(names, pool, trace, &in_lists));

    bool same_quantizers = idx == 0;
    std::vector<float> reconstructed(meta.dim);
    for (uint32_t l = 0; l < in_meta.nlist; ++l) {
      std::vector<ListEntry> entries;
      ROTTNEST_RETURN_NOT_OK(
          DeserializeList(in_lists[l], in_meta.m, &entries));
      for (ListEntry& e : entries) {
        e.page += page_offset;
        ++total_vectors;
        if (same_quantizers) {
          lists[l].push_back(std::move(e));
          continue;
        }
        // Re-encode through the survivor quantizers: decode with the
        // input's codebooks, then assign + encode with the survivor's.
        PqDecode(in_codebooks, in_meta, e.code.data(), reconstructed.data());
        uint32_t list = NearestCentroid(centroids, meta.nlist, meta.dim,
                                        reconstructed.data());
        ListEntry moved;
        moved.page = e.page;
        moved.row_in_page = e.row_in_page;
        moved.code = PqEncode(codebooks, meta, reconstructed.data());
        lists[list].push_back(std::move(moved));
      }
      // Bound the working set: the serialized list is folded into the
      // output's entry vectors above, so its cached payload is dead weight.
      input->Evict(ListName(l));
    }
  }
  meta.num_vectors = total_vectors;
  return EmitIvfFile(column, meta, centroids, codebooks, lists, merged_pages,
                     pool, out);
}

}  // namespace rottnest::index
