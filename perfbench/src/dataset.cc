#include "dataset.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>

#include "common/hash.h"
#include "index/keyword/keyword_index.h"

namespace perfbench {

using rottnest::Mix64;
using rottnest::Random;
using rottnest::Slice;
using rottnest::core::Query;
using rottnest::core::SearchOptions;
using rottnest::format::ColumnVector;
using rottnest::format::FlatFixed;

namespace {

constexpr size_t kVocabulary = 4096;
constexpr double kWordZipf = 1.1;
constexpr uint32_t kClusters = 64;
/// Ingested vectors live this far from every base vector, so appends never
/// change the exact nearest neighbours of a (base-row) vector query.
constexpr float kIngestShift = 1000.0f;
/// Words per body: kWordsMin + [0, kWordsSpread).
constexpr size_t kWordsMin = 14;
constexpr size_t kWordsSpread = 10;
/// Words per sentence before a ". " separator.
constexpr size_t kSentenceWords = 8;
/// Each needle lands in 1..kNeedleRowsMax rows.
constexpr uint64_t kNeedleRowsMax = 20;
/// Frequent words W of the common-literal regexes: ranks [10, 60).
constexpr size_t kCommonRankMin = 10;

double Unit(uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

std::vector<double> ZipfCdf(size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

size_t Pick(const std::vector<double>& cdf, double u) {
  size_t i = std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
  return std::min(i, cdf.size() - 1);
}

std::string MakeWord(Random* rng, size_t syllables) {
  static const char kConsonants[] = "bcdfghjklmnprstvwz";
  static const char kVowels[] = "aeiou";
  std::string w;
  for (size_t s = 0; s < syllables; ++s) {
    w.push_back(kConsonants[rng->Uniform(sizeof(kConsonants) - 1)]);
    w.push_back(kVowels[rng->Uniform(sizeof(kVowels) - 1)]);
  }
  return w;
}

/// Needles carry 'q' and 'x', which no vocabulary word contains, so a
/// needle occurs exactly where it was injected.
std::string MakeNeedle(Random* rng) {
  std::string n = "qx";
  for (int i = 0; i < 5; ++i) {
    n.push_back(static_cast<char>('a' + rng->Uniform(26)));
  }
  n.push_back('z');
  return n;
}

std::vector<std::string> SortedTokens(const std::string& text) {
  std::vector<std::string> toks;
  rottnest::index::Tokenize(Slice(text), &toks);
  std::sort(toks.begin(), toks.end());
  toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
  return toks;
}

uint64_t CountOccurrences(const std::string& text, const std::string& pat) {
  uint64_t n = 0;
  for (size_t pos = text.find(pat); pos != std::string::npos;
       pos = text.find(pat, pos + 1)) {
    ++n;
  }
  return n;
}

std::vector<uint64_t> Intersect(const std::vector<uint64_t>& a,
                                const std::vector<uint64_t>& b) {
  std::vector<uint64_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

}  // namespace

rottnest::format::Schema BenchSchema() {
  using rottnest::format::PhysicalType;
  rottnest::format::Schema s;
  s.columns.push_back({"ts", PhysicalType::kInt64, 0});
  s.columns.push_back({"uuid", PhysicalType::kFixedLenByteArray,
                       static_cast<uint32_t>(kUuidBytes)});
  s.columns.push_back({"body", PhysicalType::kByteArray, 0});
  s.columns.push_back({"vec", PhysicalType::kFixedLenByteArray, kDim * 4});
  return s;
}

float L2(const float* a, const float* b, uint32_t dim) {
  float d = 0;
  for (uint32_t i = 0; i < dim; ++i) {
    const float t = a[i] - b[i];
    d += t * t;
  }
  return d;
}

bool PoolQuery::Matches(const Row& r) const {
  switch (kind) {
    case QueryKind::kUuid:
      return r.uuid == needle;
    case QueryKind::kSubstring:
    case QueryKind::kCount:
      return r.body.find(needle) != std::string::npos;
    case QueryKind::kRegex:
      return std::regex_search(r.body, *re);
    case QueryKind::kKeyword: {
      const std::vector<std::string> toks = SortedTokens(r.body);
      for (const std::string& t : terms) {
        if (!std::binary_search(toks.begin(), toks.end(), t)) return false;
      }
      return true;
    }
    case QueryKind::kVector:
      return true;
  }
  return false;
}

Inputs::Inputs(const DataSpec& spec, uint64_t seed)
    : spec_(spec), seed_(seed) {
  Random vrng(Mix64(seed ^ 0x766f636162ull));
  std::unordered_set<std::string> seen;
  while (vocab_.size() < kVocabulary) {
    std::string w = MakeWord(&vrng, 2 + vocab_.size() % 3);
    if (seen.insert(w).second) vocab_.push_back(std::move(w));
  }
  vocab_cdf_ = ZipfCdf(kVocabulary, kWordZipf);
  GenerateRows();
  BuildPools();

  kind_cdf_.resize(kNumKinds);
  double total = 0;
  for (size_t i = 0; i < kNumKinds; ++i) {
    total += pools_[i].empty() ? 0 : spec_.mix[i];
    kind_cdf_[i] = total;
  }
  for (double& c : kind_cdf_) c /= total;
  for (size_t i = 0; i < kNumKinds; ++i) {
    const size_t n = pools_[i].size();
    if (n == 0) continue;
    if (spec_.needle_zipf_s > 0) {
      pick_cdf_[i] = ZipfCdf(n, spec_.needle_zipf_s);
    } else {
      pick_cdf_[i].resize(n);
      for (size_t j = 0; j < n; ++j) {
        pick_cdf_[i][j] = static_cast<double>(j + 1) / static_cast<double>(n);
      }
    }
  }
  tenant_cdf_ = ZipfCdf(static_cast<size_t>(std::max(spec_.tenants, 1)), 1.0);
}

void Inputs::GenerateRows() {
  const uint64_t base = spec_.base_rows;
  const uint64_t total = base + spec_.ingest_batches * spec_.ingest_batch_rows;
  Random crng(Mix64(seed_ ^ 0x63656e74ull));
  std::vector<float> centers(static_cast<size_t>(kClusters) * kDim);
  for (float& c : centers) c = static_cast<float>(crng.NextGaussian() * 25.0);

  std::vector<std::vector<std::string>> words(total);
  rows_.resize(total);
  for (uint64_t g = 0; g < total; ++g) {
    Random rng(Mix64(seed_ * 0x9E3779B97F4A7C15ull + g));
    Row& r = rows_[g];
    r.uuid.resize(kUuidBytes);
    for (size_t b = 0; b < kUuidBytes; b += 8) {
      uint64_t word = rng.Next();
      for (size_t j = 0; j < 8; ++j) {
        r.uuid[b + j] = static_cast<char>(word >> (8 * j));
      }
    }
    const size_t n = kWordsMin + rng.Uniform(kWordsSpread);
    for (size_t w = 0; w < n; ++w) {
      words[g].push_back(vocab_[Pick(vocab_cdf_, rng.NextDouble())]);
    }
    const uint32_t cluster = static_cast<uint32_t>(rng.Uniform(kClusters));
    r.vec.resize(kDim);
    for (uint32_t d = 0; d < kDim; ++d) {
      r.vec[d] = centers[cluster * kDim + d] +
                 static_cast<float>(rng.NextGaussian()) +
                 (g >= base ? kIngestShift : 0.0f);
    }
  }

  // Needles, each injected into 1..kNeedleRowsMax base rows at a position
  // that is never the last word.
  Random irng(Mix64(seed_ ^ 0x6e65656462ull));
  std::unordered_set<std::string> taken;
  while (needles_.size() < spec_.needles) {
    std::string n = MakeNeedle(&irng);
    if (taken.insert(n).second) needles_.push_back(std::move(n));
  }
  std::vector<std::vector<uint64_t>> needle_rows(needles_.size());
  for (size_t i = 0; i < needles_.size(); ++i) {
    const uint64_t m = 1 + irng.Uniform(kNeedleRowsMax);
    for (uint64_t j = 0; j < m; ++j) {
      const uint64_t g = irng.Uniform(base);
      auto& w = words[g];
      w.insert(w.begin() + static_cast<long>(irng.Uniform(w.size())),
               needles_[i]);
      needle_rows[i].push_back(g);
    }
  }
  // Common-literal regex targets: a frequent word W directly followed by a
  // needle, planted in three rows each.
  for (size_t j = 0; j < spec_.common_regexes && !needles_.empty(); ++j) {
    const std::string& w = vocab_[kCommonRankMin + irng.Uniform(50)];
    const size_t ni = irng.Uniform(needles_.size());
    common_pairs_.emplace_back(w, needles_[ni]);
    for (int rep = 0; rep < 3; ++rep) {
      const uint64_t g = irng.Uniform(base);
      auto& ws = words[g];
      auto at = ws.begin() + static_cast<long>(irng.Uniform(ws.size()));
      at = ws.insert(at, needles_[ni]);
      ws.insert(at, w);
      needle_rows[ni].push_back(g);
    }
  }

  for (uint64_t g = 0; g < total; ++g) {
    std::string& body = rows_[g].body;
    const auto& ws = words[g];
    for (size_t w = 0; w < ws.size(); ++w) {
      body += ws[w];
      if (w + 1 < ws.size()) {
        body += (w % kSentenceWords == kSentenceWords - 1) ? ". " : " ";
      }
    }
  }
  for (uint64_t g = 0; g < base; ++g) {
    for (const std::string& t : SortedTokens(rows_[g].body)) {
      postings_[t].push_back(g);
    }
  }
  ChooseDeletes(needle_rows);
}

void Inputs::ChooseDeletes(
    const std::vector<std::vector<uint64_t>>& needle_rows) {
  deleted_.assign(rows_.size(), 0);
  const uint64_t base = spec_.base_rows;
  Random drng(Mix64(seed_ ^ 0x64656cull));
  if (spec_.random_delete_frac > 0) {
    for (uint64_t g = 0; g < base; ++g) {
      if (drng.NextDouble() < spec_.random_delete_frac) deleted_[g] = 1;
    }
  }
  // Clustered deletes: most rows of a random subset of needles, until the
  // target share of rows is reached.
  const uint64_t target =
      static_cast<uint64_t>(spec_.clustered_delete_frac *
                            static_cast<double>(base));
  uint64_t clustered = 0;
  std::vector<size_t> order(needle_rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[drng.Uniform(i)]);
  }
  for (size_t i : order) {
    if (clustered >= target) break;
    for (uint64_t g : needle_rows[i]) {
      if (drng.NextDouble() < 0.8 && deleted_[g] == 0) {
        deleted_[g] = 1;
        ++clustered;
      }
    }
  }
  deleted_count_ = 0;
  for (uint8_t d : deleted_) deleted_count_ += d;
}

std::vector<uint64_t> Inputs::RowsWithToken(const std::string& token) const {
  auto it = postings_.find(token);
  return it == postings_.end() ? std::vector<uint64_t>{} : it->second;
}

void Inputs::ComputeOracle(PoolQuery* q,
                           const std::vector<uint64_t>& candidates) {
  uint64_t n = 0;
  for (uint64_t g : candidates) {
    if (deleted(g)) continue;
    if (q->kind == QueryKind::kCount) {
      n += CountOccurrences(rows_[g].body, q->needle);
    } else if (q->Matches(rows_[g])) {
      ++n;
    }
  }
  q->live_matches = n;
}

void Inputs::BuildPools() {
  const uint64_t base = spec_.base_rows;
  Random prng(Mix64(seed_ ^ 0x706f6f6cull));
  std::unordered_map<std::string, size_t> rank;
  for (size_t i = 0; i < vocab_.size(); ++i) rank.emplace(vocab_[i], i);
  std::vector<uint64_t> qx_rows;
  for (uint64_t g = 0; g < base; ++g) {
    if (rows_[g].body.find("qx") != std::string::npos) qx_rows.push_back(g);
  }
  auto live_row = [&]() {
    for (;;) {
      const uint64_t g = prng.Uniform(base);
      if (!deleted(g)) return g;
    }
  };

  for (size_t ki = 0; ki < kNumKinds; ++ki) {
    const QueryKind kind = KindAt(ki);
    const size_t size = spec_.pool[ki];
    auto& pool = pools_[ki];
    for (size_t i = 0; i < size; ++i) {
      PoolQuery q;
      q.kind = kind;
      std::vector<uint64_t> candidates;
      switch (kind) {
        case QueryKind::kUuid: {
          const uint64_t g = live_row();
          q.needle = rows_[g].uuid;
          candidates = {g};
          break;
        }
        case QueryKind::kSubstring:
        case QueryKind::kCount: {
          q.needle = needles_[(i * 7 + ki) % needles_.size()];
          candidates = RowsWithToken(q.needle);
          break;
        }
        case QueryKind::kRegex: {
          // The first pool entries are common-literal patterns (frequent
          // W, rare full match); the rest anchor on a needle literal.
          if (i < common_pairs_.size()) {
            const std::string& w = common_pairs_[i].first;
            q.needle = w + "\\s+qx[a-z]+z";
            // W may also match as the tail of a longer word, so the
            // candidates are every needle row containing W anywhere.
            for (uint64_t g : qx_rows) {
              if (rows_[g].body.find(w) != std::string::npos) {
                candidates.push_back(g);
              }
            }
          } else {
            const std::string& n = needles_[(i * 13) % needles_.size()];
            q.needle = n + "\\s+[a-z]+";
            candidates = RowsWithToken(n);
          }
          q.re = std::make_shared<const std::regex>(q.needle,
                                                    std::regex::ECMAScript);
          break;
        }
        case QueryKind::kKeyword: {
          for (;;) {
            const std::vector<std::string> toks =
                SortedTokens(rows_[live_row()].body);
            std::vector<std::string> eligible;
            for (const std::string& t : toks) {
              auto it = rank.find(t);
              if (it != rank.end() && it->second >= spec_.term_rank_min &&
                  it->second < spec_.term_rank_max) {
                eligible.push_back(t);
              }
            }
            if (eligible.size() < 2) continue;
            const size_t a = prng.Uniform(eligible.size());
            size_t b = prng.Uniform(eligible.size() - 1);
            if (b >= a) ++b;
            q.terms = {eligible[a], eligible[b]};
            break;
          }
          std::sort(q.terms.begin(), q.terms.end());
          candidates =
              Intersect(RowsWithToken(q.terms[0]), RowsWithToken(q.terms[1]));
          break;
        }
        case QueryKind::kVector: {
          const uint64_t g = live_row();
          q.vec = rows_[g].vec;
          for (float& x : q.vec) {
            x += static_cast<float>(prng.NextGaussian() * 0.3);
          }
          std::vector<std::pair<float, uint64_t>> d;
          d.reserve(base);
          for (uint64_t r = 0; r < base; ++r) {
            if (deleted(r)) continue;
            d.emplace_back(L2(q.vec.data(), rows_[r].vec.data(), kDim), r);
          }
          const size_t kk = std::min(spec_.k, d.size());
          std::partial_sort(d.begin(), d.begin() + static_cast<long>(kk),
                            d.end());
          for (size_t j = 0; j < kk; ++j) q.truth.push_back(d[j].second);
          q.live_matches = kk;
          break;
        }
      }
      if (kind != QueryKind::kVector) ComputeOracle(&q, candidates);
      pool.push_back(std::move(q));
    }
  }
}

rottnest::format::RowBatch Inputs::Batch(uint64_t first, uint64_t n) const {
  rottnest::format::RowBatch batch;
  batch.schema = BenchSchema();
  ColumnVector::Ints ts;
  FlatFixed ids;
  ids.elem_size = static_cast<uint32_t>(kUuidBytes);
  ColumnVector::Strings bodies;
  FlatFixed vecs;
  vecs.elem_size = kDim * 4;
  for (uint64_t g = first; g < first + n; ++g) {
    const Row& r = rows_[g];
    ts.push_back(static_cast<int64_t>(g));
    ids.Append(Slice(r.uuid));
    bodies.push_back(r.body);
    vecs.Append(Slice(reinterpret_cast<const uint8_t*>(r.vec.data()),
                      r.vec.size() * sizeof(float)));
  }
  batch.columns.emplace_back(std::move(ts));
  batch.columns.emplace_back(std::move(ids));
  batch.columns.emplace_back(std::move(bodies));
  batch.columns.emplace_back(std::move(vecs));
  return batch;
}

uint64_t Inputs::UserBytes(uint64_t first, uint64_t n) const {
  uint64_t bytes = 0;
  for (uint64_t g = first; g < first + n; ++g) {
    bytes += sizeof(int64_t) + kUuidBytes + rows_[g].body.size() +
             kDim * sizeof(float);
  }
  return bytes;
}

const PoolQuery& Inputs::QueryFor(int client, uint64_t request,
                                  std::string* tenant) const {
  const uint64_t h =
      Mix64(seed_ ^ Mix64(static_cast<uint64_t>(client) * 0x9E37ull + 1) ^
            Mix64(request * 0x51EDull + 7));
  const size_t ki = Pick(kind_cdf_, Unit(Mix64(h + 1)));
  const size_t qi = Pick(pick_cdf_[ki], Unit(Mix64(h + 2)));
  if (tenant != nullptr) {
    *tenant = "tenant-" + std::to_string(Pick(tenant_cdf_, Unit(Mix64(h + 3))));
  }
  return pools_[ki][qi];
}

double Inputs::RepeatShare(int clients, uint64_t n) const {
  std::unordered_set<const PoolQuery*> seen;
  uint64_t repeats = 0, issued = 0;
  for (uint64_t r = 0; issued < n; ++r) {
    for (int c = 0; c < clients && issued < n; ++c, ++issued) {
      if (!seen.insert(&QueryFor(c, r, nullptr)).second) ++repeats;
    }
  }
  return n == 0 ? 0 : static_cast<double>(repeats) / static_cast<double>(n);
}

Query Inputs::MakeQuery(const PoolQuery& q, SearchOptions opts) const {
  const size_t k = spec_.k;
  switch (q.kind) {
    case QueryKind::kUuid:
      return Query::Uuid("uuid", q.needle, k, std::move(opts));
    case QueryKind::kSubstring:
      return Query::Substring("body", q.needle, k, std::move(opts));
    case QueryKind::kRegex:
      return Query::Regex("body", q.needle, k, std::move(opts));
    case QueryKind::kVector:
      return Query::Vector("vec", q.vec, k, std::move(opts));
    case QueryKind::kKeyword:
      return Query::MakeKeyword("body", q.terms,
                                rottnest::core::KeywordMode::kAnd, k,
                                std::move(opts));
    case QueryKind::kCount:
      break;
  }
  return Query::Count("body", q.needle, std::move(opts));
}

}  // namespace perfbench
