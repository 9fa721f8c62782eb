// The benchmark's inputs: seeded synthetic lake rows, the query pool drawn
// from them, and the ground truth every answer is checked against. Inputs
// are a pure function of the workload spec and the seed; the program under
// test only ever sees the generated rows and queries.
#ifndef PERFBENCH_DATASET_H_
#define PERFBENCH_DATASET_H_

#include <array>
#include <cstdint>
#include <memory>
#include <regex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "core/query.h"
#include "format/types.h"

namespace perfbench {

using rottnest::core::QueryKind;

constexpr uint32_t kDim = 16;
constexpr size_t kUuidBytes = 16;
constexpr size_t kNumKinds = 6;  ///< QueryKind values kUuid..kCount.

inline size_t KindIndex(QueryKind k) { return static_cast<size_t>(k); }
inline QueryKind KindAt(size_t i) { return static_cast<QueryKind>(i); }

/// One generated row. Its global id is its position in Inputs::rows(); the
/// `ts` column stores that id.
struct Row {
  std::string uuid;  ///< kUuidBytes random bytes.
  std::string body;  ///< Zipfian words, plus injected needle tokens.
  std::vector<float> vec;
};

/// Everything that shapes one workload's data and query stream.
struct DataSpec {
  uint64_t base_rows = 8000;
  size_t needles = 0;         ///< Unique "qx?????z" tokens injected.
  size_t common_regexes = 0;  ///< `W\s+qx[a-z]+z` patterns (W frequent).
  /// Deleted rows: `random_delete_frac` of all rows uniformly, and about
  /// `clustered_delete_frac` of rows concentrated on the rows of a few
  /// needles.
  double random_delete_frac = 0;
  double clustered_delete_frac = 0;
  size_t ingest_batches = 0;  ///< Pre-generated append batches.
  size_t ingest_batch_rows = 0;
  /// Keyword terms are vocabulary words of Zipf rank [min, max).
  size_t term_rank_min = 10;
  size_t term_rank_max = 4096;
  std::array<size_t, kNumKinds> pool{};  ///< Distinct queries per kind.
  std::array<double, kNumKinds> mix{};   ///< Share of each kind.
  double needle_zipf_s = 0;  ///< 0: uniform needle choice; else Zipf skew.
  int tenants = 1;           ///< Zipf(1.0) tenant tags (serving layer only).
  size_t k = 10;
};

/// A distinct query of the pool with its oracle.
struct PoolQuery {
  QueryKind kind = QueryKind::kUuid;
  std::string needle;              ///< uuid bytes, substring or regex text.
  std::vector<std::string> terms;  ///< kKeyword (AND).
  std::vector<float> vec;          ///< kVector.
  std::shared_ptr<const std::regex> re;  ///< kRegex.
  /// Live matching base rows (search kinds), or the exact occurrence count
  /// over live rows (kCount).
  uint64_t live_matches = 0;
  std::vector<uint64_t> truth;  ///< kVector: exact top-k global ids.

  /// The answer's subject: does generated row `r` satisfy this query?
  bool Matches(const Row& r) const;
};

/// Generated rows and the per-kind query pools.
class Inputs {
 public:
  Inputs(const DataSpec& spec, uint64_t seed);

  const DataSpec& spec() const { return spec_; }
  const std::vector<Row>& rows() const { return rows_; }
  uint64_t base_rows() const { return spec_.base_rows; }
  bool deleted(uint64_t id) const { return deleted_[id] != 0; }
  uint64_t deleted_rows() const { return deleted_count_; }
  const std::vector<PoolQuery>& pool(QueryKind k) const {
    return pools_[KindIndex(k)];
  }

  /// The rows [first, first + n) as a batch of the benchmark schema.
  rottnest::format::RowBatch Batch(uint64_t first, uint64_t n) const;
  /// First global id of ingest batch `b`.
  uint64_t IngestFirst(size_t b) const {
    return spec_.base_rows + b * spec_.ingest_batch_rows;
  }

  /// Bytes of user data in rows [first, first + n) (all four columns).
  uint64_t UserBytes(uint64_t first, uint64_t n) const;

  /// The pool query issued as request `request` of client `client`; a
  /// pure function of the seed. `tenant` receives the serving tenant tag.
  const PoolQuery& QueryFor(int client, uint64_t request,
                            std::string* tenant) const;
  /// Share of the first `n` queries (interleaving `clients` clients) that
  /// repeat an earlier query of the sequence.
  double RepeatShare(int clients, uint64_t n) const;

  /// Builds the typed query for `q` with options `opts`.
  rottnest::core::Query MakeQuery(const PoolQuery& q,
                                  rottnest::core::SearchOptions opts) const;

 private:
  void GenerateRows();
  void ChooseDeletes(const std::vector<std::vector<uint64_t>>& needle_rows);
  void BuildPools();
  void ComputeOracle(PoolQuery* q, const std::vector<uint64_t>& candidates);
  std::vector<uint64_t> RowsWithToken(const std::string& token) const;

  DataSpec spec_;
  uint64_t seed_;
  std::vector<std::string> vocab_;
  std::vector<double> vocab_cdf_;
  std::vector<std::string> needles_;
  std::vector<std::pair<std::string, std::string>> common_pairs_;
  std::vector<Row> rows_;
  std::vector<uint8_t> deleted_;
  uint64_t deleted_count_ = 0;
  /// token -> sorted base-row ids containing it.
  std::unordered_map<std::string, std::vector<uint64_t>> postings_;
  std::array<std::vector<PoolQuery>, kNumKinds> pools_;
  std::array<std::vector<double>, kNumKinds> pick_cdf_;
  std::vector<double> kind_cdf_;
  std::vector<double> tenant_cdf_;
};

/// The benchmark table schema: ts, uuid, body, vec.
rottnest::format::Schema BenchSchema();

/// Squared L2 distance.
float L2(const float* a, const float* b, uint32_t dim);

}  // namespace perfbench

#endif  // PERFBENCH_DATASET_H_
