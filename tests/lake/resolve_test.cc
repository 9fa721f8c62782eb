// The metadata resolve: TxnLog::ReplayAll on an I/O executor.
// Covers the fallbacks that only the waves have (a rotten checkpoint whose
// gap is fetched after the walk, a pointer newer than the probed tail),
// typed truncated time travel through the waves, and the headline
// property: over a store with real per-request latency, a steady-state
// query plan waits exactly one dependent round of metadata requests (the
// tail HEADs of both logs), even while the client's compute pool is
// saturated; a cold client or a catch-up waits two. (The torn-pointer walk and
// two-log equivalence run in checkpoint_test.cc and the chaos storm.)
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/rottnest.h"
#include "lake/table.h"
#include "lake/txn_log.h"
#include "objectstore/fault_injection.h"
#include "objectstore/object_store.h"

namespace rottnest::lake {
namespace {

using format::ColumnVector;
using format::PhysicalType;
using format::RowBatch;
using format::Schema;
using objectstore::FaultInjectingStore;
using objectstore::FaultOptions;
using objectstore::InMemoryObjectStore;
using objectstore::ObjectMeta;
using objectstore::ObjectStore;

Schema IdSchema() {
  Schema s;
  s.columns.push_back({"id", PhysicalType::kInt64, 0});
  return s;
}

RowBatch IdBatch(int64_t first_id, size_t rows) {
  RowBatch b;
  b.schema = IdSchema();
  ColumnVector::Ints ids;
  for (size_t i = 0; i < rows; ++i) {
    ids.push_back(first_id + static_cast<int64_t>(i));
  }
  b.columns.emplace_back(std::move(ids));
  return b;
}

Schema BodySchema() {
  Schema s;
  s.columns.push_back({"body", PhysicalType::kByteArray, 0});
  return s;
}

RowBatch BodyBatch(int first, size_t rows) {
  RowBatch b;
  b.schema = BodySchema();
  ColumnVector::Strings bodies;
  for (size_t i = 0; i < rows; ++i) {
    bodies.push_back("row " + std::to_string(first + static_cast<int>(i)));
  }
  b.columns.emplace_back(std::move(bodies));
  return b;
}

/// Forwards to `inner`, timing every read and running `before_get` (when
/// set) ahead of each whole-object Get — the hook that scripts races.
class RecordingStore : public ObjectStore {
 public:
  struct Span {
    std::chrono::steady_clock::time_point start, end;
    std::string key;
  };

  explicit RecordingStore(ObjectStore* inner) : inner_(inner) {}

  Status Put(const std::string& key, Slice data) override {
    return inner_->Put(key, data);
  }
  Status PutIfAbsent(const std::string& key, Slice data) override {
    return inner_->PutIfAbsent(key, data);
  }
  Status Get(const std::string& key, Buffer* out) override {
    if (before_get) before_get(key);
    return Timed(key, [&] { return inner_->Get(key, out); });
  }
  Status GetRange(const std::string& key, uint64_t offset, uint64_t length,
                  Buffer* out) override {
    return Timed(key,
                 [&] { return inner_->GetRange(key, offset, length, out); });
  }
  Status Head(const std::string& key, ObjectMeta* out) override {
    return Timed(key, [&] { return inner_->Head(key, out); });
  }
  Status List(const std::string& prefix,
              std::vector<ObjectMeta>* out) override {
    return Timed(prefix, [&] { return inner_->List(prefix, out); });
  }
  Status Delete(const std::string& key) override {
    return inner_->Delete(key);
  }
  const Clock& clock() const override { return inner_->clock(); }
  const objectstore::IoStats& stats() const override {
    return inner_->stats();
  }

  std::vector<Span> TakeSpans() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

  std::function<void(const std::string&)> before_get;

 private:
  template <typename Fn>
  Status Timed(const std::string& key, Fn&& fn) {
    auto start = std::chrono::steady_clock::now();
    Status s = fn();
    auto end = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({start, end, key});
    return s;
  }

  ObjectStore* inner_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

bool IsMetadataKey(const std::string& key) {
  return key.find("/_log/") != std::string::npos ||
         key.find("/_meta/") != std::string::npos;
}

/// Dependent rounds among the metadata requests of `spans`: a request is
/// one round deeper than the deepest request that finished before it
/// started. Concurrent requests share a round; a serial chain of n
/// requests is n rounds.
int MetadataRounds(const std::vector<RecordingStore::Span>& spans) {
  std::vector<RecordingStore::Span> meta;
  for (const auto& s : spans) {
    if (IsMetadataKey(s.key)) meta.push_back(s);
  }
  std::sort(meta.begin(), meta.end(),
            [](const auto& a, const auto& b) { return a.start < b.start; });
  std::vector<int> depth(meta.size(), 1);
  int rounds = 0;
  for (size_t i = 0; i < meta.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (meta[j].end <= meta[i].start) {
        depth[i] = std::max(depth[i], depth[j] + 1);
      }
    }
    rounds = std::max(rounds, depth[i]);
  }
  return rounds;
}

class ResolveTest : public ::testing::Test {
 protected:
  /// The snapshot at `v`, replayed from version 0 without checkpoints.
  std::string FromZero(const std::string& root, Version v) {
    auto t = Table::Open(&store_, root).MoveValue();
    t->log().set_use_checkpoints(false);
    auto snap = t->GetSnapshot(v);
    EXPECT_TRUE(snap.ok()) << snap.status().ToString();
    return snap.ok() ? snap.value().DebugString() : "<error>";
  }

  SimulatedClock clock_;
  InMemoryObjectStore store_{&clock_};
  ThreadPool io_{4};
};

TEST_F(ResolveTest, TimeTravelBelowFloorIsTypedNotFoundThroughWaves) {
  auto t = Table::Create(&store_, "t", IdSchema()).MoveValue();
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(t->Append(IdBatch(i, 1)).ok());
  ASSERT_TRUE(t->Checkpoint().ok());  // Version 7.
  for (int i = 7; i < 10; ++i) ASSERT_TRUE(t->Append(IdBatch(i, 1)).ok());
  ASSERT_GT(t->TruncateLog(/*keep_versions=*/3).MoveValue(), 0u);

  auto cold = Table::Open(&store_, "t").MoveValue();
  for (Table* reader : {t.get(), cold.get()}) {
    auto old = reader->GetSnapshot(1, &io_);
    ASSERT_FALSE(old.ok());
    EXPECT_TRUE(old.status().IsNotFound()) << old.status().ToString();
    EXPECT_NE(old.status().message().find("version truncated"),
              std::string::npos)
        << old.status().ToString();
    auto latest = reader->GetSnapshot(-1, &io_);
    ASSERT_TRUE(latest.ok()) << latest.status().ToString();
    EXPECT_EQ(latest.value().version, 10);
    EXPECT_TRUE(reader->GetSnapshot(8, &io_).ok());
  }
}

TEST_F(ResolveTest, RottenCheckpointWalksToAnOlderOneAndFetchesTheGap) {
  auto t = Table::Create(&store_, "t", IdSchema()).MoveValue();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(t->Append(IdBatch(i, 2)).ok());
  ASSERT_EQ(t->Checkpoint().MoveValue(), 4);
  for (int i = 4; i < 8; ++i) ASSERT_TRUE(t->Append(IdBatch(i, 2)).ok());
  ASSERT_EQ(t->Checkpoint().MoveValue(), 8);
  for (int i = 8; i < 10; ++i) ASSERT_TRUE(t->Append(IdBatch(i, 2)).ok());
  const std::string junk = "{\"not\":\"a checkpoint\"}";
  ASSERT_TRUE(
      store_.Put(t->log().checkpointer().KeyFor(8), Slice(junk)).ok());

  auto cold = Table::Open(&store_, "t").MoveValue();
  std::vector<Json> actions;
  ReplayStats stats;
  auto v = cold->log().Replay(-1, &actions, &stats, &io_);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_EQ(v.value(), 10);
  EXPECT_TRUE(stats.used_checkpoint);
  EXPECT_EQ(stats.checkpoint_version, 4);
  // Wave 2 fetched the suffix past the rotten checkpoint (9, 10); the walk
  // then fetched the gap below it (5..8) — each entry exactly once.
  EXPECT_EQ(stats.entry_gets, 6u);
  EXPECT_EQ(cold->GetSnapshot(-1, &io_).MoveValue().DebugString(),
            FromZero("t", 10));
}

// A checkpoint lands between the tail probe and the pointer read: the
// pointer names a version past the probed tail. The read keeps the probed
// tail and seeds from the newest checkpoint at or below it.
TEST_F(ResolveTest, PointerNewerThanProbedTailWalksAndServesTheTail) {
  RecordingStore hooked(&store_);
  auto writer = Table::Create(&store_, "t", IdSchema()).MoveValue();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(writer->Append(IdBatch(i, 2)).ok());
  ASSERT_EQ(writer->Checkpoint().MoveValue(), 4);
  ASSERT_TRUE(writer->Append(IdBatch(50, 2)).ok());  // Tail 5.

  auto reader = Table::Open(&hooked, "t").MoveValue();
  ASSERT_EQ(reader->GetSnapshot().MoveValue().version, 5);  // Warm hint.

  const std::string pointer_key = writer->log().checkpointer().pointer_key();
  bool fired = false;
  hooked.before_get = [&](const std::string& key) {
    if (key != pointer_key || fired) return;
    fired = true;
    ASSERT_TRUE(writer->Append(IdBatch(60, 2)).ok());  // Version 6.
    ASSERT_EQ(writer->Checkpoint().MoveValue(), 6);
  };
  // Inline waves issue in plan order: both HEADs (tail = 5) precede the
  // pointer GET that triggers the race.
  ReplayStats stats;
  std::vector<Json> actions;
  auto v = reader->log().Replay(-1, &actions, &stats);
  ASSERT_TRUE(fired);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v.value(), 5);
  EXPECT_EQ(stats.checkpoint_version, 4);
  hooked.before_get = nullptr;
  EXPECT_EQ(reader->GetSnapshot(5).MoveValue().DebugString(),
            FromZero("t", 5));
  // The next read observes the new commit through the new checkpoint.
  auto next = reader->GetSnapshot(-1, &io_);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value().version, 6);
  EXPECT_EQ(next.value().DebugString(), FromZero("t", 6));
}

/// A client over a real 1 ms-per-request store: the table and registry
/// logs each hold a checkpoint plus a short suffix, the steady state of a
/// serving deployment.
class ResolveRoundsTest : public ::testing::Test {
 protected:
  static FaultOptions OneMilli() {
    FaultOptions f;
    f.base_latency_micros = 1000;
    return f;
  }

  void SetUp() override {
    table_ = Table::Create(&recording_, "lake/r", BodySchema()).MoveValue();
    core::RottnestOptions options;
    options.index_dir = "idx/r";
    options.num_threads = 2;
    client_ = std::make_unique<core::Rottnest>(&recording_, table_.get(),
                                               options);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(table_->Append(BodyBatch(i * 10, 10)).ok());
      ASSERT_TRUE(client_->Index("body", index::IndexType::kFm).ok());
    }
    ASSERT_TRUE(table_->Checkpoint().ok());
    ASSERT_TRUE(client_->metadata().Checkpoint().ok());
    ASSERT_TRUE(table_->Append(BodyBatch(100, 10)).ok());
    ASSERT_TRUE(client_->Index("body", index::IndexType::kFm).ok());
  }

  /// Dependent metadata rounds of one search by `client`.
  int Rounds(core::Rottnest* client) {
    recording_.TakeSpans();
    auto result = client->Execute(core::Query::Count("body", "row"));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.ok() ? result.value().count : 0u, 40u);
    return MetadataRounds(recording_.TakeSpans());
  }

  /// Dependent metadata rounds of one steady-state search (the client's
  /// state already at both tails), the fewest of `attempts` runs:
  /// scheduler noise can only add rounds, never remove them.
  int SearchRounds(int attempts = 3) {
    // SetUp's last Index committed after its own resolve: catch up first.
    EXPECT_TRUE(client_->ResolveMetadata().ok());
    int best = INT32_MAX;
    for (int a = 0; a < attempts && best > 1; ++a) {
      best = std::min(best, Rounds(client_.get()));
    }
    return best;
  }

  /// Dependent metadata rounds of the first search of a fresh client,
  /// which holds no state and replays both logs; the fewest of `attempts`.
  int ColdSearchRounds(int attempts = 3) {
    int best = INT32_MAX;
    for (int a = 0; a < attempts && best > 2; ++a) {
      core::RottnestOptions options;
      options.index_dir = "idx/r";
      options.num_threads = 2;
      core::Rottnest cold(&recording_, table_.get(), options);
      best = std::min(best, Rounds(&cold));
    }
    return best;
  }

  SimulatedClock clock_;
  InMemoryObjectStore memory_{&clock_};
  FaultInjectingStore latency_{&memory_, OneMilli()};
  RecordingStore recording_{&latency_};
  std::unique_ptr<Table> table_;
  std::unique_ptr<core::Rottnest> client_;
};

// A steady-state plan only probes both tails: one round of four HEADs.
TEST_F(ResolveRoundsTest, SteadyStatePlanMakesOneDependentRound) {
  EXPECT_EQ(SearchRounds(), 1);
}

// A client with no state replays both logs: the tail probes and pointers,
// then the checkpoints and suffixes.
TEST_F(ResolveRoundsTest, ColdClientPlanMakesTwoDependentRounds) {
  EXPECT_EQ(ColdSearchRounds(), 2);
}

// A commit since the held state costs one more round: the new entry's GET.
TEST_F(ResolveRoundsTest, CatchUpPlanMakesTwoDependentRounds) {
  ASSERT_TRUE(client_->ResolveMetadata().ok());
  int best = INT32_MAX;
  for (int a = 0; a < 3 && best > 2; ++a) {
    ASSERT_TRUE(client_->metadata().Update({}, {}).ok());  // Empty commit.
    best = std::min(best, Rounds(client_.get()));
  }
  EXPECT_EQ(best, 2);
}

TEST_F(ResolveRoundsTest, SaturatedComputePoolStillMakesOneRound) {
  // Occupy every compute thread until the searches are done.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  size_t parked = 0;
  ThreadPool* pool = client_->pool();
  for (size_t i = 0; i < pool->num_threads(); ++i) {
    pool->Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++parked;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
      --parked;
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked == pool->num_threads(); });
  }
  int rounds = SearchRounds();
  {
    // The parked tasks use this frame's mu and cv: wait until every one has
    // left them before the frame (and both) goes away.
    std::unique_lock<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
    cv.wait(lock, [&] { return parked == 0; });
  }
  EXPECT_EQ(rounds, 1);
}

}  // namespace
}  // namespace rottnest::lake
