// Protocol correctness tests (paper §IV-D): the Existence and Consistency
// invariants must hold after every step of index / compact / vacuum,
// including injected failures at each protocol state and concurrent
// lake-side mutations.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/rottnest.h"
#include "objectstore/object_store.h"

namespace rottnest::core {
namespace {

using format::ColumnVector;
using format::PhysicalType;
using format::RowBatch;
using format::Schema;
using index::IndexType;
using lake::Table;
using objectstore::InMemoryObjectStore;

Schema MakeSchema() {
  Schema s;
  s.columns.push_back({"uuid", PhysicalType::kFixedLenByteArray, 16});
  return s;
}

std::string UuidFor(uint64_t id) {
  std::string u(16, '\0');
  uint64_t hi = Mix64(id), lo = Mix64(id ^ 0x5a5a);
  for (int i = 0; i < 8; ++i) {
    u[i] = static_cast<char>(hi >> (56 - 8 * i));
    u[8 + i] = static_cast<char>(lo >> (56 - 8 * i));
  }
  return u;
}

class ProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = Table::Create(&store_, "lake/p", MakeSchema()).MoveValue();
    client_ = std::make_unique<Rottnest>(&store_, table_.get(), Options());
  }

  static RottnestOptions Options() {
    RottnestOptions options;
    options.index_dir = "idx/p";
    options.index_timeout_micros = 60LL * 1'000'000;  // 60 simulated secs.
    return options;
  }

  void Append(uint64_t first_id, size_t rows) {
    RowBatch b;
    b.schema = MakeSchema();
    format::FlatFixed uuids;
    uuids.elem_size = 16;
    for (size_t i = 0; i < rows; ++i) {
      std::string u = UuidFor(first_id + i);
      uuids.Append(Slice(u));
    }
    b.columns.emplace_back(std::move(uuids));
    ASSERT_TRUE(table_->Append(b).ok());
  }

  size_t CountIndexObjects() {
    std::vector<objectstore::ObjectMeta> listing;
    EXPECT_TRUE(store_.List("idx/p/", &listing).ok());
    size_t count = 0;
    for (const auto& obj : listing) {
      if (obj.key.size() >= 6 &&
          obj.key.compare(obj.key.size() - 6, 6, ".index") == 0) {
        ++count;
      }
    }
    return count;
  }

  SimulatedClock clock_;
  InMemoryObjectStore store_{&clock_};
  std::unique_ptr<Table> table_;
  std::unique_ptr<Rottnest> client_;
};

TEST_F(ProtocolTest, InvariantsHoldAfterNormalOperation) {
  Append(0, 100);
  ASSERT_TRUE(client_->Index("uuid", IndexType::kTrie).ok());
  ASSERT_TRUE(client_->CheckInvariants().ok());
  Append(100, 100);
  ASSERT_TRUE(client_->Index("uuid", IndexType::kTrie).ok());
  ASSERT_TRUE(client_->CheckInvariants().ok());
}

TEST_F(ProtocolTest, FailureBeforeUploadLeavesCleanState) {
  Append(0, 100);
  // Fail every index-file upload: the commit never happens.
  store_.SetFailurePoint([](const std::string& op, const std::string& key) {
    if (op == "put" && key.find(".index") != std::string::npos) {
      return Status::IOError("injected: crash before upload completes");
    }
    return Status::OK();
  });
  EXPECT_FALSE(client_->Index("uuid", IndexType::kTrie).ok());
  store_.SetFailurePoint(nullptr);

  // Metadata references nothing; invariants hold; search still works via
  // brute-force fallback.
  ASSERT_TRUE(client_->CheckInvariants().ok());
  auto result = client_->SearchUuid("uuid", Slice(UuidFor(5)), 5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().matches.size(), 1u);
  EXPECT_EQ(result.value().files_scanned, 1u);
}

TEST_F(ProtocolTest, FailureBeforeCommitLeavesOrphanNotCorruption) {
  Append(0, 100);
  // Let the upload succeed but fail the metadata-table commit.
  store_.SetFailurePoint([](const std::string& op, const std::string& key) {
    if (op == "put_if_absent" && key.find("idx/p/_meta/") == 0) {
      return Status::IOError("injected: crash before commit");
    }
    return Status::OK();
  });
  EXPECT_FALSE(client_->Index("uuid", IndexType::kTrie).ok());
  store_.SetFailurePoint(nullptr);

  // An orphan index object exists but is NOT referenced: invariants hold.
  EXPECT_EQ(CountIndexObjects(), 1u);
  ASSERT_TRUE(client_->CheckInvariants().ok());

  // A retry indexes the same files again (the orphan is ignored).
  auto retry = client_->Index("uuid", IndexType::kTrie);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.value().covered_files.size(), 1u);
  ASSERT_TRUE(client_->CheckInvariants().ok());
  EXPECT_EQ(CountIndexObjects(), 2u);  // Orphan + committed.

  // Vacuum before the timeout must NOT delete the young orphan (it cannot
  // distinguish it from an in-flight upload)...
  auto vac = client_->Vacuum(0);
  ASSERT_TRUE(vac.ok());
  EXPECT_EQ(vac.value().objects_deleted, 0u);
  EXPECT_EQ(CountIndexObjects(), 2u);

  // ...but after the timeout it can.
  clock_.Advance(Options().index_timeout_micros + 1'000'000);
  vac = client_->Vacuum(0);
  ASSERT_TRUE(vac.ok());
  EXPECT_EQ(vac.value().objects_deleted, 1u);
  EXPECT_EQ(CountIndexObjects(), 1u);
  ASSERT_TRUE(client_->CheckInvariants().ok());
}

TEST_F(ProtocolTest, IndexTimeoutAborts) {
  Append(0, 100);
  RottnestOptions options = Options();
  options.index_timeout_micros = 0;  // Expire immediately.
  Rottnest slow(&store_, table_.get(), options);
  clock_.Advance(1);
  auto report = slow.Index("uuid", IndexType::kTrie);
  EXPECT_TRUE(report.status().IsAborted());
  ASSERT_TRUE(client_->CheckInvariants().ok());
}

TEST_F(ProtocolTest, IndexAbortsWhenDataFileVanishes) {
  Append(0, 100);
  auto snap = table_->GetSnapshot().MoveValue();
  // Simulate aggressive lake GC deleting the data file mid-index.
  store_.SetFailurePoint([&](const std::string& op, const std::string& key) {
    if ((op == "head" || op == "get") && key == snap.files[0].path) {
      return Status::NotFound("injected: vanished");
    }
    return Status::OK();
  });
  auto report = client_->Index("uuid", IndexType::kTrie);
  EXPECT_TRUE(report.status().IsAborted()) << report.status().ToString();
  store_.SetFailurePoint(nullptr);
  ASSERT_TRUE(client_->CheckInvariants().ok());
}

TEST_F(ProtocolTest, CompactionSwapsEntriesAtomically) {
  for (int i = 0; i < 4; ++i) {
    Append(i * 100, 100);
    ASSERT_TRUE(client_->Index("uuid", IndexType::kTrie).ok());
  }
  auto entries = client_->metadata().ReadAll().MoveValue();
  ASSERT_EQ(entries.size(), 4u);

  auto report = client_->Compact("uuid", IndexType::kTrie);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().replaced.size(), 4u);

  entries = client_->metadata().ReadAll().MoveValue();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].covered_files.size(), 4u);
  ASSERT_TRUE(client_->CheckInvariants().ok());

  // Search still answers from the merged index with no fallback scans.
  auto result = client_->SearchUuid("uuid", Slice(UuidFor(250)), 5);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().matches.size(), 1u);
  EXPECT_EQ(result.value().indexes_queried, 1u);
  EXPECT_EQ(result.value().files_scanned, 0u);
}

TEST_F(ProtocolTest, CompactionFailureBeforeCommitKeepsOldEntries) {
  for (int i = 0; i < 2; ++i) {
    Append(i * 100, 100);
    ASSERT_TRUE(client_->Index("uuid", IndexType::kTrie).ok());
  }
  store_.SetFailurePoint([](const std::string& op, const std::string& key) {
    if (op == "put_if_absent" && key.find("idx/p/_meta/") == 0) {
      return Status::IOError("injected");
    }
    return Status::OK();
  });
  EXPECT_FALSE(client_->Compact("uuid", IndexType::kTrie).ok());
  store_.SetFailurePoint(nullptr);

  // Old entries intact; search unaffected.
  auto entries = client_->metadata().ReadAll().MoveValue();
  EXPECT_EQ(entries.size(), 2u);
  ASSERT_TRUE(client_->CheckInvariants().ok());
  auto result = client_->SearchUuid("uuid", Slice(UuidFor(150)), 5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().matches.size(), 1u);
}

TEST_F(ProtocolTest, VacuumRemovesReplacedIndexFiles) {
  for (int i = 0; i < 3; ++i) {
    Append(i * 100, 100);
    ASSERT_TRUE(client_->Index("uuid", IndexType::kTrie).ok());
  }
  ASSERT_TRUE(client_->Compact("uuid", IndexType::kTrie).ok());
  EXPECT_EQ(CountIndexObjects(), 4u);  // 3 old + merged.

  clock_.Advance(Options().index_timeout_micros + 1'000'000);
  auto latest = table_->GetSnapshot().MoveValue();
  auto vac = client_->Vacuum(latest.version);
  ASSERT_TRUE(vac.ok()) << vac.status().ToString();
  EXPECT_EQ(vac.value().objects_deleted, 3u);
  EXPECT_EQ(CountIndexObjects(), 1u);
  ASSERT_TRUE(client_->CheckInvariants().ok());

  auto result = client_->SearchUuid("uuid", Slice(UuidFor(42)), 5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().matches.size(), 1u);
}

TEST_F(ProtocolTest, VacuumDropsIndexesForDeadSnapshots) {
  Append(0, 100);
  ASSERT_TRUE(client_->Index("uuid", IndexType::kTrie).ok());
  // The lake compacts (single-file no-op requires >= 2 files; append more).
  Append(100, 100);
  ASSERT_TRUE(client_->Index("uuid", IndexType::kTrie).ok());
  ASSERT_TRUE(table_->CompactFiles(UINT64_MAX).ok());
  ASSERT_TRUE(client_->Index("uuid", IndexType::kTrie).ok());

  auto latest = table_->GetSnapshot().MoveValue();
  // Keep only the latest snapshot: indexes over the dead pre-compaction
  // files are no longer needed.
  clock_.Advance(Options().index_timeout_micros + 1'000'000);
  auto vac = client_->Vacuum(latest.version);
  ASSERT_TRUE(vac.ok());
  EXPECT_EQ(vac.value().metadata_entries_removed, 2u);
  EXPECT_EQ(vac.value().objects_deleted, 2u);
  ASSERT_TRUE(client_->CheckInvariants().ok());

  auto result = client_->SearchUuid("uuid", Slice(UuidFor(150)), 5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().matches.size(), 1u);
  EXPECT_EQ(result.value().files_scanned, 0u);
}

TEST_F(ProtocolTest, VacuumKeepsIndexesForRetainedSnapshots) {
  Append(0, 100);
  ASSERT_TRUE(client_->Index("uuid", IndexType::kTrie).ok());
  Append(100, 100);
  ASSERT_TRUE(client_->Index("uuid", IndexType::kTrie).ok());
  ASSERT_TRUE(table_->CompactFiles(UINT64_MAX).ok());
  ASSERT_TRUE(client_->Index("uuid", IndexType::kTrie).ok());

  clock_.Advance(Options().index_timeout_micros + 1'000'000);
  // Retain everything from snapshot 0: the old files are still "active",
  // so their index entries survive.
  auto vac = client_->Vacuum(0);
  ASSERT_TRUE(vac.ok());
  EXPECT_EQ(vac.value().metadata_entries_removed, 0u);
  ASSERT_TRUE(client_->CheckInvariants().ok());
}

TEST(VacuumCoverTest, KeepsIndexesOfEveryColumnAndType) {
  // Regression: the vacuum greedy cover used to track covered data files
  // globally, so an index on one column could "cover" the files of another
  // column's index and vacuum would delete a live entry (which entry lost
  // depended on ReadAll's randomized name order). Coverage is per
  // (column, index_type); with one index per column over the same files,
  // vacuum must keep both.
  SimulatedClock clock;
  InMemoryObjectStore store(&clock);
  Schema schema;
  schema.columns.push_back({"uuid", PhysicalType::kFixedLenByteArray, 16});
  schema.columns.push_back({"body", PhysicalType::kByteArray, 0});
  auto table = Table::Create(&store, "lake/vc", schema).MoveValue();

  RowBatch b;
  b.schema = schema;
  format::FlatFixed uuids;
  uuids.elem_size = 16;
  ColumnVector::Strings bodies;
  for (int i = 0; i < 200; ++i) {
    std::string u = UuidFor(i);
    uuids.Append(Slice(u));
    bodies.push_back("payload number " + std::to_string(i));
  }
  b.columns.emplace_back(std::move(uuids));
  b.columns.emplace_back(std::move(bodies));
  ASSERT_TRUE(table->Append(b).ok());

  RottnestOptions options;
  options.index_dir = "idx/vc";
  options.index_timeout_micros = 60LL * 1'000'000;
  options.fm.block_size = 2048;
  Rottnest client(&store, table.get(), options);
  ASSERT_TRUE(client.Index("uuid", IndexType::kTrie).ok());
  ASSERT_TRUE(client.Index("body", IndexType::kFm).ok());

  clock.Advance(options.index_timeout_micros + 1'000'000);
  auto latest = table->GetSnapshot().MoveValue();
  auto vac = client.Vacuum(latest.version);
  ASSERT_TRUE(vac.ok()) << vac.status().ToString();
  EXPECT_EQ(vac.value().metadata_entries_removed, 0u);
  EXPECT_EQ(vac.value().objects_deleted, 0u);
  ASSERT_TRUE(client.CheckInvariants().ok());

  // Both searches stay index-served — no brute-scan fallback for a column
  // whose index was wrongly vacuumed.
  auto u = client.SearchUuid("uuid", Slice(UuidFor(42)), 5);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u.value().matches.size(), 1u);
  EXPECT_EQ(u.value().files_scanned, 0u);
  auto s = client.SearchSubstring("body", "number 42", 5);
  ASSERT_TRUE(s.ok());
  EXPECT_FALSE(s.value().matches.empty());
  EXPECT_EQ(s.value().files_scanned, 0u);
}

TEST_F(ProtocolTest, ConcurrentIndexersDoNotViolateInvariants) {
  // The paper allows (discourages, but allows) concurrent indexers on the
  // same column: both commit, files get doubly indexed, nothing breaks.
  Append(0, 200);
  Rottnest other(&store_, table_.get(), Options());
  auto a = client_->Index("uuid", IndexType::kTrie);
  auto b = other.Index("uuid", IndexType::kTrie);
  ASSERT_TRUE(a.ok());
  // b may be a no-op (saw a's commit) or a duplicate index; both legal.
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(client_->CheckInvariants().ok());

  // Search dedups matches across duplicate indexes.
  auto result = client_->SearchUuid("uuid", Slice(UuidFor(7)), 5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().matches.size(), 1u);
}

TEST_F(ProtocolTest, RandomizedCrashRecoveryFuzz) {
  // Inject a failure at a random operation repeatedly; after every failed
  // call, invariants must hold and search must stay correct.
  Random rng(2024);
  uint64_t next_id = 0;
  for (int round = 0; round < 15; ++round) {
    Append(next_id, 50);
    next_id += 50;

    int fail_after = static_cast<int>(rng.Uniform(6));
    int counter = 0;
    store_.SetFailurePoint(
        [&](const std::string& op, const std::string& key) {
          if (key.find("idx/p/") != 0) return Status::OK();
          if (op != "put" && op != "put_if_absent") return Status::OK();
          if (counter++ == fail_after) {
            return Status::IOError("injected crash");
          }
          return Status::OK();
        });
    (void)client_->Index("uuid", IndexType::kTrie);
    (void)client_->Compact("uuid", IndexType::kTrie);
    store_.SetFailurePoint(nullptr);

    ASSERT_TRUE(client_->CheckInvariants().ok()) << "round " << round;
    uint64_t probe = rng.Uniform(next_id);
    auto result = client_->SearchUuid("uuid", Slice(UuidFor(probe)), 3);
    ASSERT_TRUE(result.ok()) << "round " << round;
    ASSERT_EQ(result.value().matches.size(), 1u)
        << "round " << round << " id " << probe;
  }
  // Converge: a clean index + compact + vacuum leaves a tidy state.
  ASSERT_TRUE(client_->Index("uuid", IndexType::kTrie).ok());
  ASSERT_TRUE(client_->Compact("uuid", IndexType::kTrie).ok());
  clock_.Advance(Options().index_timeout_micros + 1'000'000);
  auto latest = table_->GetSnapshot().MoveValue();
  ASSERT_TRUE(client_->Vacuum(latest.version).ok());
  ASSERT_TRUE(client_->CheckInvariants().ok());
  auto result = client_->SearchUuid("uuid", Slice(UuidFor(1)), 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().matches.size(), 1u);
}

}  // namespace
}  // namespace rottnest::core
