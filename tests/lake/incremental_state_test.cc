// Differential test of the client's incremental metadata state
// (Rottnest::ResolveMetadata): a seeded history of appends, deletes, file
// compactions, index builds, index compactions, vacuums, checkpoints of
// both logs and log truncations runs against one writer, while a separate
// reader client catches up. At every version the reader's state must
// equal a replay from version 0 — the table snapshot byte for byte and the
// registry entries in the same order — and its `meta.state.*` counters
// must say which resolves caught up and which replayed in full. A reader
// idle across a checkpoint plus TruncateLog(0) still resolves "latest"
// (through the full replay), and time travel below the retention floor
// still fails with the typed NotFound.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/rottnest.h"
#include "lake/metadata_table.h"
#include "lake/table.h"
#include "obs/metrics.h"
#include "objectstore/object_store.h"

namespace rottnest::lake {
namespace {

using format::ColumnVector;
using format::PhysicalType;
using format::RowBatch;
using format::Schema;
using index::IndexType;
using objectstore::InMemoryObjectStore;
using objectstore::ObjectMeta;
using objectstore::ObjectStore;

constexpr char kRoot[] = "lake/d";
constexpr char kIndexDir[] = "idx/d";

Schema DiffSchema() {
  Schema s;
  s.columns.push_back({"id", PhysicalType::kInt64, 0});
  s.columns.push_back({"body", PhysicalType::kByteArray, 0});
  return s;
}

RowBatch DiffBatch(int64_t first_id, size_t rows) {
  RowBatch b;
  b.schema = DiffSchema();
  ColumnVector::Ints ids;
  ColumnVector::Strings bodies;
  for (size_t i = 0; i < rows; ++i) {
    const int64_t id = first_id + static_cast<int64_t>(i);
    ids.push_back(id);
    bodies.push_back("row " + std::to_string(id) + " word" +
                     std::to_string(id % 5));
  }
  b.columns.emplace_back(std::move(ids));
  b.columns.emplace_back(std::move(bodies));
  return b;
}

/// Writes to `primary` and keeps a copy of every object in `archive`,
/// where nothing is ever deleted: log entries that retention removes from
/// the primary stay there for the replay-from-0 oracle. Reads go to the
/// primary.
class ArchivingStore : public ObjectStore {
 public:
  ArchivingStore(ObjectStore* primary, ObjectStore* archive)
      : primary_(primary), archive_(archive) {}

  Status Put(const std::string& key, Slice data) override {
    ROTTNEST_RETURN_NOT_OK(primary_->Put(key, data));
    return archive_->Put(key, data);
  }
  Status PutIfAbsent(const std::string& key, Slice data) override {
    ROTTNEST_RETURN_NOT_OK(primary_->PutIfAbsent(key, data));
    return archive_->Put(key, data);
  }
  Status Get(const std::string& key, Buffer* out) override {
    return primary_->Get(key, out);
  }
  Status GetRange(const std::string& key, uint64_t offset, uint64_t length,
                  Buffer* out) override {
    return primary_->GetRange(key, offset, length, out);
  }
  Status Head(const std::string& key, ObjectMeta* out) override {
    return primary_->Head(key, out);
  }
  Status List(const std::string& prefix,
              std::vector<ObjectMeta>* out) override {
    return primary_->List(prefix, out);
  }
  Status Delete(const std::string& key) override {
    return primary_->Delete(key);
  }
  const Clock& clock() const override { return primary_->clock(); }
  const objectstore::IoStats& stats() const override {
    return primary_->stats();
  }

 private:
  ObjectStore* primary_;
  ObjectStore* archive_;
};

std::string Dump(const std::vector<IndexEntry>& entries) {
  std::string out;
  for (const IndexEntry& e : entries) {
    out += e.index_path + " " + e.index_type + " " + e.column + " " +
           std::to_string(e.rows) + " " + std::to_string(e.created_micros);
    for (const std::string& f : e.covered_files) out += " " + f;
    out += "\n";
  }
  return out;
}

core::RottnestOptions ClientOptions() {
  core::RottnestOptions o;
  o.index_dir = kIndexDir;
  o.num_threads = 2;
  o.fm.block_size = 512;
  o.fm.sample_rate = 8;
  return o;
}

/// One writer (table + client) and one reader client over a separate
/// Table instance with `meta.*` metrics attached, sharing one bucket; the
/// writer also archives every object it writes for the oracle.
class IncrementalStateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    writer_table_ =
        Table::Create(&writes_, kRoot, DiffSchema()).MoveValue();
    writer_ = std::make_unique<core::Rottnest>(&writes_, writer_table_.get(),
                                               ClientOptions());
    reader_table_ = Table::Open(&primary_, kRoot).MoveValue();
    reader_ = std::make_unique<core::Rottnest>(&primary_, reader_table_.get(),
                                               ClientOptions());
    reader_table_->AttachMetrics(&registry_);
    reader_->metadata().AttachMetrics(&registry_);
    oracle_table_ = Table::Open(&archive_, kRoot).MoveValue();
    oracle_table_->log().set_use_checkpoints(false);
    oracle_registry_ = std::make_unique<MetadataTable>(&archive_, kIndexDir);
    oracle_registry_->log().set_use_checkpoints(false);
  }

  uint64_t Applied() {
    return registry_.GetCounter("meta.state.entries_applied")->value();
  }
  uint64_t FullReplays() {
    return registry_.GetCounter("meta.state.full_replays")->value();
  }

  /// The retention floor of `log` (0 when nothing was truncated).
  static Version Floor(TxnLog& log) {
    auto ptr = log.checkpointer().ReadPointer();
    return ptr.ok() ? ptr.value().truncated_before : 0;
  }

  /// The tail of `log`, -1 when it is empty.
  static Version Tail(TxnLog& log) {
    auto v = log.LatestVersion();
    return v.ok() ? v.value() : -1;
  }

  /// Adds what resolving one log from `since` to `tail` should add to the
  /// counters: nothing when the tail stayed, the new entries on a
  /// catch-up, one full replay without held state or when retention
  /// removed the first new entry.
  static void Expect(Version since, Version tail, Version floor,
                     uint64_t* applied, uint64_t* full) {
    if (since < 0 || (tail > since && since + 1 < floor)) {
      ++*full;
    } else {
      *applied += static_cast<uint64_t>(tail - since);
    }
  }

  /// Resolves "latest" on the reader and checks it against the oracle and
  /// the counters.
  void ResolveAndCompare() {
    Version table_since = -1, registry_since = -1;
    if (held_ != nullptr) {
      table_since = held_->snapshot.version;
      registry_since = held_->registry_version;
    }
    const Version table_tail = Tail(writer_table_->log());
    const Version registry_tail = Tail(writer_->metadata().log());
    uint64_t applied = Applied(), full = FullReplays();
    Expect(table_since, table_tail, Floor(writer_table_->log()), &applied,
           &full);
    Expect(registry_since, registry_tail, Floor(writer_->metadata().log()),
           &applied, &full);

    auto resolved = reader_->ResolveMetadata();
    ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
    held_ = resolved.MoveValue();
    EXPECT_EQ(Applied(), applied) << "step " << step_;
    EXPECT_EQ(FullReplays(), full) << "step " << step_;
    ASSERT_EQ(held_->snapshot.version, table_tail);
    ASSERT_EQ(held_->registry_version, registry_tail);

    auto oracle = oracle_table_->GetSnapshot(table_tail);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    EXPECT_EQ(held_->snapshot.DebugString(), oracle.value().DebugString())
        << "table diverges at version " << table_tail << ", step " << step_;
    ReplayTask registry;
    registry.log = &oracle_registry_->log();
    registry.version = registry_tail;
    TxnLog::ReplayAll({&registry}, nullptr);
    auto entries = MetadataTable::EntriesFrom(registry);
    ASSERT_TRUE(entries.ok()) << entries.status().ToString();
    EXPECT_EQ(Dump(held_->entries), Dump(entries.value()))
        << "registry diverges at version " << registry_tail << ", step "
        << step_;
  }

  /// Explicit time travel to table version `v`: the oracle's snapshot, or
  /// the typed NotFound when retention removed what `v` needs.
  void TimeTravel(Version v) {
    TxnLog& log = writer_table_->log();
    auto ckpts = log.checkpointer().List();
    ASSERT_TRUE(ckpts.ok());
    const bool readable =
        v >= Floor(log) || std::count(ckpts.value().begin(),
                                      ckpts.value().end(), v) > 0;
    auto at = reader_->ResolveMetadata(v);
    if (!readable) {
      ++truncated_travels_;
      ASSERT_FALSE(at.ok()) << "version " << v << " below the floor";
      EXPECT_TRUE(at.status().IsNotFound()) << at.status().ToString();
      EXPECT_NE(at.status().message().find("version truncated"),
                std::string::npos)
          << at.status().ToString();
      return;
    }
    ASSERT_TRUE(at.ok()) << "v" << v << ": " << at.status().ToString();
    EXPECT_EQ(at.value()->snapshot.DebugString(),
              oracle_table_->GetSnapshot(v).MoveValue().DebugString());
  }

  SimulatedClock clock_;
  InMemoryObjectStore primary_{&clock_};
  InMemoryObjectStore archive_{&clock_};
  ArchivingStore writes_{&primary_, &archive_};
  obs::MetricsRegistry registry_;
  std::unique_ptr<Table> writer_table_, reader_table_, oracle_table_;
  std::unique_ptr<core::Rottnest> writer_, reader_;
  std::unique_ptr<MetadataTable> oracle_registry_;
  std::shared_ptr<const core::MetadataState> held_;
  int step_ = 0;
  int truncated_travels_ = 0;  ///< Time travels below the floor.
};

TEST_F(IncrementalStateTest, StateEqualsReplayFromZeroAtEveryVersion) {
  Random rng(20261020);
  int64_t next_id = 0;
  ResolveAndCompare();
  for (step_ = 1; step_ <= 120; ++step_) {
    const IndexType type =
        rng.Uniform(2) == 0 ? IndexType::kTrie : IndexType::kFm;
    switch (rng.Uniform(10)) {
      case 0:
      case 1:
        ASSERT_TRUE(writer_table_->Append(DiffBatch(next_id, 20)).ok());
        next_id += 20;
        break;
      case 2: {
        const int64_t mod = 7 + static_cast<int64_t>(rng.Uniform(5));
        ASSERT_TRUE(writer_table_
                        ->DeleteWhere("id",
                                      [&](const ColumnVector& col, size_t r) {
                                        return col.ints()[r] % mod == 0;
                                      })
                        .ok());
        break;
      }
      case 3:
        ASSERT_TRUE(writer_table_->CompactFiles(UINT64_MAX).ok());
        break;
      case 4:
        ASSERT_TRUE(writer_->Index("body", type).ok());
        break;
      case 5:
        ASSERT_TRUE(writer_->Compact("body", type).ok());
        break;
      case 6:
        ASSERT_TRUE(
            writer_->Vacuum(writer_table_->log().LatestVersion().MoveValue())
                .ok());
        break;
      case 7: {
        ASSERT_TRUE(writer_table_->Checkpoint().ok());
        auto checkpointed = writer_->metadata().Checkpoint();
        ASSERT_TRUE(checkpointed.ok() || checkpointed.status().IsNotFound())
            << checkpointed.status().ToString();  // NotFound: no index yet.
        break;
      }
      default: {
        // Retention on one log; without a checkpoint it is refused.
        const Version keep = static_cast<Version>(rng.Uniform(4));
        auto truncated = rng.Uniform(2) == 0
                             ? writer_table_->TruncateLog(keep)
                             : writer_->metadata().TruncateLog(keep);
        ASSERT_TRUE(truncated.ok() ||
                    truncated.status().IsInvalidArgument())
            << truncated.status().ToString();
        break;
      }
    }
    // The reader sometimes sits idle, so catch-ups span several commits.
    if (rng.Uniform(3) != 0) {
      ResolveAndCompare();
      if (HasFatalFailure()) return;
    }
    if (step_ % 10 == 0) {
      const Version tail = writer_table_->log().LatestVersion().MoveValue();
      for (Version v = 0; v <= tail; ++v) TimeTravel(v);
    }
  }
  ResolveAndCompare();
  // The history exercised what it is for: catch-ups, full replays after
  // retention, truncated time travel and a non-empty registry.
  EXPECT_GT(Applied(), 0u);
  EXPECT_GT(FullReplays(), 2u);
  EXPECT_GT(truncated_travels_, 0);
  EXPECT_FALSE(held_->entries.empty());
}

TEST_F(IncrementalStateTest, IdleReaderResolvesLatestAfterTruncateLogZero) {
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(writer_table_->Append(DiffBatch(i * 20, 20)).ok());
    ASSERT_TRUE(writer_->Index("body", IndexType::kTrie).ok());
  }
  ResolveAndCompare();  // Cold: one full replay per log.
  EXPECT_EQ(FullReplays(), 2u);
  const Version held_table = held_->snapshot.version;

  // The reader sits idle while both logs move on, are checkpointed and
  // lose every entry to retention, the held versions' included.
  for (int i = 3; i < 6; ++i) {
    ASSERT_TRUE(writer_table_->Append(DiffBatch(i * 20, 20)).ok());
    ASSERT_TRUE(writer_->Index("body", IndexType::kFm).ok());
  }
  ASSERT_TRUE(writer_table_->Checkpoint().ok());
  ASSERT_TRUE(writer_->metadata().Checkpoint().ok());
  ASSERT_GT(writer_table_->TruncateLog(0).MoveValue(), 0u);
  ASSERT_GT(writer_->metadata().TruncateLog(0).MoveValue(), 0u);

  // Both catch-ups find their entries gone and replay in full instead.
  ResolveAndCompare();
  EXPECT_EQ(FullReplays(), 4u);
  EXPECT_EQ(Applied(), 0u);

  // Steady state again: nothing moved, nothing replayed.
  ResolveAndCompare();
  EXPECT_EQ(FullReplays(), 4u);

  // A commit past the truncation is a plain catch-up.
  ASSERT_TRUE(writer_table_->Append(DiffBatch(200, 20)).ok());
  ResolveAndCompare();
  EXPECT_EQ(FullReplays(), 4u);
  EXPECT_EQ(Applied(), 1u);

  // Explicit time travel to the version the reader held is gone.
  auto old = reader_->ResolveMetadata(held_table);
  ASSERT_FALSE(old.ok());
  EXPECT_TRUE(old.status().IsNotFound()) << old.status().ToString();
  EXPECT_NE(old.status().message().find("version truncated"),
            std::string::npos)
      << old.status().ToString();
}

}  // namespace
}  // namespace rottnest::lake
