#include "lake/table.h"

#include <gtest/gtest.h>

#include <set>

#include "format/reader.h"
#include "objectstore/object_store.h"

namespace rottnest::lake {
namespace {

using format::ColumnVector;
using format::PhysicalType;
using format::RowBatch;
using format::Schema;
using objectstore::InMemoryObjectStore;

Schema LogSchema() {
  Schema s;
  s.columns.push_back({"id", PhysicalType::kInt64, 0});
  s.columns.push_back({"msg", PhysicalType::kByteArray, 0});
  return s;
}

RowBatch MakeBatch(int64_t first_id, size_t rows) {
  RowBatch b;
  b.schema = LogSchema();
  ColumnVector::Ints ids;
  ColumnVector::Strings msgs;
  for (size_t i = 0; i < rows; ++i) {
    ids.push_back(first_id + static_cast<int64_t>(i));
    msgs.push_back("message-" + std::to_string(first_id + i));
  }
  b.columns.emplace_back(std::move(ids));
  b.columns.emplace_back(std::move(msgs));
  return b;
}

class TableTest : public ::testing::Test {
 protected:
  SimulatedClock clock_;
  InMemoryObjectStore store_{&clock_};
};

TEST_F(TableTest, CreateAndOpen) {
  auto t = Table::Create(&store_, "tables/logs", LogSchema());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  auto reopened = Table::Open(&store_, "tables/logs");
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened.value()->schema().columns.size(), 2u);
  EXPECT_EQ(reopened.value()->schema().columns[1].name, "msg");
}

TEST_F(TableTest, CreateTwiceFails) {
  ASSERT_TRUE(Table::Create(&store_, "t", LogSchema()).ok());
  EXPECT_TRUE(Table::Create(&store_, "t", LogSchema())
                  .status()
                  .IsAlreadyExists());
}

TEST_F(TableTest, OpenMissingFails) {
  EXPECT_FALSE(Table::Open(&store_, "ghost").ok());
}

TEST_F(TableTest, AppendCreatesSnapshotFiles) {
  auto t = Table::Create(&store_, "t", LogSchema()).MoveValue();
  ASSERT_TRUE(t->Append(MakeBatch(0, 100)).ok());
  ASSERT_TRUE(t->Append(MakeBatch(100, 50)).ok());

  auto snap = t->GetSnapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.value().files.size(), 2u);
  EXPECT_EQ(snap.value().TotalRows(), 150u);
  for (const DataFile& f : snap.value().files) {
    EXPECT_GT(f.bytes, 0u);
    objectstore::ObjectMeta meta;
    EXPECT_TRUE(store_.Head(f.path, &meta).ok()) << f.path;
    EXPECT_EQ(meta.size, f.bytes);
  }
}

TEST_F(TableTest, AppendedDataReadsBack) {
  auto t = Table::Create(&store_, "t", LogSchema()).MoveValue();
  RowBatch batch = MakeBatch(7, 20);
  ASSERT_TRUE(t->Append(batch).ok());
  auto snap = t->GetSnapshot().MoveValue();
  ASSERT_EQ(snap.files.size(), 1u);
  auto reader = format::FileReader::Open(&store_, snap.files[0].path,
                                         snap.files[0].bytes, nullptr)
                    .MoveValue();
  ColumnVector msg;
  ASSERT_TRUE(reader->ReadColumn(1, nullptr, &msg).ok());
  EXPECT_EQ(msg.strings(), batch.columns[1].strings());
}

TEST_F(TableTest, TimeTravelSeesOldSnapshot) {
  auto t = Table::Create(&store_, "t", LogSchema()).MoveValue();
  auto v1 = t->Append(MakeBatch(0, 10));
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(t->Append(MakeBatch(10, 10)).ok());

  auto old_snap = t->GetSnapshot(v1.value());
  ASSERT_TRUE(old_snap.ok());
  EXPECT_EQ(old_snap.value().files.size(), 1u);
  EXPECT_EQ(old_snap.value().TotalRows(), 10u);

  auto new_snap = t->GetSnapshot();
  ASSERT_TRUE(new_snap.ok());
  EXPECT_EQ(new_snap.value().files.size(), 2u);
}

TEST_F(TableTest, CompactMergesSmallFiles) {
  auto t = Table::Create(&store_, "t", LogSchema()).MoveValue();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(t->Append(MakeBatch(i * 10, 10)).ok());
  }
  auto before = t->GetSnapshot().MoveValue();
  ASSERT_EQ(before.files.size(), 4u);

  auto v = t->CompactFiles(UINT64_MAX);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  auto after = t->GetSnapshot().MoveValue();
  ASSERT_EQ(after.files.size(), 1u);
  EXPECT_EQ(after.TotalRows(), 40u);

  // Merged content preserves all rows.
  auto reader = format::FileReader::Open(&store_, after.files[0].path,
                                         after.files[0].bytes, nullptr)
                    .MoveValue();
  ColumnVector ids;
  ASSERT_TRUE(reader->ReadColumn(0, nullptr, &ids).ok());
  std::set<int64_t> seen(ids.ints().begin(), ids.ints().end());
  EXPECT_EQ(seen.size(), 40u);
  EXPECT_TRUE(seen.count(0) && seen.count(39));

  // Old snapshot still resolves to the old files (time travel).
  auto old_snap = t->GetSnapshot(before.version);
  ASSERT_TRUE(old_snap.ok());
  EXPECT_EQ(old_snap.value().files.size(), 4u);
}

TEST_F(TableTest, CompactOnlyTouchesSmallFiles) {
  format::WriterOptions options;
  auto t = Table::Create(&store_, "t", LogSchema(), options).MoveValue();
  ASSERT_TRUE(t->Append(MakeBatch(0, 2000)).ok());  // Big file.
  ASSERT_TRUE(t->Append(MakeBatch(2000, 5)).ok());  // Small.
  ASSERT_TRUE(t->Append(MakeBatch(2005, 5)).ok());  // Small.
  auto big_snap = t->GetSnapshot().MoveValue();
  uint64_t big_bytes = 0;
  for (const DataFile& f : big_snap.files) big_bytes = std::max(big_bytes, f.bytes);

  ASSERT_TRUE(t->CompactFiles(big_bytes).ok());  // Threshold below big file.
  auto after = t->GetSnapshot().MoveValue();
  EXPECT_EQ(after.files.size(), 2u);  // big + merged small pair
  EXPECT_EQ(after.TotalRows(), 2010u);
}

TEST_F(TableTest, CompactSingleSmallFileIsNoop) {
  auto t = Table::Create(&store_, "t", LogSchema()).MoveValue();
  ASSERT_TRUE(t->Append(MakeBatch(0, 5)).ok());
  auto before = t->GetSnapshot().MoveValue();
  auto v = t->CompactFiles(UINT64_MAX);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), before.version);
}

TEST_F(TableTest, DeleteWhereWritesDeletionVector) {
  auto t = Table::Create(&store_, "t", LogSchema()).MoveValue();
  ASSERT_TRUE(t->Append(MakeBatch(0, 100)).ok());
  auto v = t->DeleteWhere("id", [](const ColumnVector& col, size_t r) {
    return col.ints()[r] % 10 == 0;
  });
  ASSERT_TRUE(v.ok()) << v.status().ToString();

  auto snap = t->GetSnapshot().MoveValue();
  ASSERT_EQ(snap.files.size(), 1u);
  ASSERT_FALSE(snap.files[0].dv_path.empty());
  DeletionVector dv;
  ASSERT_TRUE(t->ReadDeletionVector(snap.files[0], &dv).ok());
  EXPECT_EQ(dv.size(), 10u);
  EXPECT_TRUE(dv.Contains(0));
  EXPECT_TRUE(dv.Contains(90));
  EXPECT_FALSE(dv.Contains(1));
}

TEST_F(TableTest, SuccessiveDeletesUnion) {
  auto t = Table::Create(&store_, "t", LogSchema()).MoveValue();
  ASSERT_TRUE(t->Append(MakeBatch(0, 100)).ok());
  ASSERT_TRUE(t->DeleteWhere("id", [](const ColumnVector& c, size_t r) {
                 return c.ints()[r] == 5;
               }).ok());
  ASSERT_TRUE(t->DeleteWhere("id", [](const ColumnVector& c, size_t r) {
                 return c.ints()[r] == 7;
               }).ok());
  auto snap = t->GetSnapshot().MoveValue();
  DeletionVector dv;
  ASSERT_TRUE(t->ReadDeletionVector(snap.files[0], &dv).ok());
  EXPECT_TRUE(dv.Contains(5));
  EXPECT_TRUE(dv.Contains(7));
  EXPECT_EQ(dv.size(), 2u);
}

TEST_F(TableTest, DeleteWithNoMatchesIsNoop) {
  auto t = Table::Create(&store_, "t", LogSchema()).MoveValue();
  ASSERT_TRUE(t->Append(MakeBatch(0, 10)).ok());
  auto before = t->GetSnapshot().MoveValue();
  auto v = t->DeleteWhere(
      "id", [](const ColumnVector&, size_t) { return false; });
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), before.version);
  EXPECT_TRUE(t->GetSnapshot().MoveValue().files[0].dv_path.empty());
}

TEST_F(TableTest, CompactionDropsDeletedRows) {
  auto t = Table::Create(&store_, "t", LogSchema()).MoveValue();
  ASSERT_TRUE(t->Append(MakeBatch(0, 10)).ok());
  ASSERT_TRUE(t->Append(MakeBatch(10, 10)).ok());
  ASSERT_TRUE(t->DeleteWhere("id", [](const ColumnVector& c, size_t r) {
                 return c.ints()[r] < 5;
               }).ok());
  ASSERT_TRUE(t->CompactFiles(UINT64_MAX).ok());
  auto snap = t->GetSnapshot().MoveValue();
  ASSERT_EQ(snap.files.size(), 1u);
  EXPECT_EQ(snap.TotalRows(), 15u);
  EXPECT_TRUE(snap.files[0].dv_path.empty());
}

TEST_F(TableTest, VacuumRemovesOrphansRespectingRetention) {
  auto t = Table::Create(&store_, "t", LogSchema()).MoveValue();
  ASSERT_TRUE(t->Append(MakeBatch(0, 10)).ok());
  ASSERT_TRUE(t->Append(MakeBatch(10, 10)).ok());
  ASSERT_TRUE(t->CompactFiles(UINT64_MAX).ok());
  // Two orphan data files exist now (replaced by the compacted file).

  // Young orphans survive a vacuum with retention.
  auto removed = t->Vacuum(/*retention_micros=*/1'000'000);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed.value(), 0u);

  clock_.Advance(2'000'000);
  removed = t->Vacuum(1'000'000);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed.value(), 2u);

  // Live file still readable.
  auto snap = t->GetSnapshot().MoveValue();
  ASSERT_EQ(snap.files.size(), 1u);
  objectstore::ObjectMeta meta;
  EXPECT_TRUE(store_.Head(snap.files[0].path, &meta).ok());
}

TEST_F(TableTest, VacuumKeepsReferencedDeletionVectors) {
  auto t = Table::Create(&store_, "t", LogSchema()).MoveValue();
  ASSERT_TRUE(t->Append(MakeBatch(0, 10)).ok());
  ASSERT_TRUE(t->DeleteWhere("id", [](const ColumnVector& c, size_t r) {
                 return c.ints()[r] == 0;
               }).ok());
  clock_.Advance(10'000'000);
  ASSERT_TRUE(t->Vacuum(1'000'000).ok());
  auto snap = t->GetSnapshot().MoveValue();
  DeletionVector dv;
  EXPECT_TRUE(t->ReadDeletionVector(snap.files[0], &dv).ok());
  EXPECT_EQ(dv.size(), 1u);
}

TEST(DeletionVectorTest, BuildSortsAndDedups) {
  DeletionVector dv({5, 1, 5, 3});
  EXPECT_EQ(dv.rows(), (std::vector<uint64_t>{1, 3, 5}));
  EXPECT_TRUE(dv.Contains(3));
  EXPECT_FALSE(dv.Contains(2));
}

TEST(DeletionVectorTest, SerializeRoundTrip) {
  DeletionVector dv({0, 7, 100000, 100001});
  Buffer buf;
  dv.Serialize(&buf);
  DeletionVector decoded;
  ASSERT_TRUE(DeletionVector::Deserialize(Slice(buf), &decoded).ok());
  EXPECT_EQ(decoded.rows(), dv.rows());
}

TEST(DeletionVectorTest, DeserializeRejectsTrailingBytes) {
  DeletionVector dv({1, 2});
  Buffer buf;
  dv.Serialize(&buf);
  buf.push_back(0);
  DeletionVector decoded;
  EXPECT_TRUE(
      DeletionVector::Deserialize(Slice(buf), &decoded).IsCorruption());
}

}  // namespace
}  // namespace rottnest::lake
