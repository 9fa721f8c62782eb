// ReadBatch contract tests, notably the error contract: a failed request
// must leave a ZERO-LENGTH buffer at its position — never stale bytes from
// a recycled results vector — so degraded-read callers can tell failed
// slots from data positionally. Also the coalescing contract: byte-adjacent
// or overlapping ranges of one object cost ONE GET and no extra byte.
#include "objectstore/read_batch.h"

#include <gtest/gtest.h>

#include <string>

#include "objectstore/fault_injection.h"
#include "objectstore/io_trace.h"
#include "objectstore/object_store.h"

namespace rottnest::objectstore {
namespace {

class ReadBatchContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string a(100, 'a'), b(100, 'b'), c(100, 'c');
    ASSERT_TRUE(inner_.Put("a", Slice(a)).ok());
    ASSERT_TRUE(inner_.Put("b", Slice(b)).ok());
    ASSERT_TRUE(inner_.Put("c", Slice(c)).ok());
  }

  SimulatedClock clock_;
  InMemoryObjectStore inner_{&clock_};
};

TEST_F(ReadBatchContractTest, ResultsAlignPositionally) {
  std::vector<RangeRequest> reqs = {
      {"a", 0, 10}, {"b", 50, 10}, {"c", 0, 0} /* whole object */};
  std::vector<Buffer> results;
  ASSERT_TRUE(ReadBatch(&inner_, reqs, nullptr, nullptr, &results).ok());
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0], Buffer(10, 'a'));
  EXPECT_EQ(results[1], Buffer(10, 'b'));
  EXPECT_EQ(results[2], Buffer(100, 'c'));
}

TEST_F(ReadBatchContractTest, FailedRequestLeavesZeroLengthBuffer) {
  FaultInjectingStore faulty(&inner_);
  faulty.SetFailurePoint([](const std::string&, const std::string& key) {
    return key == "b" ? Status::Unavailable("injected") : Status::OK();
  });

  std::vector<RangeRequest> reqs = {{"a", 0, 10}, {"b", 0, 10}, {"c", 0, 10}};
  // Recycle a results vector with stale garbage in every slot: the failed
  // slot must come back zero-length, not keep its previous occupant.
  std::vector<Buffer> results(3, Buffer(99, 'Z'));
  Status s = ReadBatch(&faulty, reqs, nullptr, nullptr, &results);
  EXPECT_TRUE(s.IsUnavailable());

  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0], Buffer(10, 'a'));  // Others still attempted.
  EXPECT_TRUE(results[1].empty());         // The contract under test.
  EXPECT_EQ(results[2], Buffer(10, 'c'));
}

TEST_F(ReadBatchContractTest, FailedSlotIsZeroLengthUnderParallelExecution) {
  FaultInjectingStore faulty(&inner_);
  faulty.SetFailurePoint([](const std::string&, const std::string& key) {
    return key == "a" ? Status::Unavailable("injected") : Status::OK();
  });
  ThreadPool pool(4);
  std::vector<RangeRequest> reqs = {{"a", 0, 10}, {"b", 0, 10}, {"c", 0, 10}};
  std::vector<Buffer> results(3, Buffer(99, 'Z'));
  EXPECT_TRUE(
      ReadBatch(&faulty, reqs, &pool, nullptr, &results).IsUnavailable());
  EXPECT_TRUE(results[0].empty());
  EXPECT_EQ(results[1], Buffer(10, 'b'));
  EXPECT_EQ(results[2], Buffer(10, 'c'));
}

// ---------------------------------------------------------------------------
// Coalescing: a run of byte-adjacent or overlapping ranges of one object is
// one ranged GET of exactly its span, split back per request.
// ---------------------------------------------------------------------------

class ReadBatchCoalesceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 100; ++i) bytes_.push_back(static_cast<char>(i));
    ASSERT_TRUE(inner_.Put("o", Slice(bytes_)).ok());
    ASSERT_TRUE(inner_.Put("p", Slice(bytes_)).ok());
  }
  Buffer Span(uint64_t offset, uint64_t length) const {
    return Buffer(bytes_.begin() + offset, bytes_.begin() + offset + length);
  }

  std::string bytes_;
  SimulatedClock clock_;
  InMemoryObjectStore inner_{&clock_};
};

TEST_F(ReadBatchCoalesceTest, AdjacentRangesMakeOneGet) {
  // Out of order on purpose: runs are formed over offset order.
  std::vector<RangeRequest> reqs = {{"o", 20, 10}, {"o", 0, 10}, {"o", 10, 10}};
  std::vector<Buffer> results;
  IoTrace trace;
  ThreadPool pool(4);
  ASSERT_TRUE(ReadBatch(&inner_, reqs, &pool, &trace, &results).ok());
  EXPECT_EQ(results[0], Span(20, 10));
  EXPECT_EQ(results[1], Span(0, 10));
  EXPECT_EQ(results[2], Span(10, 10));
  EXPECT_EQ(inner_.stats().gets.load(), 1u);
  EXPECT_EQ(inner_.stats().bytes_read.load(), 30u);
  // The trace sees the one request the store saw, in one round.
  EXPECT_EQ(trace.total_gets(), 1u);
  EXPECT_EQ(trace.total_bytes(), 30u);
  EXPECT_EQ(trace.depth(), 1u);
}

TEST_F(ReadBatchCoalesceTest, OneByteGapMakesTwoGets) {
  std::vector<RangeRequest> reqs = {{"o", 0, 10}, {"o", 11, 10}};
  std::vector<Buffer> results;
  ASSERT_TRUE(ReadBatch(&inner_, reqs, nullptr, nullptr, &results).ok());
  EXPECT_EQ(results[0], Span(0, 10));
  EXPECT_EQ(results[1], Span(11, 10));
  EXPECT_EQ(inner_.stats().gets.load(), 2u);
  EXPECT_EQ(inner_.stats().bytes_read.load(), 20u);  // Byte 10 never read.
}

TEST_F(ReadBatchCoalesceTest, DistinctObjectsNeverMerge) {
  std::vector<RangeRequest> reqs = {{"o", 0, 10}, {"p", 10, 10}};
  std::vector<Buffer> results;
  ASSERT_TRUE(ReadBatch(&inner_, reqs, nullptr, nullptr, &results).ok());
  EXPECT_EQ(inner_.stats().gets.load(), 2u);
  EXPECT_EQ(results[1], Span(10, 10));
}

TEST_F(ReadBatchCoalesceTest, OverlappingAndDuplicateRangesShareOneGet) {
  std::vector<RangeRequest> reqs = {
      {"o", 0, 20}, {"o", 10, 20}, {"o", 0, 20}, {"o", 25, 5}};
  std::vector<Buffer> results;
  IoTrace trace;
  ASSERT_TRUE(ReadBatch(&inner_, reqs, nullptr, &trace, &results).ok());
  EXPECT_EQ(results[0], Span(0, 20));
  EXPECT_EQ(results[1], Span(10, 20));
  EXPECT_EQ(results[2], Span(0, 20));  // The duplicate gets its own copy.
  EXPECT_EQ(results[3], Span(25, 5));  // Nested inside the span.
  EXPECT_EQ(inner_.stats().gets.load(), 1u);
  EXPECT_EQ(inner_.stats().bytes_read.load(), 30u);
  EXPECT_EQ(trace.total_gets(), 1u);
  EXPECT_EQ(trace.total_bytes(), 30u);
}

TEST_F(ReadBatchCoalesceTest, RunPastEndTruncatesLikeGetRange) {
  std::vector<RangeRequest> reqs = {{"o", 80, 10}, {"o", 90, 50}};
  std::vector<Buffer> results;
  ASSERT_TRUE(ReadBatch(&inner_, reqs, nullptr, nullptr, &results).ok());
  EXPECT_EQ(results[0], Span(80, 10));
  EXPECT_EQ(results[1], Span(90, 10));
  EXPECT_EQ(inner_.stats().gets.load(), 1u);
}

TEST_F(ReadBatchCoalesceTest, FailedRunLeavesZeroLengthInEverySlot) {
  FaultInjectingStore faulty(&inner_);
  faulty.SetFailurePoint([](const std::string&, const std::string& key) {
    return key == "o" ? Status::Unavailable("injected") : Status::OK();
  });
  ThreadPool pool(4);
  std::vector<RangeRequest> reqs = {
      {"o", 0, 10}, {"p", 0, 10}, {"o", 10, 10}, {"o", 20, 10}};
  std::vector<Buffer> results(4, Buffer(99, 'Z'));  // Recycled garbage.
  IoTrace trace;
  EXPECT_TRUE(
      ReadBatch(&faulty, reqs, &pool, &trace, &results).IsUnavailable());
  EXPECT_TRUE(results[0].empty());
  EXPECT_TRUE(results[2].empty());
  EXPECT_TRUE(results[3].empty());
  EXPECT_EQ(results[1], Span(0, 10));  // The other run still completed.
  EXPECT_EQ(trace.total_gets(), 1u);   // Failed reads are never traced.
}

TEST_F(ReadBatchCoalesceTest, GetRunRejectsRangesThatAreNotOneRun) {
  std::vector<Buffer> out;
  EXPECT_TRUE(inner_.GetRun("o", {{0, 10}, {11, 10}}, &out)
                  .IsInvalidArgument());
  EXPECT_TRUE(inner_.GetRun("o", {{10, 10}, {0, 10}}, &out)
                  .IsInvalidArgument());
  EXPECT_EQ(inner_.stats().gets.load(), 0u);
}

}  // namespace
}  // namespace rottnest::objectstore
