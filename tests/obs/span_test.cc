// Tracer / ScopedSpan unit tests: parent/child invariants, exclusive-IO
// aggregation, deterministic snapshots under SimulatedClock, null-safety,
// and span creation across concurrent tasks (runs in the TSAN CI job).
#include "obs/span.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/clock.h"

namespace rottnest::obs {
namespace {

TEST(SpanIoTest, AddAndMinusSaturating) {
  SpanIo a;
  a.gets = 10;
  a.bytes_read = 100;
  a.compute_micros = 5;
  SpanIo b;
  b.gets = 3;
  b.bytes_read = 250;  // More than a: saturates to zero, never wraps.
  b.retries = 1;
  SpanIo diff = a.MinusSaturating(b);
  EXPECT_EQ(diff.gets, 7u);
  EXPECT_EQ(diff.bytes_read, 0u);
  EXPECT_EQ(diff.retries, 0u);
  a.Add(b);
  EXPECT_EQ(a.gets, 13u);
  EXPECT_EQ(a.bytes_read, 350u);
  EXPECT_EQ(a.requests(), 13u);
  EXPECT_TRUE(SpanIo{}.IsZero());
  EXPECT_FALSE(a.IsZero());
}

TEST(TracerTest, ParentIdAlwaysSmallerThanChild) {
  Tracer tracer;
  SpanId root = tracer.StartSpan("op", kNoSpan, 0);
  SpanId a = tracer.StartSpan("plan", root, 1);
  SpanId b = tracer.StartSpan("scan", root, 2);
  SpanId leaf = tracer.StartSpan("page", b, 3);
  EXPECT_LT(root, a);
  EXPECT_LT(a, b);
  EXPECT_LT(b, leaf);
  for (const SpanData& s : tracer.Spans()) {
    if (s.parent != kNoSpan) {
      EXPECT_LT(s.parent, s.id);
    }
  }
  EXPECT_EQ(tracer.span_count(), 4u);
}

TEST(TracerTest, AggregateSumsExclusiveIo) {
  Tracer tracer;
  SpanId root = tracer.StartSpan("op", kNoSpan, 0);
  SpanId child = tracer.StartSpan("fetch", root, 1);
  SpanIo root_io;
  root_io.lists = 1;
  SpanIo child_io;
  child_io.gets = 4;
  child_io.bytes_read = 4096;
  tracer.AddIo(root, root_io);
  tracer.AddIo(child, child_io);
  tracer.EndSpan(child, 5);
  tracer.EndSpan(root, 6);
  SpanIo total = tracer.AggregateIo();
  EXPECT_EQ(total.gets, 4u);
  EXPECT_EQ(total.lists, 1u);
  EXPECT_EQ(total.bytes_read, 4096u);
}

TEST(TracerTest, EndNeverPrecedesStartAndUnfinishedSpansSnapshot) {
  Tracer tracer;
  SpanId s = tracer.StartSpan("op", kNoSpan, 100);
  std::vector<SpanData> open = tracer.Spans();
  ASSERT_EQ(open.size(), 1u);
  EXPECT_FALSE(open[0].ended);
  EXPECT_EQ(open[0].end_micros, open[0].start_micros);
  tracer.EndSpan(s, 50);  // Clock anomaly: clamped, never negative.
  std::vector<SpanData> done = tracer.Spans();
  EXPECT_TRUE(done[0].ended);
  EXPECT_GE(done[0].end_micros, done[0].start_micros);
}

TEST(TracerTest, SnapshotAndDumpTreeAreDeterministic) {
  auto build = [](Tracer* t) {
    SpanId root = t->StartSpan("search", kNoSpan, 10);
    SpanId plan = t->StartSpan("plan", root, 11);
    t->EndSpan(plan, 12);
    SpanId idx = t->StartSpan("index:idx/t/0001.index", root, 12);
    SpanIo io;
    io.gets = 2;
    t->AddIo(idx, io);
    t->EndSpan(idx, 15);
    t->EndSpan(root, 16);
  };
  Tracer a, b;
  build(&a);
  build(&b);
  EXPECT_EQ(a.SnapshotJson().Dump(), b.SnapshotJson().Dump());
  std::string tree = a.DumpTree();
  EXPECT_NE(tree.find("search"), std::string::npos);
  EXPECT_NE(tree.find("index:idx/t/0001.index"), std::string::npos);
  a.Reset();
  EXPECT_EQ(a.span_count(), 0u);
  EXPECT_TRUE(a.AggregateIo().IsZero());
}

TEST(ScopedSpanTest, NullTracerIsFullyInert) {
  SimulatedClock clock;
  ScopedSpan span(nullptr, &clock, "noop", kNoSpan);
  EXPECT_EQ(span.id(), kNoSpan);
  SpanIo io;
  io.gets = 1;
  span.AddIo(io);  // Must not crash.
  span.End();
}

TEST(ScopedSpanTest, RaiiEndsSpanOnceAndMoveTransfersOwnership) {
  SimulatedClock clock;
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, &clock, "op", kNoSpan);
    clock.Advance(10);
    ScopedSpan moved = std::move(outer);
    outer.End();  // Moved-from: a no-op.
    EXPECT_EQ(moved.id(), 0);
  }  // `moved` ends the span here.
  std::vector<SpanData> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].ended);
  EXPECT_EQ(spans[0].end_micros - spans[0].start_micros, 10);
}

TEST(TracerTest, FanOutChildrenAttachUnderCapturedParent) {
  // The instrumentation pattern: the parent id is captured by value before
  // the fan-out and every task annotates its pre-created span from its own
  // thread. Spans stay well-formed and the aggregate stays exact.
  Tracer tracer;
  SpanId root = tracer.StartSpan("op", kNoSpan, 0);
  constexpr int kTasks = 16;
  std::vector<SpanId> ids;
  ids.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    ids.push_back(tracer.StartSpan("task:" + std::to_string(i), root, 1));
  }
  std::vector<std::thread> threads;
  threads.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    threads.emplace_back([&tracer, &ids, i] {
      SpanIo io;
      io.gets = static_cast<uint64_t>(i) + 1;
      tracer.AddIo(ids[i], io);
      tracer.EndSpan(ids[i], 2 + i);
    });
  }
  for (auto& t : threads) t.join();
  tracer.EndSpan(root, 100);
  uint64_t expected = 0;
  for (int i = 0; i < kTasks; ++i) expected += static_cast<uint64_t>(i) + 1;
  EXPECT_EQ(tracer.AggregateIo().gets, expected);
  for (const SpanData& s : tracer.Spans()) {
    if (s.id == root) continue;
    EXPECT_EQ(s.parent, root);
    EXPECT_TRUE(s.ended);
  }
}

}  // namespace
}  // namespace rottnest::obs
