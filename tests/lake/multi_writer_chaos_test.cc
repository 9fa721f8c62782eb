// Multi-writer chaos harness (ISSUE 9 tentpole c): N concurrent committers
// — Append / DeleteWhere / CompactFiles / metadata-registry Update /
// Checkpoint / TruncateLog — race over a fault-injecting store (transient
// errors, ambiguous puts, injected latency) behind retrying decorators.
// Afterwards the version chain must be linearizable (no gaps, every ack a
// distinct version, no lost commits) and replay-from-0 byte-identical to
// checkpoint+suffix at every version. Phase 2 runs retention concurrently
// with the storm; phase 3 kills the store mid-storm and asserts a cold
// reopen converges.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "lake/metadata_table.h"
#include "lake/table.h"
#include "objectstore/fault_injection.h"
#include "objectstore/object_store.h"
#include "objectstore/retry.h"

namespace rottnest::lake {
namespace {

using format::ColumnVector;
using format::PhysicalType;
using format::RowBatch;
using format::Schema;
using objectstore::FaultInjectingStore;
using objectstore::FaultOptions;
using objectstore::InMemoryObjectStore;
using objectstore::RetryingStore;
using objectstore::RetryPolicy;
using objectstore::SimulatedSleeper;

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

FaultOptions ChaosFaults(uint64_t seed) {
  FaultOptions f;
  f.seed = seed;
  f.transient_fault_rate = 0.02;
  f.ambiguous_put_rate = 0.03;
  f.base_latency_micros = 20;
  f.slow_read_rate = 0.02;
  f.slow_read_latency_micros = 2'000;
  return f;
}

RetryPolicy ChaosRetry() {
  RetryPolicy p;
  p.max_attempts = 16;
  p.initial_backoff_micros = 500;
  p.max_backoff_micros = 50'000;
  return p;
}

/// The shared chaos universe: clean memory at the bottom, deterministic
/// seeded faults in the middle, retries (with simulated-time backoff) on
/// top. Writers commit through `store`; post-storm audits read `inner`
/// directly so verification is not itself perturbed by injected faults.
struct ChaosWorld {
  SimulatedClock clock;
  InMemoryObjectStore inner{&clock};
  FaultInjectingStore faults;
  RetryingStore store;

  explicit ChaosWorld(uint64_t seed)
      : faults(&inner, ChaosFaults(seed)),
        store(&faults, ChaosRetry(), SimulatedSleeper(&clock)) {
    faults.SetSleeper(SimulatedSleeper(&clock));
  }

  std::unique_ptr<Table> OpenWriter(const std::string& root) {
    auto opened = Table::Open(&store, root);
    if (!opened.ok()) return nullptr;
    auto table = opened.MoveValue();
    table->log().SetCommitBackoff(ChaosRetry(), SimulatedSleeper(&clock));
    return table;
  }
};

/// Byte-identity of checkpoint+suffix vs replay-from-0 at every version,
/// via two independent cold readers of the clean inner store. The
/// checkpointed reader resolves each version together with the index
/// registry, as a query plan does: both logs in shared concurrent waves on
/// an I/O executor. The replay-from-0 reader runs inline.
void AssertEquivalentAtEveryVersion(InMemoryObjectStore* inner,
                                    const std::string& root) {
  ThreadPool io(4);
  auto with = Table::Open(inner, root).MoveValue();
  auto without = Table::Open(inner, root).MoveValue();
  without->log().set_use_checkpoints(false);
  MetadataTable registry(inner, root);
  Version latest = with->log().LatestVersion(&io).MoveValue();
  ASSERT_EQ(without->log().LatestVersion().MoveValue(), latest);
  for (Version v = 0; v <= latest; ++v) {
    ReplayTask lake_log, meta_log;
    lake_log.log = &with->log();
    lake_log.version = v;
    meta_log.log = &registry.log();
    TxnLog::ReplayAll({&lake_log, &meta_log}, &io);
    ASSERT_TRUE(MetadataTable::EntriesFrom(meta_log).ok())
        << meta_log.status.ToString();
    auto a = with->SnapshotFrom(lake_log);
    auto b = without->GetSnapshot(v);
    ASSERT_TRUE(a.ok()) << "v" << v << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << "v" << v << ": " << b.status().ToString();
    EXPECT_EQ(a.value().DebugString(), b.value().DebugString())
        << "divergence at version " << v;
  }
}

// ---------------------------------------------------------------------------
// Phase 1: the storm without retention — full per-version equivalence.

TEST(MultiWriterChaosTest, StormKeepsChainLinearizableAndReplayEquivalent) {
  ChaosWorld w(20260809);
  const std::string root = "lake/c";
  ASSERT_TRUE(Table::Create(&w.store, root, IdSchema()).ok());

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 8;
  std::mutex mu;
  std::vector<Version> append_acks;  // Must be pairwise distinct.
  std::vector<Version> meta_acks;    // Registry log: its own chain.
  std::atomic<int> append_failures{0};

  std::vector<std::thread> threads;
  for (int wr = 0; wr < kWriters; ++wr) {
    threads.emplace_back([&, wr] {
      auto table = w.OpenWriter(root);
      ASSERT_NE(table, nullptr);
      MetadataTable meta(&w.store, root);
      for (int j = 0; j < kOpsPerWriter; ++j) {
        auto v = table->Append(IdBatch(wr * 1000 + j * 10, 5));
        if (v.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          append_acks.push_back(v.value());
        } else {
          append_failures.fetch_add(1);
        }
        switch (wr) {
          case 0:
            // Checkpointer: races the pointer against everyone's commits.
            if (j % 3 == 2) table->Checkpoint().status();
            break;
          case 1:
            if (j % 4 == 3) {
              table
                  ->DeleteWhere("id",
                                [](const ColumnVector& c, size_t r) {
                                  return c.ints()[r] % 13 == 1;
                                })
                  .status();
            }
            break;
          case 2: {
            // "Index" commits: the metadata registry is a second log with
            // its own checkpointed chain.
            IndexEntry e;
            e.index_path = "idx/c/w2-" + std::to_string(j) + ".index";
            e.index_type = "trie";
            e.column = "id";
            e.covered_files = {"data/f" + std::to_string(j)};
            e.rows = 5;
            auto mv = meta.Update({e}, {});
            if (mv.ok()) {
              std::lock_guard<std::mutex> lock(mu);
              meta_acks.push_back(mv.value());
            }
            if (j % 3 == 2) meta.Checkpoint().status();
            break;
          }
          default:
            if (j % 5 == 4) table->CompactFiles(1 << 20).status();
            break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // The chaos was real: the seeded stream injected faults into the storm.
  EXPECT_GT(w.faults.fault_stats().transient_injected.load() +
                w.faults.fault_stats().ambiguous_injected.load(),
            0u);
  // Retries absorb almost everything; a rare exhausted budget is legal.
  EXPECT_GE(append_acks.size(),
            static_cast<size_t>(kWriters * kOpsPerWriter / 2));

  // No lost commits, no double-acks: every acked append is a distinct
  // version of a gap-free chain.
  std::set<Version> distinct(append_acks.begin(), append_acks.end());
  EXPECT_EQ(distinct.size(), append_acks.size());
  std::set<Version> meta_distinct(meta_acks.begin(), meta_acks.end());
  EXPECT_EQ(meta_distinct.size(), meta_acks.size());

  TxnLog audit(&w.inner, root + "/_log");
  Version latest = audit.LatestVersion().MoveValue();
  for (Version v = 0; v <= latest; ++v) {
    std::vector<Json> actions;
    EXPECT_TRUE(audit.ReadVersion(v, &actions).ok()) << "gap at v" << v;
  }
  for (Version v : append_acks) EXPECT_LE(v, latest);

  AssertEquivalentAtEveryVersion(&w.inner, root);

  // The registry chain replays identically with and without checkpoints.
  TxnLog meta_with(&w.inner, root + "/_meta");
  TxnLog meta_without(&w.inner, root + "/_meta");
  meta_without.set_use_checkpoints(false);
  std::vector<Json> a, b;
  ASSERT_TRUE(meta_with.Replay(-1, &a).ok());
  ASSERT_TRUE(meta_without.Replay(-1, &b).ok());
  // Checkpoint seeding compacts the prefix, so compare reconciled state.
  std::vector<Json> ca, cb;
  ASSERT_TRUE(CompactMetaActions(a, &ca).ok());
  ASSERT_TRUE(CompactMetaActions(b, &cb).ok());
  ASSERT_EQ(ca.size(), cb.size());
  for (size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].Dump(), cb[i].Dump());
  }
}

// ---------------------------------------------------------------------------
// Phase 2: the storm with concurrent retention. Readers may only ever see
// correct bytes, a typed truncated error, or a retryable failure — never
// a torn state.

TEST(MultiWriterChaosTest, ConcurrentTruncationYieldsTypedErrorsOnly) {
  ChaosWorld w(20260811);
  const std::string root = "lake/t";
  ASSERT_TRUE(Table::Create(&w.store, root, IdSchema()).ok());

  constexpr int kWriters = 3;
  constexpr int kOpsPerWriter = 6;
  std::mutex mu;
  std::vector<Version> append_acks;
  std::atomic<bool> done{false};

  std::vector<std::thread> threads;
  for (int wr = 0; wr < kWriters; ++wr) {
    threads.emplace_back([&, wr] {
      auto table = w.OpenWriter(root);
      ASSERT_NE(table, nullptr);
      for (int j = 0; j < kOpsPerWriter; ++j) {
        auto v = table->Append(IdBatch(wr * 1000 + j * 10, 5));
        if (v.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          append_acks.push_back(v.value());
        }
      }
    });
  }
  // The retention daemon: checkpoint + truncate in a loop, racing the
  // appenders' commits and each other's pointer advances.
  threads.emplace_back([&] {
    auto table = w.OpenWriter(root);
    ASSERT_NE(table, nullptr);
    // Keep going until retention has actually bitten — the post-storm
    // audit asserts a moved floor.
    bool floor_moved = false;
    for (int iter = 0; iter < 500 && !(floor_moved && done.load());
         ++iter) {
      table->Checkpoint().status();
      // Windowed retention while the storm runs; once the writers are done,
      // tighten to keep=0 (final compaction) so the floor provably bites —
      // a window reaching below the newest checkpoint is refused unless an
      // older checkpoint can seed replay of the retained versions.
      table->TruncateLog(/*keep_versions=*/done.load() ? 0 : 4).status();
      auto ptr = table->log().checkpointer().ReadPointer();
      if (ptr.ok() && ptr.value().truncated_before > 0) floor_moved = true;
      w.clock.Advance(1'000);
    }
    EXPECT_TRUE(floor_moved);
  });
  // A chaos reader: every observation must be a valid snapshot or a typed
  // failure (truncated / transient / deadline) — never corruption.
  threads.emplace_back([&] {
    auto table = w.OpenWriter(root);
    ASSERT_NE(table, nullptr);
    while (!done.load()) {
      auto snap = table->GetSnapshot();
      if (!snap.ok()) {
        EXPECT_TRUE(snap.status().IsUnavailable() ||
                    snap.status().IsNotFound() ||
                    snap.status().IsDeadlineExceeded())
            << snap.status().ToString();
      }
      w.clock.Advance(500);
    }
  });
  for (int i = 0; i < kWriters; ++i) threads[i].join();
  done.store(true);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  std::set<Version> distinct(append_acks.begin(), append_acks.end());
  EXPECT_EQ(distinct.size(), append_acks.size());
  EXPECT_GE(append_acks.size(),
            static_cast<size_t>(kWriters * kOpsPerWriter / 2));

  // Audit on the clean store: above the pointer's version everything is
  // readable and two independent cold readers agree byte-for-byte; below
  // the retention floor the failure is the typed truncated error.
  auto r1 = Table::Open(&w.inner, root).MoveValue();
  auto r2 = Table::Open(&w.inner, root).MoveValue();
  Version latest = r1->log().LatestVersion().MoveValue();
  auto ptr = r1->log().checkpointer().ReadPointer();
  ASSERT_TRUE(ptr.ok()) << ptr.status().ToString();
  ASSERT_GE(ptr.value().version, 0);
  EXPECT_GT(ptr.value().truncated_before, 0);  // Retention actually ran.
  for (Version v = 0; v <= latest; ++v) {
    auto a = r1->GetSnapshot(v);
    if (v >= ptr.value().version) {
      ASSERT_TRUE(a.ok()) << "v" << v << ": " << a.status().ToString();
    }
    if (a.ok()) {
      auto b = r2->GetSnapshot(v);
      ASSERT_TRUE(b.ok()) << "v" << v << ": " << b.status().ToString();
      EXPECT_EQ(a.value().DebugString(), b.value().DebugString());
    } else {
      EXPECT_TRUE(a.status().IsNotFound()) << a.status().ToString();
      EXPECT_NE(a.status().message().find("version truncated"),
                std::string::npos)
          << a.status().ToString();
    }
  }
  // Row accounting: every acked batch's rows are in the final snapshot
  // (5-row batches; a failed-but-landed commit may add more).
  uint64_t rows = r1->GetSnapshot().MoveValue().TotalRows();
  EXPECT_GE(rows, 5 * append_acks.size());
  EXPECT_EQ(rows % 5, 0u);
}

// ---------------------------------------------------------------------------
// Phase 3: kill the store mid-storm; a cold reopen must converge.

TEST(MultiWriterChaosTest, CrashMidStormReopensAndConverges) {
  for (uint64_t seed : {3u, 11u, 19u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ChaosWorld w(20260813 + seed);
    const std::string root = "lake/x";
    ASSERT_TRUE(Table::Create(&w.store, root, IdSchema()).ok());
    // Arm the crash somewhere inside the storm's op stream.
    w.faults.SetCrashAtOp(50 + seed * 7,
                          seed % 2 == 0 ? objectstore::CrashMode::kBeforeOp
                                        : objectstore::CrashMode::kAfterOp);

    constexpr int kWriters = 3;
    std::vector<std::thread> threads;
    for (int wr = 0; wr < kWriters; ++wr) {
      threads.emplace_back([&, wr] {
        auto table = w.OpenWriter(root);
        if (table == nullptr) return;  // Crashed before our open finished.
        for (int j = 0; j < 6; ++j) {
          table->Append(IdBatch(wr * 1000 + j * 10, 5)).status();
          if (wr == 0 && j % 2 == 1) {
            table->Checkpoint().status();
            table->TruncateLog(3).status();
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    if (!w.faults.crashed()) {
      // The storm finished before the countdown elapsed; keep committing
      // until the crash fires so every seed exercises a real crash.
      auto t = w.OpenWriter(root);
      for (int i = 0; i < 300 && t != nullptr && !w.faults.crashed(); ++i) {
        t->Append(IdBatch(5000 + i, 1)).status();
      }
    }
    ASSERT_TRUE(w.faults.crashed());  // The storm really died mid-flight.
    w.faults.ClearCrash();            // "Restart."

    // Cold reopen over the crashed remains: a readable, convergent chain.
    auto cold = Table::Open(&w.store, root);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    Version latest = cold.value()->log().LatestVersion().MoveValue();
    for (Version v = 0; v <= latest; ++v) {
      auto snap = cold.value()->GetSnapshot(v);
      if (!snap.ok()) {
        EXPECT_TRUE(snap.status().IsNotFound())
            << "v" << v << ": " << snap.status().ToString();
        EXPECT_NE(snap.status().message().find("version truncated"),
                  std::string::npos)
            << "v" << v << ": " << snap.status().ToString();
      }
    }
    // The metadata plane still moves forward: commit, checkpoint,
    // truncate, and a second cold reader agrees on the result.
    auto v = cold.value()->Append(IdBatch(9000, 5));
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_EQ(v.value(), latest + 1);
    ASSERT_TRUE(cold.value()->Checkpoint().ok());
    auto again = Table::Open(&w.inner, root).MoveValue();
    EXPECT_EQ(again->GetSnapshot().MoveValue().DebugString(),
              cold.value()->GetSnapshot().MoveValue().DebugString());
  }
}

}  // namespace
}  // namespace rottnest::lake
