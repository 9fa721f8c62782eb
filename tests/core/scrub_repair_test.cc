// Anti-entropy subsystem tests: deep parallel Scrub over latent corruption
// (post-commit "object rot"), crash-safe Repair (quarantine + index rebuild
// + orphan GC), auto-quarantine on the search path, cache-poisoning
// regression, the Scrub-based CheckInvariants, and a crash-schedule
// exploration of Repair itself (every prefix of its storage footprint must
// leave the invariants intact and a retry must converge).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/rottnest.h"
#include "index/component_file.h"
#include "objectstore/fault_injection.h"
#include "objectstore/object_store.h"

namespace rottnest::core {
namespace {

using format::PhysicalType;
using format::RowBatch;
using format::Schema;
using index::IndexType;
using lake::Table;
using objectstore::CrashMode;
using objectstore::FaultInjectingStore;
using objectstore::InMemoryObjectStore;
using objectstore::RotKind;

Schema MakeSchema() {
  Schema s;
  s.columns.push_back({"uuid", PhysicalType::kFixedLenByteArray, 16});
  return s;
}

std::string UuidFor(uint64_t id) {
  std::string u(16, '\0');
  uint64_t hi = Mix64(id), lo = Mix64(id ^ 0x7e57);
  for (int i = 0; i < 8; ++i) {
    u[i] = static_cast<char>(hi >> (56 - 8 * i));
    u[8 + i] = static_cast<char>(lo >> (56 - 8 * i));
  }
  return u;
}

RottnestOptions Options() {
  RottnestOptions options;
  options.index_dir = "idx/s";
  options.index_timeout_micros = 600LL * 1'000'000;
  return options;
}

void AppendRows(Table* table, uint64_t first_id, size_t rows) {
  RowBatch b;
  b.schema = MakeSchema();
  format::FlatFixed uuids;
  uuids.elem_size = 16;
  for (size_t i = 0; i < rows; ++i) {
    std::string u = UuidFor(first_id + i);
    uuids.Append(Slice(u));
  }
  b.columns.emplace_back(std::move(uuids));
  ASSERT_TRUE(table->Append(b).ok());
}

using MatchSet = std::multiset<std::pair<uint64_t, std::string>>;

MatchSet Reduce(const SearchResult& r) {
  MatchSet out;
  for (const RowMatch& m : r.matches) out.emplace(m.row, m.value);
  return out;
}

size_t ErrorCount(const ScrubReport& r) {
  size_t n = 0;
  for (const auto& f : r.findings) {
    if (f.severity == ScrubSeverity::kError) ++n;
  }
  return n;
}

class ScrubRepairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = Table::Create(&store_, "lake/s", MakeSchema()).MoveValue();
    client_ = std::make_unique<Rottnest>(&store_, table_.get(), Options());
  }

  /// Appends `n` batches of 100 rows, indexing each incrementally, and
  /// returns the n committed index object paths (entry i covers batch i,
  /// rows [100*i, 100*i+100)).
  std::vector<std::string> BuildIndexes(size_t n) {
    std::vector<std::string> paths;
    for (size_t i = 0; i < n; ++i) {
      AppendRows(table_.get(), i * 100, 100);
      auto r = client_->Index("uuid", IndexType::kTrie);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (r.ok()) paths.push_back(r.value().index_path);
    }
    return paths;
  }

  MatchSet Probe(Rottnest* client, uint64_t id) {
    auto r = client->SearchUuid("uuid", Slice(UuidFor(id)), 5);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? Reduce(r.value()) : MatchSet{};
  }

  SimulatedClock clock_;
  InMemoryObjectStore inner_{&clock_};
  FaultInjectingStore store_{&inner_};
  std::unique_ptr<Table> table_;
  std::unique_ptr<Rottnest> client_;
};

TEST_F(ScrubRepairTest, CleanWorldScrubsClean) {
  BuildIndexes(3);
  auto r = client_->Scrub();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ScrubReport& report = r.value();
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.indexes_checked, 3u);
  EXPECT_GT(report.components_verified, 0u);
  EXPECT_EQ(report.components_skipped, 0u);
  // Small indexes live entirely in the Open tail read, so their payload
  // checksums are verified there and the deep pass re-fetches nothing.
  EXPECT_EQ(report.bytes_verified, 0u);
  // One GET per index (its tail read): decoding on first read must not
  // turn the open-time checksums into fetches.
  EXPECT_EQ(report.stats.gets, 3u);
  EXPECT_TRUE(client_->CheckInvariants().ok());
}

TEST_F(ScrubRepairTest, ScrubFindsExactlyTheRottenObjects) {
  std::vector<std::string> paths = BuildIndexes(5);
  ASSERT_EQ(paths.size(), 5u);

  // Three flavours of post-commit rot on three of the five objects; the
  // other two must produce NO findings (no false positives).
  ASSERT_TRUE(store_.RotObject(paths[0], RotKind::kDrop).ok());
  ASSERT_TRUE(store_.RotObject(paths[1], RotKind::kFlipBit).ok());
  ASSERT_TRUE(store_.RotObject(paths[3], RotKind::kTruncate).ok());
  EXPECT_EQ(store_.fault_stats().rot_injected.load(), 3u);

  auto r = client_->Scrub();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ScrubReport& report = r.value();
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.indexes_checked, 5u);
  EXPECT_EQ(ErrorCount(report), 3u);

  std::set<std::string> flagged;
  for (const auto& f : report.findings) {
    ASSERT_EQ(f.severity, ScrubSeverity::kError);
    flagged.insert(f.index_path);
    if (f.index_path == paths[0]) {
      EXPECT_EQ(f.kind, ScrubFindingKind::kMissingIndex);
    } else {
      // A bit flip or truncation anywhere in a tail-sized file is caught
      // by Open's structural + payload checksum verification.
      EXPECT_EQ(f.kind, ScrubFindingKind::kCorruptIndex);
    }
    // Findings carry the (column, type) Repair needs to rebuild coverage.
    EXPECT_EQ(f.column, "uuid");
    EXPECT_EQ(f.index_type, "trie");
  }
  EXPECT_EQ(flagged, (std::set<std::string>{paths[0], paths[1], paths[3]}));
}

TEST_F(ScrubRepairTest, RepairQuarantinesRebuildsAndConverges) {
  std::vector<std::string> paths = BuildIndexes(4);
  ASSERT_EQ(paths.size(), 4u);
  const std::vector<uint64_t> probes = {5, 150, 250, 350};

  std::vector<MatchSet> truth;
  for (uint64_t id : probes) truth.push_back(Probe(client_.get(), id));
  for (const MatchSet& m : truth) ASSERT_EQ(m.size(), 1u);

  ASSERT_TRUE(store_.RotObject(paths[0], RotKind::kFlipBit).ok());
  ASSERT_TRUE(store_.RotObject(paths[2], RotKind::kDrop).ok());

  // Degraded-mode contract: identical answers, served by brute scan.
  for (size_t i = 0; i < probes.size(); ++i) {
    auto r = client_->SearchUuid("uuid", Slice(UuidFor(probes[i])), 5);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Reduce(r.value()), truth[i]);
  }

  auto scrub = client_->Scrub();
  ASSERT_TRUE(scrub.ok()) << scrub.status().ToString();
  ASSERT_EQ(ErrorCount(scrub.value()), 2u);

  // Dry run: reports the plan, commits nothing.
  {
    RepairOptions dry;
    dry.dry_run = true;
    auto r = client_->Repair(scrub.value(), dry);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().quarantined.size(), 2u);
    EXPECT_TRUE(r.value().rebuilt.empty());
    auto entries = client_->metadata().ReadAll();
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ(entries.value().size(), 4u);
  }

  auto repair = client_->Repair(scrub.value());
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  const RepairReport& rep = repair.value();
  EXPECT_EQ(
      std::set<std::string>(rep.quarantined.begin(), rep.quarantined.end()),
      (std::set<std::string>{paths[0], paths[2]}));
  // One rebuild re-covers both quarantined batches in a single new index.
  ASSERT_EQ(rep.rebuilt.size(), 1u);
  EXPECT_EQ(rep.rebuilt_rows, 200u);
  EXPECT_TRUE(rep.orphans_deleted.empty());

  // Converged: no errors, full coverage, byte-identical answers.
  auto scrub2 = client_->Scrub();
  ASSERT_TRUE(scrub2.ok());
  EXPECT_TRUE(scrub2.value().clean());
  EXPECT_TRUE(client_->CheckInvariants().ok());
  for (size_t i = 0; i < probes.size(); ++i) {
    auto r = client_->SearchUuid("uuid", Slice(UuidFor(probes[i])), 5);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Reduce(r.value()), truth[i]);
    EXPECT_EQ(r.value().indexes_degraded, 0u);
    EXPECT_EQ(r.value().files_scanned, 0u);
  }

  // The quarantined-but-still-present object (the flip victim; the drop
  // victim is already gone) is now an orphan WARNING — reported, not an
  // invariant violation, and only GC'd once past the protocol grace.
  ASSERT_EQ(scrub2.value().findings.size(), 1u);
  EXPECT_EQ(scrub2.value().findings[0].kind, ScrubFindingKind::kOrphanObject);
  EXPECT_EQ(scrub2.value().findings[0].index_path, paths[0]);

  clock_.Advance(Options().index_timeout_micros + 1'000'000);
  auto gc = client_->Repair(scrub2.value());
  ASSERT_TRUE(gc.ok()) << gc.status().ToString();
  EXPECT_EQ(gc.value().orphans_deleted, (std::vector<std::string>{paths[0]}));

  auto scrub3 = client_->Scrub();
  ASSERT_TRUE(scrub3.ok());
  EXPECT_TRUE(scrub3.value().findings.empty());
}

TEST_F(ScrubRepairTest, ScrubRespectsParallelismAndByteBudgetOptions) {
  BuildIndexes(4);
  // Identical findings and counters at any parallelism: the audit is
  // deterministic in entry order regardless of scheduling.
  ScrubOptions seq;
  seq.parallelism = 1;
  ScrubOptions wide;
  wide.parallelism = 8;
  auto a = client_->Scrub(seq);
  auto b = client_->Scrub(wide);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().findings.size(), b.value().findings.size());
  EXPECT_EQ(a.value().components_verified, b.value().components_verified);
  EXPECT_EQ(a.value().bytes_verified, b.value().bytes_verified);
}

TEST_F(ScrubRepairTest, AutoQuarantineDropsCorruptEntryOnSearch) {
  std::vector<std::string> paths = BuildIndexes(2);
  MatchSet truth = Probe(client_.get(), 7);  // Batch 0, the rot victim.
  ASSERT_EQ(truth.size(), 1u);
  ASSERT_TRUE(store_.RotObject(paths[0], RotKind::kFlipBit).ok());

  // Default: degrade but leave metadata alone.
  auto r1 = client_->SearchUuid("uuid", Slice(UuidFor(7)), 5);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(Reduce(r1.value()), truth);
  EXPECT_EQ(r1.value().indexes_degraded, 1u);
  EXPECT_EQ(r1.value().indexes_quarantined, 0u);
  {
    auto entries = client_->metadata().ReadAll();
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ(entries.value().size(), 2u);
  }

  // Opt-in: the tripped query itself expels the poisoned entry.
  SearchOptions q;
  q.auto_quarantine = true;
  auto r2 = client_->SearchUuid("uuid", Slice(UuidFor(7)), 5, q);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(Reduce(r2.value()), truth);
  EXPECT_EQ(r2.value().indexes_degraded, 1u);
  EXPECT_EQ(r2.value().indexes_quarantined, 1u);
  {
    auto entries = client_->metadata().ReadAll();
    ASSERT_TRUE(entries.ok());
    ASSERT_EQ(entries.value().size(), 1u);
    EXPECT_EQ(entries.value()[0].index_path, paths[1]);
  }

  // Post-quarantine: no more degradation (the batch is scanned as merely
  // unindexed) and the auditor is green again — rot became an orphan.
  auto r3 = client_->SearchUuid("uuid", Slice(UuidFor(7)), 5);
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_EQ(Reduce(r3.value()), truth);
  EXPECT_EQ(r3.value().indexes_degraded, 0u);
  EXPECT_GE(r3.value().files_scanned, 1u);
  EXPECT_TRUE(client_->CheckInvariants().ok());
}

TEST_F(ScrubRepairTest, CorruptReadInvalidatesPoisonedCacheBlocks) {
  // Cache-poisoning regression: a read-path bit flip (the bytes in the
  // bucket are FINE) lands in the client cache. The checksum trips, the
  // search degrades — and the poisoned blocks must be invalidated, so the
  // next search re-fetches clean bytes instead of degrading forever.
  RottnestOptions copts = Options();
  copts.cache_bytes = 8ull << 20;
  Rottnest cached(&store_, table_.get(), copts);
  AppendRows(table_.get(), 0, 100);
  ASSERT_TRUE(cached.Index("uuid", IndexType::kTrie).ok());

  store_.SetCorruptReadRate(1.0, ".index");
  auto poisoned = cached.SearchUuid("uuid", Slice(UuidFor(7)), 5);
  ASSERT_TRUE(poisoned.ok()) << poisoned.status().ToString();
  EXPECT_EQ(poisoned.value().indexes_degraded, 1u);
  ASSERT_EQ(poisoned.value().matches.size(), 1u);  // Scan still answers.
  EXPECT_GT(store_.fault_stats().corrupt_reads_injected.load(), 0u);

  // Faults off: with the invalidation fix the very next query is healthy.
  // (Without it, the cache would keep serving the poisoned tail bytes and
  // this search would degrade despite a perfectly healthy store.)
  store_.SetCorruptReadRate(0.0);
  auto healthy = cached.SearchUuid("uuid", Slice(UuidFor(7)), 5);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_EQ(healthy.value().indexes_degraded, 0u);
  EXPECT_EQ(healthy.value().files_scanned, 0u);
  ASSERT_EQ(healthy.value().matches.size(), 1u);
}

TEST_F(ScrubRepairTest, CheckInvariantsReportsEveryViolation) {
  // The auditor must list ALL violations in one Status, not fail fast on
  // the first — an operator repairing a blast radius needs the full list.
  std::vector<std::string> paths = BuildIndexes(3);
  ASSERT_TRUE(store_.RotObject(paths[0], RotKind::kFlipBit).ok());
  ASSERT_TRUE(store_.RotObject(paths[1], RotKind::kFlipBit).ok());
  ASSERT_TRUE(store_.RotObject(paths[2], RotKind::kDrop).ok());

  Status s = client_->CheckInvariants();
  ASSERT_FALSE(s.ok());
  std::string msg = s.ToString();
  for (const std::string& p : paths) {
    EXPECT_NE(msg.find(p), std::string::npos) << "missing " << p << " in\n"
                                              << msg;
  }
  EXPECT_NE(msg.find("missing-index"), std::string::npos);
  EXPECT_NE(msg.find("corrupt-index"), std::string::npos);
}

TEST_F(ScrubRepairTest, DeepScrubCatchesRotThatShallowAuditsMiss) {
  // An index too large for the Open tail read: damage outside the tail is
  // invisible to the structural audit (Open + page table) and to queries
  // that never touch the damaged component. Only the deep re-verification
  // of every component checksum finds it — the reason Scrub exists.
  std::vector<std::string> paths = BuildIndexes(1);
  const std::string& path = paths[0];

  // Rewrite the committed object as a logically-identical file with a
  // 300 KiB incompressible pad component FIRST (so it lands outside the
  // 256 KiB tail and is never verified at open).
  {
    auto opened = index::ComponentFileReader::Open(&store_, path, nullptr);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto& reader = opened.value();
    std::vector<std::string> names = reader->ComponentNames();
    std::vector<Slice> payloads;
    ASSERT_TRUE(
        reader->ReadComponents(names, nullptr, nullptr, &payloads).ok());
    Random rng(99);
    Buffer pad(300 << 10);
    for (auto& b : pad) b = static_cast<uint8_t>(rng.Next());
    index::ComponentFileWriter writer(reader->type(), reader->column());
    ASSERT_TRUE(writer.AddComponent("aa_pad", Slice(pad)).ok());
    for (size_t i = 0; i < names.size(); ++i) {
      ASSERT_TRUE(writer.AddComponent(names[i], payloads[i]).ok());
    }
    Buffer file;
    ASSERT_TRUE(writer.Finish(&file).ok());
    ASSERT_TRUE(store_.Put(path, Slice(file)).ok());
  }

  // The inflated object is valid: searches and deep scrub are green, and
  // the deep pass now actually fetches bytes (the pad is not in the tail).
  EXPECT_EQ(Probe(client_.get(), 7).size(), 1u);
  {
    auto r = client_->Scrub();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().findings.empty());
    EXPECT_GT(r.value().bytes_verified, 200u << 10);
    EXPECT_EQ(r.value().stats.gets, 2u);  // Tail read + the pad only.
  }

  // Rot one byte in the middle of the pad, far outside the tail.
  {
    Buffer buf;
    ASSERT_TRUE(inner_.Get(path, &buf).ok());
    buf[50'000] ^= 0x01;
    ASSERT_TRUE(inner_.Put(path, Slice(buf)).ok());
  }

  // Queries never read the pad; the shallow audit never re-fetches it.
  EXPECT_EQ(Probe(client_.get(), 7).size(), 1u);
  EXPECT_TRUE(client_->CheckInvariants().ok());
  ScrubOptions shallow;
  shallow.deep = false;
  auto sr = client_->Scrub(shallow);
  ASSERT_TRUE(sr.ok());
  EXPECT_TRUE(sr.value().findings.empty());

  // The deep audit localizes the damage to the component.
  auto deep = client_->Scrub();
  ASSERT_TRUE(deep.ok()) << deep.status().ToString();
  EXPECT_EQ(deep.value().stats.gets, 2u);
  ASSERT_EQ(ErrorCount(deep.value()), 1u);
  const ScrubFinding& f = deep.value().findings[0];
  EXPECT_EQ(f.kind, ScrubFindingKind::kCorruptComponent);
  EXPECT_EQ(f.index_path, path);
  EXPECT_EQ(f.component, "aa_pad");

  // A starved byte budget skips (and reports skipping) the deep fetch —
  // the audit stays cheap but honestly incomplete.
  ScrubOptions starved;
  starved.byte_budget = 1;
  auto skim = client_->Scrub(starved);
  ASSERT_TRUE(skim.ok());
  EXPECT_GE(skim.value().components_skipped, 1u);
  EXPECT_TRUE(skim.value().clean());

  // Repair heals it: quarantine + rebuild, then a clean deep scrub.
  auto repair = client_->Repair(deep.value());
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_EQ(repair.value().quarantined, (std::vector<std::string>{path}));
  ASSERT_EQ(repair.value().rebuilt.size(), 1u);
  auto after = client_->Scrub();
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().clean());
  auto probe = client_->SearchUuid("uuid", Slice(UuidFor(7)), 5);
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe.value().indexes_degraded, 0u);
  EXPECT_EQ(probe.value().files_scanned, 0u);
}

// ---------------------------------------------------------------------------
// Crash-schedule exploration of Repair: for EVERY prefix of its fault-free
// storage footprint, in both crash modes, a truncated Repair must leave a
// state where searches still answer correctly, and retrying Repair with the
// SAME report must converge to full coverage and a clean scrub.

struct RepairWorld {
  SimulatedClock clock;
  InMemoryObjectStore inner{&clock};
  FaultInjectingStore store{&inner};
  std::unique_ptr<Table> table;
  std::unique_ptr<Rottnest> client;
  ScrubReport report;            ///< The damage report Repair acts on.
  std::vector<MatchSet> truth;   ///< Pre-rot answers for the probe ids.

  RepairWorld() {
    table = Table::Create(&store, "lake/s", MakeSchema()).MoveValue();
    client = std::make_unique<Rottnest>(&store, table.get(), Options());
  }
};

const std::vector<uint64_t> kRepairProbes = {7, 55};

void SetupRepairWorld(RepairWorld& w) {
  AppendRows(w.table.get(), 0, 40);
  ASSERT_TRUE(w.client->Index("uuid", IndexType::kTrie).ok());
  AppendRows(w.table.get(), 40, 40);
  ASSERT_TRUE(w.client->Index("uuid", IndexType::kTrie).ok());
  for (uint64_t id : kRepairProbes) {
    auto r = w.client->SearchUuid("uuid", Slice(UuidFor(id)), 5);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    w.truth.push_back(Reduce(r.value()));
    ASSERT_EQ(w.truth.back().size(), 1u);
  }
  // Mutate-only rot (no drop): Existence keeps holding throughout, so the
  // damaged entry is a pure corruption case for Repair to quarantine.
  auto entries = w.client->metadata().ReadAll();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value().size(), 2u);
  ASSERT_TRUE(
      w.store.RotObject(entries.value()[0].index_path, RotKind::kFlipBit)
          .ok());
  ScrubOptions so;
  so.parallelism = 1;  // Deterministic op sequence for the crash schedule.
  auto scrub = w.client->Scrub(so);
  ASSERT_TRUE(scrub.ok()) << scrub.status().ToString();
  ASSERT_EQ(ErrorCount(scrub.value()), 1u);
  w.report = scrub.value();
}

Status RunRepair(RepairWorld& w) {
  RepairOptions ro;
  ro.parallelism = 1;
  return w.client->Repair(w.report, ro).status();
}

void ExpectConverged(RepairWorld& w) {
  ScrubOptions so;
  so.parallelism = 1;
  auto scrub = w.client->Scrub(so);
  ASSERT_TRUE(scrub.ok()) << scrub.status().ToString();
  EXPECT_TRUE(scrub.value().clean());
  Status inv = w.client->CheckInvariants();
  EXPECT_TRUE(inv.ok()) << inv.ToString();
  for (size_t i = 0; i < kRepairProbes.size(); ++i) {
    auto r = w.client->SearchUuid("uuid", Slice(UuidFor(kRepairProbes[i])), 5);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Reduce(r.value()), w.truth[i]);
    EXPECT_EQ(r.value().indexes_degraded, 0u);
    EXPECT_EQ(r.value().files_scanned, 0u);  // Coverage fully restored.
  }
}

TEST(RepairCrashScheduleTest, RepairSurvivesEveryCrashPoint) {
  // Fault-free footprint, and the baseline: one repair converges.
  uint64_t num_ops = 0;
  {
    RepairWorld w;
    SetupRepairWorld(w);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    uint64_t before = w.store.op_count();
    Status s = RunRepair(w);
    ASSERT_TRUE(s.ok()) << s.ToString();
    num_ops = w.store.op_count() - before;
    ExpectConverged(w);
  }
  ASSERT_GT(num_ops, 0u);

  size_t schedules = 0;
  for (uint64_t n = 0; n < num_ops; ++n) {
    for (CrashMode mode : {CrashMode::kBeforeOp, CrashMode::kAfterOp}) {
      SCOPED_TRACE("repair crash at op " + std::to_string(n) +
                   (mode == CrashMode::kBeforeOp ? " (before)" : " (after)"));
      RepairWorld w;
      SetupRepairWorld(w);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
      w.store.SetCrashAtOp(w.store.op_count() + n, mode);

      Status s = RunRepair(w);
      EXPECT_FALSE(s.ok());
      EXPECT_TRUE(w.store.crashed());
      w.store.ClearCrash();  // "Restart."

      // Whatever prefix landed, searches still answer correctly (possibly
      // degraded or scanning — but never wrong). Note plain CheckInvariants
      // may legitimately FAIL here: before the quarantine commit the
      // metadata still references the rotten object, which is exactly the
      // violation the pending repair exists to fix.
      for (size_t i = 0; i < kRepairProbes.size(); ++i) {
        auto r =
            w.client->SearchUuid("uuid", Slice(UuidFor(kRepairProbes[i])), 5);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(Reduce(r.value()), w.truth[i]);
      }

      // Retrying with the SAME report converges: the findings carry the
      // (column, type) to rebuild even when the crashed attempt already
      // committed the quarantine.
      Status retry = RunRepair(w);
      EXPECT_TRUE(retry.ok()) << retry.ToString();
      ExpectConverged(w);
      ++schedules;
    }
  }
  EXPECT_GE(schedules, 2u);
  RecordProperty("schedules", static_cast<int>(schedules));
}

}  // namespace
}  // namespace rottnest::core
