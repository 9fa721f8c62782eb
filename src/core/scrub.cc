// Anti-entropy: Scrub (deep parallel audit), Repair (quarantine + rebuild
// + orphan GC) and the Scrub-based CheckInvariants (see DESIGN.md §4f).
//
// Scrub never fails fast: every problem becomes a ScrubFinding and the
// audit keeps going, so one rotten object cannot hide another. Repair
// heals in an order that keeps every crash prefix legal under the paper's
// invariants: quarantine is one atomic metadata commit (Existence is
// preserved — entries are only ever *removed*), re-indexing is the
// ordinary crash-safe Index protocol (upload before commit), and orphan
// deletion reuses Vacuum's timeout rule (only unreferenced objects older
// than the protocol window are touched).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>

#include "core/obs_internal.h"
#include "core/rottnest.h"
#include "format/reader.h"
#include "index/trie/trie_index.h"

namespace rottnest::core {

namespace {

using index::ComponentFileReader;
using lake::IndexEntry;

/// Shared deep-verify byte budget: admission control across the parallel
/// per-index audit tasks. 0 at construction = unbounded.
class ByteBudget {
 public:
  explicit ByteBudget(uint64_t budget)
      : bounded_(budget != 0), left_(static_cast<int64_t>(budget)) {}

  /// True if `bytes` more may be fetched (and reserves them).
  bool Admit(uint64_t bytes) {
    if (!bounded_) return true;
    int64_t prev = left_.fetch_sub(static_cast<int64_t>(bytes),
                                   std::memory_order_relaxed);
    return prev >= static_cast<int64_t>(bytes);
  }

 private:
  bool bounded_;
  std::atomic<int64_t> left_;
};

}  // namespace

const char* ScrubFindingKindName(ScrubFindingKind k) {
  switch (k) {
    case ScrubFindingKind::kMissingIndex:
      return "missing-index";
    case ScrubFindingKind::kCorruptIndex:
      return "corrupt-index";
    case ScrubFindingKind::kCorruptComponent:
      return "corrupt-component";
    case ScrubFindingKind::kUnreadableIndex:
      return "unreadable-index";
    case ScrubFindingKind::kInconsistentPageTable:
      return "inconsistent-page-table";
    case ScrubFindingKind::kOrphanObject:
      return "orphan-object";
    case ScrubFindingKind::kCorruptCheckpoint:
      return "corrupt-checkpoint";
    case ScrubFindingKind::kDanglingCheckpoint:
      return "dangling-checkpoint";
    case ScrubFindingKind::kOrphanCheckpoint:
      return "orphan-checkpoint";
  }
  return "unknown";
}

namespace {

/// Audits one log's checkpoints: pointer readable, pointed-to checkpoint
/// valid, every checkpoint object parseable, orphans flagged as warnings
/// (a crash between the checkpoint PutIfAbsent and the pointer move
/// legally strands one). Appends findings; never fails fast.
void AuditCheckpoints(lake::TxnLog* log, ScrubReport* report) {
  lake::Checkpointer& ckpt = log->checkpointer();
  auto listed = ckpt.List();
  std::vector<lake::Version> versions =
      listed.ok() ? listed.value() : std::vector<lake::Version>{};
  report->checkpoints_checked += versions.size();

  auto add = [&](ScrubFindingKind kind, ScrubSeverity severity,
                 std::string path, std::string detail) {
    ScrubFinding f;
    f.kind = kind;
    f.severity = severity;
    f.index_path = std::move(path);
    f.detail = std::move(detail);
    report->findings.push_back(std::move(f));
  };

  lake::Version pointed = -1;
  auto ptr = ckpt.ReadPointer();
  if (ptr.ok()) {
    pointed = ptr.value().version;
    if (pointed >= 0) {
      auto data = ckpt.Read(pointed);
      if (data.status().IsNotFound()) {
        add(ScrubFindingKind::kDanglingCheckpoint, ScrubSeverity::kError,
            ckpt.KeyFor(pointed),
            "_last_checkpoint names a missing checkpoint object");
      } else if (!data.ok()) {
        add(ScrubFindingKind::kCorruptCheckpoint, ScrubSeverity::kError,
            ckpt.KeyFor(pointed), data.status().message());
      }
    }
  } else if (!ptr.status().IsNotFound()) {
    // Pointer present but unreadable: readers fall back to the LIST walk
    // (or full replay) — flag it so Repair re-points.
    add(ScrubFindingKind::kDanglingCheckpoint, ScrubSeverity::kError,
        ckpt.pointer_key(), ptr.status().message());
  } else if (!versions.empty()) {
    // Checkpoints exist but no pointer was ever written — all orphans
    // (crash after PutIfAbsent, before the first pointer move).
    for (lake::Version v : versions) {
      add(ScrubFindingKind::kOrphanCheckpoint, ScrubSeverity::kWarning,
          ckpt.KeyFor(v), "checkpoint exists but _last_checkpoint does not");
    }
    return;
  }

  for (lake::Version v : versions) {
    if (v == pointed) continue;  // Audited through the pointer above.
    auto data = ckpt.Read(v);
    if (!data.ok()) {
      add(ScrubFindingKind::kCorruptCheckpoint, ScrubSeverity::kError,
          ckpt.KeyFor(v), data.status().message());
    } else {
      add(ScrubFindingKind::kOrphanCheckpoint, ScrubSeverity::kWarning,
          ckpt.KeyFor(v), "valid checkpoint not named by _last_checkpoint");
    }
  }
}

}  // namespace

Result<ScrubReport> Rottnest::Scrub(const ScrubOptions& opts) {
  auto wall_start = std::chrono::steady_clock::now();
  Micros start = store_->clock().NowMicros();
  MaintenanceOptions mopts;
  static_cast<CommonOptions&>(mopts) = opts;  // Shared CommonOptions base.
  MaintenancePlan plan = ResolveMaintenance(mopts, start);
  internal::OpObs op(store_, cache_store_.get(), opts.obs, "scrub");
  objectstore::IoTrace local;
  ScrubReport report;

  std::vector<IndexEntry> entries;
  {
    internal::OpPhase phase(&op, "plan");
    local.RecordList();
    ROTTNEST_ASSIGN_OR_RETURN(entries, metadata_.ReadAll(&io_));
  }
  report.indexes_checked = entries.size();

  // Audit every committed index concurrently; each task appends findings
  // to its own slot and records IO into its own trace, so aggregation is
  // deterministic in entry order regardless of scheduling. All reads go
  // through store_, not the cache: an audit must observe the bucket.
  ByteBudget budget(opts.byte_budget);
  std::atomic<uint64_t> components_verified{0};
  std::atomic<uint64_t> components_skipped{0};
  std::atomic<uint64_t> bytes_verified{0};
  std::vector<std::vector<ScrubFinding>> per_entry(entries.size());
  std::vector<objectstore::IoTrace> child_traces(entries.size());
  // One `audit:<path>` span per entry, mirroring the wave-merged traces;
  // created and attributed in entry order on the calling thread.
  std::vector<obs::SpanId> audit_spans;
  if (op.tracing()) {
    audit_spans.reserve(entries.size());
    Micros span_now = op.NowMicros();
    for (const IndexEntry& e : entries) {
      audit_spans.push_back(op.tracer()->StartSpan("audit:" + e.index_path,
                                                   op.root_id(), span_now));
    }
  }
  pool_.ParallelFor(entries.size(), plan.parallelism, [&](size_t i) {
    const IndexEntry& e = entries[i];
    std::vector<ScrubFinding>& out = per_entry[i];
    objectstore::IoTrace* t = &child_traces[i];
    auto add = [&](ScrubFindingKind kind, std::string component,
                   std::string detail) {
      ScrubFinding f;
      f.kind = kind;
      f.severity = ScrubSeverity::kError;
      f.index_path = e.index_path;
      f.component = std::move(component);
      f.detail = std::move(detail);
      f.column = e.column;
      f.index_type = e.index_type;
      out.push_back(std::move(f));
    };

    // Existence (invariant 1): the committed object is in the bucket.
    objectstore::ObjectMeta meta;
    Status head = store_->Head(e.index_path, &meta);
    if (!head.ok()) {
      add(head.IsNotFound() ? ScrubFindingKind::kMissingIndex
                            : ScrubFindingKind::kUnreadableIndex,
          "", head.ToString());
      return;
    }

    // Structure: magic, directory checksum, directory parse. Components in
    // the open tail read are payload-checksummed here too.
    auto reader_r = ComponentFileReader::Open(store_, e.index_path, t);
    if (!reader_r.ok()) {
      const Status& s = reader_r.status();
      add(s.IsCorruption()  ? ScrubFindingKind::kCorruptIndex
          : s.IsNotFound()  ? ScrubFindingKind::kMissingIndex
                            : ScrubFindingKind::kUnreadableIndex,
          "", s.ToString());
      return;
    }
    ComponentFileReader* reader = reader_r.value().get();

    // Consistency: the embedded page table names exactly the covered set.
    format::PageTable pages;
    Status pt = index::LoadPageTable(reader, nullptr, t, &pages);
    if (!pt.ok()) {
      add(ScrubFindingKind::kCorruptComponent, "pagetable", pt.ToString());
    } else {
      std::set<std::string> in_table(pages.files().begin(),
                                     pages.files().end());
      std::set<std::string> in_entry(e.covered_files.begin(),
                                     e.covered_files.end());
      if (in_table != in_entry) {
        add(ScrubFindingKind::kInconsistentPageTable, "",
            "page table names do not match covered_files");
      }
    }

    // Deep verification: re-fetch every component payload not already
    // verified in the tail and check its directory checksum, under the
    // shared byte budget. Collects ALL damage, never fails fast.
    if (opts.deep) {
      std::vector<std::string> to_verify;
      for (const index::ComponentInfo& c : reader->Components()) {
        if (c.verified_at_open) {
          components_verified.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (!budget.Admit(c.compressed_size)) {
          components_skipped.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        to_verify.push_back(c.name);
      }
      std::vector<index::ComponentDamage> damage;
      uint64_t fetched = 0;
      Status v = reader->VerifyComponents(to_verify, t, &damage, &fetched);
      bytes_verified.fetch_add(fetched, std::memory_order_relaxed);
      if (!v.ok()) {
        add(ScrubFindingKind::kUnreadableIndex, "", v.ToString());
      } else {
        components_verified.fetch_add(to_verify.size() - damage.size(),
                                      std::memory_order_relaxed);
        for (index::ComponentDamage& d : damage) {
          add(ScrubFindingKind::kCorruptComponent, d.name,
              d.status.ToString());
        }
      }
    }
  });
  internal::MergeWaves(&local, child_traces, plan.parallelism);
  if (op.tracing()) {
    Micros span_now = op.NowMicros();
    for (size_t i = 0; i < entries.size(); ++i) {
      op.Attribute(audit_spans[i],
                   internal::SpanIoFromTrace(child_traces[i]));
      op.tracer()->EndSpan(audit_spans[i], span_now);
    }
  }

  for (size_t i = 0; i < entries.size(); ++i) {
    bool corrupt = false;
    for (ScrubFinding& f : per_entry[i]) {
      corrupt |= f.kind == ScrubFindingKind::kCorruptIndex ||
                 f.kind == ScrubFindingKind::kCorruptComponent;
      report.findings.push_back(std::move(f));
    }
    // A corruption verdict may have been served out of the client cache
    // before this audit ran; drop the poisoned blocks either way.
    if (corrupt) InvalidateCachedIndex(entries[i].index_path);
  }

  // Orphans: index objects in the bucket with no metadata entry. Legal
  // (an in-flight Index uploads before committing; crashes strand them),
  // so a warning — Repair deletes only past the protocol grace period.
  {
    internal::OpPhase phase(&op, "orphans");
    std::set<std::string> referenced;
    for (const IndexEntry& e : entries) referenced.insert(e.index_path);
    local.RecordList();
    std::vector<objectstore::ObjectMeta> listing;
    ROTTNEST_RETURN_NOT_OK(store_->List(options_.index_dir + "/", &listing));
    Micros now = store_->clock().NowMicros();
    for (const auto& obj : listing) {
      if (obj.key.size() < 6 ||
          obj.key.compare(obj.key.size() - 6, 6, ".index") != 0) {
        continue;
      }
      if (referenced.count(obj.key) != 0) continue;
      ScrubFinding f;
      f.kind = ScrubFindingKind::kOrphanObject;
      f.severity = ScrubSeverity::kWarning;
      f.index_path = obj.key;
      f.detail = "index object not referenced by the metadata table";
      f.age_micros = now > obj.created_micros ? now - obj.created_micros : 0;
      report.findings.push_back(std::move(f));
    }
  }

  // Metadata-plane checkpoints (deep audits only — the shallow
  // CheckInvariants path keeps its pre-checkpoint cost and semantics).
  // Both logs are audited: the lake table's and the index registry's.
  if (opts.deep) {
    internal::OpPhase phase(&op, "checkpoints");
    local.RecordList();
    AuditCheckpoints(&table_->log(), &report);
    AuditCheckpoints(&metadata_.log(), &report);
  }

  std::sort(report.findings.begin(), report.findings.end(),
            [](const ScrubFinding& a, const ScrubFinding& b) {
              if (a.index_path != b.index_path) {
                return a.index_path < b.index_path;
              }
              if (a.kind != b.kind) {
                return static_cast<int>(a.kind) < static_cast<int>(b.kind);
              }
              return a.component < b.component;
            });
  report.components_verified = components_verified.load();
  report.components_skipped = components_skipped.load();
  report.bytes_verified = bytes_verified.load();
  FinishMaintenanceStats(&local, mopts, plan, wall_start, &op,
                         &report.stats);
  return report;
}

Result<RepairReport> Rottnest::Repair(const ScrubReport& scrub,
                                      const RepairOptions& opts) {
  auto wall_start = std::chrono::steady_clock::now();
  Micros start = store_->clock().NowMicros();
  MaintenanceOptions mopts;
  static_cast<CommonOptions&>(mopts) = opts;  // Shared CommonOptions base.
  mopts.dry_run = opts.dry_run;
  MaintenancePlan plan = ResolveMaintenance(mopts, start);
  internal::OpObs op(store_, cache_store_.get(), opts.obs, "repair");
  objectstore::IoTrace local;
  RepairReport report;

  // Step 1 — quarantine: remove every damaged entry from the metadata
  // table in ONE transactional commit. The report's paths are re-checked
  // against current metadata, so a stale report (another repairer won the
  // race) quarantines nothing and the call stays idempotent.
  std::set<std::string> damaged;
  // The rebuild targets come from the FINDINGS, not from current metadata:
  // if a previous Repair attempt crashed after its quarantine commit, the
  // damaged entry is no longer in the table, but the report still knows
  // which (column, type) lost coverage — so a retry converges.
  std::set<std::pair<std::string, std::string>> affected;
  for (const ScrubFinding& f : scrub.findings) {
    if (f.severity == ScrubSeverity::kError &&
        f.kind != ScrubFindingKind::kOrphanObject) {
      damaged.insert(f.index_path);
      if (!f.column.empty()) affected.insert({f.column, f.index_type});
    }
  }
  {
    internal::OpPhase phase(&op, "quarantine");
    local.RecordList();
    ROTTNEST_ASSIGN_OR_RETURN(std::vector<IndexEntry> entries,
                              metadata_.ReadAll(&io_));
    std::vector<std::string> quarantine;
    for (const IndexEntry& e : entries) {
      if (damaged.count(e.index_path) == 0) continue;
      quarantine.push_back(e.index_path);
    }
    if (opts.quarantine && !quarantine.empty()) {
      if (!opts.dry_run) {
        auto committed = metadata_.Update({}, quarantine);
        if (!committed.ok()) return committed.status();
        for (const std::string& path : quarantine) InvalidateCachedIndex(path);
      }
      report.quarantined = quarantine;
    }
  }

  // Step 2 — rebuild: re-Index each affected (column, type); the files the
  // quarantined entries covered are now uncovered, so the ordinary Index
  // protocol (upload before commit, timeout guard) re-covers them. A crash
  // here strands at most an orphan upload — exactly the state step 3 and
  // Vacuum already know how to collect.
  if (opts.reindex && !opts.dry_run) {
    // The nested Index calls open their own root spans; re-parent them
    // under the repair root, and mark the whole window's counter delta as
    // attributed elsewhere so the repair root does not claim it again.
    obs::ObsContext nested;
    if (opts.obs != nullptr) {
      nested = *opts.obs;
      nested.parent = op.root_id();
    }
    internal::OpSnapshot before_reindex = op.Snap();
    for (const auto& [column, type_name] : affected) {
      index::IndexType type;
      if (!index::IndexTypeFromName(type_name, &type)) continue;
      MaintenanceOptions iopts;
      iopts.parallelism = opts.parallelism;
      iopts.trace = &local;
      iopts.obs = opts.obs != nullptr ? &nested : nullptr;
      auto rebuilt = Index(column, type, iopts);
      if (!rebuilt.ok()) {
        // Timeouts / vanished files abort the protocol cleanly; a retry of
        // Repair (or plain Index) finishes the job.
        if (rebuilt.status().IsAborted()) continue;
        return rebuilt.status();
      }
      if (!rebuilt.value().index_path.empty()) {
        report.rebuilt.push_back(rebuilt.value().index_path);
        report.rebuilt_rows += rebuilt.value().rows;
      }
    }
    op.AttributeElsewhere(before_reindex);
  }

  // Step 3 — orphan GC, by Vacuum's rule: delete index objects that are
  // unreferenced AND older than the grace period. Referenced-ness is
  // re-read post-rebuild so a concurrent commit can never lose an object.
  if (opts.gc_orphans) {
    internal::OpPhase phase(&op, "gc");
    Micros grace = opts.orphan_grace_micros != 0
                       ? opts.orphan_grace_micros
                       : options_.index_timeout_micros;
    local.RecordList();
    ROTTNEST_ASSIGN_OR_RETURN(std::vector<IndexEntry> remaining,
                              metadata_.ReadAll(&io_));
    std::set<std::string> referenced;
    for (const IndexEntry& e : remaining) referenced.insert(e.index_path);
    Micros cutoff = store_->clock().NowMicros() - grace;
    std::vector<std::string> deletable;
    for (const ScrubFinding& f : scrub.findings) {
      if (f.kind != ScrubFindingKind::kOrphanObject) continue;
      if (referenced.count(f.index_path) != 0) continue;
      objectstore::ObjectMeta meta;
      Status head = store_->Head(f.index_path, &meta);
      if (!head.ok()) continue;  // Already gone: nothing to collect.
      if (meta.created_micros > cutoff) continue;
      deletable.push_back(f.index_path);
    }
    if (opts.dry_run) {
      report.orphans_deleted = deletable;
    } else {
      std::vector<Status> statuses(deletable.size(), Status::OK());
      pool_.ParallelFor(deletable.size(), plan.parallelism, [&](size_t i) {
        statuses[i] = store_->Delete(deletable[i]);
      });
      for (size_t i = 0; i < deletable.size(); ++i) {
        if (!statuses[i].ok()) return statuses[i];
        report.orphans_deleted.push_back(deletable[i]);
      }
    }
  }

  // Step 4 — checkpoint rebuild: a rotten or dangling metadata-plane
  // checkpoint is healed by replaying the log (readers already skip the
  // bad object, so the replay is correct) and writing a fresh checkpoint
  // at the current tail — overwriting in place when the damage sits at
  // the tail version — then deleting superseded rotten objects. A crash
  // anywhere in this step leaves a state Scrub still understands.
  if (opts.rebuild_checkpoints && !opts.dry_run) {
    internal::OpPhase phase(&op, "checkpoints");
    const std::string lake_prefix = table_->log().prefix() + "/";
    const std::string meta_prefix = metadata_.log().prefix() + "/";
    bool lake_damaged = false, meta_damaged = false;
    std::vector<std::pair<lake::TxnLog*, lake::Version>> rotten;
    for (const ScrubFinding& f : scrub.findings) {
      if (f.kind != ScrubFindingKind::kCorruptCheckpoint &&
          f.kind != ScrubFindingKind::kDanglingCheckpoint) {
        continue;
      }
      lake::TxnLog* log = nullptr;
      if (f.index_path.compare(0, lake_prefix.size(), lake_prefix) == 0) {
        log = &table_->log();
        lake_damaged = true;
      } else if (f.index_path.compare(0, meta_prefix.size(), meta_prefix) ==
                 0) {
        log = &metadata_.log();
        meta_damaged = true;
      }
      lake::Version v = -1;
      if (log != nullptr &&
          f.kind == ScrubFindingKind::kCorruptCheckpoint &&
          lake::Checkpointer::ParseCheckpointKey(f.index_path, &v)) {
        rotten.emplace_back(log, v);
      }
    }
    auto rebuild = [&](lake::TxnLog* log) -> Status {
      auto fresh = log->WriteCheckpoint(/*overwrite=*/true);
      if (!fresh.ok()) return fresh.status();
      report.checkpoints_rebuilt.push_back(
          log->checkpointer().KeyFor(fresh.value()));
      return Status::OK();
    };
    if (lake_damaged) ROTTNEST_RETURN_NOT_OK(rebuild(&table_->log()));
    if (meta_damaged) ROTTNEST_RETURN_NOT_OK(rebuild(&metadata_.log()));
    for (auto& [log, v] : rotten) {
      const std::string key = log->checkpointer().KeyFor(v);
      bool rewritten_in_place =
          std::find(report.checkpoints_rebuilt.begin(),
                    report.checkpoints_rebuilt.end(),
                    key) != report.checkpoints_rebuilt.end();
      if (rewritten_in_place) continue;
      ROTTNEST_RETURN_NOT_OK(log->checkpointer().Delete(v));
    }
  }

  FinishMaintenanceStats(&local, mopts, plan, wall_start, &op,
                         &report.stats);
  return report;
}

Status Rottnest::CheckInvariants(const SearchOptions& opts) {
  ScrubOptions sopts;
  static_cast<CommonOptions&>(sopts) = opts;  // Forward trace/obs/limits.
  sopts.deep = false;  // Structural audit — the old CheckInvariants depth.
  ROTTNEST_ASSIGN_OR_RETURN(ScrubReport report, Scrub(sopts));
  if (report.clean()) return Status::OK();
  std::string msg = "invariant violations:";
  for (const ScrubFinding& f : report.findings) {
    if (f.severity != ScrubSeverity::kError) continue;
    msg += std::string("\n  [") + ScrubFindingKindName(f.kind) + "] " +
           f.index_path;
    if (!f.component.empty()) msg += " (" + f.component + ")";
    msg += ": " + f.detail;
  }
  return Status::Internal(msg);
}

}  // namespace rottnest::core
