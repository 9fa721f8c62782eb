#!/usr/bin/env python3
"""Schema check for the committed BENCH_*.json artifacts.

Every bench emitter writes its report through WriteBenchJson(), which
appends the observability registry snapshot under "metrics_snapshot".
This check fails if any BENCH_*.json in the given directory (default:
cwd, CI runs it from the repo root) is unparseable or lacks that block,
so a bench that bypasses the emitter cannot land silently.
"""
import glob
import json
import os
import sys

# Per-artifact required keys, beyond the universal metrics_snapshot block.
# The serving bench's committed report must carry both sides of the
# batched-vs-unbatched comparison and its acceptance numbers, or the
# comparison cannot be audited from the artifact alone.
REQUIRED_KEYS = {
    "BENCH_serve.json": [
        "queries", "tenants", "clients",
        "unbatched_gets", "unbatched_p99_micros", "unbatched_traced_gets",
        "batched_gets", "batched_p99_micros", "batched_traced_gets",
        "batched_waves", "batched_wave_hits", "batched_coalesced",
        "get_ratio", "p99_ratio", "reconciled",
    ],
    # The metadata-plane bench must carry both sides of the cold-read
    # comparison (replay-from-zero vs checkpoint+suffix) and its gate.
    "BENCH_metadata.json": [
        "commits", "replay_gets", "replay_sim_ms",
        "checkpoint_gets", "checkpoint_sim_ms",
        "get_ratio", "speedup", "rows",
    ],
    # The keyword bench must carry both sides of the cold-GET comparison
    # (inverted index vs brute page scan) and the postings codec numbers.
    "BENCH_keyword.json": [
        "queries", "rows", "data_bytes", "index_bytes",
        "brute_gets", "brute_bytes", "indexed_gets", "indexed_bytes",
        "matches", "get_bytes_ratio",
        "terms", "postings", "encoded_posting_bytes",
        "postings_compression_ratio",
    ],
    # The cache bench must carry the cold and hot sides of its latency and
    # request comparison and the fan-out depths.
    "BENCH_cache.json": [
        "files", "rows_per_file", "queries",
        "cold_ms_per_query", "cold_physical_gets_per_query",
        "hot_ms_per_query", "hot_cache_hits_per_query",
        "hot_cache_misses_per_query", "hot_index_component_gets_per_query",
        "hot_metadata_gets_per_query",
        "depth_single_index", "depth_fanout", "depth_serial_projection",
    ],
}

# Acceptance gates re-checked from the committed artifact (the bench binary
# enforces them at emit time; this catches a stale or hand-edited file).
def check_serve_gates(path: str, doc: dict) -> list:
    problems = []
    if doc.get("get_ratio", 1.0) > 0.5:
        problems.append(f"get_ratio {doc.get('get_ratio')} > 0.5")
    if doc.get("p99_ratio", 1.0) > 1.0:
        problems.append(f"p99_ratio {doc.get('p99_ratio')} > 1.0")
    if doc.get("reconciled") is not True:
        problems.append("traced GETs did not reconcile against the cache")
    return problems


def check_metadata_gates(path: str, doc: dict) -> list:
    problems = []
    if doc.get("get_ratio", 1.0) > 0.1:
        problems.append(f"get_ratio {doc.get('get_ratio')} > 0.1")
    if doc.get("rows") != doc.get("commits"):
        problems.append(
            f"rows {doc.get('rows')} != commits {doc.get('commits')} "
            "(cold snapshot lost commits)")
    return problems


def check_keyword_gates(path: str, doc: dict) -> list:
    problems = []
    if doc.get("get_bytes_ratio", 1.0) > 0.2:
        problems.append(f"get_bytes_ratio {doc.get('get_bytes_ratio')} > 0.2")
    if doc.get("postings_compression_ratio", 0.0) <= 1.0:
        problems.append(
            f"postings_compression_ratio "
            f"{doc.get('postings_compression_ratio')} <= 1.0")
    if not doc.get("matches"):
        problems.append("keyword queries found no matches")
    return problems


def check_cache_gates(path: str, doc: dict) -> list:
    # A hot query is answered from the cache and the client's held metadata
    # state: it reads no index component and no log object from the store.
    problems = []
    for key in ("hot_index_component_gets_per_query",
                "hot_metadata_gets_per_query"):
        if doc.get(key) != 0:
            problems.append(f"{key} {doc.get(key)} != 0")
    return problems


GATE_CHECKS = {
    "BENCH_cache.json": check_cache_gates,
    "BENCH_serve.json": check_serve_gates,
    "BENCH_metadata.json": check_metadata_gates,
    "BENCH_keyword.json": check_keyword_gates,
}


def main() -> int:
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not paths:
        print(f"FAIL: no BENCH_*.json found under {os.path.abspath(root)}",
              file=sys.stderr)
        return 1
    failed = False
    for path in paths:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            print(f"FAIL: {path}: unreadable or invalid JSON: {e}",
                  file=sys.stderr)
            failed = True
            continue
        if not isinstance(doc, dict) or "metrics_snapshot" not in doc:
            print(f"FAIL: {path}: missing 'metrics_snapshot' block "
                  "(was it written via WriteBenchJson?)", file=sys.stderr)
            failed = True
            continue
        snap = doc["metrics_snapshot"]
        if not isinstance(snap, dict):
            print(f"FAIL: {path}: 'metrics_snapshot' is not an object",
                  file=sys.stderr)
            failed = True
            continue
        name = os.path.basename(path)
        missing = [k for k in REQUIRED_KEYS.get(name, []) if k not in doc]
        if missing:
            print(f"FAIL: {path}: missing required key(s): "
                  f"{', '.join(missing)}", file=sys.stderr)
            failed = True
            continue
        problems = GATE_CHECKS.get(name, lambda p, d: [])(path, doc)
        if problems:
            for problem in problems:
                print(f"FAIL: {path}: {problem}", file=sys.stderr)
            failed = True
            continue
        print(f"ok: {path} ({len(snap)} metric(s))")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
