#!/usr/bin/env bash
# Regenerates results/BENCH_htap.json from the HTAP ingest grid
# (bench/fig13_htap): {read-mostly, balanced 50/50, ingest-burst} write
# mixes x {1, 4} simulated GPUs, each serving a live request stream
# while per-shard delta indexes absorb the writes and background merges
# epoch-swap the static side. The bench itself exits nonzero if any cell
# drops an admitted request across an epoch swap or diverges from the
# rebuilt-from-scratch replay oracle, so this script doubles as that
# gate. All numbers are simulated (deterministic for a fixed seed and
# any --threads), so the merged file is reproducible bit for bit.
#
# Usage: scripts/bench_htap.sh [--check] [build-dir]  (see bench_lib.sh)
set -euo pipefail
source scripts/bench_lib.sh

# Distill the grid into one summary document: one row per
# (mix, shard count) cell with the serving latency, the ingest/merge
# activity and the inline verification outcomes carried through.
run_bench fig13_htap results/BENCH_htap.json <<'EOF'
import json
import sys

out = {"bench": "fig13_htap", "sweep": []}
with open(sys.argv[1]) as f:
    for line in f:
        rec = json.loads(line)
        params = rec["params"]
        metrics = rec.get("metrics", {})
        hist = metrics["serve.latency_seconds"]
        row = {
            "mix": params["mix"],
            "num_shards": params["num_shards"],
            "write_ratio": params["write_ratio"],
            "ops_model": params["ops_model"],
            "ingest_rate_ops": params["ingest_rate_ops"],
            "merge_threshold": params["merge_threshold"],
            "arrival_rate_rps": params["arrival_rate_rps"],
            "requests_admitted":
                metrics["serve.requests_admitted"]["value"],
            "requests_shed": metrics["serve.requests_shed"]["value"],
            "latency_seconds": {
                "p50": hist["p50"], "p95": hist["p95"], "p99": hist["p99"],
                "max": hist["max"], "count": hist["count"],
            },
            "achieved_tuples_per_sec":
                metrics["serve.achieved_tuples_per_sec"]["value"],
            "oracle_checked_keys": params["oracle_checked_keys"],
            "oracle_mismatches": params["oracle_mismatches"],
            "zero_drops": params["zero_drops"],
        }
        if "ingest" in rec:
            row["ingest"] = rec["ingest"]
        if params["oracle_mismatches"] != 0 or not params["zero_drops"]:
            raise SystemExit(
                "HTAP cell dropped requests or diverged from the "
                "oracle: %s" % row)
        out["sweep"].append(row)

with open(sys.argv[2], "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
EOF
