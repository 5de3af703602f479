#!/usr/bin/env bash
# Regenerates results/BENCH_serve.json from the serving-mode latency
# sweep (bench/serve_latency): arrival rate -> throughput and latency
# percentiles of the windowed INLJ behind the micro-batcher. All numbers
# are simulated (deterministic for a fixed seed), so the merged file is
# reproducible bit for bit on any machine.
#
# Usage: scripts/bench_serve.sh [--check] [build-dir]  (see bench_lib.sh)
set -euo pipefail
source scripts/bench_lib.sh

# Distill the sweep records into one summary document: the calibration
# point plus one row per load multiplier.
run_bench serve_latency results/BENCH_serve.json <<'EOF'
import json
import sys

out = {"bench": "serve_latency", "calibration": {}, "sweep": []}
with open(sys.argv[1]) as f:
    for line in f:
        rec = json.loads(line)
        params = rec["params"]
        metrics = rec.get("metrics", {})
        if params.get("point") == "calibration":
            out["calibration"] = {
                "batch_tuples": params["batch_tuples"],
                "window_service_seconds":
                    metrics["serve.window_service_seconds"]["value"],
                "capacity_tuples_per_sec":
                    metrics["serve.capacity_tuples_per_sec"]["value"],
            }
            continue
        hist = metrics["serve.latency_seconds"]
        out["sweep"].append({
            "load_multiplier": params["load_multiplier"],
            "arrival_model": params["arrival_model"],
            "arrival_rate_rps": params["arrival_rate_rps"],
            "requests_admitted":
                metrics["serve.requests_admitted"]["value"],
            "requests_shed": metrics["serve.requests_shed"]["value"],
            "batches": metrics["serve.batches"]["value"],
            "window_grows": metrics["serve.window_grows"]["value"],
            "window_shrinks": metrics["serve.window_shrinks"]["value"],
            "final_batch_tuples":
                metrics["serve.final_batch_tuples"]["value"],
            "latency_seconds": {
                "p50": hist["p50"], "p95": hist["p95"], "p99": hist["p99"],
                "max": hist["max"], "count": hist["count"],
            },
            "achieved_tuples_per_sec":
                metrics["serve.achieved_tuples_per_sec"]["value"],
        })

with open(sys.argv[2], "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
EOF
