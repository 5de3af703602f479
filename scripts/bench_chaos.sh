#!/usr/bin/env bash
# Regenerates results/BENCH_chaos.json from the chaos sweep
# (bench/fig12_chaos): {2, 4, 8} simulated GPUs x {uniform, Zipf 1.75}
# probes x {crash, stuck, link-down} terminal faults injected at 40% of
# the fault-free makespan, plus the fault-free baselines. The bench
# itself exits nonzero if any chaos run loses or duplicates a match vs
# its baseline, so this script doubles as the zero-lost-matches gate.
# All numbers are simulated (deterministic for a fixed seed and any
# --threads), so the merged file is reproducible bit for bit.
#
# Usage: scripts/bench_chaos.sh [--check] [build-dir]  (see bench_lib.sh)
set -euo pipefail
source scripts/bench_lib.sh

# Distill the sweep into one summary document: one row per
# (scenario, shard count, distribution) point, with the failover records
# carried through and the baseline each chaos run is measured against.
run_bench fig12_chaos results/BENCH_chaos.json <<'EOF'
import json
import sys

out = {"bench": "fig12_chaos", "sweep": []}
with open(sys.argv[1]) as f:
    for line in f:
        rec = json.loads(line)
        params = rec["params"]
        run = rec["run"]
        row = {
            "scenario": params["scenario"],
            "num_shards": params["num_shards"],
            "zipf_exponent": params["zipf_exponent"],
            "sim_makespan": params["sim_makespan"],
            "seconds": run["seconds"],
            "qps": run["qps"],
            "probe_tuples": run["probe_tuples"],
            "result_tuples": run["result_tuples"],
        }
        if params["scenario"] != "none":
            row.update({
                "fail_shard": params["fail_shard"],
                "fail_at_seconds": params["fail_at_seconds"],
                "heartbeat_timeout": params["heartbeat_timeout"],
                "matches_lost": params["matches_lost"],
                "matches_extra": params["matches_extra"],
                "failover_overhead": params["failover_overhead"],
                "robustness": rec["robustness"],
            })
            if params["matches_lost"] != 0 or params["matches_extra"] != 0:
                raise SystemExit(
                    "chaos run lost/duplicated matches: %s" % row)
        out["sweep"].append(row)

with open(sys.argv[2], "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
EOF
