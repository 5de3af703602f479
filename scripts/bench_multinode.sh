#!/usr/bin/env bash
# Regenerates results/BENCH_cluster.json from the multi-node sweep
# (bench/fig15_multinode): 1-8 nodes x 4 GPUs behind the two-level
# cluster planner, uniform vs Zipf 1.75 probes, InfiniBand vs 25 GbE,
# plus the kill-a-node / drain-a-node / scale-2-to-4 scenarios. The
# bench itself enforces match-set identity against every fault-free
# baseline, 1-node bit-identity with dist::ShardScheduler, and the
# >= 1.5x 4-node uniform speedup, so a nonzero exit here means a real
# regression. All numbers are simulated (deterministic for a fixed seed
# and any --threads), so the merged file is reproducible bit for bit on
# any machine.
#
# Usage: scripts/bench_multinode.sh [--check] [build-dir]  (see bench_lib.sh)
set -euo pipefail
source scripts/bench_lib.sh

# Distill the sweep records into one summary document: one row per
# (network, nodes, distribution, scenario) point, with the per-node and
# network-link breakdowns carried through.
run_bench fig15_multinode results/BENCH_cluster.json <<'EOF'
import json
import sys

out = {"bench": "fig15_multinode", "sweep": []}
with open(sys.argv[1]) as f:
    for line in f:
        rec = json.loads(line)
        params = rec["params"]
        run = rec["run"]
        row = {
            "network": params["network"],
            "num_nodes": params["num_nodes"],
            "gpus_per_node": params["gpus_per_node"],
            "total_shards": params["total_shards"],
            "zipf_exponent": params["zipf_exponent"],
            "scenario": params["scenario"],
            "matches_lost": params["matches_lost"],
            "matches_extra": params["matches_extra"],
            "overhead": params["overhead"],
            "rebalance_events": params["rebalance_events"],
            "moved_r_tuples": params["moved_r_tuples"],
            "migration_seconds": params["migration_seconds"],
            "seconds": run["seconds"],
            "qps": run["qps"],
            "probe_tuples": run["probe_tuples"],
            "result_tuples": run["result_tuples"],
            "nodes": [
                {k: n[k] for k in (
                    "node", "origin", "alive", "drained", "shards",
                    "r_tuples", "tuples_routed", "tuples_rerouted",
                    "matches", "steal_events", "busy_seconds")}
                for n in rec["nodes"]
            ],
            "network_links": rec["network_links"],
        }
        if "robustness" in rec:
            row["failovers"] = rec["robustness"].get("failovers", 0)
        out["sweep"].append(row)

with open(sys.argv[2], "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
EOF
