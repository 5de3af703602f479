#!/usr/bin/env bash
# Regenerates results/BENCH_dist.json from the scale-out sweep
# (bench/fig10_scaleout): 1-8 simulated GPUs x {uniform, Zipf 1.75}
# probes x {NVLink 2.0, PCI-e 4.0} topologies, work stealing on/off on
# the skewed configs. All numbers are simulated (deterministic for a
# fixed seed and any --threads), so the merged file is reproducible bit
# for bit on any machine.
#
# Usage: scripts/bench_dist.sh [--check] [build-dir]  (see bench_lib.sh)
set -euo pipefail
source scripts/bench_lib.sh

# Distill the sweep records into one summary document: one row per
# (topology, shard count, distribution, stealing) point, with the
# per-shard and per-link breakdowns carried through.
run_bench fig10_scaleout results/BENCH_dist.json <<'EOF'
import json
import sys

out = {"bench": "fig10_scaleout", "sweep": []}
with open(sys.argv[1]) as f:
    for line in f:
        rec = json.loads(line)
        params = rec["params"]
        run = rec["run"]
        out["sweep"].append({
            "topology": params["topology"],
            "num_shards": params["num_shards"],
            "zipf_exponent": params["zipf_exponent"],
            "steal": params["steal"],
            "steal_events": params["steal_events"],
            "merge_seconds": params["merge_seconds"],
            "seconds": run["seconds"],
            "qps": run["qps"],
            "probe_tuples": run["probe_tuples"],
            "result_tuples": run["result_tuples"],
            "shards": [
                {k: s[k] for k in (
                    "shard", "r_tuples", "tuples_routed",
                    "tuples_stolen_out", "tuples_stolen_in", "steals_in",
                    "windows", "matches", "busy_seconds")}
                for s in rec["shards"]
            ],
            "links": rec["links"],
        })

with open(sys.argv[2], "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
EOF
