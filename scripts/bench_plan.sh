#!/usr/bin/env bash
# Regenerates results/BENCH_plan.json from the adaptive-routing bench
# (bench/fig11_adaptive): the phased adversarial workload routed by the
# adaptive planner vs the hindsight oracle vs every static plan, with
# the per-batch regret curve. All numbers are simulated (deterministic
# for a fixed seed and any --threads), so the merged file is
# reproducible bit for bit on any machine.
#
# Usage: scripts/bench_plan.sh [--check] [build-dir]  (see bench_lib.sh)
set -euo pipefail
source scripts/bench_lib.sh

# Distill the records into one summary document: one row per
# (phase, planner) with its routed batches, the static-plan totals and
# the cumulative regret curve.
run_bench fig11_adaptive results/BENCH_plan.json <<'EOF'
import json
import sys

out = {"bench": "fig11_adaptive", "phases": [], "summary": {}}
with open(sys.argv[1]) as f:
    for line in f:
        rec = json.loads(line)
        params = rec["params"]
        if params.get("point") == "phase":
            planner = rec["planner"]
            out["phases"].append({
                "phase": params["phase"],
                "planner": params["planner"],
                "r_tuples": params["r_tuples"],
                "zipf_exponent": params["zipf_exponent"],
                "total_seconds": planner["total_seconds"],
                "total_matches": planner["total_matches"],
                "decisions": planner["decisions"],
                "explorations": planner["explorations"],
                "plan_usage": planner["plan_usage"],
                "batches": [
                    {k: b[k] for k in (
                        "ordinal", "plan", "predicted_seconds",
                        "charged_seconds", "explored", "matches")}
                    for b in planner["batches"]
                ],
            })
        elif params.get("point") == "summary":
            metrics = rec["metrics"]
            out["summary"] = {
                "adaptive_seconds":
                    metrics["plan.adaptive_seconds"]["value"],
                "oracle_seconds": metrics["plan.oracle_seconds"]["value"],
                "best_static_plan": params["best_static_plan"],
                "best_static_seconds":
                    metrics["plan.best_static_seconds"]["value"],
                "regret_ratio": metrics["plan.regret_ratio"]["value"],
                "statics": rec["statics"],
                "regret_curve": rec["regret_curve"],
            }

with open(sys.argv[2], "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
EOF
