#!/usr/bin/env bash
# Regenerates results/BENCH_tenant.json from the multi-tenant serving
# experiment (bench/fig14_tenants): the {fair, fifo} x {cache off, on}
# throughput grid, the cache match-identity verification, and the
# misbehaving-tenant p99-isolation trio. All numbers are simulated
# (deterministic for a fixed seed), so the merged file is reproducible
# bit for bit on any machine.
#
# Usage: scripts/bench_tenant.sh [--check] [build-dir]  (see bench_lib.sh)
set -euo pipefail
source scripts/bench_lib.sh

# Distill the cell records into one summary document and enforce the
# experiment's acceptance bars: the cache must buy aggregate throughput
# at equal shed with identical match sets, and weighted-fair scheduling
# must hold the protected tier's p99 near its rogue-free value while
# FIFO degrades it.
run_bench fig14_tenants results/BENCH_tenant.json <<'EOF'
import json
import sys

out = {"bench": "fig14_tenants", "calibration": {}, "grid": [],
       "verify": {}, "rogue": [], "summary": {}}
with open(sys.argv[1]) as f:
    for line in f:
        rec = json.loads(line)
        params = rec["params"]
        metrics = rec.get("metrics", {})
        tenants = rec.get("tenants", {})
        point = params.get("point")
        if point == "calibration":
            out["calibration"] = {
                "request_tuples": params["request_tuples"],
                "request_service_seconds":
                    metrics["serve.request_service_seconds"]["value"],
                "capacity_tuples_per_sec":
                    metrics["serve.capacity_tuples_per_sec"]["value"],
            }
            continue
        if point == "summary":
            out["summary"] = {
                "cache_qps_gain":
                    metrics["serve.cache_qps_gain"]["value"],
                "match_sets_identical":
                    metrics["serve.match_sets_identical"]["value"] == 1.0,
                "gold_p99_isolated_seconds":
                    metrics["serve.gold_p99_isolated_seconds"]["value"],
                "gold_p99_fair_rogue_seconds":
                    metrics["serve.gold_p99_fair_rogue_seconds"]["value"],
                "gold_p99_fifo_rogue_seconds":
                    metrics["serve.gold_p99_fifo_rogue_seconds"]["value"],
                "gold_p99_fair_ratio":
                    metrics["serve.gold_p99_fair_ratio"]["value"],
                "gold_p99_fifo_ratio":
                    metrics["serve.gold_p99_fifo_ratio"]["value"],
            }
            continue
        if point == "verify":
            out["verify"] = {
                "requests": params["requests"],
                "match_sets_identical":
                    metrics["serve.match_sets_identical"]["value"] == 1.0,
                "matches": metrics["serve.verify_matches"]["value"],
                "cache_hits": tenants["cache"]["hits"],
            }
            continue
        hist = metrics["serve.latency_seconds"]
        cell = {
            "scheduler": params["scheduler"],
            "cache_bytes": params["cache_bytes"],
            "rogue_extra": params["rogue_extra"],
            "arrival_rate_rps": params["arrival_rate_rps"],
            "requests_admitted":
                metrics["serve.requests_admitted"]["value"],
            "requests_shed": metrics["serve.requests_shed"]["value"],
            "achieved_requests_per_sec":
                metrics["serve.achieved_requests_per_sec"]["value"],
            "latency_seconds": {
                "p50": hist["p50"], "p99": hist["p99"],
                "count": hist["count"],
            },
            "tiers": [
                {"tier": t["tier"], "admitted": t["admitted"],
                 "shed_rate_limit": t["shed_rate_limit"],
                 "p99": t["latency"]["p99"]}
                for t in tenants["tiers"]
            ],
            "cache_hits": tenants["cache"]["hits"],
            "cache_lookups": tenants["cache"]["lookups"],
        }
        out[point].append(cell)

s = out["summary"]
fails = []
if not s["match_sets_identical"] or not out["verify"]["match_sets_identical"]:
    fails.append("cached match sets differ from the uncached run's")
if out["verify"]["cache_hits"] == 0:
    fails.append("verification cell never hit the cache")
if s["cache_qps_gain"] <= 1.0:
    fails.append(f"cache bought no throughput "
                 f"(gain {s['cache_qps_gain']:.3f}x)")
grid = {(c["scheduler"], c["cache_bytes"] > 0): c for c in out["grid"]}
if grid[("fair", False)]["requests_shed"] != \
        grid[("fair", True)]["requests_shed"]:
    fails.append("cache-on and cache-off shed rates differ: the QPS "
                 "comparison is not apples to apples")
if s["gold_p99_fair_ratio"] > 1.2:
    fails.append(f"fair scheduling failed to protect the gold tier "
                 f"(p99 ratio {s['gold_p99_fair_ratio']:.3f} > 1.2)")
if s["gold_p99_fifo_ratio"] <= 2.0:
    fails.append(f"FIFO was expected to degrade under the flood "
                 f"(p99 ratio {s['gold_p99_fifo_ratio']:.3f} <= 2.0)")
if fails:
    for f in fails:
        print(f"FAIL: {f}", file=sys.stderr)
    sys.exit(1)

with open(sys.argv[2], "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
print("cache %.2fx QPS at equal shed, "
      "gold p99 %.2fx under fair vs %.2fx under FIFO" %
      (s["cache_qps_gain"], s["gold_p99_fair_ratio"],
       s["gold_p99_fifo_ratio"]))
EOF
