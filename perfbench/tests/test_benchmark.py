#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_benchmark.py

Builds the benchmark, runs its C++ unit tests (span arithmetic, decorator
transparency), then runs every workload briefly with --trace 0 and 1. It
checks that the metric names the command prints match BENCHMARK.json, and
that each workload's layers.json reports its layers' metrics as nonzero.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402  (perfbench/run.py)

# Simulated-clock metrics each workload prints by name in its table.
WORKLOAD_SIM_METRICS = {
    "paper_batch": ["sim_qps"],
    "serve_open_loop": ["sim_qps", "sim_p50_ms", "sim_p99_ms", "sim_max_rps",
                        "sim_gold_p99_ms"],
    "scaleout_htap": ["sim_qps", "sim_p50_ms", "sim_p99_ms",
                      "sim_staleness_p99_ms"],
}

# Per-layer metrics that must be nonzero in a workload's layers.json: the
# layers the workload loads (perfbench/README.md maps them). A misnamed
# or dropped metric reads 0 there, since the catalogue fills in 0 for
# layers a workload bypasses.
JOIN_LAYERS = [
    "sim.host_ns_per_transaction", "sim.transactions_per_tuple",
    "sim.warp_steps_per_tuple", "sim.host_bytes_per_tuple",
    "index.lookup_host_s", "index.lookup_host_ns_per_tuple",
    "index.transactions_per_lookup", "core.window_self_host_s",
    "core.materialize_host_s", "core.windows",
]
SERVE_LAYERS = [
    "serve.loop_host_s", "serve.backend_host_s", "serve.loop_host_share",
    "serve.batches", "serve.mean_batch_tuples", "serve.deadline_close_frac",
    "serve.queue_share",
]
WORKLOAD_LAYER_METRICS = {
    "paper_batch": JOIN_LAYERS + [
        "sim.translations_per_tuple", "sim.tlb_hit_ratio", "sim.l2_hit_ratio",
        "partition.host_s", "partition.sim_share", "core.unattributed_host_s",
        "join.hash_host_s", "join.hash_host_share", "join.hash_sim_qps",
        "trace.bookkeeping_s"],
    "serve_open_loop": JOIN_LAYERS + SERVE_LAYERS + [
        "serve.cache_hit_ratio", "serve.cache_hits", "trace.bookkeeping_s"],
    "scaleout_htap": JOIN_LAYERS + SERVE_LAYERS + [
        "ingest.ops_applied", "ingest.merges", "ingest.swap_stall_sim_s",
        "ingest.swap_stall_share", "ingest.delta_bytes_peak",
        "dist.runjoin_host_s", "dist.runjoin_host_share",
        "dist.host_parallelism", "dist.steal_events", "dist.stolen_tuple_frac",
        "dist.busy_imbalance", "dist.link_bytes_per_tuple", "dist.merge_sim_s",
        "dist.merge_sim_share", "cluster.runjoin_host_s",
        "cluster.runjoin_host_share", "cluster.host_parallelism",
        "cluster.network_bytes_per_tuple", "cluster.merge_sim_s",
        "cluster.merge_sim_share", "cluster.node_busy_imbalance",
        "trace.bookkeeping_s"],
}


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build = run.build(["perfbench", "perfbench_test"])
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_unit_tests_pass(self):
        done = subprocess.run([os.path.join(self.build, "perfbench_test")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        self.assertEqual(done.returncode, 0, done.stdout[-4000:])

    def test_printed_metric_names_match_benchmark_json(self):
        self.assertEqual(set(WORKLOAD_SIM_METRICS),
                         {w["name"] for w in self.spec["workloads"]})
        for workload in WORKLOAD_SIM_METRICS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = subprocess.run(
                        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                         "--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace)],
                        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                        text=True)
                    self.assertEqual(done.returncode, 0, done.stderr[-4000:])
                    lines = done.stdout.strip().split("\n")
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in self.spec[key]}
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, declared)
                    table = "\n".join(lines[:-1])
                    for name in WORKLOAD_SIM_METRICS[workload] + ["failed_frac"]:
                        self.assertIn(name, table)
                    if trace == 0:
                        for name in declared:
                            self.assertIn(name, table)
                    else:
                        self.check_layers(workload)

    def check_layers(self, workload):
        """The binary's own layers.json has the workload's layers nonzero."""
        path = os.path.join(ROOT, ".bench_out",
                            "%s-seed3.layers.json" % workload)
        with open(path) as f:
            layers = json.load(f)["per_layer"]
        for name in WORKLOAD_LAYER_METRICS[workload]:
            self.assertIn(name, layers)
            self.assertNotEqual(layers[name]["value"], 0,
                                "%s reads 0 on %s" % (name, workload))


if __name__ == "__main__":
    unittest.main()
