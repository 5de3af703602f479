#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds the simulator and the
benchmark from source into $CARGO_TARGET_DIR (default .bench_build);
later runs rebuild incrementally. The benchmark's output is passed
through, and its last line is re-emitted with exactly the metrics that
BENCHMARK.json declares (end_to_end for --trace 0, per_layer for
--trace 1); a declared metric that is missing, or has another unit,
fails the run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Workload seeds: the default, and one kept back for checking claims on
# data a change was not tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7331


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build(targets):
    """Configures and builds `targets`; exits non-zero on failure."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target"] + targets,
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return out


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"], spec


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared, spec = declared_metrics(args.trace)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.stderr.write("perfbench: unknown workload %r (have %s)\n"
                         % (args.workload, ", ".join(names)))
        return 2

    out = build(["perfbench"])
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", os.path.join(ROOT, ".bench_out")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write("perfbench: no result line (exit %d)\n" % done.returncode)
        return done.returncode or 1

    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.stderr.write("perfbench: metric %s missing or not in %s\n"
                             % (m["name"], m["unit"]))
            return 1
        metrics[m["name"]] = got
    result["metrics"] = metrics
    print(json.dumps(result))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
