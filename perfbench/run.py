#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve|fleet|clone --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Configures and builds perfbench (and
the simulator libraries it links, from ../src) under $CARGO_TARGET_DIR
(default .bench_build), runs one measurement, checks that the printed
metrics are exactly the ones BENCHMARK.json lists for the mode, and
prints the result JSON as the last line of stdout. Build output and
the benchmark's tables go to stderr.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def sh(cmd, env=None):
    """Run a build step with its output on stderr; exit on failure."""
    rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                        env=env).returncode
    if rc != 0:
        sys.exit(f"perfbench: {' '.join(cmd)} failed with exit code {rc}")


def build():
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    # Keep the compilers' temporary files inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    sh(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
       env)
    jobs = str(min(4, os.cpu_count() or 1))
    sh(["cmake", "--build", out, "--target", "perfbench", "-j", jobs], env)
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["serve", "fleet", "clone"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")

    # If this script is terminated, stop the benchmark with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    binary = build()
    proc = subprocess.Popen(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.strip().splitlines()
    if not lines:
        sys.exit(f"perfbench: benchmark exited with code {proc.returncode}"
                 " and no result")
    result = json.loads(lines[-1])
    differ = expected_metrics(args.trace) ^ set(result["metrics"])
    if differ:
        sys.exit("perfbench: metrics differ from BENCHMARK.json: "
                 + ", ".join(sorted(differ)))
    # A failed correctness gate still prints its result (correct: false)
    # and keeps the benchmark's non-zero exit code.
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
