#!/usr/bin/env python3
"""PARROT benchmark: build the simulator and the benchmark program from
source, prepare a workload's inputs, run it and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid|sampled|replay \
        --seed N --seconds N --trace 0|1

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics, and the traced run's spans are written to
.bench_build/spans/. Build output goes to standard error. The exit code
is 0 only when the build, the preparation and the run succeeded and
every cell's result matched its reference.

One-time reference mode (rewrites perfbench/ref/sampled.txt at seed 0):

    python3 perfbench/run.py --write-reference
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(BUILD_DIR, "parrot_perfbench")
CACHE = "parrot_bench_cache.txt"
REF_DIR = os.path.join(BENCH_DIR, "ref")

BUILD_TIMEOUT_S = 850
PREPARE_TIMEOUT_S = 120
RUN_TIMEOUT_S = 160


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_child(cmd, timeout, env, capture):
    """Run one child to completion; kill it and wait on timeout or error."""
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=None,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out


def child_env():
    # The simulator reads PARROT_* variables (jobs, cosim, fault
    # injection, cache opt-out); none may leak into a measurement.
    return {k: v for k, v in os.environ.items() if not k.startswith("PARROT_")}


def build(env):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "--target", "parrot_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        code, _ = run_child(step, BUILD_TIMEOUT_S, env, capture=False)
        if code != 0:
            log(f"build step failed ({code}): {' '.join(step)}")
            return False
    return True


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The benchmark's last line must be the result object this run promises."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result has the wrong keys"
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        return f"metrics {sorted(got)} do not match BENCHMARK.json {sorted(want)}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["grid", "sampled", "replay"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    if not args.write_reference and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    env = child_env()
    if not build(env):
        return 1

    # References for non-zero seeds are outputs of this very binary, so
    # runs of the same build share them.
    with open(BINARY, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    ref_cache = os.path.join(BUILD_ROOT, "refs", build_id)
    os.makedirs(ref_cache, exist_ok=True)
    work = os.path.join(BUILD_ROOT, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--work", work, "--cache", CACHE, "--ref-dir", REF_DIR,
              "--ref-cache", ref_cache]
    try:
        if args.write_reference:
            code, _ = run_child([BINARY, "--phase", "reference"] + common,
                                None, env, capture=False)
            return code

        spec = ["--workload", args.workload, "--seed", str(args.seed)]
        code, _ = run_child([BINARY, "--phase", "prepare"] + spec + common,
                            PREPARE_TIMEOUT_S, env, capture=False)
        if code != 0:
            log(f"preparation failed ({code})")
            return 1

        run = [BINARY, "--phase", "run"] + spec + common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            spans = os.path.join(BUILD_ROOT, "spans")
            os.makedirs(spans, exist_ok=True)
            run += ["--spans", os.path.join(
                spans, f"{args.workload}-seed{args.seed}.jsonl")]
        code, out = run_child(run, RUN_TIMEOUT_S, env, capture=True)
        lines = out.rstrip("\n").split("\n") if out else []
        for line in lines[:-1]:
            print(line)
        if not lines:
            log(f"run printed nothing ({code})")
            return 1
        problem = check_result(lines[-1], args.trace)
        if problem:
            log(problem)
            return 1
        print(lines[-1], flush=True)
        return code
    except subprocess.TimeoutExpired as e:
        log(f"timed out after {e.timeout} s: {' '.join(e.cmd)}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
