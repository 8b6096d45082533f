#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench binary from source and runs one
workload, or the benchmark's own self-test.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
under the repository root). Workload progress and every measured metric are
printed by name with their unit; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics, where metrics holds the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("queue", "skiplist-read", "skiplist-write", "sim")
RUN_TIMEOUT_S = 170
SETTLE_S = 20


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def mtime(path):
    return os.stat(path).st_mtime_ns if os.path.exists(path) else None


def build():
    """Configure (once) and build the binary; returns the binary's path.
    After a compile the host gets SETTLE_S seconds to quiet down: runs
    measured straight after one were the slow outliers of their set."""
    bdir = build_dir()
    binary = os.path.join(bdir, "perfbench")
    before = mtime(binary)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the benchmark's own.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build step failed: " + " ".join(cmd))
    if mtime(binary) != before:
        time.sleep(SETTLE_S)
    return binary


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds, trace, fault=None):
    """Run one workload; returns the binary's result object."""
    out_dir = os.path.join(os.path.dirname(build_dir()), "spans")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", out_dir]
    if fault:
        cmd += ["--fault", fault]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: perfbench exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def select_metrics(spec, raw, trace):
    """The contract's metric set, checked by name and unit."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    out = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            raise BenchError(f"metric {m['name']} was not measured")
        if got["unit"] != m["unit"]:
            raise BenchError(f"metric {m['name']} has unit {got['unit']}, "
                             f"BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def print_report(raw):
    """Every measured metric by name with its unit (the fingerprint line
    came first, from the binary)."""
    for name, m in sorted(raw["metrics"].items()):
        print(f"  {name:40s} {m['value']:>20.6g} {m['unit']}")
    print(f"  {'attempted':40s} {raw['attempted']:>20d}")
    print(f"  {'failed':40s} {raw['failed']:>20d}")


def run_once(args):
    spec = load_spec()
    binary = build()
    raw = run_binary(binary, args.workload, args.seed, args.seconds,
                     args.trace)
    metrics = select_metrics(spec, raw, args.trace)
    print_report(raw)
    result = {
        "correct": bool(raw["correct"]) and raw["failed"] == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))


def self_test():
    """Every workload briefly, with and without tracing: every metric of
    BENCHMARK.json is emitted with its unit and the output checks pass.
    Then two seeded queue faults (a duplicated and a lost value) must be
    flagged by the output check."""
    spec = load_spec()
    binary = build()
    failures = []
    for workload in WORKLOADS:
        for trace in (False, True):
            name = f"{workload} --trace {int(trace)}"
            try:
                raw = run_binary(binary, workload, 7, 1, trace)
                select_metrics(spec, raw, trace)
                if not raw["correct"] or raw["failed"] != 0:
                    failures.append(f"{name}: output check failed")
            except BenchError as e:
                failures.append(f"{name}: {e}")
    for fault in ("duplicate", "lose"):
        raw = run_binary(binary, "queue", 7, 1, False, fault)
        if raw["correct"] or raw["failed"] == 0:
            failures.append(f"seeded fault '{fault}' was not flagged")
        else:
            print(f"self-test: seeded fault '{fault}' flagged "
                  f"({raw['failed']} failed)")
    for f in failures:
        print("self-test FAILED: " + f)
    if failures:
        return 1
    print("self-test passed: every metric emitted with its unit, checks pass, "
          "seeded faults flagged")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload is required")
        run_once(args)
        return 0
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
