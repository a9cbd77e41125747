#!/usr/bin/env python3
"""Study benchmark entry point.

    python3 studybench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds studybench/ (a standalone CMake package
that compiles ../src) into .bench_build/studybench when the sources changed,
runs one workload in one harness process, and prints the harness record
followed, as the last stdout line, by the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its
per_layer metrics. Each record is also kept under .bench_build/results/;
a later run of the same workload, seed and sources must reproduce its exact
simulated statistics, or that comparison counts as a failed operation.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = ROOT / "studybench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "studybench"
BINARY = BUILD / "studybench"
RESULTS = BUILD_ROOT / "results"
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"studybench: {message}", file=sys.stderr)
    sys.exit(1)


def source_stamp():
    """Digest of every file the binary is built from."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*")) + sorted(BENCH.glob("*"))
    for path in files:
        if path.is_file() and path.suffix in (".h", ".cpp", ".txt"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def build():
    """Configure and build the harness unless the stamp says it is current."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no library sources under src/; run from the repository root")
    BUILD.mkdir(parents=True, exist_ok=True)
    stamp = source_stamp()
    stamp_file = BUILD / "stamp"
    if BINARY.is_file() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return stamp
    stamp_file.unlink(missing_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", str(BENCH), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "studybench", "-j", jobs],
    ):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    stamp_file.write_text(stamp)
    return stamp


def check_repeat(record, stamp, checks):
    """Exact simulated statistics must repeat across runs of one seed."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{record['workload']}-seed{record['seed']}.json"
    if path.is_file():
        previous = json.loads(path.read_text())
        if previous.get("stamp") == stamp:
            checks["attempted"] += 1
            if previous["sim"] != record["sim"]:
                checks["failed"] += 1
                print("check failed: simulated statistics differ from an "
                      "earlier run of this seed", file=sys.stderr)
            return
    path.write_text(json.dumps({"stamp": stamp, "sim": record["sim"]}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found; run from the repository root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    stamp = build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out")
    if done.returncode != 0:
        fail(f"harness exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("harness printed no record")
    record = json.loads(lines[-1])

    checks = dict(record["checks"])
    check_repeat(record, stamp, checks)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"harness did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    print(json.dumps(record))
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
