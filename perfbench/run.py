#!/usr/bin/env python3
"""The canonical benchmark command.

    python3 perfbench/run.py --workload backfill|lookup|retrain|all \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

Run from the root of a checkout. Builds the library and the benchmark from
source into the build directory ($CARGO_TARGET_DIR if set, else
.bench_build/), trains the serving checkpoint once per code identity, runs
one workload, prints its report, and prints as the last line one JSON object
with the keys correct, attempted, failed and metrics: every end_to_end metric
of BENCHMARK.json with --trace 0, every per_layer metric with --trace 1. The
full result (meta, checks, all metrics with sample counts) and, when traced,
the span file are written under <build>/results/.

Exit status is 0 only when the run passed every correctness check.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("backfill", "lookup", "retrain")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    path = Path(configured) if configured else Path(".bench_build")
    return path if path.is_absolute() else ROOT / path


def code_identity():
    """SHA-256 over every library and benchmark source: any change to model,
    training or benchmark code gives a new identity (and a new checkpoint)."""
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files += sorted(p for p in (BENCH_DIR / "src").rglob("*") if p.is_file())
    files.append(BENCH_DIR / "CMakeLists.txt")
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(bdir):
    cmake_dir = bdir / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=BUILD_TIMEOUT_S)
        if res.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return cmake_dir


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_workload(binary, bdir, workload, seed, seconds, trace, spec,
                 deadline):
    results = bdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    cid = code_identity()
    ckpt = bdir / "ckpt" / f"serving-{cid[:16]}.ckpt"
    if workload in ("backfill", "lookup") and not ckpt.exists():
        # One-off training, cached by code identity; never part of a run.
        ckpt.parent.mkdir(parents=True, exist_ok=True)
        res = subprocess.run([str(binary), f"--prepare-checkpoint={ckpt}"],
                             stdout=sys.stderr, stderr=sys.stderr,
                             timeout=max(1, deadline - time.monotonic()))
        if res.returncode != 0:
            log("training the serving checkpoint failed")
            return None
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}",
           f"--out-dir={results}", f"--ckpt={ckpt}", f"--code-id={cid}",
           f"--git-sha={git_sha()}"]
    budget = min(RUN_TIMEOUT_S, deadline - time.monotonic())
    try:
        res = subprocess.run(cmd, stdout=sys.stdout, stderr=sys.stderr,
                             timeout=max(1, budget))
    except subprocess.TimeoutExpired:
        log(f"{workload}: run exceeded {budget:.0f} s")
        return None
    sys.stdout.flush()
    path = results / f"result-{workload}-{seed}-t{trace}.json"
    if not path.exists():
        log(f"{workload}: no result file (exit {res.returncode})")
        return None
    with open(path) as f:
        result = json.load(f)
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        got = result[section].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            log(f"{workload}: metric {m['name']} missing or not finite")
            return None
        if got["unit"] != m["unit"]:
            log(f"{workload}: metric {m['name']} unit {got['unit']} != {m['unit']}")
            return None
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(result["correct"]) and res.returncode == 0
    return {"correct": correct, "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="run the quick check mode (the assertions of "
                         "bench/bench_pr*) instead of a workload")
    args = ap.parse_args()
    if not args.quick and args.workload is None:
        ap.error("--workload or --quick is required")

    if not (ROOT / "src" / "core" / "bsg4bot.h").exists():
        log(f"library sources not found under {ROOT / 'src'}")
        return 2
    deadline = time.monotonic() + 880
    bdir = build_dir()
    cmake_dir = build(bdir)
    if cmake_dir is None:
        return 2
    if args.quick:
        return subprocess.run([str(cmake_dir / "perfbench_check")],
                              timeout=RUN_TIMEOUT_S).returncode
    spec = load_spec()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for w in workloads:
        line = run_workload(cmake_dir / "perfbench", bdir, w, args.seed,
                            args.seconds, args.trace, spec, deadline)
        if line is None:
            return 1
        if not line["correct"]:
            status = 1
        print(json.dumps(line), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
