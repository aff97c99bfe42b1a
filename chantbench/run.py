#!/usr/bin/env python3
"""Build chantbench from the enclosing source tree and run one workload.

    python3 chantbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; everything is resolved relative to the source tree that
holds this directory. The first run configures and builds the benchmark
(and the lwt / nx / chant libraries it links) under .bench_build/; later
runs rebuild only what changed.

stdout carries two JSON lines. The first is the binary's full report: the
host stamp (nproc, build type, transport, workers, policy, seed, git sha),
failed_ratio and sample counts. The last is the summary:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 its per_layer metrics, and a Chrome trace-event file is written
under .bench_build/traces/. The exit code is non-zero, and no summary is
printed, when the build or the run fails.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "chantbench"
BINARY = BUILD_DIR / "chantbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"chantbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no chant source tree at {ROOT}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "chantbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return BINARY


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_binary(binary, args):
    """Runs the binary; returns its report (its last stdout line)."""
    out = subprocess.run([str(binary), *args], stdout=subprocess.PIPE,
                         text=True, timeout=RUN_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"chantbench exited with {out.returncode}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("chantbench printed nothing")
    return json.loads(lines[-1])


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def summarize(report, expected):
    """Picks the expected metrics out of a report; checks every one is
    present, finite and in its unit."""
    got = report["metrics"]
    metrics = {}
    correct = report["failed"] == 0
    for m in expected:
        v = got.get(m["name"])
        if v is None or v["unit"] != m["unit"] or not math.isfinite(v["value"]):
            log(f"metric {m['name']} missing or malformed: {v}")
            correct = False
            continue
        metrics[m["name"]] = {"value": v["value"], "unit": v["unit"]}
    return {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def trace_file_ok(path):
    """Cheap structural check; the file can hold ~10^5 events."""
    try:
        with open(path, "rb") as f:
            head = f.read(64)
            f.seek(-3, os.SEEK_END)
            tail = f.read()
    except OSError:
        return False
    return head.startswith(b'{"displayTimeUnit"') and tail.rstrip() == b"]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    trace_path = None
    if a.trace:
        trace_path = ROOT / ".bench_build" / "traces" / f"{a.workload}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(trace_path)]
    try:
        report = run_binary(binary, args)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        log(f"run failed: {e}")
        return 1

    report["host"]["git_sha"] = git_sha()
    summary = summarize(report, expected_metrics(a.trace))
    if trace_path is not None and not trace_file_ok(trace_path):
        log(f"trace file {trace_path} missing or malformed")
        summary["correct"] = False
    print(json.dumps(report))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
