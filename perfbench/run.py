#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

One workload, as the regression gate runs it (the last stdout line is the
result JSON):

    python3 perfbench/run.py --workload interactive_score --seed 1 --seconds 20 --trace 0

Every workload in turn, untraced, with a summary table at the end:

    python3 perfbench/run.py --workload all

The engine (src/) and the benchmark binary are built from the checkout with
CMake in Release mode into .bench_build/perfbench. Each run works in a fresh
directory under .bench_build/runs (sockets, model registries, column stores),
which is removed afterwards; traced runs leave their spans in
.bench_build/traces.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("interactive_score", "stream_ingest", "risk_profile")


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no engine sources (CMakeLists.txt, src/) in {ROOT}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return BUILD_DIR / "perfbench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=False)
    return result.stdout.strip() or "unknown"


def source_digest():
    """SHA-256 over the engine and benchmark sources: a stamp that also works
    in checkouts without git metadata."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for directory in (ROOT / "src", BENCH_DIR):
        files += sorted(p for p in directory.rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_workload(binary, workload, seed, seconds, trace, capture=False):
    """Runs one workload in a fresh directory. Returns (exit code, stdout or None)."""
    run_dir = ROOT / ".bench_build" / "runs" / f"{workload}-{seed}-{os.getpid()}"
    trace_dir = ROOT / ".bench_build" / "traces"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    trace_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--trace-dir", str(trace_dir), "--git-sha", git_sha(),
               "--src-digest", source_digest()]
    process = subprocess.Popen(command, cwd=run_dir,
                               stdout=subprocess.PIPE if capture else None, text=True)
    try:
        output, _ = process.communicate()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
    return process.returncode, output


def run_all(binary, seed, seconds):
    rows = []
    for workload in WORKLOADS:
        code, output = run_workload(binary, workload, seed, seconds, False, capture=True)
        print(output, end="", flush=True)
        if code != 0:
            log(f"{workload} failed with exit code {code}")
            return code
        result = json.loads(output.strip().splitlines()[-1])
        rows.append((workload, result))
    print("\nsummary (seed %d, %g s per workload)" % (seed, seconds))
    for workload, result in rows:
        metrics = "  ".join(f"{name}={m['value']:.6g} {m['unit']}"
                            for name, m in result["metrics"].items())
        print(f"  {workload:18s} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}  {metrics}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    # BENCHMARK.json's run_seconds: the run length the bounds were measured at.
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops (and waits for) the benchmark process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        binary = build()
    except (RuntimeError, subprocess.CalledProcessError, FileNotFoundError) as error:
        log(f"build failed: {error}")
        return 2
    if args.workload == "all":
        return run_all(binary, args.seed, args.seconds)
    code, _ = run_workload(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
