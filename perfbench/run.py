#!/usr/bin/env python3
"""Simulator host-throughput benchmark: build, run one workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload sprint_campaign --seed 1 \
        --seconds 30 --trace 0

Builds perfbench/ (which compiles the simulator from src/) into
.bench_build/perfbench on first use, runs the nocs_perfbench binary for one
workload and forwards its output.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  Every run also
appends its full record (provenance, digest, result) to
.bench_build/perfbench_records.jsonl.  Build logs go to stderr.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
WORKLOADS = ("sprint_campaign", "membound_tiles")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"simulator sources not found under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                    "--target", "nocs_perfbench"],
                   stdout=sys.stderr, check=True)
    return BUILD_DIR / "nocs_perfbench"


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_sha():
    """SHA-256 over the simulator and benchmark sources (path + bytes), so
    a record names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*")
                           if p.is_file() and "__pycache__" not in p.parts):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def bench_command(binary, workload, seed, seconds, trace, extra=()):
    workdir = BUILD_ROOT / "tmp"
    workdir.mkdir(parents=True, exist_ok=True)
    return [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", str(workdir), *extra]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = bench_command(binary, args.workload, args.seed, args.seconds,
                         args.trace, ("--git-commit", git_commit(),
                                      "--source-sha", source_sha()))
    # NOCS_THREADS / NOCS_SIM_THREADS would change the thread counts the
    # workloads fix.
    env = {k: v for k, v in os.environ.items() if not k.startswith("NOCS_")}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: benchmark binary exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    record = {"command": cmd[1:], "result": json.loads(lines[-1])}
    for line in lines:
        key, _, rest = line.partition(" ")
        if key == "provenance":
            record["provenance"] = json.loads(rest)
        elif key in ("sim_digest", "fail_ratio"):
            record[key] = rest
    with open(BUILD_ROOT / "perfbench_records.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
