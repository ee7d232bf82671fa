#!/usr/bin/env python3
"""Builds and runs the time-to-plan benchmark, and appends the result to
time_to_plan/history.jsonl together with the machine and commit fingerprint.

Run from the repository root:

    python3 time_to_plan/run.py --workload warm_fleet_stream --seed 1 \
        --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/time_to_plan (default .bench_build),
snapshot directories to a scratch directory beside it. The last line of
stdout is the result object printed by the benchmark binary.
"""

import argparse
import datetime
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("cold_new_cluster", "warm_fleet_stream", "restart_elastic")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
HISTORY = os.path.join(BENCH_DIR, "history.jsonl")


def fail(msg):
    print("time_to_plan: " + msg, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; fails the run on error."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("failed: " + " ".join(cmd))


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "pipette_configurator.h")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                  BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S)
    binary = os.path.join(build_dir, "time_to_plan")
    if not os.path.isfile(binary):
        fail("benchmark binary missing after build")
    return binary


def git(*args):
    try:
        out = subprocess.run(["git"] + list(args), cwd=ROOT, capture_output=True, text=True,
                             timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def git_state():
    """(HEAD sha, whether the tree differs from it) or (None, None) outside
    git. history.jsonl itself, which every run appends to, does not count."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None, None
    sha = (git("rev-parse", "HEAD") or "").strip() or None
    status = git("status", "--porcelain", "--", ".",
                 ":(exclude)" + os.path.relpath(HISTORY, ROOT))
    return sha, None if status is None else bool(status.strip())


def source_digest():
    """sha256 over the library and benchmark sources (identifies the code
    when the checkout is not a git repository)."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".h", ".cpp", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    binary = build(os.path.join(target, "time_to_plan"))
    work_dir = os.path.join(target, "time_to_plan_work")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", work_dir]
    if args.trace:
        trace_dir = os.path.join(target, "time_to_plan_traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines:
        fail("benchmark printed nothing (exit code %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line is not a result object: " + lines[-1][:200])
    detail = None
    for ln in lines[:-1]:
        print(ln)
        if ln.startswith("detail "):
            detail = json.loads(ln[len("detail "):])

    sha, dirty = git_state()
    record = {
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_sha": sha,
        "git_dirty": dirty,
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "exit_code": proc.returncode,
        "detail": detail,
        "result": result,
    }
    with open(HISTORY, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
