#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `awrap` and the `perfbench` measuring program (release, offline)
into $CARGO_TARGET_DIR (default `.bench_build`), writes the seeded
inputs of the workload into perfbench/.work, then measures on one CPU.
Everything the measuring program prints is passed through; its last
line is one JSON result object.
Exits non-zero, printing no result, if any step fails.

Workloads: serve_large_pages, serve_lazy_churn, learn_dealers. See
perfbench/README.md for what each measures.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("serve_large_pages", "serve_lazy_churn", "learn_dealers")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Each step's limit, in seconds; a first build may take minutes.
BUILD_TIMEOUT = 840
GEN_TIMEOUT = 60
MEASURE_SLACK = 90


def run_group(cmd, timeout, capture=False, cpu=None):
    """Runs `cmd` in a process group of its own and, however it ends,
    kills whatever is left of the group (the measuring program's
    `awrap serve` children included) and waits until it is gone. With
    `cpu`, the process and every child it starts run on that CPU only."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        start_new_session=True,
        preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        out = None
    finally:
        stop_group(proc)
    return proc.returncode, out


def stop_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    builds = [
        [
            "cargo", "build", "--release", "--offline", "--quiet", "--bin", "awrap",
            "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
        ],
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
        ],
    ]
    for cmd in builds:
        code, _ = run_group(cmd, BUILD_TIMEOUT)
        if code != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    perfbench = os.path.join(target, "release", "perfbench")
    awrap = os.path.join(target, "release", "awrap")

    work = os.path.join(BENCH_DIR, ".work")
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, f"{args.workload}-{args.seed}")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", inputs]
    code, _ = run_group([perfbench, "gen", *common], GEN_TIMEOUT)
    if code != 0:
        print("perfbench: input generation failed", file=sys.stderr)
        return 1
    measure = [
        perfbench, "measure", *common,
        "--seconds", str(args.seconds), "--trace", args.trace, "--awrap", awrap,
    ]
    # The measuring program and the server it starts share one CPU. A
    # closed loop over one connection never has two of their threads
    # runnable at once, so this costs no throughput; it removes the
    # cross-CPU wake-ups whose cost on a shared VM drifts independently
    # of CPU speed, which the calibration kernel cannot track.
    cpu = max(os.sched_getaffinity(0))
    code, out = run_group(measure, args.seconds * 2 + MEASURE_SLACK, capture=True, cpu=cpu)
    if code != 0 or out is None:
        print("perfbench: measurement failed", file=sys.stderr)
        return 1
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
