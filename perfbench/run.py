#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload c1-cold --seed 2024 --seconds 30 --trace 0

Run from the repository root. The first call configures and builds the
library and the benchmark program into $CARGO_TARGET_DIR (default
.bench_build); later calls only rebuild what changed. Stores, scratch files
and traces go under that directory too. The program's stdout is passed
through, so the last line is the result object; the exit code is the
program's (1 when an output check failed).
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("c1-cold", "campaign")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure and build the benchmark program; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def git_head():
    """HEAD of the enclosing git checkout, or "unknown" outside one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: library sources not found next to perfbench/")
        return 1
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        program = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed:", e)
        return 1

    work_dir = os.path.join(build_dir, "work")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--git-head", git_head()]
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
        # One file per workload, overwritten, so repeated traced runs do
        # not pile up.
        cmd += ["--trace-out", os.path.join(trace_dir, args.workload + ".json")]
    # The library arms tracing, metrics, caching and the ledger from SCS_*
    # variables; the benchmark sets all of these itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCS_")}
    return subprocess.run(cmd, env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
