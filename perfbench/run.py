#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test

Run from the root of a checkout. The benchmark (perfbench/, with the
gryphon libraries from src/) is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first run
builds, later runs reuse the build. The last line of standard output is the
result JSON of the perfbench binary; build output goes to standard error.
--test builds and runs the benchmark's own tests instead.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no gryphon sources next to perfbench/ (expected src/CMakeLists.txt)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4", "--target"] + targets, check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["live_fanout", "reconnect_catchup",
                                               "sim_fig4_codec"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true", help="run the benchmark's tests")
    args = parser.parse_args()
    if not args.test and args.workload is None:
        parser.error("--workload is required")

    try:
        out = build(["perfbench_tests"] if args.test else ["perfbench"])
    except subprocess.CalledProcessError as e:
        fail(f"build failed ({e})")
    if args.test:
        sys.exit(subprocess.run(["ctest", "--output-on-failure"], cwd=out).returncode)

    work = os.path.join(out, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        # Keep only the trace files of a traced run.
        for entry in os.listdir(work) if os.path.isdir(work) else []:
            if entry != "trace":
                shutil.rmtree(os.path.join(work, entry), ignore_errors=True)
    sys.stdout.write(result.stdout.decode())
    sys.stdout.flush()
    if result.returncode != 0:
        fail(f"perfbench exited with {result.returncode}")


if __name__ == "__main__":
    main()
