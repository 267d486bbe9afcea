#!/usr/bin/env python3
"""Build the rtmac benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The simulator library (../src) and the benchmark driver are compiled
optimised into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
on first use; later runs only re-check the build. Build output goes to
standard error, so the last line of standard output is the driver's JSON
result. The traced run (--trace 1) writes its spans under the build
directory's out/ folder.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure (once) and build; returns False when either step fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no rtmac sources at src/; run from a full checkout", file=sys.stderr)
        return False
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # compiler scratch stays inside the checkout
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)  # a failed configure must not stick
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", "rtmac_perfbench",
           "perfbench_selftest"]
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the result checks' own tests instead of a workload")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    out = build_dir()
    if not build(out):
        print("run.py: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode

    spans_dir = os.path.join(out, "out")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [os.path.join(out, "rtmac_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", spans_dir]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
