#!/usr/bin/env python3
"""Repo benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. Configures and builds perfbench/ (which
compiles librtsp from src/) as RelWithDebInfo into .bench_build/, then runs
the benchmark binary, whose last stdout line is the JSON result. Build
output goes to stderr. Exits non-zero on a build failure, a refused build
configuration, or any output that fails its check.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper-dummy-rich", "daemon-drift")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def revision():
    """Commit of the checkout, or 'unknown' outside a git work tree of ROOT."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return rev.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD, *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    make = ["cmake", "--build", BUILD, "--target", "rtsp_perfbench", "-j", "2"]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "rtsp_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (smoke test)")
    args = parser.parse_args()

    binary = build()
    workdir = os.path.join(ROOT, ".bench_build", "work", f"{args.workload}-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir, "--revision", revision()]
    if args.smoke:
        command.append("--smoke")
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
