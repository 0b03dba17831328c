#!/usr/bin/env python3
"""Build and run the host wall-clock benchmark (see README.md).

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds hostbench/ (which
compiles the ftla libraries from src/) into .bench_build/hostbench with
CMake, then runs one workload. The build log goes to stderr; the
benchmark's own output, ending in one JSON result line, goes to stdout.
Exits non-zero, printing no result, when the build or the run fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
RUN_TIMEOUT_S = 170


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "host_bench", "-j", "4"],
                   check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"hostbench: build failed: {e}", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        args += ["--spans-out", os.path.join(BUILD, "spans.json")]
    try:
        proc = subprocess.run([os.path.join(BUILD, "host_bench")] + args,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"hostbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
