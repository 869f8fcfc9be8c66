#!/usr/bin/env python3
"""Build and run one workload of the MicaPhase end-to-end benchmark.

Usage (from the root of a checkout):

    python3 e2ebench/run.py --workload <name> --seed N --seconds S --trace 0|1

The first call configures and builds the library, phase_serve and the
e2ebench binary from this checkout's sources into .bench_build/e2ebench;
later calls only rebuild what changed. The binary's last line of standard
output is the result JSON. Build output goes to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("pipeline_cold", "analysis_sweep", "serve_bulk",
             "serve_interactive")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.stderr.write("e2ebench: no MicaPhase sources in %s\n" % root)
        return 2
    build = os.path.join(root, ".bench_build", "e2ebench")
    state = os.path.join(build, "state")

    # Build output must not reach stdout: its last line is the result.
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return 2
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", build, "-j", jobs],
                       stdout=sys.stderr) != 0:
        return 2

    command = [os.path.join(build, "e2ebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--state", state,
               "--serve-bin", os.path.join(build, "phase_serve")]
    if args.trace:
        command += ["--trace-out", os.path.join(
            build, "trace_%s_seed%d.json" % (args.workload, args.seed))]
    return subprocess.call(command, cwd=root)


if __name__ == "__main__":
    sys.exit(main())
