#!/usr/bin/env python3
"""Builds the FlexNet benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  The build goes to $CARGO_TARGET_DIR when
that is set, else to .bench_build; CMake's build is incremental, so only the
first run in a checkout compiles.  Build output goes to standard error; the
benchmark's own output, ending in one JSON line, goes to standard output.
Spans of traced runs are written into the build directory.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = [
        "cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
    ]
    for cmd in (configure, ["cmake", "--build", build, "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("build failed: " + " ".join(cmd), file=sys.stderr)
            return done.returncode or 1
    binary = os.path.join(build, "flexbench")
    sys.stdout.flush()
    done = subprocess.run([binary, *sys.argv[1:], "--out-dir", build])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
