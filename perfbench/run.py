#!/usr/bin/env python3
"""Build and run the XDP end-to-end benchmark.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 25 --trace 0

Run it from the repository root. The first call configures and builds the
XDP libraries and the benchmark program (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset; later calls rebuild only what changed. Build output goes to stderr,
so the last line on stdout is the benchmark's JSON result. A traced run
(--trace 1) writes its Chrome trace-event file under <build dir>/traces.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no XDP sources under %s/src" % root, file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    build = os.path.join(os.path.abspath(target), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "--target", "xdp_perfbench",
                  "-j", jobs])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr).returncode
        if rc != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return rc
    exe = os.path.join(build, "xdp_perfbench")
    sys.stdout.flush()
    # exec: the benchmark replaces this process, so nothing is left to reap.
    os.execv(exe, [exe] + sys.argv[1:] + ["--out", os.path.join(build, "traces")])


if __name__ == "__main__":
    sys.exit(main())
