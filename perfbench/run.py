#!/usr/bin/env python3
"""The benchmark of record: build the harness and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the simulator from ../src) as an optimised
Release build in the build directory (CARGO_TARGET_DIR if set, else
.bench_build, relative to the repository root), runs the unit checks of the
harness arithmetic once per build, then runs the workload in its own
process. The harness's stdout passes through unchanged, so its last line is
the result JSON. Build output goes to stderr.

Exit codes: the harness's own (0 ok, 1 a check failed), 2 bad usage or a
missing source tree, 4 a failed build.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("frame_table2", "closure_w2", "diff_svc")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            return "git:" + out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def build(build_dir):
    """Configure (Release) and build; run the selftest after a rebuild."""
    def step(cmd):
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0

    jobs = str(min(4, os.cpu_count() or 1))
    if not step(["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]):
        return False
    binary = os.path.join(build_dir, "perfbench")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    if not step(["cmake", "--build", build_dir, "-j", jobs]):
        return False
    if before != os.path.getmtime(binary):
        return step([os.path.join(build_dir, "perfbench_selftest")])
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no simulator sources next to perfbench/",
              file=sys.stderr)
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 4

    rel = os.path.relpath(build_dir, ROOT)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--tmp", os.path.join(rel, "tmp"),
           "--trace-dir", os.path.join(rel, "traces"),
           "--source", source_id()]
    # Configs that leave SystemConfig::lanes at 0 (auto), such as generated
    # scenarios, would read AUTOVISION_LANES and run the parallel kernel.
    env = {k: v for k, v in os.environ.items() if k != "AUTOVISION_LANES"}
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
