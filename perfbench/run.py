#!/usr/bin/env python3
"""Runs one workload of the sctune benchmark.

    python3 perfbench/run.py --workload sweep-mcu|big-cold|daemon-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
harness (perfbench/CMakeLists.txt, which compiles the sctune libraries from
src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
runs only check the build is current. The harness prints the run's metadata,
a human-readable table, and as its last line one JSON object with the keys
correct, attempted, failed and metrics. Scratch stores and span dumps go to
.bench_work/.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-mcu", "big-cold", "daemon-mix")


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(directory):
    """Configures (once) and builds the harness; build output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (directory / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(directory),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(directory), "-j", jobs,
                  "--target", "sct_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return None
    return directory / "sct_perfbench"


def revision():
    """The git revision, or a digest of the sources when there is no git."""
    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout.split()
        if Path(top).resolve() == ROOT:
            return sha
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for tree in (ROOT / "src", HERE):
        for path in sorted(p for p in tree.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build(build_dir())
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--revision", revision()]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
