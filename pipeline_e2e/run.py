#!/usr/bin/env python3
"""Build pipeline_e2e from source and run one workload of it.

Run from the root of a checkout:

    python3 pipeline_e2e/run.py --workload alarm-learn --seed 7 --seconds 25 --trace 0

The package is configured and built into $CARGO_TARGET_DIR (default
.bench_build) on first use; later runs only re-check it. Build output goes
to stderr, so the benchmark's last stdout line is its JSON result.
`--trace 1` makes a traced run, which reports the per-layer metrics and
writes its Chrome trace next to the binary.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the benchmark binary; returns its path. Both
    steps are no-ops when the build directory is up to date."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release", *generator],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "pipeline_e2e",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "pipeline_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scale", args.scale]
    if args.trace:
        cmd += ["--trace", os.path.join(build_dir, f"trace-{args.workload}.json")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
