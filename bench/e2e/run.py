#!/usr/bin/env python3
"""Build bench_e2e from this checkout and run one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is configured and built from source on every call (quick when
nothing changed) under $CARGO_TARGET_DIR, default .bench_build, at the
checkout root. Build output goes to stderr; the program's own report goes to
stdout and ends with one JSON line holding the end-to-end metrics, or with
--trace 1 the per-layer metrics (the Chrome trace lands in
<build dir>/trace/<workload>.json). Temporary files of the build and the run
stay under the build directory. Exit status is the program's: nonzero when
the build fails or any output disagrees with its reference.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["apps-burst", "apps-paced", "fleet-churn", "edit-native", "edit-p4"]
BUILD_TYPE = "Release"


def build(build_root: Path, env: dict) -> Path:
    """Configures and builds bench_e2e; returns the binary's path."""
    build_dir = build_root / "e2e"
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
        stdout=sys.stderr, env=env, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "bench_e2e",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, env=env, check=True)
    return build_dir / "bench_e2e"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    tmp = build_root / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        binary = build(build_root, env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        trace_dir = build_root / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace={trace_dir / (args.workload + '.json')}")
    sys.stdout.flush()
    return subprocess.run(cmd, env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
