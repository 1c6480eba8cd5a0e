#!/usr/bin/env python3
"""Campaign-trial benchmark entry point.

Builds campaign_bench from this checkout's sources (CMake, into
$CARGO_TARGET_DIR/campaignbench, default .bench_build/campaignbench) and
runs one workload. The last line of stdout is the result JSON; build
output goes to stderr.

    python3 campaignbench/run.py --workload v2-testapp --seed 1 \
        --seconds 10 --trace 0
    python3 campaignbench/run.py --self-test   # determinism test

Workloads: v2-testapp, detect-v2-testapp, v2-arduplane, fault-testapp-svc.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "campaignbench"


def build(bdir: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("campaignbench: no src/ next to campaignbench/; run from a "
                 "full checkout of the repository")
    if not (bdir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        *generator], stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(bdir), "--target",
                    "campaign_bench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return bdir / "campaign_bench"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="replay every workload twice; counters must match")
    args = p.parse_args()
    if not args.self_test and not args.workload:
        p.error("--workload is required")

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"campaignbench: build failed: {e}", file=sys.stderr)
        return 1

    if args.self_test:
        cmd = [str(binary), "--check-determinism"]
    else:
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(bdir)]
    try:
        # subprocess.run kills and reaps the child on timeout.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("campaignbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
