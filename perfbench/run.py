#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --check

The first form builds the benchmark (and the cross library, from the
sources one directory up) in Release, then runs one workload. The last
line of its standard output is the result JSON. Build output goes to
standard error.

The second form is the quick check: every workload on a second seed with
short phases and the traced checks on. It exits non-zero when any
workload's outputs are wrong.

The build tree is $CARGO_TARGET_DIR/perfbench when that variable is set,
else .bench_build/perfbench, relative to the repository root.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["infer_dense", "bootstrap_churn", "serve_mixed", "bfv_mult"]
CHECK_SEED = 20261019
BUILD_JOBS = 4


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure once, then build the benchmark target; returns the
    binary path, or None when the build fails."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", str(BUILD_JOBS)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return out / "perfbench"


def quick_check(binary):
    bad = []
    for w in WORKLOADS:
        proc = subprocess.run(
            [str(binary), "--workload", w, "--seed", str(CHECK_SEED),
             "--seconds", "2", "--trace", "0", "--check"],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        ok = result is not None and result["correct"]
        note = ""
        if result is not None:
            note = f"attempted {result['attempted']}, failed {result['failed']}"
        print(f"{w:16s} {'ok' if ok else 'MISMATCH'}  {note}", file=sys.stderr)
        if not ok:
            bad.append(w)
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--check", action="store_true",
                    help="run every workload's checks on a second seed")
    args = ap.parse_args()
    if not args.check and args.workload is None:
        ap.error("--workload is required unless --check is given")

    binary = build()
    if binary is None:
        return 1
    if args.check:
        bad = quick_check(binary)
        print("quick check: " + ("FAILED " + ", ".join(bad) if bad else "ok"),
              file=sys.stderr)
        return 1 if bad else 0
    return subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode


if __name__ == "__main__":
    sys.exit(main())
