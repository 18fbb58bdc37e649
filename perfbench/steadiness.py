#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark on one commit.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]
                                    [--seconds S] [--first-seed N]

Makes two sets of --runs untraced runs of every workload, each run on
its own seed, interleaving the workloads. For every end-to-end metric
and workload it prints each set's median and quartiles, the spread
(quartile distance over median), the change of the second set's median
against the first's in the metric's worse direction, and the metric's
bound from BENCHMARK.json. It also prints each set's share of failed
operations.

A metric is steady when its spread is at most a third of its bound.
Exit code 1 when a spread or a median change exceeds its bound, a run
is incorrect, or the failed shares differ. Use it again for every
re-baseline.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0,
                    help="run length (default: run_seconds)")
    ap.add_argument("--first-seed", type=int, default=1000)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    ok = True
    seed = args.first_seed
    for s in range(SETS):
        for i in range(args.runs):
            for w in workloads:
                r = run_once(w, seed, seconds)
                seed += 1
                if not r["correct"]:
                    print(f"{w} seed {seed - 1}: incorrect", file=sys.stderr)
                    ok = False
                for m in metrics:
                    got = r["metrics"][m["name"]]
                    if got["unit"] != m["unit"]:
                        raise RuntimeError(f"{w}: {m['name']} unit {got['unit']}")
                results[w][s].append(r)
                print(f"set {s + 1} run {i + 1} {w}: " + ", ".join(
                    f"{m['name']}={r['metrics'][m['name']]['value']:.4g}"
                    for m in metrics), file=sys.stderr, flush=True)

    hdr = (f"{'workload':16s} {'metric':15s} " +
           " ".join(f"{'set' + str(s + 1) + ' med [q1, q3] spread':38s}"
                    for s in range(SETS)) +
           f" {'change':>8s} {'bound':>6s}  verdict")
    print(hdr)
    for w in workloads:
        shares = []
        for s in range(SETS):
            att = sum(r["attempted"] for r in results[w][s])
            fail = sum(r["failed"] for r in results[w][s])
            shares.append((fail, att))
        for m in metrics:
            sums = [summary([r["metrics"][m["name"]]["value"]
                             for r in results[w][s]])
                    for s in range(SETS)]
            first, second = sums[0]["median"], sums[1]["median"]
            change = (second - first) / first if first else 0.0
            if m["better"] == "higher":
                change = -change
            worst_spread = max(x["spread"] for x in sums)
            verdict = "steady"
            if worst_spread > m["bound"] / 3:
                verdict = "within"
            if worst_spread > m["bound"] or change > m["bound"]:
                verdict = "OVER"
                ok = False
            cols = " ".join(
                f"{x['median']:9.4g} [{x['q1']:9.4g}, {x['q3']:9.4g}] "
                f"{100 * x['spread']:5.1f}%" for x in sums)
            print(f"{w:16s} {m['name']:15s} {cols} {100 * change:7.1f}% "
                  f"{100 * m['bound']:5.0f}%  {verdict}")
        same = len({f / a for f, a in shares}) == 1
        print(f"{w:16s} failed share per set: " +
              ", ".join(f"{f}/{a}" for f, a in shares) +
              ("" if same else "  DIFFERS"))
        ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
