"""Run two sets of benchmark runs of the same code and compare them.

    python3 perfbench/compare.py [--runs 10] [--traced]

Each set makes --runs untraced runs of every workload in BENCHMARK.json, each
with its own seed (set A uses seeds 0.., set B seeds 100..), all with the run
length of BENCHMARK.json.  The sets run one after the other, as a later
comparison of two commits would.  For every workload and end-to-end metric it
prints both medians with their quartiles and says whether they agree: each
set's quartile spread (Q3 - Q1) / median lies within the metric's bound, and
the two medians differ by no more than the bound, in either direction, since
both sets run the same code.
It also prints each run's attempted and failed request counts and requires
the same failed share in every run.  The full record goes to
perfbench/results/compare.json.

With --traced it instead makes one set of --trace 1 runs and prints each
per-layer metric's median and quartiles, recorded in
perfbench/results/traced.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED_OFFSET = {"A": 0, "B": 100}


def one_run(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def traced(bench: dict, workloads: list, runs: int) -> int:
    """One set of --trace 1 runs: per-layer medians and quartiles."""
    report = {}
    for w in workloads:
        results = [one_run(w, seed, bench["run_seconds"], trace=1) for seed in range(runs)]
        report[w] = {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in results])
                     for m in bench["per_layer"]}
        print(f"\n{w} ({runs} traced runs): metric, median, Q1..Q3")
        for name, row in report[w].items():
            print(f"  {name:32s} {row['median']:12.6g} {row['q1']:12.6g}..{row['q3']:<12.6g}", flush=True)
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "traced.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", action="store_true", help="one set of traced runs instead")
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    if args.traced:
        return traced(bench, workloads, args.runs)

    runs = {s: {w: [] for w in workloads} for s in SEED_OFFSET}
    for label, offset in SEED_OFFSET.items():
        for w in workloads:
            for i in range(args.runs):
                result = one_run(w, offset + i, seconds)
                runs[label][w].append(result)
                print(f"set {label} {w:7s} seed {offset + i:3d}: attempted {result['attempted']:3d}"
                      f" failed {result['failed']} correct {result['correct']}", flush=True)

    all_ok = True
    report = {"run_seconds": seconds, "runs_per_set": args.runs, "workloads": {}}
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for s in runs for r in runs[s][w]}
        correct = all(r["correct"] for s in runs for r in runs[s][w])
        rows = {}
        print(f"\n{w}: failed share {sorted(shares)}, correct {correct}")
        print(f"  {'metric':14s} {'median A':>11s} {'Q1..Q3 A':>23s} {'spread':>7s}"
              f" {'median B':>11s} {'Q1..Q3 B':>23s} {'spread':>7s} {'B/A-1':>7s} {'bound':>6s}  agree")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = summary([r["metrics"][name]["value"] for r in runs["A"][w]])
            b = summary([r["metrics"][name]["value"] for r in runs["B"][w]])
            change = b["median"] / a["median"] - 1
            agree = a["spread"] <= bound and b["spread"] <= bound and abs(change) <= bound
            all_ok &= agree
            rows[name] = {"A": a, "B": b, "change": change, "bound": bound, "agree": agree}
            print(f"  {name:14s} {a['median']:11.5g} {a['q1']:11.5g}..{a['q3']:<11.5g} {a['spread']:7.2%}"
                  f" {b['median']:11.5g} {b['q1']:11.5g}..{b['q3']:<11.5g} {b['spread']:7.2%}"
                  f" {change:+7.2%} {bound:6.2f}  {'yes' if agree else 'NO'}")
        all_ok &= len(shares) == 1 and correct
        report["workloads"][w] = {"metrics": rows, "failed_shares": sorted(shares), "correct": correct,
                                  "runs": {s: runs[s][w] for s in runs}}
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "compare.json").write_text(json.dumps(report, indent=1) + "\n")
    print("\nall metrics agree" if all_ok else "\nDISAGREEMENT: see the rows marked NO")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
