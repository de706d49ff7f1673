"""Run sets of benchmark runs, summarize them, and compare two sets.

    python3 perfbench/report.py sweep OUT.jsonl [--workloads all] [--seeds 1-10] [--seconds S] [--trace 0|1]
    python3 perfbench/report.py summary RUNS.jsonl
    python3 perfbench/report.py compare BASE.jsonl NEW.jsonl

``sweep`` runs run.py once per workload and seed, one run at a time,
appending each run's record to OUT.jsonl, then prints the summary.
``summary`` prints, per workload and end-to-end metric, the median, the
quartiles and the spread (interquartile range over median) against the
metric's bound. ``compare`` prints both sides' medians and quartiles, the
ratio new/base with its base, and a verdict: "regressed" when the new
median is worse than the base by more than the bound, "unresolved" when
either side's spread exceeds the bound (unless every new run beats every
base run), "improved" when the new median is better by more than the
spread, otherwise "same". Untraced records only; the bound and direction
of each metric come from BENCHMARK.json.
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


def load_bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_runs(path, trace=0):
    """workload -> metric -> list of values, from a JSON-lines file of run records."""
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"] != trace:
                continue
            metrics = runs.setdefault(record["workload"], {})
            for name, metric in record["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def summary(path):
    bench = load_bench()
    runs = load_runs(path)
    print(f"{'workload':20} {'metric':18} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    steady = True
    for workload, metrics in runs.items():
        for m in bench["end_to_end"]:
            values = metrics.get(m["name"])
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            s = spread(values)
            if m["name"] == "setup_s":
                verdict = "(spread not bounded)"
            elif s < m["bound"] / 3:
                verdict = "steady"
            elif s <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                steady = False
            print(f"{workload:20} {m['name']:18} {len(values):3d} {median:12.4f} {q1:12.4f} "
                  f"{q3:12.4f} {s:7.3f} {m['bound']:6.2f}  {verdict}")
    return 0 if steady else 1


def compare(base_path, new_path):
    bench = load_bench()
    base, new = load_runs(base_path), load_runs(new_path)
    print(f"{'workload':20} {'metric':18} {'base median [q1, q3]':>36} {'new median [q1, q3]':>36} "
          f"{'new/base':>9}  verdict")
    regressed = False
    for workload in base:
        for m in bench["end_to_end"]:
            b, n = base[workload].get(m["name"]), new.get(workload, {}).get(m["name"])
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            ratio = nq[1] / bq[1]
            lower = m["better"] == "lower"
            worse = (ratio - 1) if lower else (1 - ratio)
            noise = max(spread(b), spread(n))
            all_better = max(n) < min(b) if lower else min(n) > max(b)
            if worse > m["bound"]:
                verdict, regressed = "regressed", True
            elif noise > m["bound"] and m["name"] != "setup_s" and not all_better:
                verdict = "unresolved"
            elif -worse > noise:
                verdict = "improved"
            else:
                verdict = "same"
            print(f"{workload:20} {m['name']:18} "
                  f"{bq[1]:12.4f} [{bq[0]:10.4f}, {bq[2]:10.4f}] "
                  f"{nq[1]:12.4f} [{nq[0]:10.4f}, {nq[2]:10.4f}] "
                  f"{ratio:9.4f}  {verdict} (bound {m['bound']}, base {bq[1]:.4g} {m['unit']})")
    return 1 if regressed else 0


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def sweep(args):
    bench = load_bench()
    names = [w["name"] for w in bench["workloads"]] if args.workloads == "all" else args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    for name in names:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace), "--out", args.out]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            last = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()]
            print(f"{name} seed {seed}: exit {proc.returncode} {last[0][:200]}", flush=True)
            if proc.returncode != 0:
                return proc.returncode
    return summary(args.out) if not args.trace else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="Sweep, summarize and compare benchmark runs.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("sweep", help="run workloads x seeds, appending records to a file")
    p.add_argument("out")
    p.add_argument("--workloads", default="all", help="'all' or a comma-separated list")
    p.add_argument("--seeds", default="1-10", help="a seed or an inclusive range such as 1-10")
    p.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("summary", help="medians, quartiles and spreads of a set of runs")
    p.add_argument("runs")
    p = sub.add_parser("compare", help="compare two sets of runs metric by metric")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args(argv)
    if args.cmd == "sweep":
        return sweep(args)
    if args.cmd == "summary":
        return summary(args.runs)
    return compare(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
