"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --trace 0 [--workloads search,cli-report] [--out FILE]

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time, and
prints per workload and metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median.
``--out`` also writes every run's result and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line.split(": ", 1)[1]) for line in lines if line.startswith("environment: "))
    return {"seed": seed, "environment": env, "result": json.loads(lines[-1])}


def summarise(runs):
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else None, "values": values}
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(corpus.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in parse_seeds(args.seeds)]
        summary = summarise(runs)
        failed = [r["result"]["failed"] for r in runs]
        attempted = [r["result"]["attempted"] for r in runs]
        print(f"{workload}: failed {failed} of attempted {attempted}")
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:<34} median {s['median']:>14.6g}  q1 {s['q1']:>14.6g}  q3 {s['q3']:>14.6g}  spread {spread}")
        report[workload] = {"runs": runs, "summary": summary}
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
