"""Alternating pairs of benchmark runs in two checkouts.

    python3 tools/ab_pairs.py PARENT CHANGE --workload W --seed S --pairs N --seconds T [--trace 1]

PARENT and CHANGE are the roots of two checkouts.  Each pair runs
``perfbench/run.py`` once in each, one after the other: the parent goes
first in odd pairs and the change in even ones, so that a host that speeds
up or slows down during a pair favours neither side.  Each run's metrics are
read from the JSON object on the last line of its output.

Prints each pair's metrics (parent, change, relative change), then, per
metric, the median and quartiles of each side, the relative change of the
medians, the pairs the change won, whether the change's median is better
than the parent's by more than the parent's interquartile range, and the
gate of each end-to-end metric, read with its ``bound`` from
``BENCHMARK.json``: ``worse`` when the change's median is worse than the
parent's by more than the bound (relative to the parent's median),
``unresolved`` when the parent's (q3 - q1) / |median| exceeds the bound and
not every change run beats every parent run, ``ok`` otherwise, and ``-``
for a metric with no bound.  Before that summary, per metric, the pairs the
change won and the median of the per-pair relative changes, once over the
pairs the parent ran first and once over those the change ran first: a gap
between the two shows how far run order moves a pair.  Which way is better,
and each bound, come from ``BENCHMARK.json`` of the change, or of the
parent when the change has none; a metric it does not list shows no
winner.  With ``--trace 1`` the runs report the per-layer metrics instead
of the end-to-end ones, and the same tables cover those.

Standard library only, so it runs with any interpreter that runs the
benchmark.  Exits non-zero when a run fails or prints no result line.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, args) -> tuple:
    """(correct, {metric: value}) of one benchmark run in checkout ``root``."""
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode:
            raise ValueError(f"exit code {proc.returncode}")
        result = json.loads(lines[-1])
        return result["correct"], {name: entry["value"] for name, entry in result["metrics"].items()}
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        raise SystemExit(f"error: run in {root} gave no result ({exc}):\n{proc.stderr.strip()}")


def metric_specs(*roots: Path) -> dict:
    """Metric name -> its entry in the first BENCHMARK.json found: "better"
    ("higher" or "lower") and, for an end-to-end metric, "bound"."""
    for root in roots:
        path = root / "BENCHMARK.json"
        if path.is_file():
            spec = json.loads(path.read_text())
            return {m["name"]: m for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}
    return {}


def better(a: float, b: float, direction) -> bool:
    """True when ``a`` is strictly better than ``b``."""
    return a > b if direction == "higher" else a < b if direction == "lower" else False


def relative(change: float, parent: float) -> str:
    return f"{change / parent - 1:+.1%}" if parent else "-"


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def common_names(pairs: list) -> list:
    """The metrics both sides report in every pair, in the parent's order."""
    return [name for name in pairs[0][0] if all(name in p and name in c for p, c in pairs)]


def gate(parent: list, change: list, direction, bound) -> str:
    """The benchmark's bound on one metric over the runs of each side:
    "worse", "unresolved" or "ok" as the module describes, "-" without a
    bound or a direction."""
    if bound is None or direction not in ("higher", "lower"):
        return "-"
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    margin = bound * abs(pm)
    if (pm - cm if direction == "higher" else cm - pm) > margin:
        return "worse"
    if q3 - q1 > margin and not all(better(c, p, direction) for c in change for p in parent):
        return "unresolved"
    return "ok"


def summarize(pairs: list, specs: dict) -> list:
    """One row per metric both sides report in every pair: (name, parent
    median, q1, q3, change median, q1, q3, relative change, won, clear,
    gate).  ``pairs`` holds (parent metrics, change metrics) per pair;
    ``won`` is None and ``clear`` False for a metric with no known
    direction."""
    rows = []
    for name in common_names(pairs):
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        spec = specs.get(name, {})
        direction = spec.get("better")
        pm, cm = statistics.median(parent), statistics.median(change)
        pq, cq = quartiles(parent), quartiles(change)
        won = sum(better(c, p, direction) for p, c in zip(parent, change)) if direction else None
        clear = better(cm, pm, direction) and abs(cm - pm) > pq[1] - pq[0]
        verdict = gate(parent, change, direction, spec.get("bound"))
        rows.append((name, pm, *pq, cm, *cq, relative(cm, pm), won, clear, verdict))
    return rows


def by_run_order(pairs: list, specs: dict) -> list:
    """One row per metric both sides report in every pair: (name, then for
    the pairs the parent ran first and for those the change ran first, each
    a tuple (won, pairs, median relative change)).  ``pairs`` alternate as
    ``main`` runs them, the parent first in the first pair; ``won`` is None
    for a metric with no known direction, and the median is "-" over no
    pair with a nonzero parent."""
    rows = []
    for name in common_names(pairs):
        direction = specs.get(name, {}).get("better")
        groups = []
        for ordered in (pairs[0::2], pairs[1::2]):
            group = [(p[name], c[name]) for p, c in ordered]
            won = sum(better(c, p, direction) for p, c in group) if direction else None
            changes = [c / p - 1 for p, c in group if p]
            groups.append((won, len(group), f"{statistics.median(changes):+.1%}" if changes else "-"))
        rows.append((name, *groups))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in roots.items():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{side} {root} has no perfbench/run.py")

    print(f"workload {args.workload}  seed {args.seed}  pairs {args.pairs}  seconds {args.seconds}  "
          f"trace {args.trace}", flush=True)
    pairs = []
    for k in range(1, args.pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        results = {side: run_once(roots[side], args) for side in order}
        (p_ok, parent), (c_ok, change) = results["parent"], results["change"]
        pairs.append((parent, change))
        print(f"pair {k}  {order[0]} first  correct: parent {p_ok}, change {c_ok}")
        for name, value in parent.items():
            if name in change:
                print(f"  {name:<40} {value:>14.6g} {change[name]:>14.6g}  {relative(change[name], value):>8}")
        sys.stdout.flush()

    specs = metric_specs(roots["change"], roots["parent"])
    print(f"by run order over {len(pairs)} pairs: won = pairs where the change is better; change = median "
          "of the per-pair relative changes")
    print(f"  {'metric':<40} {'parent first: won':>18} {'change':>8} {'change first: won':>18} {'change':>8}")
    for name, *groups in by_run_order(pairs, specs):
        cells = [f"{'-' if won is None else f'{won}/{count}':>18} {median:>8}" for won, count, median in groups]
        print(f"  {name:<40} {' '.join(cells)}")

    print(f"summary over {len(pairs)} pairs: median [q1, q3] per side; won = pairs where the change is "
          "better; clear = change median better by more than the parent's q3 - q1; gate = the metric's "
          "bound from BENCHMARK.json (worse, unresolved or ok)")
    print(f"  {'metric':<40} {'parent':>12} {'[q1, q3]':>27} {'change':>12} {'[q1, q3]':>27} "
          f"{'change':>8} {'won':>6} {'clear':>5} {'gate':>10}")
    for name, pm, p1, p3, cm, c1, c3, rel, won, clear, verdict in summarize(pairs, specs):
        won_text = "-" if won is None else f"{won}/{len(pairs)}"
        print(f"  {name:<40} {pm:>12.6g} [{p1:>12.6g}, {p3:>12.6g}] {cm:>12.6g} [{c1:>12.6g}, {c3:>12.6g}] "
              f"{rel:>8} {won_text:>6} {'yes' if clear else 'no':>5} {verdict:>10}")


if __name__ == "__main__":
    main()
