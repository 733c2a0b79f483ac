"""Fixed-seed, closed-loop benchmark of embedlab (one client, one process).

    python3 perfbench/run.py --workload search --seed 1 --seconds 28 --trace 0

Run from the root of a checkout.  The program under test is imported from
``src/`` of that checkout; without it the benchmark exits with an error.

Set-up generates the workload's corpus from ``--seed`` (corpus.py), writes
the input files of ``cli-report`` and warms up.  The timed phase then runs
complete passes over the corpus, one decision at a time, until ``--seconds``
have passed.  Every output is checked: a positive verdict's witness is
re-verified with scipy, and every verdict is compared with the input's truth
label (checks.py).  Divisible-by-construction draws that a known defect
misjudges (the absolute determinant gate, see corpus.DETERMINANT_GATE) are
not in the timed corpus; the workloads that decide divisibility decide them
once after the timed phase and print the outcome as the known-defect probe,
outside ``correct``, ``attempted`` and ``failed``.

Each input is timed once per pass, and the end-to-end times use each
input's fastest call of the run: ``decisions_per_s`` is the number of inputs
over the sum of their fastest call times, and the latency percentiles are
taken over the inputs' fastest call times.  On a shared host, other tenants
slow every call by up to about 1.4x in stretches of seconds to minutes; that
only ever adds time, and the fastest of many calls is the estimate of an
input's cost that it disturbs least.  Percentiles over every single call,
stalls included, are printed as diagnostics.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics read from spans
recorded around the library's public functions (tracing.py), together with
the tracing overhead.  Human-readable tables go to stdout first; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 3
WARMUP_MAX_N = 6

# (name, unit, better); BENCHMARK.json lists the same metrics in this order.
END_TO_END = (
    ("decisions_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("answered_share", "ratio", "higher"),
    ("ok_share", "ratio", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)

FUNCTION_METRICS = (
    ("numkit.logm_branch", ("calls", "self_ms")),
    ("numkit.as_real", ("calls",)),
    ("numkit.expm", ("calls", "self_ms")),
    ("numkit.eig", ("calls", "self_ms")),
    ("numkit.as_square_matrix", ("calls",)),
    ("numkit.principal_log", ("calls",)),
    ("numkit.perturb_distinct", ("calls", "self_ms")),
    ("structure.necessary_conditions", ("self_ms",)),
    ("structure.frobenius_form", ("calls", "self_ms")),
    ("embed.branch_bound", ("calls",)),
)


def _per_layer_names():
    names = []
    for layer in tracing.LAYERS:
        names += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_ms", "ms", "lower")]
    for fn, kinds in FUNCTION_METRICS:
        names += [(f"{fn}.{k}", "count" if k == "calls" else "ms", "lower") for k in kinds]
    names += [
        ("numkit.as_real.real_share", "ratio", "higher"),
        ("structure.decided_share", "ratio", "higher"),
        ("embed.raw_tuples", "count", "lower"),
        ("embed.branches_examined", "count", "lower"),
        ("embed.branches_examined_max", "count", "lower"),
        ("embed.records_max", "count", "lower"),
        ("embed.recursion_calls", "count", "lower"),
        ("cli.report_bytes", "bytes", "lower"),
    ]
    names += [(f"decided.{p}", "count", "lower" if p == "undetermined" else "higher") for p in checks.DECISION_PATHS]
    names += [("trace.spans", "count", "lower"), ("trace.overhead_ms", "ms", "lower")]
    return tuple(names)


PER_LAYER = _per_layer_names()


# --- the program under test -------------------------------------------------


def load_program():
    """Import embedlab from ``src/`` of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "embedlab" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'embedlab'} is missing; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import embedlab
    import embedlab.cli  # noqa: F401

    if not Path(embedlab.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: imported embedlab from {embedlab.__file__}, not from {src}")
    return embedlab


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the program."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import embedlab.cli"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


# --- environment ------------------------------------------------------------


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return None


def environment(seed):
    """What the figures depend on besides the code.  BLAS threading is left
    at the library default, which is what users get."""
    return {
        "commit": git_commit(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name(),
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


# --- one decision -----------------------------------------------------------


class Decider:
    """Makes one decision per case through the library or the CLI, and reads
    the verdict and witness back out of the result."""

    def __init__(self, embedlab, workload, workdir):
        self.embedlab = embedlab
        self.cli = workload == "cli-report"
        self.workdir = workdir
        self.paths = {}

    def prepare(self, cases):
        """Write the CLI input files (cli-report only)."""
        if not self.cli:
            return
        self.paths = {}
        for i, case in enumerate(cases):
            path = self.workdir / f"input_{i}.json"
            path.write_text(json.dumps({"n": case.n, "rows": case.matrix.tolist()}))
            self.paths[id(case)] = str(path)

    def call(self, case):
        if self.cli:
            argv = ["embed" if case.kind == corpus.EMBED else "infdiv", self.paths[id(case)]]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.embedlab.cli.run_cli(argv)
            return code, out.getvalue()
        if case.kind == corpus.EMBED:
            return self.embedlab.check_embeddable(case.matrix)
        return self.embedlab.check_strong_inf_divisible(case.matrix)

    def read(self, case, raw):
        """(verdict, witness, report bytes) of a result."""
        if not self.cli:
            witness = raw.generator if case.kind == corpus.EMBED else raw.z_matrix
            return raw.verdict, witness, 0
        code, text = raw
        result = json.loads(text)["result"]
        payload = result.get("embeddability") or result.get("divisibility") or result
        verdict = payload.get("verdict")
        expected_code = {"positive": 0, "negative": 1, "undetermined": 2}.get(checks.verdict_class(verdict))
        if code != expected_code:
            verdict = f"exit code {code} for {verdict}"
        witness = payload.get("generator" if case.kind == corpus.EMBED else "z_matrix")
        return verdict, witness, len(text)


class Tally:
    """Call times and outcomes of every decision in a run."""

    def __init__(self, cases):
        self.cases = cases
        self.samples = [[] for _ in cases]  # seconds of each untraced call, per input
        self.attempted = 0
        self.outcomes = Counter()
        self.scoreboard = defaultdict(Counter)  # (family, truth) -> verdict classes, first pass
        self.errors = []
        self.report_bytes_max = 0
        self.report_bytes_total = 0

    def add(self, index, outcome, verdict, seconds, report_bytes, first_pass):
        case = self.cases[index]
        self.attempted += 1
        self.outcomes[outcome] += 1
        if seconds is not None:
            self.samples[index].append(seconds)
        self.report_bytes_max = max(self.report_bytes_max, report_bytes)
        self.report_bytes_total += report_bytes
        if first_pass:
            board = self.scoreboard[(case.family, case.truth or "unknown")]
            board[checks.verdict_class(verdict)] += 1
            board["failed"] += outcome in checks.FAILURES

    @property
    def failed(self):
        return sum(self.outcomes[o] for o in checks.FAILURES)

    def input_seconds(self, family=None):
        """Each input's fastest untraced call time, in seconds."""
        return [min(s) for c, s in zip(self.cases, self.samples) if s and family in (None, c.family)]


def run_pass(decider, tally, first_pass, timed=True):
    """One closed-loop pass over the corpus, in corpus order; returns the
    seconds spent inside the decision calls."""
    busy = 0.0
    clock = time.perf_counter
    for index, case in enumerate(tally.cases):
        start = clock()
        try:
            raw, error = decider.call(case), None
        except Exception as exc:  # a raised exception is a failed operation
            raw, error = None, exc
        seconds = clock() - start
        busy += seconds
        if error is not None:
            verdict, outcome, size = type(error).__name__, checks.ERROR, 0
            if len(tally.errors) < 5:
                tally.errors.append(f"{case.family}: {error!r}")
        else:
            verdict, witness, size = decider.read(case, raw)
            outcome = checks.judge(case, verdict, witness)
        tally.add(index, outcome, verdict, seconds if timed else None, size, first_pass)
        del raw
    return busy


# --- set-up -----------------------------------------------------------------


def warmup_cases(cases):
    """The first case of each family, skipping families of large inputs."""
    seen, picked = set(), []
    for case in cases:
        if case.family not in seen and case.n <= WARMUP_MAX_N:
            seen.add(case.family)
            picked.append(case)
    return picked


def setup(workload, seed, decider):
    """Generate the corpus, write its files and warm up, SETUP_REPEATS times.

    Returns the corpus and the set-up time: the median import time of a fresh
    interpreter plus the median time of the other steps."""
    imports = statistics.median(import_seconds() for _ in range(SETUP_REPEATS))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cases = corpus.build(workload, seed)
        decider.prepare(cases)
        for case in warmup_cases(cases):
            decider.call(case)
        times.append(time.perf_counter() - start)
    return cases, imports + statistics.median(times)


def until(seconds, run_one):
    """Call ``run_one(i)`` for i = 0, 1, ... at least once, and again while
    the next call is expected to end within ``seconds`` of the start."""
    start = time.perf_counter()
    durations = []
    while not durations or time.perf_counter() - start + statistics.median(durations) <= seconds:
        began = time.perf_counter()
        run_one(len(durations))
        durations.append(time.perf_counter() - began)
    return len(durations)


# --- untraced run: end-to-end metrics ---------------------------------------


def untraced_run(args, decider, tally, setup_s):
    passes = until(args.seconds, lambda i: run_pass(decider, tally, first_pass=i == 0))
    per_input = tally.input_seconds()
    undetermined = tally.outcomes[checks.UNDECIDED] / tally.attempted
    failed = tally.failed / tally.attempted
    metrics = {
        "decisions_per_s": len(per_input) / sum(per_input),
        "latency_p50_ms": percentile_ms(per_input, 50),
        "latency_p90_ms": percentile_ms(per_input, 90),
        "answered_share": 1.0 - undetermined,
        "ok_share": 1.0 - failed,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    every_call = [x for s in tally.samples for x in s]
    rows = [(name, metrics[name], unit) for name, unit, _ in END_TO_END]
    rows += [("failed_share", failed, "ratio"), ("undetermined_share", undetermined, "ratio")]
    if decider.cli:
        rows.append(("report_kib_max", tally.report_bytes_max / 1024.0, "KiB"))
    rows += [
        ("every_call.decisions_per_s", len(every_call) / sum(every_call), "1/s"),
        ("every_call.latency_p50_ms", percentile_ms(every_call, 50), "ms"),
        ("every_call.latency_p90_ms", percentile_ms(every_call, 90), "ms"),
        ("every_call.latency_p99_ms", percentile_ms(every_call, 99), "ms"),
    ]
    print_table(f"end-to-end metrics: {len(per_input)} inputs x {passes} passes, times from "
                "each input's fastest call; every_call.* over all calls", rows)
    return metrics


# --- traced run: per-layer metrics ------------------------------------------


class DecisionStats:
    """Counters read from each top-level decision report in a traced pass."""

    def __init__(self):
        self.paths = Counter()
        self.raw_tuples = 0
        self.branches = []  # per decision, in corpus order
        self.records_max = 0
        self.recursion = 0
        self.real = 0
        self.report_bytes = 0

    def observe_report(self, report, parent_name):
        if parent_name is not None and not parent_name.startswith("cli."):
            return  # a trailing sub-report inside a divisibility decision
        self.paths[checks.decision_path(report)] += 1
        if report.bound_used is not None:
            self.raw_tuples += report.bound_used.raw_tuple_count
        self.branches.append(report.branches_examined)
        self.records_max = max(self.records_max, len(report.failed_conditions))
        self.recursion += len(getattr(report, "recursion", ()))

    def observe_as_real(self, result, parent_name):
        self.real += result is not None


def traced_pass(embedlab, decider, tally):
    stats = DecisionStats()
    observers = {
        "embed.check_embeddable": stats.observe_report,
        "embed.check_strong_inf_divisible": stats.observe_report,
        "numkit.as_real": stats.observe_as_real,
    }
    modules = {layer: getattr(embedlab, layer) for layer in tracing.LAYERS}
    bytes_before = tally.report_bytes_total
    with tracing.Tracer(modules, observers) as tracer:
        busy = run_pass(decider, tally, first_pass=False, timed=False)
    stats.report_bytes = tally.report_bytes_total - bytes_before
    return busy, tracing.aggregate(tracer.spans), len(tracer.spans), stats


def layer_metrics(agg, n_spans, stats, overhead_ms):
    def calls(key):
        return agg.get(key, {}).get("calls", 0)

    def self_ms(key):
        return agg.get(key, {}).get("self_s", 0.0) * 1e3

    values = {}
    for layer in tracing.LAYERS:
        values[f"{layer}.calls"] = calls(layer)
        values[f"{layer}.self_ms"] = self_ms(layer)
    for fn, kinds in FUNCTION_METRICS:
        for kind in kinds:
            values[f"{fn}.{kind}"] = calls(fn) if kind == "calls" else self_ms(fn)
    decisions = sum(stats.paths.values())
    values["numkit.as_real.real_share"] = stats.real / calls("numkit.as_real") if calls("numkit.as_real") else 0.0
    values["structure.decided_share"] = stats.paths["necessary_condition"] / decisions if decisions else 0.0
    values["embed.raw_tuples"] = stats.raw_tuples
    values["embed.branches_examined"] = sum(stats.branches)
    values["embed.branches_examined_max"] = max(stats.branches, default=0)
    values["embed.records_max"] = stats.records_max
    values["embed.recursion_calls"] = stats.recursion
    values["cli.report_bytes"] = stats.report_bytes
    for path in checks.DECISION_PATHS:
        values[f"decided.{path}"] = stats.paths[path]
    values["trace.spans"] = n_spans
    values["trace.overhead_ms"] = overhead_ms
    return values


def layer_load_check(workload, cases, agg, stats):
    """Does the corpus still load the layer the workload was chosen for?"""
    if len(stats.branches) != len(cases):
        return {"ok": False, "detail": "a decision raised, so reports and inputs do not line up"}
    if workload == "search":
        n8 = [b for c, b in zip(cases, stats.branches) if c.n == 8]
        return {"n8_branches_examined": n8, "ok": bool(n8) and min(n8) > 10_000}
    if workload == "cli-report":
        share = agg["cli"]["self_s"] / sum(agg[layer]["self_s"] for layer in tracing.LAYERS if layer in agg)
        return {"cli_self_share": share, "ok": share > 0.5}
    median = statistics.median(stats.branches)
    return {"median_branches_examined": median, "ok": median <= 1}


def traced_run(embedlab, args, decider, tally):
    untraced, traced, self_s = [], [], defaultdict(list)
    first = []

    def pair(i):
        untraced.append(run_pass(decider, tally, first_pass=i == 0))
        busy, agg, n_spans, stats = traced_pass(embedlab, decider, tally)
        traced.append(busy)
        for key, entry in agg.items():
            self_s[key].append(entry["self_s"])
        if not first:
            first.extend((agg, n_spans, stats))

    passes = until(args.seconds, pair)
    agg, n_spans, stats = first
    # counts come from the first traced pass (they repeat exactly); self
    # times are medians over every traced pass
    agg = {key: {"calls": entry["calls"], "self_s": statistics.median(self_s[key])} for key, entry in agg.items()}
    overhead_ms = (statistics.median(traced) - statistics.median(untraced)) * 1e3
    metrics = layer_metrics(agg, n_spans, stats, overhead_ms)
    print_table(f"per-layer metrics: one traced pass of {len(tally.cases)} decisions, "
                f"self times the median of {passes} traced passes",
                [(name, metrics[name], unit) for name, unit, _ in PER_LAYER])
    print("function self ms and calls: " + json.dumps(
        {key: [round(entry["self_s"] * 1e3, 3), entry["calls"]] for key, entry in sorted(agg.items()) if "." in key}))
    print("layer load check: " + json.dumps(layer_load_check(args.workload, tally.cases, agg, stats)))
    return metrics


# --- reporting --------------------------------------------------------------


def percentile_ms(values, q):
    return float(np.percentile(values, q)) * 1e3


def print_table(title, rows):
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<34} {value:>16.6g}  {unit}")


def print_scoreboard(tally):
    print("truth scoreboard: verdicts on the first pass, p50 of the inputs' fastest calls")
    print(f"  {'family':<28} {'truth':<9} {'pos':>5} {'neg':>5} {'undet':>5} {'error':>5} {'failed':>6} {'p50_ms':>9}")
    for (family, truth), board in sorted(tally.scoreboard.items()):
        per_input = tally.input_seconds(family)
        p50 = f"{statistics.median(per_input) * 1e3:9.3f}" if per_input else f"{'-':>9}"
        counts = " ".join(f"{board[v]:>5}" for v in ("positive", "negative", "undetermined", "error"))
        print(f"  {family:<28} {truth:<9} {counts} {board['failed']:>6} {p50}")


def known_defect_probe(embedlab, seed):
    """Decide the draws the determinant gate misjudges; print what happened."""
    outcomes = defaultdict(Counter)
    for case in corpus.known_defect_cases(seed):
        try:
            result = embedlab.check_strong_inf_divisible(case.matrix)
            outcome = checks.judge(case, result.verdict, result.z_matrix)
        except Exception:
            outcome = checks.ERROR
        outcomes[case.family][outcome] += 1
    total = sum(outcomes.values(), Counter())
    print(f"known-defect probe: divisible-by-construction draws with det <= {corpus.DETERMINANT_GATE:g}, "
          "decided once, untimed, not counted in the result line")
    for family, counts in sorted(outcomes.items()) + [("all", total)]:
        wrong = sum(counts[o] for o in checks.FAILURES)
        print(f"  {family:<28} inputs {sum(counts.values()):>4}  failed {wrong:>4}  ok {counts[checks.OK]:>4}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    embedlab = load_program()
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=scratch))
    try:
        decider = Decider(embedlab, args.workload, workdir)
        cases, setup_s = setup(args.workload, args.seed, decider)
        tally = Tally(cases)
        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  inputs {len(cases)}")
        if args.trace:
            metrics = traced_run(embedlab, args, decider, tally)
        else:
            metrics = untraced_run(args, decider, tally, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in tally.errors:
        print(f"  exception: {line}")
    print_scoreboard(tally)
    if any(case.kind == corpus.INFDIV for case in tally.cases):
        known_defect_probe(embedlab, args.seed)
    print("environment: " + json.dumps(environment(args.seed), sort_keys=True))
    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
