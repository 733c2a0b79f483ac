"""tools/ab_pairs.py against two stub checkouts whose perfbench/run.py
prints fixed JSON lines."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"

# each run appends its side and argv to ../runs.log and prints the metrics
# of its next entry in values.json; values given as {"first": [...],
# "second": [...]} are read by whether the run goes first in its pair
STUB = '''
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent
log = here.parent.parent / "runs.log"
side = here.parent.name
runs = [line.split()[0] for line in log.read_text().splitlines()] if log.exists() else []
done = runs.count(side)
with log.open("a") as fh:
    fh.write(side + " " + " ".join(sys.argv[1:]) + "\\n")
values = json.loads((here / "values.json").read_text())
if values == "fail":
    sys.exit(3)
trace = sys.argv[sys.argv.index("--trace") + 1]
metrics = values[trace]
if isinstance(metrics, dict):
    metrics = metrics["first" if len(runs) % 2 == 0 else "second"]
metrics = metrics[done]
print("a human-readable table line")
print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}))
'''

SPEC = {
    "end_to_end": [
        {"name": "decisions_per_s", "better": "higher", "bound": 0.25},
        {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
        {"name": "latency_p90_ms", "better": "lower", "bound": 0.25},
        {"name": "answered_share", "better": "higher", "bound": 0.05},
        {"name": "peak_rss_mib", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [{"name": "numkit.calls", "better": "lower"}],
}


def checkout(root: Path, values, spec=True) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB)
    (root / "perfbench" / "values.json").write_text(json.dumps(values))
    if spec:
        (root / "BENCHMARK.json").write_text(json.dumps(SPEC))
    return root


def run_tool(tmp_path, *extra):
    argv = [sys.executable, str(TOOL), str(tmp_path / "parent"), str(tmp_path / "change"),
            "--workload", "infdiv-truth", "--seed", "7", "--pairs", "4", "--seconds", "0.5", *extra]
    return subprocess.run(argv, capture_output=True, text=True, timeout=120)


def summary(stdout: str) -> dict:
    lines = stdout.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("summary over"))
    return {line.split()[0]: line.split() for line in lines[start + 2:]}


def by_order(stdout: str) -> dict:
    lines = stdout.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("by run order"))
    end = next(k for k, line in enumerate(lines) if line.startswith("summary over"))
    return {line.split()[0]: line.split()[1:] for line in lines[start + 2:end]}


def untraced(rates, p50s):
    return {"0": [{"decisions_per_s": r, "latency_p50_ms": p, "extra": 1.0} for r, p in zip(rates, p50s)]}


def test_pairs_alternate_and_summarize(tmp_path):
    checkout(tmp_path / "parent", untraced([100, 102, 98, 100], [0.3] * 4))
    checkout(tmp_path / "change", untraced([110, 101, 99, 112], [0.3] * 4))
    proc = run_tool(tmp_path)
    assert proc.returncode == 0, proc.stderr
    runs = (tmp_path / "runs.log").read_text().splitlines()
    assert [line.split()[0] for line in runs] == ["parent", "change", "change", "parent"] * 2
    assert all(line.split()[1:] == ["--workload", "infdiv-truth", "--seed", "7", "--seconds", "0.5",
                                    "--trace", "0"] for line in runs)
    assert "pair 2  change first  correct: parent True, change True" in proc.stdout
    rows = summary(proc.stdout)
    # parent 98, 100, 100, 102 and change 99, 101, 110, 112: inclusive quartiles
    assert rows["decisions_per_s"] == ["decisions_per_s", "100", "[", "99.5,", "100.5]",
                                       "105.5", "[", "100.5,", "110.5]", "+5.5%", "3/4", "yes", "ok"]
    # ties win nothing; a metric BENCHMARK.json does not list has no winner
    # and no gate
    assert rows["latency_p50_ms"][-4:] == ["+0.0%", "0/4", "no", "ok"]
    assert rows["extra"][-3:] == ["-", "no", "-"]
    # pairs 1 and 3 ran the parent first (+10.0%, +1.0%), pairs 2 and 4 the
    # change (-1.0%, +12.0%)
    assert by_order(proc.stdout)["decisions_per_s"] == ["2/2", "+5.5%", "1/2", "+5.5%"]


def test_trace_runs_summarize_the_per_layer_metrics(tmp_path):
    layer = lambda calls: {"1": [{"numkit.calls": c} for c in calls]}
    checkout(tmp_path / "parent", layer([50, 52, 51, 50]))
    checkout(tmp_path / "change", layer([40, 41, 39, 40]), spec=False)
    proc = run_tool(tmp_path, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert all(line.endswith("--trace 1") for line in (tmp_path / "runs.log").read_text().splitlines())
    # the direction comes from the parent's BENCHMARK.json when the change
    # has none; a per-layer metric has no bound, so no gate
    assert summary(proc.stdout)["numkit.calls"][-4:] == ["-20.8%", "4/4", "yes", "-"]


@pytest.mark.parametrize("broken", ["parent", "change"])
def test_a_failed_run_stops_the_comparison(tmp_path, broken):
    for side in ("parent", "change"):
        checkout(tmp_path / side, "fail" if side == broken else untraced([1] * 4, [1] * 4))
    proc = run_tool(tmp_path)
    assert proc.returncode != 0
    assert "gave no result (exit code 3)" in proc.stderr
    assert "summary over" not in proc.stdout


def test_run_order_is_reported_apart(tmp_path):
    # the change reads 110 when it runs first in a pair and 95 when second,
    # the parent 100 either way: the summary calls the +2.5% clear, and only
    # the split by run order shows that run order made it
    checkout(tmp_path / "parent", untraced([100] * 4, [0.3] * 4))
    change = {"0": {side: untraced([rate] * 4, [0.3] * 4)["0"] for side, rate in (("first", 110), ("second", 95))}}
    checkout(tmp_path / "change", change)
    proc = run_tool(tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = by_order(proc.stdout)
    # pairs 1 and 3 ran the parent first, pairs 2 and 4 the change
    assert rows["decisions_per_s"] == ["0/2", "-5.0%", "2/2", "+10.0%"]
    assert rows["latency_p50_ms"] == ["0/2", "+0.0%", "0/2", "+0.0%"]
    assert rows["extra"] == ["-", "+0.0%", "-", "+0.0%"]
    assert summary(proc.stdout)["decisions_per_s"][-4:] == ["+2.5%", "2/4", "yes", "ok"]


def test_the_gate_reads_each_end_to_end_bound(tmp_path):
    noisy = [40.0, 100.0, 160.0, 100.0]  # inclusive quartiles 85 and 115: a spread of 0.3 of the median
    parent = {"decisions_per_s": [100.0] * 4, "latency_p50_ms": noisy, "latency_p90_ms": noisy,
              "answered_share": [1.0] * 4, "peak_rss_mib": noisy, "numkit.calls": [10] * 4}
    change = {
        "decisions_per_s": [70.0] * 4,  # 30% worse than the parent, beyond the 25% bound
        "latency_p50_ms": [100.0] * 4,  # no worse, but the parent spreads beyond the bound
        "latency_p90_ms": [30.0] * 4,  # as noisy a parent, but every change run beats every parent run
        "answered_share": [0.96] * 4,  # 4% worse, within the 5% bound
        "peak_rss_mib": [200.0] * 4,  # worse by more than the bound: the parent's spread does not hide it
        "numkit.calls": [20] * 4,  # a per-layer metric has no bound
    }
    for side, values in (("parent", parent), ("change", change)):
        checkout(tmp_path / side, {"0": [{name: v[k] for name, v in values.items()} for k in range(4)]})
    proc = run_tool(tmp_path)
    assert proc.returncode == 0, proc.stderr
    gates = {name: row[-1] for name, row in summary(proc.stdout).items()}
    assert gates == {"decisions_per_s": "worse", "latency_p50_ms": "unresolved", "latency_p90_ms": "ok",
                     "answered_share": "ok", "peak_rss_mib": "worse", "numkit.calls": "-"}
