"""Tests of the benchmark's own code.  Run with ``python -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import checks
import corpus
import run
import tracing
from tracing import Span

import embedlab
import embedlab.cli  # noqa: F401  (the tracer wraps the cli layer too)

ROOT = Path(__file__).resolve().parent.parent


def _helpers():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import helpers
    finally:
        sys.path.remove(str(ROOT / "tests"))
    return helpers


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_same_corpus(workload):
    first = corpus.fingerprint(corpus.build(workload, 11))
    assert first == corpus.fingerprint(corpus.build(workload, 11))
    assert first != corpus.fingerprint(corpus.build(workload, 12))


def test_two_state_labels_follow_the_closed_form():
    for case in corpus.two_state_grid():
        a, b = case.matrix[0, 1], case.matrix[1, 0]
        if case.truth == "positive":
            # R = -log(1 - a - b) / (a + b) * [[-a, a], [b, -b]] reconstructs P
            rate = -np.log1p(-(a + b)) / (a + b) if a + b > 0 else 0.0
            R = rate * np.array([[-a, a], [b, -b]])
            assert checks.witness_ok(corpus.EMBED, case.matrix, R)
        else:
            assert np.linalg.det(case.matrix) <= 1e-15


def test_fixtures_match_the_test_suite_and_their_labels():
    helpers = _helpers()
    for name in ("GEN_A", "GEN_B", "DIVISIBLE_TRIANGLE", "SCALED_TRIANGLE", "NONCONVEX_2X2"):
        assert np.array_equal(getattr(corpus, name), getattr(helpers, name))
    exp_a = scipy.linalg.expm(corpus.GEN_A)
    assert checks.witness_ok(corpus.EMBED, exp_a, corpus.GEN_A)
    for case in corpus.embed_fixtures() + corpus.infdiv_fixtures():
        if case.truth == "positive":
            if case.kind == corpus.EMBED:
                witness = embedlab.check_embeddable(case.matrix).generator
            else:
                witness = -scipy.linalg.logm(case.matrix).real
            assert checks.witness_ok(case.kind, case.matrix, witness), case.family
        else:
            decide = embedlab.check_embeddable if case.kind == corpus.EMBED else embedlab.check_strong_inf_divisible
            assert checks.judge(case, decide(case.matrix).verdict, None) != checks.WRONG_VERDICT, case.family


def test_structural_negatives_carry_their_exact_fact():
    cases = corpus.embed_truth_cases(np.random.default_rng(3)) + corpus.infdiv_truth_cases(np.random.default_rng(3))
    for case in cases:
        M = case.matrix
        if case.family == "zero_diagonal":
            assert np.any(np.diag(M) == 0.0)
        elif case.family == "intransitive_zero":
            assert M[0, 2] == 0.0 and M[0, 1] > 0 and M[1, 2] > 0
        elif case.family == "negative_det":
            assert np.linalg.det(M) < 0


def test_determinant_gate_draws_leave_the_timed_corpus_for_the_probe():
    seed = 3
    timed = [c for c in corpus.build("infdiv-truth", seed) if c.truth == "positive"]
    assert all(np.linalg.det(c.matrix) > corpus.DETERMINANT_GATE for c in timed)
    probe = corpus.known_defect_cases(seed)
    assert probe and all(c.truth == "positive" and 0 < np.linalg.det(c.matrix) <= corpus.DETERMINANT_GATE for c in probe)
    everything = corpus._infdiv_draws(corpus._rng("infdiv-truth", seed))
    assert len(everything) == len(timed) + len(probe) + sum(c.truth != "positive" for c in corpus.build("infdiv-truth", seed))


def test_search_tuple_counts_match_the_library_window():
    for case in corpus.search_cases(np.random.default_rng(5)):
        if case.family.startswith(("random_stochastic", "triangular")):
            bound = embedlab.branch_bound(embedlab.eig(case.matrix), float(np.linalg.det(case.matrix)), "israel_two_sided")
            assert bound.raw_tuple_count == corpus.israel_tuple_count(case.matrix)
            if case.family.startswith("triangular"):
                assert bound.raw_tuple_count == 5 ** (case.n - 1)
            else:
                assert bound.raw_tuple_count == corpus.SEARCH_RANDOM_TUPLES[case.n]


def test_witness_checker_rejects_a_perturbed_generator():
    rng = np.random.default_rng(0)
    R = corpus.random_intensity(rng, 4)
    P = scipy.linalg.expm(R)
    assert checks.witness_ok(corpus.EMBED, P, R)
    nudged = R.copy()
    nudged[0, 1] += 1e-3
    nudged[0, 0] -= 1e-3  # still an intensity matrix, no longer exp-inverse of P
    assert not checks.witness_ok(corpus.EMBED, P, nudged)
    negative_rate = R.copy()
    negative_rate[1, 2], negative_rate[1, 1] = -0.1, negative_rate[1, 1] + negative_rate[1, 2] + 0.1
    assert not checks.witness_ok(corpus.EMBED, P, negative_rate)
    Q = -R
    assert checks.witness_ok(corpus.INFDIV, scipy.linalg.expm(-Q), Q)
    assert not checks.witness_ok(corpus.INFDIV, scipy.linalg.expm(-Q), Q + 1e-3)


def test_judge_counts_wrong_verdicts_and_not_undetermined():
    case = corpus.Case("f", corpus.EMBED, scipy.linalg.expm(corpus.GEN_A), "positive")
    assert checks.judge(case, "NotEmbeddable", None) == checks.WRONG_VERDICT
    assert checks.judge(case, "Undetermined", None) == checks.UNDECIDED
    assert checks.judge(case, "Embeddable", corpus.GEN_A) == checks.OK
    assert checks.judge(case, "Embeddable", corpus.GEN_B) == checks.BAD_WITNESS
    negative = corpus.Case("f", corpus.EMBED, case.matrix, "negative")
    assert checks.judge(negative, "Embeddable", corpus.GEN_A) == checks.WRONG_VERDICT


def test_decision_paths():
    exp_a = scipy.linalg.expm(corpus.GEN_A)
    assert checks.decision_path(embedlab.check_embeddable(exp_a)) == "search_hit"
    swapped = np.array([[0.2, 0.8], [0.9, 0.1]])
    assert checks.decision_path(embedlab.check_embeddable(swapped)) == "determinant"
    intransitive = np.array([[0.7, 0.3, 0.0], [0.0, 0.7, 0.3], [0.3, 0.0, 0.7]])
    assert checks.decision_path(embedlab.check_embeddable(intransitive)) == "necessary_condition"
    assert checks.decision_path(embedlab.check_embeddable(np.eye(3))) == "repeated_spectrum"


def test_self_time_is_span_minus_child_spans():
    spans = [
        Span("embed.check", 0.0, 10.0, -1),
        Span("numkit.eig", 1.0, 4.0, 0),
        Span("numkit.as_square_matrix", 2.0, 3.0, 1),
        Span("numkit.expm", 5.0, 7.0, 0),
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0]
    agg = tracing.aggregate(spans)
    assert agg["numkit"] == {"calls": 3, "self_s": 5.0}
    assert agg["embed.check"] == {"calls": 1, "self_s": 5.0}


def test_tracer_restores_every_patched_attribute():
    modules = {layer: getattr(embedlab, layer) for layer in tracing.LAYERS}
    namespaces = [m for k, m in sys.modules.items() if k == "embedlab" or k.startswith("embedlab.")]
    before = {(ns.__name__, k): v for ns in namespaces for k, v in vars(ns).items()}
    seen = []
    with tracing.Tracer(modules, {"embed.check_embeddable": lambda r, p: seen.append((r.verdict, p))}) as tracer:
        assert embedlab.embed.is_stochastic is not before[("embedlab.embed", "is_stochastic")]
        assert embedlab.structure.expm is not before[("embedlab.structure", "expm")]
        embedlab.check_embeddable(scipy.linalg.expm(corpus.GEN_A))
    after = {(ns.__name__, k): v for ns in namespaces for k, v in vars(ns).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert seen == [("Embeddable", None)]
    names = [s.name for s in tracer.spans]
    assert names[0] == "embed.check_embeddable"
    assert "classify.is_stochastic" in names and "numkit.eig" in names
    assert all(s.parent == 0 for s in tracer.spans[1:] if s.name == "numkit.eig")


def test_benchmark_json_matches_the_metrics_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    layer_map = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())["map"]
    assert sorted(layer_map) == sorted(name for name, _, _ in run.PER_LAYER)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
