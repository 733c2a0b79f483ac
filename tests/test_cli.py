import json
from pathlib import Path

import numpy as np

from embedlab import cli, numkit, structure
from helpers import GEN_A, GEN_B, count_calls

GOLDEN_STRUCTURE = Path(__file__).parent / "data" / "cli_structure_golden.jsonl"
GOLDEN_DECISIONS = Path(__file__).parent / "data" / "cli_decision_golden.jsonl"

TRANS_A = numkit.expm(GEN_A)
TRANS_B = numkit.expm(GEN_B)


def write_json(path, M, kind=None):
    doc = {"n": int(M.shape[0]), "rows": np.asarray(M, dtype=float).tolist()}
    if kind:
        doc["kind"] = kind
    path.write_text(json.dumps(doc))
    return str(path)


def write_csv(path, M):
    lines = [",".join(repr(float(x)) for x in row) for row in np.asarray(M, dtype=float)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run(argv, capsys):
    code = cli.run_cli(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestExitCodes:
    def test_not_embeddable_is_one(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", TRANS_B @ TRANS_A)
        code, report = run(["embed", path], capsys)
        assert code == 1
        assert report["result"]["embeddability"]["verdict"] == "NotEmbeddable"

    def test_embeddable_is_zero(self, tmp_path, capsys):
        path = write_json(tmp_path / "good.json", TRANS_A @ TRANS_B)
        code, report = run(["embed", path], capsys)
        assert code == 0
        assert report["result"]["embeddability"]["verdict"] == "Embeddable"

    def test_undetermined_is_two(self, tmp_path, capsys):
        path = write_json(tmp_path / "sing.json", np.full((2, 2), 0.5))
        code, report = run(["embed", path], capsys)
        assert code == 2

    def test_numerical_error_is_two(self, tmp_path, capsys):
        # eigenvalues 1 and -1: no primary root exists
        path = write_json(tmp_path / "swap.json", np.array([[0.0, 1.0], [1.0, 0.0]]))
        code, report = run(["root", path, "--n", "2"], capsys)
        assert code == 2
        assert report["result"]["error"] == "NegativeRealEigenvalue"
        assert report["result"]["verdict"] == "Undetermined"

    def test_usage_error_is_64(self, capsys):
        assert cli.run_cli(["no-such-command", "x.json"]) == 64
        assert cli.run_cli([]) == 64

    def test_format_error_is_65(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{\"n\": 2, \"rows\": [[1, 0]]}")
        assert cli.run_cli(["classify", str(p)]) == 65
        assert cli.run_cli(["classify", str(tmp_path / "missing.json")]) == 65

    def test_failing_structure_is_one(self, tmp_path, capsys):
        path = write_json(tmp_path / "zd.json", np.array([[1.0, 1.0], [1.0, 0.0]]))
        code, report = run(["structure", path], capsys)
        assert code == 1
        assert not report["result"]["necessary_conditions"]["passed"]


class TestCommands:
    def test_classify_identity(self, tmp_path, capsys):
        path = write_json(tmp_path / "eye.json", np.eye(3))
        code, report = run(["classify", path], capsys)
        assert code == 0
        flags = report["result"]["class_report"]["flags"]
        assert flags["stochastic"] and flags["m_matrix"]
        assert not flags["irreducible"]

    def test_expm_fixture(self, tmp_path, capsys):
        path = write_json(tmp_path / "gen.json", GEN_A)
        code, report = run(["expm", path], capsys)
        assert code == 0
        got = np.array(report["result"]["matrix"])
        assert np.allclose(
            got, [[0.135, 0.233, 0.632], [0, 0.368, 0.632], [0, 0, 1]], atol=5e-4
        )

    def test_logm_principal(self, tmp_path, capsys):
        path = write_json(tmp_path / "trans.json", TRANS_A)
        code, report = run(["logm", path], capsys)
        assert code == 0
        assert np.allclose(np.array(report["result"]["matrix"]), GEN_A, atol=1e-8)

    def test_logm_explicit_branch_not_real(self, tmp_path, capsys):
        path = write_json(tmp_path / "trans.json", TRANS_A)
        code, report = run(["logm", path, "--branch", "0,1,0"], capsys)
        assert code == 1
        assert report["result"]["error"] == "ComplexCandidate"

    def test_logm_branch_length_checked(self, tmp_path, capsys):
        path = write_json(tmp_path / "trans.json", TRANS_A)
        assert cli.run_cli(["logm", path, "--branch", "0,1"]) == 64

    def test_root_fixture(self, tmp_path, capsys):
        path = write_json(tmp_path / "trans.json", TRANS_A)
        code, report = run(["root", path, "--n", "2"], capsys)
        assert code == 0
        R = np.array(report["result"]["matrix"])
        assert np.allclose(R @ R, TRANS_A, atol=1e-8)

    def test_infdiv_verdicts(self, tmp_path, capsys):
        good = write_json(tmp_path / "a.json", np.array([[0.4, 0.4, 0.2], [0, 0.5, 0.5], [0, 0, 1.0]]))
        bad = write_json(tmp_path / "b.json", np.array([[0.4, 0.4, 0.2], [0, 0.5, 0.5], [0, 0, 0.5]]))
        code, report = run(["infdiv", good], capsys)
        assert code == 0
        assert report["result"]["divisibility"]["verdict"] == "StronglyInfDivisible"
        code, report = run(["infdiv", bad, "--roots", "2,3"], capsys)
        assert code == 1

    def test_embed_bound_flag(self, tmp_path, capsys):
        path = write_json(tmp_path / "p.json", np.array([[0.9, 0.1], [0.2, 0.8]]))
        code, report = run(["embed", path, "--bound", "paper"], capsys)
        assert code == 0
        assert report["result"]["embeddability"]["bound_used"]["mode"] == "paper_one_sided"


class TestReportContract:
    def test_csv_and_json_identical(self, tmp_path, capsys):
        M = TRANS_B @ TRANS_A
        jpath = write_json(tmp_path / "m.json", M)
        cpath = write_csv(tmp_path / "m.csv", M)
        code_j, report_j = run(["embed", jpath], capsys)
        code_c, report_c = run(["embed", cpath], capsys)
        assert code_j == code_c
        assert report_j["result"] == report_c["result"]

    def test_round_trip_reproduces_verdict(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", TRANS_A @ TRANS_B)
        code1, report1 = run(["embed", path, "--allow-perturb"], capsys)
        code2, report2 = run(list(report1["command"]), capsys)
        assert code1 == code2
        assert report1["result"] == report2["result"]
        assert report1["input"] == report2["input"]

    def test_report_is_self_contained(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", np.eye(2))
        _, report = run(["classify", path], capsys)
        assert report["input"]["rows"] == [[1.0, 0.0], [0.0, 1.0]]
        assert report["version"]
        assert report["duration_s"] >= 0
        assert report["tolerances"]["entry_tol"] == 1e-9

    def test_structure_payload_matches_golden(self, tmp_path, capsys, monkeypatch):
        # each line: exit code and report of `structure` on one input, the
        # file path replaced by "<file>" and duration_s dropped
        calls = count_calls(monkeypatch, structure, "frobenius_form")
        for k, line in enumerate(GOLDEN_STRUCTURE.read_text().splitlines()):
            golden = json.loads(line)
            path = write_json(tmp_path / f"m{k}.json", np.array(golden["report"]["input"]["rows"]))
            code, report = run(["structure", path], capsys)
            del report["duration_s"]
            report["command"][1] = "<file>"
            assert code == golden["exit_code"]
            assert json.dumps(report) == json.dumps(golden["report"])
            assert len(calls) == k + 1

    def test_decision_reports_match_golden(self, tmp_path, capsys):
        # each line: exit code and full report of one `embed` or `infdiv`
        # run, one input per decision path, the file path replaced by
        # "<file>" and duration_s dropped
        for k, line in enumerate(GOLDEN_DECISIONS.read_text().splitlines()):
            golden = json.loads(line)
            path = write_json(tmp_path / f"m{k}.json", np.array(golden["report"]["input"]["rows"]))
            argv = [path if arg == "<file>" else arg for arg in golden["report"]["command"]]
            code, report = run(argv, capsys)
            del report["duration_s"]
            report["command"][1] = "<file>"
            assert code == golden["exit_code"]
            assert json.dumps(report) == json.dumps(golden["report"])

    def test_tol_flag_echoed(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", np.eye(2))
        _, report = run(["classify", path, "--tol", "1e-6"], capsys)
        assert report["tolerances"]["entry_tol"] == 1e-6

    def test_tol_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.TOL_ENV_VAR, "1e-5")
        path = write_json(tmp_path / "m.json", np.eye(2))
        _, report = run(["classify", path], capsys)
        assert report["tolerances"]["entry_tol"] == 1e-5
        # an explicit flag wins over the environment
        _, report = run(["classify", path, "--tol", "1e-4"], capsys)
        assert report["tolerances"]["entry_tol"] == 1e-4
