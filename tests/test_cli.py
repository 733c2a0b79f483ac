import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from embedlab import cli, embed, numkit, structure
from helpers import GEN_A, GEN_B, count_calls, scaled_dense_exp_z

SRC = Path(__file__).resolve().parents[1] / "src"
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

    def test_singular_square_root_iterate_is_two(self, tmp_path, capsys):
        # past the zero-eigenvalue gate, the principal log's singular
        # iterate is numerical trouble, not a negative verdict
        path = write_json(tmp_path / "big.json", 1e300 * np.ones((2, 2)))
        code, report = run(["root", path, "--n", "2"], capsys)
        assert code == 2
        assert report["result"]["error"] == "SingularMatrix"
        assert report["result"]["verdict"] == "Undetermined"

    def test_eigenvalue_near_zero_is_a_report(self, tmp_path, capsys):
        # an eigenvalue within entry_tol of zero past the determinant gate
        # ends the decision Undetermined, with a report and no error payload
        path = write_json(tmp_path / "near.json", 1e4 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]))
        code, report = run(["infdiv", path], capsys)
        assert code == 2
        assert "error" not in report["result"]
        decision = report["result"]["divisibility"]
        assert decision["verdict"] == "Undetermined"
        assert [r["reason"] for r in decision["failed_conditions"]] == ["eigenvalue_near_zero"]

    def test_usage_error_is_64(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", TRANS_A)
        for argv in (
            ["no-such-command", "x.json"],
            [],
            ["infdiv", path, "--roots", "0"],
            ["infdiv", path, "--roots", "-2"],
            ["root", path, "--n", "0"],
            ["root", path, "--n", "x"],
            ["logm", path, "--branch", "1,x"],
            ["embed", path, "--tol", "abc"],
            ["embed", path, "--tol", "0"],
            ["embed", path, "--tol", "-1"],
            ["embed", path, "--tol", "inf"],
            ["embed", path, "--allow-perturb"],
            ["infdiv", path, "--allow-perturb"],
            ["embed", path, "--bound", "paper"],
            ["embed", path, "--bound", "israel"],
        ):
            assert cli.run_cli(argv) == 64, argv
            captured = capsys.readouterr()
            assert captured.err.startswith("usage error: ") and not captured.out, argv

    def test_parser_is_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path / "m.json", TRANS_A)
        builds = count_calls(monkeypatch, cli._Parser, "add_subparsers")
        for _ in range(10):
            assert cli.run_cli(["embed", path]) == 0
        capsys.readouterr()
        assert len(builds) <= 1

    def test_module_entry_point_in_a_fresh_process(self, tmp_path):
        # every other test shares this process and its parser; this one
        # runs `python -m embedlab.cli` as a user would
        path = write_json(tmp_path / "m.json", TRANS_A)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

        def main(*args):
            argv = [sys.executable, "-m", "embedlab.cli", *args]
            return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)

        done = main("embed", path)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["result"]["embeddability"]["verdict"] == "Embeddable"
        done = main("infdiv", path, "--roots", "0")
        assert done.returncode == 64
        assert done.stderr.startswith("usage error: ") and not done.stdout

    def test_importing_the_package_loads_no_scipy(self):
        code = "import sys, embedlab, embedlab.cli; sys.exit('scipy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr or "scipy was imported"

    def test_format_error_is_65(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{\"n\": 2, \"rows\": [[1, 0]]}")
        assert cli.run_cli(["classify", str(p)]) == 65
        assert cli.run_cli(["classify", str(tmp_path / "missing.json")]) == 65

    @pytest.mark.parametrize("n", [2.7, 2.0, True, "2"], ids=["fraction", "float", "bool", "string"])
    def test_declared_n_must_be_an_integer(self, n, tmp_path, capsys):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"n": n, "rows": [[0.9, 0.1], [0.2, 0.8]]}))
        assert cli.run_cli(["classify", str(p)]) == 65
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "rows", [[["1", "0"], ["0", "1"]], [[True, False], [False, True]], [[10**400, 0], [0, 1]]],
        ids=["strings", "booleans", "beyond_float"],
    )
    def test_entries_must_be_numbers(self, rows, tmp_path, capsys):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"rows": rows}))
        assert cli.run_cli(["classify", str(p)]) == 65
        assert capsys.readouterr().out == ""

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

    def test_expm_matches_scipy(self, tmp_path, capsys):
        rng = np.random.default_rng(41)
        dense = rng.standard_normal((5, 5))
        for k, A in enumerate([GEN_A, GEN_B, dense, 20.0 * dense]):
            code, report = run(["expm", write_json(tmp_path / f"a{k}.json", A)], capsys)
            assert code == 0
            got = np.array(report["result"]["matrix"])
            assert numkit.relative_residual(got, scipy.linalg.expm(A)) <= 1e-13

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

    def test_logm_negative_branch_offsets_after_equals(self, tmp_path, capsys):
        R = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
        path = write_json(tmp_path / "cyclic.json", numkit.expm(R))
        code, report = run(["logm", path, "--branch=0,-1,1"], capsys)
        assert code == 0
        assert report["result"]["branch"] == [0, -1, 1]

    def test_logm_repeated_conjugate_pair_is_real(self, tmp_path, capsys):
        # blockdiag(M, M) repeats a conjugate pair, which the canonical order
        # does not keep adjacent: (a - bi, a - bi, a + bi, a + bi)
        G = np.array([[-1.0, 0.8], [-0.8, -1.0]])
        A = scipy.linalg.block_diag(numkit.expm(G), numkit.expm(G))
        path = write_json(tmp_path / "pairs.json", A)
        code, report = run(["logm", path], capsys)
        assert code == 0
        # G's eigenvalues -1 +- 0.8i lie in the principal strip
        assert np.allclose(report["result"]["matrix"], scipy.linalg.block_diag(G, G), atol=1e-12)
        code, report = run(["logm", path, "--branch=1,1,-1,-1"], capsys)
        assert code == 0
        assert np.allclose(numkit.expm(np.array(report["result"]["matrix"])), A, atol=1e-12)

    def test_logm_negative_eigenvalue_is_complex(self, tmp_path, capsys):
        # eigenvalues 1 and -0.6: no offset makes the logarithm real
        path = write_json(tmp_path / "flip.json", np.array([[0.2, 0.8], [0.8, 0.2]]))
        code, report = run(["logm", path], capsys)
        assert code == 1
        assert report["result"]["error"] == "ComplexCandidate"

    def test_logm_pair_inside_one_cluster_is_real(self, tmp_path, capsys):
        # the pair e^-1 (cos 1e-9 +- i sin 1e-9) is closer than distinct_tol,
        # so it is one cluster with one offset; principal, it is real
        G = np.array([[-1.0, 1e-9], [-1e-9, -1.0]])
        code, report = run(["logm", write_json(tmp_path / "near.json", numkit.expm(G))], capsys)
        assert code == 0
        assert np.allclose(report["result"]["matrix"], G, atol=1e-12)

    def test_logm_reality_is_culvers_criterion(self, tmp_path, capsys):
        # logm prints a matrix exactly for the selections whose branch
        # windows keep a real block in embed._real_blocks, the rule the
        # decisions enumerate by
        rng = np.random.default_rng(2026)
        path = str(tmp_path / "a.json")
        outcomes = set()
        for n in [2, 3, 4, 5, 6] * 12:
            A = rng.uniform(0.05, 1.0, (n, n))
            A /= A.sum(axis=1, keepdims=True)
            E = numkit.eig(A)
            offsets = [int(k) for k in rng.integers(-1, 2, n)]
            if rng.random() < 0.5:
                # conjugate offsets on each pair, 0 on each real eigenvalue
                offsets = [0] * n
                for j in np.flatnonzero(E.eigenvalues.imag < 0).tolist():
                    offsets[j], offsets[j + 1] = offsets[j] + 1, offsets[j + 1] - 1
            culver = all(embed._real_blocks(E, [range(k, k + 1) for k in offsets]))
            code = cli.run_cli(["logm", write_json(Path(path), A), "--branch=" + ",".join(map(str, offsets))])
            capsys.readouterr()
            assert code == (0 if culver else 1)
            outcomes.add(code)
        assert outcomes == {0, 1}

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

    def test_overflowing_determinant_is_two(self, tmp_path, capsys):
        path = write_json(tmp_path / "big.json", scaled_dense_exp_z(1e45))
        code, report = run(["infdiv", path], capsys)
        assert code == 2
        assert report["result"]["error"] == "Overflow"
        assert report["result"]["verdict"] == "Undetermined"

    def test_summary_line_on_a_terminal(self, tmp_path, monkeypatch):
        class Terminal(io.StringIO):
            def isatty(self):
                return True

        chain = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        runs = [
            (["embed", TRANS_A @ TRANS_B], "verdict: Embeddable"),
            (["infdiv", TRANS_A], "verdict: StronglyInfDivisible"),
            (["structure", chain], "necessary conditions: fail"),
            (["logm", TRANS_A, "--branch", "0,1,0"], "error: ComplexCandidate"),
            (["root", np.array([[0.0, 1.0], [1.0, 0.0]]), "--n", "2"], "error: NegativeRealEigenvalue"),
            (["expm", GEN_A], "done (exit 0)"),
        ]
        for k, (argv, summary) in enumerate(runs):
            terminal = Terminal()
            monkeypatch.setattr(sys, "stderr", terminal)
            path = write_json(tmp_path / f"m{k}.json", argv[1])
            cli.run_cli([argv[0], path] + argv[2:])
            assert terminal.getvalue() == summary + "\n"


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
        code1, report1 = run(["embed", path], capsys)
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

    @pytest.mark.parametrize(
        "argv",
        [["classify"], ["structure"], ["expm"], ["logm"], ["logm", "--branch", "0,1,0"], ["root", "--n", "2"],
         ["embed"], ["infdiv"]],
    )
    def test_each_report_is_one_json_line(self, argv, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", TRANS_A)
        cli.run_cli([argv[0], path, *argv[1:]])
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1
        assert json.loads(out)["command"] == [argv[0], path, *argv[1:]]

    def test_appended_reports_are_json_lines(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", TRANS_A)
        log = tmp_path / "reports.jsonl"
        for command in ("embed", "infdiv"):
            cli.run_cli([command, path])
            with log.open("a") as fh:
                fh.write(capsys.readouterr().out)
        reports = [json.loads(line) for line in log.read_text().splitlines()]
        assert [report["command"][0] for report in reports] == ["embed", "infdiv"]
        assert reports[0]["result"]["embeddability"]["verdict"] == "Embeddable"
        assert reports[1]["result"]["divisibility"]["verdict"] == "StronglyInfDivisible"

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

    def test_golden_roots_are_the_exponentials_of_the_witness(self):
        # the sample roots come from the witness's eigenbasis, so their last
        # bits differ from expm's; each stays within 1e-12 relative of it
        def reports(report):
            yield report
            for sub in report["recursion"]:
                yield from reports(sub)

        seen = 0
        for line in GOLDEN_DECISIONS.read_text().splitlines():
            result = json.loads(line)["report"]["result"]
            for report in reports(result.get("divisibility", {"recursion": []})):
                for order, root in report.get("roots_demonstrated", []):
                    expected = scipy.linalg.expm(-np.array(report["z_matrix"]) / order)
                    assert np.linalg.norm(np.array(root) - expected) <= 1e-12 * np.linalg.norm(expected)
                    seen += 1
        assert seen == 27

    def test_json_default_encodes_numpy_and_refuses_the_rest(self):
        for value, expected in ((np.float64(1.5), 1.5), (np.int64(3), 3), (np.bool_(True), True)):
            got = cli._json_default(value)
            assert got == expected and type(got) is type(expected)
        # an unknown object fails, as json's own default does, and is never
        # written as its repr: a complex entry would read "(1+2j)"
        with pytest.raises(TypeError, match="complex"):
            cli._json_default(1 + 2j)
        with pytest.raises(TypeError):
            json.dumps({"matrix": np.array([[1 + 2j]])}, default=cli._json_default)

    def test_main_exits_with_the_code(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path / "m.json", TRANS_A)
        monkeypatch.setattr(sys, "argv", ["embedlab", "embed", path])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 0
        assert json.loads(capsys.readouterr().out)["result"]["embeddability"]["verdict"] == "Embeddable"

    def test_tol_flag_echoed(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", np.eye(2))
        _, report = run(["classify", path, "--tol", "1e-6"], capsys)
        assert report["tolerances"]["entry_tol"] == 1e-6

    def test_no_override_uses_the_library_default(self):
        args = cli._build_parser().parse_args(["classify", "m.json"])
        assert cli._tolerances(args) is numkit.DEFAULT_TOL
