import ast
import re
import types
from pathlib import Path

import embedlab
from embedlab import numkit

ROOT = Path(__file__).resolve().parent.parent


def test_public_names():
    # removing or adding a public name is a deliberate edit of this list
    names = sorted(
        name
        for name, value in vars(embedlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == [
        "BOUND_MODES",
        "BranchBound",
        "ClassReport",
        "DEFAULT_TOL",
        "DivisibilityReport",
        "EMBEDDABLE",
        "Eigendecomposition",
        "EmbeddabilityReport",
        "EmbedlabError",
        "FLAG_NAMES",
        "IllConditioned",
        "InverseMRoot",
        "NOT_EMBEDDABLE",
        "NOT_STRONGLY_INF_DIVISIBLE",
        "NecessaryConditionReport",
        "NegativeRealEigenvalue",
        "NotAValidPair",
        "NotNonnegative",
        "NotStochastic",
        "NotZMatrix",
        "OffDiagonalZeros",
        "Overflow",
        "RepeatedEigenvalues",
        "STRONGLY_INF_DIVISIBLE",
        "SearchExhausted",
        "SingularDeterminant",
        "SingularMatrix",
        "StructureDecomposition",
        "ToleranceConfig",
        "UNDETERMINED",
        "as_square_matrix",
        "branch_bound",
        "check_embeddable",
        "check_strong_inf_divisible",
        "classify_matrix",
        "eig",
        "expm",
        "frobenius_form",
        "im_root_approx",
        "inverse_m_power_form",
        "is_intensity_matrix",
        "is_irreducible",
        "is_nonnegative",
        "is_stochastic",
        "is_z_matrix",
        "logm_branch",
        "necessary_conditions",
        "nonneg_eigvec_of_z",
        "primary_root",
        "principal_log",
        "zero_pattern_invariance",
    ]


def test_readme_lists_every_failure_reason():
    # the README's failure-record table names exactly the reasons the
    # library writes, each once
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Failure records\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `([a-z_]+)` \|", section, flags=re.M)
    source = "".join(path.read_text() for path in sorted((ROOT / "src" / "embedlab").glob("*.py")))
    emitted = set(re.findall(r'"reason": "([a-z_]+)"', source))
    assert len(listed) == len(set(listed)) == 16
    assert set(listed) == emitted


def test_tolerances_are_compared_only_in_the_threshold_helpers():
    # every read of a ToleranceConfig field in the library lies inside a
    # function listed in numkit._THRESHOLDS
    helpers = {(fn.__module__, fn.__qualname__) for fn in numkit._THRESHOLDS}
    fields = {"entry_tol", "recon_tol", "distinct_tol"}
    reads = []

    def walk(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Attribute) and child.attr in fields and isinstance(child.ctx, ast.Load):
                reads.append((module, scope, child.lineno))
            walk(child, module, inner)

    for path in sorted((ROOT / "src" / "embedlab").glob("*.py")):
        walk(ast.parse(path.read_text()), f"embedlab.{path.stem}", "")
    assert {(module, scope) for module, scope, _ in reads} == helpers
    assert [read for read in reads if read[:2] not in helpers] == []


def test_readme_tabulates_every_threshold_helper():
    # the README's threshold table has one row per helper of
    # numkit._THRESHOLDS, and its constants table names existing constants
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Thresholds\n", 1)[1].split("\n## ", 1)[0]
    # a constant's name is in capitals, a helper's is not
    helpers = re.findall(r"^\| `numkit\.(?!_[A-Z])([A-Za-z_.]+)` \|", section, flags=re.M)
    assert len(helpers) == len(set(helpers)) == len(numkit._THRESHOLDS)
    assert set(helpers) == {fn.__qualname__ for fn in numkit._THRESHOLDS}
    constants = re.findall(r"^\| `(numkit|embed|classify)\.(_[A-Z0-9_]+)` \|", section, flags=re.M)
    assert len(constants) == 9
    for module, name in constants:
        assert hasattr(getattr(embedlab, module), name), name


def test_lapack_is_called_only_through_the_numkit_kernels():
    # np.linalg's eig, eigvals, inv, solve and det cost more in their Python
    # wrappers than in LAPACK on a small matrix, so the library calls their
    # gufuncs through numkit's kernels, and only the kernels read them
    wrapped = {"eig", "eigvals", "inv", "solve", "det"}
    kernels = {"_lapack_eig", "_lapack_eigvals", "_lapack_inv", "_lapack_solve", "_lapack_det"}
    wrapper_calls, gufunc_reads = [], []

    def walk(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) and not scope else scope
            value = getattr(child, "value", None)
            if isinstance(child, ast.Attribute) and child.attr in wrapped and (
                isinstance(value, ast.Name) and value.id == "linalg"
                or isinstance(value, ast.Attribute) and value.attr == "linalg"
            ):
                wrapper_calls.append((module, child.lineno))
            if isinstance(child, ast.ImportFrom) and child.module == "numpy.linalg":
                wrapper_calls.extend((module, child.lineno) for alias in child.names if alias.name in wrapped)
            if isinstance(child, ast.Name) and child.id == "_umath_linalg" and isinstance(child.ctx, ast.Load):
                gufunc_reads.append((module, inner))
            walk(child, module, inner)

    for path in sorted((ROOT / "src" / "embedlab").glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    assert wrapper_calls == []
    assert {scope for module, scope in gufunc_reads if module == "numkit"} == kernels
    assert {module for module, _ in gufunc_reads} == {"numkit"}


def test_overflow_policy_lives_in_numkit():
    # numkit._frob is finite past an overflowing sum of squares, so no other
    # code takes a Frobenius norm or silences an overflow: errstate is opened
    # only where LAPACK, expm and the condition number need it
    allowed = {"_lapack_eig", "_lapack_eigvals", "_lapack_inv", "_lapack_solve", "_lapack_det", "expm", "_condition"}
    errstates, fro_norms = [], []

    def walk(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) and not scope else scope
            if isinstance(child, ast.Attribute) and child.attr == "errstate":
                errstates.append((module, inner))
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and child.func.attr == "norm" and any(
                isinstance(arg, ast.Constant) and arg.value == "fro"
                for arg in [*child.args, *(keyword.value for keyword in child.keywords)]
            ):
                fro_norms.append(module)
            walk(child, module, inner)

    for path in sorted((ROOT / "src" / "embedlab").glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    assert set(errstates) == {("numkit", name) for name in allowed}
    assert set(fro_norms) == {"numkit"}
