import re
import types
from pathlib import Path

import embedlab

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
        "BranchSelection",
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
        "NotMonomial",
        "NotNonnegative",
        "NotStochastic",
        "NotZMatrix",
        "OffDiagonalZeros",
        "OutOfRange",
        "Overflow",
        "RepeatedEigenvalues",
        "STRONGLY_INF_DIVISIBLE",
        "SearchExhausted",
        "SingularDeterminant",
        "SingularMatrix",
        "StructureDecomposition",
        "ToleranceConfig",
        "UNDETERMINED",
        "as_real",
        "as_square_matrix",
        "branch_bound",
        "check_embeddable",
        "check_strong_inf_divisible",
        "classify_matrix",
        "eig",
        "enumerate_generators",
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
        "monomial_conjugate",
        "necessary_conditions",
        "nonneg_eigvec_of_z",
        "primary_root",
        "principal_log",
        "trailing_submatrix",
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
