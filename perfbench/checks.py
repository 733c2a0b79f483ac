"""Independent checks of the library's verdicts.

Nothing here calls ``embedlab``: a positive witness is re-verified with
``scipy.linalg.expm`` and plain numpy, and a verdict is compared with the
input's truth label.
"""

import numpy as np
import scipy.linalg

POSITIVE = {"Embeddable", "StronglyInfDivisible"}
NEGATIVE = {"NotEmbeddable", "NotStronglyInfDivisible"}
UNDETERMINED = "Undetermined"

# Looser than the library's own slacks (entry 1e-9, reconstruction 1e-8), so
# only a witness that is wrong, not one at the edge of a tolerance, fails.
ENTRY_TOL = 1e-8
RECON_TOL = 1e-6

# Outcomes of `judge`; the last three count as failed operations.
OK, UNDECIDED, ERROR, WRONG_VERDICT, BAD_WITNESS = "ok", "undetermined", "error", "wrong_verdict", "bad_witness"
FAILURES = (ERROR, WRONG_VERDICT, BAD_WITNESS)


def _relative_residual(approx, target) -> float:
    scale = np.linalg.norm(target)
    return float(np.linalg.norm(approx - target) / (scale if scale > 0 else 1.0))


def _offdiag(M):
    return M[~np.eye(M.shape[0], dtype=bool)]


def witness_ok(kind: str, matrix, witness) -> bool:
    """Embeddability: ``witness`` is an intensity matrix G with expm(G) equal
    to ``matrix``.  Divisibility: ``witness`` is a Z-matrix Q with expm(-Q)
    equal to ``matrix``."""
    if witness is None:
        return False
    W = np.asarray(witness, dtype=float)
    if W.shape != matrix.shape or not np.all(np.isfinite(W)):
        return False
    n = W.shape[0]
    slack = ENTRY_TOL * (1.0 + float(np.max(np.abs(W))))
    off = _offdiag(W)
    if kind == "embed":
        if off.size and off.min() < -slack:
            return False
        if np.max(np.abs(W.sum(axis=1))) > n * slack:
            return False
        return _relative_residual(scipy.linalg.expm(W), matrix) <= RECON_TOL
    if off.size and off.max() > slack:
        return False
    return _relative_residual(scipy.linalg.expm(-W), matrix) <= RECON_TOL


def judge(case, verdict: str, witness) -> str:
    """Outcome of one decision against the case's truth label."""
    if verdict in POSITIVE:
        if case.truth == "negative":
            return WRONG_VERDICT
        return OK if witness_ok(case.kind, case.matrix, witness) else BAD_WITNESS
    if verdict in NEGATIVE:
        return WRONG_VERDICT if case.truth == "positive" else OK
    if verdict == UNDETERMINED:
        return UNDECIDED
    return ERROR


def verdict_class(verdict: str) -> str:
    if verdict in POSITIVE:
        return "positive"
    if verdict in NEGATIVE:
        return "negative"
    return "undetermined" if verdict == UNDETERMINED else "error"


DECISION_PATHS = ("determinant", "necessary_condition", "search_hit", "search_exhausted", "repeated_spectrum", "undetermined")


def decision_path(report) -> str:
    """Which rule produced a report's verdict, read from its fields."""
    if report.verdict == UNDETERMINED:
        return "undetermined"
    reasons = [r.get("reason") for r in report.failed_conditions]
    if reasons[:1] and reasons[0] in ("determinant_negative", "determinant_not_positive"):
        return "determinant"
    if reasons[:1] == ["necessary_condition"]:
        return "necessary_condition"
    if report.bound_used is None:
        return "repeated_spectrum"
    return "search_hit" if report.verdict in POSITIVE else "search_exhausted"
