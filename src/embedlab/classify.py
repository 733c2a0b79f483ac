"""Tolerance-aware membership tests for the matrix classes the decision
pipeline relies on.  Nonnegative, stochastic, Z, intensity and irreducible
matrices have their own predicates (``is_nonnegative`` and so on); strictly
positive, positive-diagonal, M, inverse-M and nonsingular are only flags
of ``classify_matrix`` (``FLAG_NAMES`` lists them all).
"""

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from . import numkit
from .errors import NotZMatrix
from .numkit import DEFAULT_TOL, ToleranceConfig, as_square_matrix, structural_pattern
from .numkit import _nonnegative, _positive, _row_sums_within, _singular

__all__ = [
    "FLAG_NAMES",
    "ClassReport",
    "classify_matrix",
    "nonneg_eigvec_of_z",
    "is_nonnegative",
    "is_z_matrix",
    "is_intensity_matrix",
    "is_stochastic",
    "is_irreducible",
]

FLAG_NAMES = (
    "nonnegative",
    "strictly_positive",
    "positive_diagonal",
    "stochastic",
    "z_matrix",
    "intensity_matrix",
    "m_matrix",
    "inverse_m_matrix",
    "irreducible",
    "nonsingular",
)


@functools.cache
def _offdiag_mask(n: int) -> np.ndarray:
    """The read-only boolean mask of the off-diagonal entries of an n x n
    matrix, built once per n."""
    mask = ~np.eye(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def _entry(A: np.ndarray, k) -> Tuple[int, int, float]:
    """The witness ``(i, j, A_ij)`` of the entry at flat index k of A."""
    i, j = divmod(int(k), A.shape[1])
    return (i, j, float(A[i, j]))


def _negative_entry(A: np.ndarray, cfg: ToleranceConfig):
    """The least entry of A when it is below -entry_tol, else None."""
    return None if _nonnegative(A.min(), cfg) else _entry(A, A.argmin())


def _row_sum_off(A: np.ndarray, target: float, cfg: ToleranceConfig):
    """``("row_sum", i, s)`` for the row sum s of A farthest from target when
    it is beyond n*entry_tol of it, else None."""
    sums = A.sum(axis=1)
    dev = np.abs(sums - target)
    if _row_sums_within(dev.max(), A.shape[0], cfg):
        return None
    i = int(dev.argmax())
    return ("row_sum", i, float(sums[i]))


def _z_violation(A: np.ndarray, cfg: ToleranceConfig):
    """The largest off-diagonal entry of A when it is above entry_tol, else
    None."""
    mask = _offdiag_mask(A.shape[0])
    off = A[mask]
    if off.size == 0 or _nonnegative(-off.max(), cfg):
        return None
    return _entry(A, np.flatnonzero(mask)[off.argmax()])


def _intensity_violation(A: np.ndarray, cfg: ToleranceConfig):
    """The least off-diagonal entry of A when it is below -entry_tol, else
    the row sum farthest from 0 when it is beyond n*entry_tol, else None."""
    mask = _offdiag_mask(A.shape[0])
    off = A[mask]
    if off.size and not _nonnegative(off.min(), cfg):
        return _entry(A, np.flatnonzero(mask)[off.argmin()])
    return _row_sum_off(A, 0.0, cfg)


def _stochastic_violation(A: np.ndarray, cfg: ToleranceConfig):
    """A negative entry of A (``_negative_entry``), else the row sum farthest
    from 1 when it is beyond n*entry_tol, else None."""
    return _negative_entry(A, cfg) or _row_sum_off(A, 1.0, cfg)


def is_nonnegative(A, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    return _negative_entry(np.asanyarray(A), cfg) is None


def is_z_matrix(A, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Off-diagonal entries at most ``entry_tol``."""
    return _z_violation(np.asarray(A), cfg) is None


def is_intensity_matrix(A, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Off-diagonal entries >= -entry_tol and row sums within n*entry_tol of 0."""
    return _intensity_violation(np.asarray(A), cfg) is None


def is_stochastic(A, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Nonnegative with row sums within n*entry_tol of 1."""
    return _stochastic_violation(np.asarray(A), cfg) is None


def strong_components(pattern: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Strongly connected components of the digraph with an edge i -> j
    wherever ``pattern[i, j]``, in topological order.

    Dense: the reachability closure of ``pattern | I`` by ceil(log2(n - 1))
    boolean squarings; mutually reachable states share a component.
    ``labels[i]`` numbers state i's component by the component's smallest
    state, from 0.  ``order`` lists the labels with every edge pointing
    forward: each step takes, of the components no other remaining one
    reaches, the one with the smallest state.
    """
    n = pattern.shape[0]
    reach = pattern | ~_offdiag_mask(n)
    for _ in range(max(n - 2, 0).bit_length()):
        reach = reach @ reach
    first = (reach & reach.T).argmax(axis=1)  # smallest state of each state's component
    roots = (first == np.arange(n)).nonzero()[0]
    labels = roots.searchsorted(first)
    # blocked[c] counts the remaining components other than c that reach c
    reaches = (reach[roots][:, roots] & _offdiag_mask(len(roots))).astype(int)
    blocked = reaches.sum(axis=0)
    order = []
    for _ in range(len(roots)):
        c = int(blocked.argmin())
        order.append(c)
        blocked -= reaches[c]
        blocked[c] = n  # taken: above every count, so never picked again
    return labels, order


def _reducibility(A, cfg: ToleranceConfig):
    """``("strongly_connected_components", ncomp, labels)`` for the strong
    components of A's zero pattern (``strong_components``) when there is
    more than one, else None."""
    labels, order = strong_components(structural_pattern(A, cfg))
    return None if len(order) == 1 else ("strongly_connected_components", len(order), labels.tolist())


def is_irreducible(A, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Strong connectivity of the zero-pattern digraph (exact, no slack beyond
    the structural-zero threshold).  1x1 matrices are irreducible."""
    return _reducibility(A, cfg) is None


@dataclass
class ClassReport:
    """Outcome of :func:`classify_matrix`.

    ``flags`` maps each name in FLAG_NAMES to a boolean.  Every False flag
    carries a witness describing the violation: an entry ``(i, j, A_ij)``,
    a row sum ``("row_sum", i, s)``, or a tagged one (the README's table
    lists them); the M and inverse-M flags additionally carry the computed
    inverse as a certificate when True.
    """

    flags: Dict[str, bool]
    witnesses: Dict[str, object] = field(default_factory=dict)
    det: float = 0.0
    spectral_radius: float = 0.0


def _tagged(tag: str, violation):
    """``(tag, violation)``, or None when there is no violation."""
    return None if violation is None else (tag, violation)


def classify_matrix(A, cfg: ToleranceConfig = DEFAULT_TOL) -> ClassReport:
    """Evaluate every class flag with ``entry_tol`` slack.

    The M-matrix test is the two-condition one: Z-pattern plus entrywise
    nonnegative inverse.  Inverse-M inverts ``A`` and tests the inverse for
    M-matrix membership.  Irreducibility is decided exactly on the zero
    pattern; its witness ``("strongly_connected_components", ncomp, labels)``
    numbers components by their smallest state, from 0, so it is
    deterministic.  A matrix is singular when sigma_min <= entry_tol *
    sigma_max; a singular one gets its inverse-dependent flags set False with
    witness ``"singular"`` and the ``nonsingular`` witness ``("sigma_ratio",
    sigma_min / sigma_max)``, the ratio the decision read: finite, at most
    entry_tol, and 0.0 when sigma_min is zero.
    Each flag and its witness come from one search for the class's
    violation, the one its predicate (``is_stochastic`` and so on) makes.
    """
    A = as_square_matrix(A)
    det = float(numkit._lapack_det(A))
    rho = float(np.max(np.abs(numkit._lapack_eigvals(A))))
    negative, z = _negative_entry(A, cfg), _z_violation(A, cfg)
    least = negative or _entry(A, A.argmin())
    least_diagonal = _entry(A, A.diagonal().argmin() * (A.shape[0] + 1))
    # singular relative to its scale, sigma_min <= entry_tol * sigma_max, so
    # the flags do not change when A is multiplied by a positive constant
    Ainv = None if _singular(A, cfg) else numkit._lapack_inv(A)
    m = inverse_m = "singular"
    if Ainv is not None:
        m = _tagged("not_z_matrix", z) or _tagged("inverse_entry_negative", _negative_entry(Ainv, cfg))
        # the inverse of A^-1 is A itself, so inverse-M needs only the
        # Z-pattern of A^-1 on top of nonnegativity of A
        inverse_m = _tagged("not_nonnegative", negative) or _tagged("inverse_offdiag_positive", _z_violation(Ainv, cfg))
    found = {
        "nonnegative": negative,
        "strictly_positive": None if _positive(least[2], cfg) else least,
        "positive_diagonal": None if _positive(least_diagonal[2], cfg) else least_diagonal,
        "stochastic": _stochastic_violation(A, cfg),
        "z_matrix": z,
        "intensity_matrix": _intensity_violation(A, cfg),
        "nonsingular": ("sigma_ratio", 1.0 / numkit._condition(A)) if Ainv is None else None,
        "m_matrix": m,
        "inverse_m_matrix": inverse_m,
        "irreducible": _reducibility(A, cfg),
    }
    flags = {name: v is None for name, v in found.items()}
    # a True M or inverse-M flag carries the inverse as its certificate
    found.update((name, Ainv) for name in ("m_matrix", "inverse_m_matrix") if flags[name])
    return ClassReport(flags, {name: v for name, v in found.items() if v is not None}, det, rho)


def nonneg_eigvec_of_z(Q, cfg: ToleranceConfig = DEFAULT_TOL) -> Tuple[np.ndarray, float]:
    """Nonnegative eigenvector of a Z-matrix with its (real) eigenvalue.

    Built exactly from the Frobenius form of the nonnegative
    ``M = theta*I - Q``, ``theta = max(diag(Q)) + ||Q||_inf + 1``: M is block
    upper triangular over its strong components in topological order, and
    its Perron root rho is the largest of theirs.  Block k is the first whose
    Perron root r clusters with rho (``numkit._eigenvalue_clusters``), so
    every earlier block's is below r.  The vector holds block k's Perron
    vector, each earlier block p the back substitution (r I - M_pp)^-1 M_p. v,
    which is nonnegative as r I - M_pp is a nonsingular M-matrix, and zeros
    elsewhere; its eigenvalue is ``theta - r``.  The vector is normalized to
    unit 1-norm with the rounding below zero clipped.
    """
    Q = as_square_matrix(Q)
    violation = _z_violation(Q, cfg)
    if violation is not None:
        raise NotZMatrix(f"off-diagonal entry (i, j, value) = {violation} above entry_tol")
    n = Q.shape[0]
    theta = float(np.max(np.diag(Q))) + float(np.linalg.norm(Q, np.inf)) + 1.0
    M = theta * np.eye(n) - Q
    np.clip(M, 0.0, None, out=M)  # tolerance slack may leave tiny negatives
    labels, order = strong_components(M > 0)
    blocks = [np.flatnonzero(labels == c) for c in order]
    spectra = [numkit._lapack_eig(M[np.ix_(b, b)]) for b in blocks]
    radii = [float(lam.real.max()) for lam, _ in spectra]
    # the cluster of rho, which leads the list, holds block k first
    k = numkit._eigenvalue_clusters([max(radii), *radii], cfg)[0][1] - 1
    lam, vecs = spectra[k]
    j = int(lam.real.argmax())
    r = float(lam[j].real)
    v = np.zeros(n)
    v[blocks[k]] = vecs[:, j].real
    for b in reversed(blocks[:k]):
        v[b] = numkit._lapack_solve(r * np.eye(len(b)) - M[np.ix_(b, b)], (M[b] @ v)[:, None])[:, 0]
    v = np.clip(v / v.sum(), 0.0, None)
    return v / v.sum(), theta - r
