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


def is_nonnegative(A, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    return bool(_nonnegative(np.asanyarray(A).min(), cfg))


def is_z_matrix(A, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Off-diagonal entries at most ``entry_tol``."""
    A = np.asarray(A)
    off = A[_offdiag_mask(A.shape[0])]
    return bool(off.size == 0 or _nonnegative(-np.max(off), cfg))


def is_intensity_matrix(A, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Off-diagonal entries >= -entry_tol and row sums within n*entry_tol of 0."""
    A = np.asarray(A)
    n = A.shape[0]
    off = A[_offdiag_mask(n)]
    if off.size and not _nonnegative(np.min(off), cfg):
        return False
    return bool(_row_sums_within(np.max(np.abs(A.sum(axis=1))), n, cfg))


def is_stochastic(A, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Nonnegative with row sums within n*entry_tol of 1."""
    A = np.asarray(A)
    if not is_nonnegative(A, cfg):
        return False
    return bool(_row_sums_within(np.max(np.abs(A.sum(axis=1) - 1.0)), A.shape[0], cfg))


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


def is_irreducible(A, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Strong connectivity of the zero-pattern digraph (exact, no slack beyond
    the structural-zero threshold).  1x1 matrices are irreducible."""
    _, order = strong_components(structural_pattern(A, cfg))
    return len(order) == 1


@dataclass
class ClassReport:
    """Outcome of :func:`classify_matrix`.

    ``flags`` maps each name in FLAG_NAMES to a boolean.  Every False flag
    carries a witness describing the violation; the M and inverse-M flags
    additionally carry the computed inverse as a certificate when True.
    """

    flags: Dict[str, bool]
    witnesses: Dict[str, object] = field(default_factory=dict)
    det: float = 0.0
    spectral_radius: float = 0.0


def _first_violation(A, mask, predicate):
    idx = np.argwhere(mask & ~predicate)
    if idx.size == 0:
        return None
    i, j = idx[0]
    return (int(i), int(j), float(A[i, j]))


def classify_matrix(A, cfg: ToleranceConfig = DEFAULT_TOL) -> ClassReport:
    """Evaluate every class flag with ``entry_tol`` slack.

    The M-matrix test is the two-condition one: Z-pattern plus entrywise
    nonnegative inverse.  Inverse-M inverts ``A`` and tests the inverse for
    M-matrix membership.  Irreducibility is decided exactly on the zero
    pattern; its witness ``("strongly_connected_components", ncomp, labels)``
    numbers components by their smallest state, from 0, so it is
    deterministic.  A matrix is singular when sigma_min <= entry_tol *
    sigma_max; a singular one gets its inverse-dependent flags set False with
    witness ``"singular"`` and the ``nonsingular`` witness ``("det", det)``.
    """
    A = as_square_matrix(A)
    n = A.shape[0]
    off = _offdiag_mask(n)
    flags: Dict[str, bool] = {}
    wit: Dict[str, object] = {}

    det = float(numkit._lapack_det(A))
    eigvals = numkit._lapack_eigvals(A)
    rho = float(np.max(np.abs(eigvals)))

    flags["nonnegative"] = is_nonnegative(A, cfg)
    if not flags["nonnegative"]:
        i, j = np.unravel_index(int(np.argmin(A)), A.shape)
        wit["nonnegative"] = (int(i), int(j), float(A[i, j]))

    flags["strictly_positive"] = bool(_positive(np.min(A), cfg))
    if not flags["strictly_positive"]:
        i, j = np.unravel_index(int(np.argmin(A)), A.shape)
        wit["strictly_positive"] = (int(i), int(j), float(A[i, j]))

    diag = np.diag(A)
    flags["positive_diagonal"] = bool(_positive(np.min(diag), cfg))
    if not flags["positive_diagonal"]:
        i = int(np.argmin(diag))
        wit["positive_diagonal"] = (i, i, float(diag[i]))

    row_sums = A.sum(axis=1)
    flags["stochastic"] = is_stochastic(A, cfg)
    if not flags["stochastic"]:
        i = int(np.argmax(np.abs(row_sums - 1.0)))
        wit["stochastic"] = ("row_sum", i, float(row_sums[i]))

    flags["z_matrix"] = is_z_matrix(A, cfg)
    if not flags["z_matrix"]:
        masked = np.where(off, A, -np.inf)
        i, j = np.unravel_index(int(np.argmax(masked)), A.shape)
        wit["z_matrix"] = (int(i), int(j), float(A[i, j]))

    flags["intensity_matrix"] = is_intensity_matrix(A, cfg)
    if not flags["intensity_matrix"]:
        masked = np.where(off, A, np.inf)
        i, j = np.unravel_index(int(np.argmin(masked)), A.shape)
        if n > 1 and not _nonnegative(A[i, j], cfg):
            wit["intensity_matrix"] = (int(i), int(j), float(A[i, j]))
        else:
            i = int(np.argmax(np.abs(row_sums)))
            wit["intensity_matrix"] = ("row_sum", i, float(row_sums[i]))

    # singular relative to its scale, sigma_min <= entry_tol * sigma_max, so
    # the flags do not change when A is multiplied by a positive constant
    singular = _singular(A, cfg)
    Ainv = None if singular else numkit._lapack_inv(A)
    flags["nonsingular"] = not singular
    if singular:
        wit["nonsingular"] = ("det", det)

    if Ainv is None:
        flags["m_matrix"] = False
        flags["inverse_m_matrix"] = False
        wit["m_matrix"] = "singular"
        wit["inverse_m_matrix"] = "singular"
    else:
        flags["m_matrix"] = flags["z_matrix"] and is_nonnegative(Ainv, cfg)
        if flags["m_matrix"]:
            wit["m_matrix"] = Ainv
        elif not flags["z_matrix"]:
            wit["m_matrix"] = ("not_z_matrix", wit.get("z_matrix"))
        else:
            viol = _first_violation(Ainv, np.ones_like(Ainv, bool), _nonnegative(Ainv, cfg))
            wit["m_matrix"] = ("inverse_entry_negative", viol)

        # the inverse of A^-1 is A itself, so inverse-M needs only the
        # Z-pattern of A^-1 on top of nonnegativity of A
        flags["inverse_m_matrix"] = flags["nonnegative"] and is_z_matrix(Ainv, cfg)
        if flags["inverse_m_matrix"]:
            wit["inverse_m_matrix"] = Ainv
        elif not flags["nonnegative"]:
            wit["inverse_m_matrix"] = ("not_nonnegative", wit.get("nonnegative"))
        else:
            masked = np.where(off, Ainv, -np.inf)
            i, j = np.unravel_index(int(np.argmax(masked)), Ainv.shape)
            wit["inverse_m_matrix"] = ("inverse_offdiag_positive", (int(i), int(j), float(Ainv[i, j])))

    labels, order = strong_components(structural_pattern(A, cfg))
    flags["irreducible"] = len(order) == 1
    if not flags["irreducible"]:
        wit["irreducible"] = ("strongly_connected_components", len(order), labels.tolist())

    return ClassReport(flags=flags, witnesses=wit, det=det, spectral_radius=rho)


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
    if not is_z_matrix(Q, cfg):
        raise NotZMatrix("off-diagonal entry above entry_tol")
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
