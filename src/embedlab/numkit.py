"""Dense numerical kernels.

Eigendecomposition with a canonical eigenvalue ordering, matrix exponential,
branch-parameterized matrix logarithms, primary roots, and pattern-preserving
perturbation to distinct eigenvalues.  Everything here is a pure function of
its inputs and safe to call concurrently.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    IllConditioned,
    NegativeRealEigenvalue,
    Overflow,
    PerturbationFailed,
    RepeatedEigenvalues,
    SingularMatrix,
)

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "Eigendecomposition",
    "as_square_matrix",
    "cluster_indices",
    "eig",
    "expm",
    "logm_branch",
    "principal_log",
    "primary_root",
    "perturb_distinct",
    "as_real",
    "imag_truncation_threshold",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical slacks used by every verdict in the library.

    entry_tol      entrywise nonnegativity / structural-zero slack
    recon_tol      relative reconstruction tolerance for exp/log round trips
    distinct_tol   eigenvalue-gap floor below which eigenvalues count as repeated
    perturb_scale  relative size of the perturbation used to split eigenvalues
    """

    entry_tol: float = 1e-9
    recon_tol: float = 1e-8
    distinct_tol: float = 1e-7
    perturb_scale: float = 1e-6

    def __post_init__(self):
        for name in ("entry_tol", "recon_tol", "distinct_tol", "perturb_scale"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")


DEFAULT_TOL = ToleranceConfig()


def as_square_matrix(A) -> np.ndarray:
    """Validate and return ``A`` as a float two-dimensional square array.

    Raises ValueError for non-square shapes or non-finite entries.
    """
    M = np.array(A, dtype=float, copy=True)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return M


def _frob(M) -> float:
    return float(np.linalg.norm(M, "fro"))


def relative_residual(approx, target) -> float:
    """``||approx - target|| / ||target||`` in the Frobenius norm.

    Falls back to the absolute residual for a zero target.
    """
    scale = _frob(target)
    resid = float(np.linalg.norm(np.asarray(approx) - np.asarray(target), "fro"))
    return resid / scale if scale > 0 else resid


@dataclass(frozen=True)
class Eigendecomposition:
    """Eigenvalues and eigenvector basis of a real square matrix.

    Eigenvalues are sorted by descending modulus, ties broken by descending
    real part then ascending imaginary part, so the spectral-radius eigenvalue
    of a nonnegative matrix sits at index 0 and exact conjugate pairs are
    adjacent.  ``min_pairwise_gap`` is ``inf`` for 1x1 matrices.
    """

    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray
    inverse_basis: np.ndarray
    min_pairwise_gap: float
    basis_condition: float

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def is_repeated(self, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
        return self.min_pairwise_gap < cfg.distinct_tol

    def reconstruct(self) -> np.ndarray:
        """V diag(lambda) V^-1 (complex)."""
        return (self.right_eigenvectors * self.eigenvalues) @ self.inverse_basis


def _canonical_order(lam: np.ndarray):
    return sorted(range(len(lam)), key=lambda j: (-abs(lam[j]), -lam[j].real, lam[j].imag))


_MAX_CONDITION = 1e12  # eigenbasis condition number above which eig gives up


def eig(A, cfg: ToleranceConfig = DEFAULT_TOL) -> Eigendecomposition:
    """Eigendecomposition with the canonical ordering.

    Raises IllConditioned when the eigenvector basis cannot reproduce the
    input within ``recon_tol`` or its condition number exceeds
    ``_MAX_CONDITION`` (defective and near-defective inputs).  Repeated but
    diagonalizable eigenvalues are not an error; callers inspect
    ``min_pairwise_gap``.
    """
    A = as_square_matrix(A)
    lam, V = np.linalg.eig(A)
    lam = lam.astype(complex)
    V = V.astype(complex)
    order = _canonical_order(lam)
    lam = lam[order]
    V = V[:, order]
    try:
        Vinv = np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned("eigenvector basis is singular (defective matrix)") from exc
    cond = float(np.linalg.cond(V))
    recon = (V * lam) @ Vinv
    resid = relative_residual(recon, A)
    if resid > cfg.recon_tol or cond > _MAX_CONDITION:
        raise IllConditioned(
            f"eigenbasis condition {cond:.3g}, reconstruction residual {resid:.3g}"
        )
    return Eigendecomposition(
        eigenvalues=lam,
        right_eigenvectors=V,
        inverse_basis=Vinv,
        min_pairwise_gap=_min_gap(lam),
        basis_condition=cond,
    )


def expm(A) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a degree-13 Pade
    approximant and norm-based scale selection (scipy backend).
    """
    A = as_square_matrix(A)
    with np.errstate(over="ignore", invalid="ignore"):
        E = scipy.linalg.expm(A)
    if not np.all(np.isfinite(E)):
        raise Overflow("matrix exponential exceeded the floating-point range")
    return np.asarray(E, dtype=float)


def cluster_indices(values, tol: float):
    """Group indices of ``values`` into clusters closer than ``tol`` to the
    cluster representative."""
    clusters = []
    for j, value in enumerate(values):
        for cluster in clusters:
            if abs(values[cluster[0]] - value) < tol:
                cluster.append(j)
                break
        else:
            clusters.append([j])
    return clusters


def logm_branch(E: Eigendecomposition, selection, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Branch-parameterized matrix logarithm V diag(Log lam_j + 2 pi i k_j) V^-1.

    ``selection`` is a sequence of integer offsets (or an object exposing
    ``offsets``), one per eigenvalue in the canonical order.  All-zero offsets
    give the principal logarithm.  Offsets that differ inside a repeated
    eigenvalue cluster do not define a primary function and raise
    RepeatedEigenvalues (constant offsets on a cluster stay basis
    independent and are allowed).  The result is complex; use :func:`as_real`
    to truncate a small imaginary residue.
    """
    offsets = np.asarray(getattr(selection, "offsets", selection), dtype=int)
    if offsets.shape != (E.n,):
        raise ValueError(f"expected {E.n} branch offsets, got shape {offsets.shape}")
    lam = E.eigenvalues
    if np.any(np.abs(lam) <= cfg.entry_tol):
        raise SingularMatrix("zero eigenvalue: matrix has no logarithm")
    if E.min_pairwise_gap < cfg.distinct_tol:
        for cluster in cluster_indices(lam, cfg.distinct_tol):
            if len({int(offsets[j]) for j in cluster}) > 1:
                raise RepeatedEigenvalues(
                    "offsets differ inside a repeated eigenvalue cluster"
                )
    logs = np.log(lam) + 2j * np.pi * offsets
    return (E.right_eigenvectors * logs) @ E.inverse_basis


def _check_log_preconditions(A, cfg):
    lam = np.linalg.eigvals(A)
    if np.any(np.abs(lam) <= cfg.entry_tol):
        raise SingularMatrix("zero eigenvalue: no primary logarithm or root")
    on_negative_axis = (lam.real < 0) & (np.abs(lam.imag) <= cfg.entry_tol * (1 + np.abs(lam)))
    if np.any(on_negative_axis):
        raise NegativeRealEigenvalue(
            "eigenvalue on the closed negative real axis: primary function is not real"
        )


def principal_log(A, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Primary principal logarithm of a real matrix with no eigenvalue on the
    closed negative real axis.  Valid for repeated eigenvalues as well."""
    A = as_square_matrix(A)
    _check_log_preconditions(A, cfg)
    with warnings.catch_warnings():
        # accuracy is re-verified by every caller through reconstruction
        warnings.filterwarnings("ignore", message="logm result may be inaccurate")
        L = scipy.linalg.logm(A)
    if np.iscomplexobj(L):
        R = as_real(L, cfg)
        if R is None:
            raise NegativeRealEigenvalue("principal logarithm is not real")
        return R
    return np.asarray(L, dtype=float)


def primary_root(A, n: int, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Primary nth root: exp of the principal logarithm divided by ``n``.

    Raises SingularMatrix for singular input and NegativeRealEigenvalue when
    an eigenvalue lies on the closed negative real axis.
    """
    A = as_square_matrix(A)
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError("root order n must be a positive integer")
    if n == 1:
        _check_log_preconditions(A, cfg)
        return A.copy()
    R = expm(principal_log(A, cfg) / n)
    return R


def imag_truncation_threshold(M, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Size- and magnitude-scaled threshold below which an imaginary residue
    counts as roundoff: ``n * entry_tol * (1 + ||M||_F)``."""
    M = np.asarray(M)
    return M.shape[0] * cfg.entry_tol * (1.0 + _frob(M))


def as_real(M, cfg: ToleranceConfig = DEFAULT_TOL):
    """Return the real part of ``M`` if its imaginary residue is below the
    truncation threshold, else None."""
    M = np.asarray(M)
    if not np.iscomplexobj(M):
        return np.array(M, dtype=float)
    if np.max(np.abs(M.imag)) <= imag_truncation_threshold(M, cfg):
        return np.array(M.real, dtype=float)
    return None


def _min_gap(values) -> float:
    if len(values) == 1:
        return np.inf
    diff = values[:, None] - values[None, :]
    return float(np.min(np.abs(diff[~np.eye(len(values), dtype=bool)])))


def perturb_distinct(A, cfg: ToleranceConfig = DEFAULT_TOL, rng=None, max_attempts: int = 64) -> np.ndarray:
    """Perturb ``A`` inside its nonzero pattern until eigenvalues are distinct.

    The zero pattern is preserved exactly and the total change is bounded by
    ``perturb_scale * (1 + ||A||_F)``.  For stochastic inputs each row sum is
    compensated on the diagonal entry (or the row's largest entry when the
    diagonal is a structural zero); rows with a single pattern entry cannot be
    compensated and their sums drift by at most the perturbation scale.
    Inputs that already have gap >= ``distinct_tol`` are returned unchanged.
    """
    from .classify import is_stochastic  # local: classify imports numkit

    A = as_square_matrix(A)
    n = A.shape[0]
    if _min_gap(np.linalg.eigvals(A)) >= cfg.distinct_tol:
        return A.copy()
    if rng is None:
        rng = np.random.default_rng(20150806)

    pattern = np.abs(A) > cfg.entry_tol
    nnz = int(pattern.sum())
    if nnz == 0:
        raise PerturbationFailed("zero matrix has no pattern entries to perturb")
    stochastic = is_stochastic(A, cfg)
    budget = cfg.perturb_scale * (1.0 + _frob(A))
    # worst case ||delta||_F <= s * sqrt(nnz + sum_r nnz_r^2), compensation included
    row_nnz = pattern.sum(axis=1)
    scale = 0.5 * budget / np.sqrt(nnz + float(np.sum(row_nnz.astype(float) ** 2)))

    # compensation target per row: diagonal if in the pattern, else the row max
    targets = np.empty(n, dtype=int)
    for i in range(n):
        targets[i] = i if pattern[i, i] else int(np.argmax(np.abs(A[i])))

    for _ in range(max_attempts):
        delta = rng.uniform(-1.0, 1.0, size=(n, n)) * scale
        delta[~pattern] = 0.0
        # nonzero entries must stay nonzero: no single step may cross zero
        np.clip(delta, -np.abs(A) / 2, np.abs(A) / 2, out=delta)
        if stochastic:
            for i in range(n):
                # single-entry rows cannot be compensated without cancelling
                # the perturbation; their sums drift by at most `scale`
                if row_nnz[i] > 1:
                    delta[i, targets[i]] -= delta[i].sum()
        trial = A + delta
        if _frob(delta) > budget:
            continue
        if not np.array_equal(np.abs(trial) > cfg.entry_tol, pattern):
            continue
        if _min_gap(np.linalg.eigvals(trial)) >= cfg.distinct_tol:
            return trial
    raise PerturbationFailed(
        f"no distinct-eigenvalue perturbation found in {max_attempts} attempts"
    )
