"""Dense numerical kernels.

Eigendecomposition with a canonical eigenvalue ordering, matrix exponential,
branch-parameterized matrix logarithms with their roots, the principal
logarithm and primary roots, all pure functions of their inputs, on numpy
alone.  The exponential is scaling and squaring with a degree-13 Pade
approximant (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).  The principal
logarithm is inverse scaling and squaring: Denman-Beavers square roots,
then the Gauss-Legendre form of the [8/8] Pade approximant of log(I + Y)
(Higham, Functions of Matrices, 2008, Secs. 6.3 and 11.5).  The tolerances
live here too, with every comparison against them: one threshold helper per
role, listed in ``_THRESHOLDS``.  So do the LAPACK kernels ``_lapack_*``,
through which the library takes every eigendecomposition, spectrum,
inverse, solve and determinant.
"""

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import (
    IllConditioned,
    NegativeRealEigenvalue,
    Overflow,
    RepeatedEigenvalues,
    SingularMatrix,
)

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "Eigendecomposition",
    "as_square_matrix",
    "eig",
    "expm",
    "logm_branch",
    "branch_roots",
    "principal_log",
    "primary_root",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical slacks used by every verdict in the library.  Each field is
    compared only inside the threshold helpers listed in ``_THRESHOLDS``, one
    per role; the README's threshold table has one row per helper.
    ``entry_tol`` is the one setting; the other two are fixed.

    entry_tol      the entry, sign, determinant and eigenvalue slack
    recon_tol      relative reconstruction tolerance
    distinct_tol   absolute eigenvalue gap, and the imaginary part of a
                   real eigenvalue on the repeated-spectrum path
    """

    entry_tol: float = 1e-9
    recon_tol: float = field(default=1e-8, init=False)
    distinct_tol: float = field(default=1e-7, init=False)

    def __post_init__(self):
        for name in ("entry_tol", "recon_tol", "distinct_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")


DEFAULT_TOL = ToleranceConfig()


# The threshold helpers.  Each docstring is one row of the README's threshold
# table: what it compares, the scale it is relative to, its source and
# whether a certified negative verdict may rest on it.  Every helper keeps
# the comparison and direction its callers made before it existed, so a NaN
# gets the answer it got then, except that the certificate checks fail
# closed: a NaN is not nonnegative and fails its reconstruction.


def _nonnegative(x, cfg: ToleranceConfig):
    """Sign slack: ``x >= -entry_tol`` for an entry, or a least entry, that
    counts as nonnegative (a Z-matrix passes its negated largest
    off-diagonal entry, a sample root its least entry).  Absolute; library
    default.  No verdict rests on it: it refuses inputs and sets class
    flags, and a root that fails it makes the verdict Undetermined."""
    return x >= -cfg.entry_tol


def _positive(x, cfg: ToleranceConfig):
    """Strictly positive: ``x > entry_tol``, and its complement, for entries
    and for the real parts of a repeated spectrum.  Absolute; library
    default.  A certified negative rests on it through the positive-diagonal
    and irreducible-implies-positive necessary conditions."""
    return x > cfg.entry_tol


def structural_pattern(A, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Structural zero: the boolean pattern ``|A_ij| > entry_tol`` of entries
    that are not structural zeros.  Absolute; library default.  A certified
    negative rests on it through the Frobenius form and the zero-pattern
    necessary condition."""
    return np.abs(np.asarray(A)) > cfg.entry_tol


def _row_sums_within(deviation, n: int, cfg: ToleranceConfig):
    """Row sums: ``deviation <= n * entry_tol`` for the largest deviation of
    an n x n matrix's row sums from 1 (stochastic) or 0 (intensity).
    Absolute, times n; library default.  No verdict rests on it: it
    refuses inputs."""
    return deviation <= n * cfg.entry_tol


def _det_below_gate(det, cfg: ToleranceConfig):
    """Determinant gate: ``det <= entry_tol``, for |det P| (Undetermined), for
    det B (NotStronglyInfDivisible) and for a trailing block's determinant.
    Absolute; library default.  A certified negative rests on it."""
    return det <= cfg.entry_tol


def _singular(A, cfg: ToleranceConfig):
    """Relative singularity: ``cond_2(A) * entry_tol >= 1``, that is
    sigma_min <= entry_tol * sigma_max.  Relative to sigma_max; library
    default.  No verdict rests on it: it sets class flags and refuses the
    inverse-M power form."""
    return _condition(A) * cfg.entry_tol >= 1.0


def _require_nonzero_eigenvalues(lam, cfg: ToleranceConfig, consequence: str) -> None:
    """Zero eigenvalue: raise SingularMatrix, ``zero eigenvalue:
    <consequence>``, when some ``|lambda| <= entry_tol``.  Absolute; library
    default.  No verdict rests on it: a decision ends Undetermined."""
    if (np.abs(lam) <= cfg.entry_tol).any():
        raise SingularMatrix(f"zero eigenvalue: {consequence}")


def _on_negative_axis(lam, cfg: ToleranceConfig):
    """Closed negative real axis: ``Re lambda < 0`` and ``|Im lambda| <=
    entry_tol * (1 + |lambda|)`` per eigenvalue, where the primary logarithm
    is not real.  Relative to 1 + |lambda|; library default.  No verdict
    rests on it: a decision ends Undetermined."""
    return (lam.real < 0) & (np.abs(lam.imag) <= cfg.entry_tol * (1 + np.abs(lam)))


def _candidate_sign_failure(x, cfg: ToleranceConfig):
    """A candidate logarithm's off-diagonal sign: None when its least
    off-diagonal entry ``x`` is not below ``-entry_tol``, else whether the
    failure is borderline, ``x >= -10 entry_tol``.  Absolute; library
    default.  A certified negative rests on a failure that is not
    borderline."""
    if x < -cfg.entry_tol:
        return x >= -10 * cfg.entry_tol
    return None


def _reconstruction_fails(residual, cfg: ToleranceConfig, factor: int = 1):
    """Reconstruction: ``not residual <= factor * recon_tol`` for a relative
    Frobenius residual, so a NaN residual fails; ``factor`` is 10 for a
    sample root's mth power.  Relative to the target's norm; library
    default, above the kappa(V) u rounding of a computed logarithm (Higham,
    Functions of Matrices, 2008, Sec. 4.5).  No verdict rests on it: a
    candidate's failure is rounding."""
    return not residual <= factor * cfg.recon_tol


def _eigenvalue_clusters(lam, cfg: ToleranceConfig):
    """Eigenvalue clusters: each index of ``lam`` in turn joins the first
    cluster whose first value is closer than ``distinct_tol``, the gap of
    ``Eigendecomposition.is_repeated``, or starts a new one.  Absolute;
    library default.  A certified negative rests on it through
    ``primary_log_is_only_candidate``."""
    clusters = []
    for j, value in enumerate(lam):
        for cluster in clusters:
            if abs(lam[cluster[0]] - value) < cfg.distinct_tol:
                cluster.append(j)
                break
        else:
            clusters.append([j])
    return clusters


def _nonreal(lam, cfg: ToleranceConfig):
    """A nonreal eigenvalue on the repeated-spectrum path: ``|Im lambda| >
    distinct_tol``.  Absolute; library default.  A certified negative rests
    on it through ``primary_log_is_only_candidate``."""
    return np.abs(lam.imag) > cfg.distinct_tol


_FLOAT64, _COMPLEX128 = np.dtype(np.float64), np.dtype(np.complex128)


def as_square_matrix(A) -> np.ndarray:
    """Validate and return ``A`` as a float two-dimensional square array.

    Raises ValueError for complex entries (before any conversion drops
    their imaginary parts), strings, object entries that are not real
    numbers, non-square shapes or non-finite entries.  A float64 square
    ndarray is copied once, keeping its memory layout, and only its
    finiteness is checked.
    """
    if type(A) is np.ndarray and A.dtype is _FLOAT64 and A.ndim == 2 and 0 < A.shape[0] == A.shape[1]:
        M = A.copy(order="K")
    else:
        M = np.array(A, copy=True)
        kind = M.dtype.kind
        if kind not in "biuf" and not (kind == "O" and all(isinstance(x, numbers.Real) for x in M.flat)):
            raise ValueError(f"matrix entries must be real numbers, got dtype {M.dtype}")
        M = M.astype(float, copy=False)
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
            raise ValueError(f"expected a nonempty square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    return M


def _frob(M) -> float:
    """``np.linalg.norm(M, "fro")`` bit for bit wherever numpy's sum of the
    squares is finite: for a 2-D float64 or complex128 ndarray its own fast
    path, the square root of the dot products of the raveled real and
    imaginary parts, without its Python layer.  ``np.vdot`` gives inf where
    that sum overflows, with no warning; the norm is then retaken of M
    scaled by the power of two that brings its largest entry into [1, 2),
    and scaled back, both exactly (Higham, Functions of Matrices, 2008).  So
    the norm is finite wherever it is within the float range, past it inf,
    and NaN for a NaN entry."""
    if type(M) is not np.ndarray or M.ndim != 2 or not (M.dtype is _FLOAT64 or M.dtype is _COMPLEX128):
        return float(np.linalg.norm(M, "fro"))
    sq = _sum_of_squares(M)
    if sq == math.inf:
        # frexp gives an inf entry the exponent 0: M stays as it is, and inf
        s = math.ldexp(1.0, max(math.frexp(float(np.abs(M).max()))[1] - 1, 0))
        return math.sqrt(_sum_of_squares(M / s)) * s  # Python floats: past the float range inf
    return math.sqrt(sq)


def _sum_of_squares(M) -> float:
    """The sum of the squares of the entries of a float64 or complex128 M,
    in ``np.linalg.norm``'s order; inf where it overflows."""
    x = M.ravel(order="K")
    if M.dtype is _COMPLEX128:
        re, im = x.real, x.imag
        return float(np.vdot(re, re)) + float(np.vdot(im, im))
    return float(np.vdot(x, x))


def relative_residual(approx, target) -> float:
    """``||approx - target|| / ||target||`` in the Frobenius norm.

    Falls back to the absolute residual for a zero target.
    """
    scale = _frob(target)
    resid = _frob(np.asarray(approx) - np.asarray(target))
    return resid / scale if scale > 0 else resid


# The LAPACK kernels: numpy's linalg gufuncs called as np.linalg's wrappers
# call them (numpy/linalg/_linalg.py), with the same signature and error
# state, but without the wrappers' conversions and checks, which cost more
# than LAPACK itself on a small matrix.  Every caller holds a finite float64
# array that is 2-D, or stacked for _lapack_solve.  A LAPACK failure sets
# the invalid flag, and the error state turns it into numpy's LinAlgError.
def _raise_nonconvergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


_EIG_ERRSTATE = {"call": _raise_nonconvergence, "invalid": "call", "over": "ignore", "divide": "ignore",
                 "under": "ignore"}
_SOLVE_ERRSTATE = dict(_EIG_ERRSTATE, call=_raise_singular)


def _lapack_eig(A):
    """``np.linalg.eig(A)`` as complex128 eigenvalues and eigenvectors,
    also when numpy would return an all-real spectrum as float64."""
    with np.errstate(**_EIG_ERRSTATE):
        return _umath_linalg.eig(A, signature="d->DD")


def _lapack_eigvals(A):
    """``np.linalg.eigvals(A)`` as complex128, also when numpy would return
    an all-real spectrum as float64."""
    with np.errstate(**_EIG_ERRSTATE):
        return _umath_linalg.eigvals(A, signature="d->D")


def _lapack_inv(A):
    """``np.linalg.inv(A)`` of a float64 or complex128 A."""
    with np.errstate(**_SOLVE_ERRSTATE):
        return _umath_linalg.inv(A, signature="D->D" if A.dtype.kind == "c" else "d->d")


def _lapack_solve(A, B):
    """``np.linalg.solve(A, B)`` for a matrix B, or a stack of them; one B
    is broadcast against a stack of A as ``np.broadcast_to`` would."""
    with np.errstate(**_SOLVE_ERRSTATE):
        return _umath_linalg.solve(A, B, signature="dd->d")


def _lapack_det(A):
    """``np.linalg.det(A)``; past the float range it is +-inf, with no
    overflow warning, which a caller that runs with warnings as errors would
    get instead of a report.  Every caller gates on the value."""
    with np.errstate(over="ignore"):
        return _umath_linalg.det(A, signature="d->d")


@dataclass(frozen=True)
class Eigendecomposition:
    """Eigenvalues and eigenvector basis of a real square matrix.

    Eigenvalues are sorted by descending modulus, ties broken by descending
    real part then ascending imaginary part, so the spectral-radius eigenvalue
    of a nonnegative matrix sits at index 0 and exact conjugate pairs are
    adjacent.  ``min_pairwise_gap`` is ``inf`` for 1x1 matrices.
    ``basis_condition``, the 2-norm condition number of the eigenvector basis
    (``np.linalg.cond`` of it), is computed on first read: :func:`eig` gates
    on a bound of it that needs no SVD.
    """

    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray
    inverse_basis: np.ndarray
    min_pairwise_gap: float

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @functools.cached_property
    def basis_condition(self) -> float:
        return _condition(self.right_eigenvectors)

    def is_repeated(self, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
        """Eigenvalue gap: ``min_pairwise_gap < distinct_tol``.  Absolute;
        library default.  A repeated spectrum takes the principal logarithm,
        where a certified negative rests on ``primary_log_is_only_candidate``."""
        return self.min_pairwise_gap < cfg.distinct_tol


# Every comparison with a ToleranceConfig field, one helper per role
_THRESHOLDS = (_nonnegative, _positive, structural_pattern, _row_sums_within, _det_below_gate, _singular,
               _require_nonzero_eigenvalues, _on_negative_axis, _candidate_sign_failure, _reconstruction_fails,
               Eigendecomposition.is_repeated, _eigenvalue_clusters, _nonreal)


def _canonical_order(lam: np.ndarray) -> np.ndarray:
    """Indices of ``lam`` by descending modulus, then descending real part,
    then ascending imaginary part; the sort is stable (lexsort's last key is
    its first), so exact ties keep their order.  The modulus is np.hypot's,
    which is abs() of a complex scalar bit for bit; np.abs of a complex array
    can differ from both in the last bit."""
    return np.lexsort((lam.imag, -lam.real, -np.hypot(lam.real, lam.imag)))


_MAX_CONDITION = 1e12  # eigenbasis condition number above which eig gives up
# ||V||_F ||V^-1||_F bounds cond_2(V) from above, since ||.||_2 <= ||.||_F
# (Golub and Van Loan, Matrix Computations, Sec. 2.3); up to this bound eig
# takes no SVD.  The 100x margin covers the O(cond u) rounding of both.
_CONDITION_BOUND_GATE = 1e-2 * _MAX_CONDITION


def eig(A, cfg: ToleranceConfig = DEFAULT_TOL) -> Eigendecomposition:
    """Eigendecomposition with the canonical ordering.

    Raises IllConditioned when the eigenvector basis cannot reproduce the
    input within ``recon_tol`` or its condition number exceeds
    ``_MAX_CONDITION`` (defective and near-defective inputs).  The condition
    number is taken by an SVD only when the bound ||V||_F ||V^-1||_F on it
    exceeds 1e-2 ``_MAX_CONDITION``, so the gate decides as the condition
    number alone would; the error message gives the exact condition number.
    The residual is taken of the input and its reconstruction scaled
    together by the power of two that brings the input's largest entry into
    [1/2, 1): exactly, so it is the input's own residual, and the
    reconstruction cannot overflow.  Repeated but diagonalizable eigenvalues
    are not an error; callers inspect ``min_pairwise_gap``.
    """
    A = as_square_matrix(A)
    lam, V = _lapack_eig(A)
    order = _canonical_order(lam)
    lam = lam[order]
    V = V[:, order]
    try:
        Vinv = _lapack_inv(V)
    except LinAlgError as exc:
        raise IllConditioned("eigenvector basis is singular (defective matrix)") from exc
    cond_bound = _frob(V) * _frob(Vinv)  # Python floats: past the float range inf, with no warning
    scale = math.ldexp(1.0, -math.frexp(np.abs(A).max())[1])
    resid = relative_residual((V * (lam * scale)) @ Vinv, A * scale)
    if _reconstruction_fails(resid, cfg) or not cond_bound <= _CONDITION_BOUND_GATE:
        cond = _condition(V)
        if _reconstruction_fails(resid, cfg) or cond > _MAX_CONDITION:
            raise IllConditioned(
                f"eigenbasis condition {cond:.3g}, reconstruction residual {resid:.3g}"
            )
    return Eigendecomposition(
        eigenvalues=lam,
        right_eigenvectors=V,
        inverse_basis=Vinv,
        min_pairwise_gap=_min_gap(lam),
    )


# Degree-13 Pade approximant r = (V - U)^-1 (V + U) of exp (Higham, SIAM J.
# Matrix Anal. Appl. 26, 2005).  Applied to I, A^2, A^4, A^6 the rows give
# the parts of U = A (A^6 row0 + row2) and V = A^6 row1 + row3.  Its backward
# error stays below the unit roundoff for ||A||_1 <= _THETA_13.
_B13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
        129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
        40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_PADE_13 = np.array([
    [0.0, _B13[9], _B13[11], _B13[13]],
    [0.0, _B13[8], _B13[10], _B13[12]],
    [_B13[1], _B13[3], _B13[5], _B13[7]],
    [_B13[0], _B13[2], _B13[4], _B13[6]],
])
_THETA_13 = 5.371920351148152
# Up to this 1-norm nothing in expm can overflow, so it needs no errstate:
# each X it squares approximates exp(2^-j A), so ||X||_1 <= e^(2^-j ||A||_1)
# and every entry of |X| |X| is at most ||X||_1^2 <= e^||A||_1 <= e^700,
# about 1e304, 1.8e4 times below the largest float; the closed forms of the
# triangular path stay below ||A||_1 e^||A||_1.
_EXPM_SAFE_NORM = 700.0


def expm(A) -> np.ndarray:
    """Matrix exponential by scaling and squaring: the degree-13 Pade
    approximant of exp(2^-s A), s = max(0, ceil(log2(||A||_1 / theta_13))),
    squared s times (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).

    A diagonal input gives diag(exp(d)) exactly, and a triangular one an
    exactly triangular result whose diagonal and first off-diagonal are
    recomputed from their closed forms after each squaring (Al-Mohy and
    Higham, SIAM J. Matrix Anal. Appl. 31, 2009, Code Fragment 2.1).  Raises
    Overflow when the result leaves the floating-point range.
    """
    A = as_square_matrix(A)
    if A.shape[0] > 1 and A[0, -1] and A[-1, 0]:
        lower = upper = False  # both corners nonzero: neither triangular form
    else:
        rows, cols = A.nonzero()
        offsets = cols - rows
        lower, upper = offsets.max(initial=0) <= 0, offsets.min(initial=0) >= 0
    # exp(A) = exp(A^T)^T, so a lower triangular input is taken as upper
    transpose = lower and not upper
    T = A.T if transpose else A
    norm = _norm1(T)
    if norm <= _EXPM_SAFE_NORM:
        E = _expm_upper(T, norm, lower or upper, lower and upper)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            E = _expm_upper(T, norm, lower or upper, lower and upper)
        if not np.isfinite(E).all():
            raise Overflow("matrix exponential exceeded the floating-point range")
    return E.T if transpose else E


def _expm_upper(T, norm, triangular, diagonal):
    """exp(T) for a T with 1-norm ``norm`` that is upper triangular when
    ``triangular`` is set and diagonal when ``diagonal`` is."""
    if diagonal:
        return np.diag(np.exp(np.diagonal(T)))
    s = 0 if norm <= _THETA_13 else math.ceil(math.log2(norm / _THETA_13))
    X = _pade_13(np.ldexp(T, -s) if s else T)
    for j in range(s, -1, -1):
        if j < s:
            X = X @ X
        if triangular and s:  # the exact band of exp(2^-j T), after each squaring
            _set_exact_band(X, T, j)
    if triangular:
        X[_index_pairs(len(X))[::-1]] = 0.0  # np.triu(X) in place: the strictly lower part
    return X


def _set_exact_band(X, T, j):
    """Set the diagonal and first superdiagonal of X to those of exp(2^-j T)
    for an upper triangular T: exp of its 2x2 block [[a, t], [0, b]] has
    off-diagonal t e^((a+b)/2) sinh((a-b)/2) / ((a-b)/2) (Higham, Functions
    of Matrices, 2008, (10.42))."""
    d, t = np.ldexp(T.diagonal(), -j), np.ldexp(T.diagonal(1), -j)
    half_sum, half_gap = 0.5 * (d[:-1] + d[1:]), 0.5 * (d[:-1] - d[1:])
    # steps of n + 1 through X.flat from 0 and 1: np.fill_diagonal of X and X[:, 1:]
    X.flat[:: len(X) + 1] = np.exp(d)
    X.flat[1 :: len(X) + 1] = t * np.exp(half_sum) * _sinch(half_gap)


@functools.cache
def _identity(n: int) -> np.ndarray:
    """A read-only n x n identity, built once per n."""
    I = np.eye(n)
    I.flags.writeable = False
    return I


def _pade_13(A):
    """The degree-13 Pade approximant of exp(A), from one stack of powers,
    one product for the four polynomial parts and one solve."""
    n = A.shape[0]
    powers = np.empty((4, n, n))
    powers[0] = _identity(n)
    np.matmul(A, A, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[1], powers[2], out=powers[3])
    parts = (_PADE_13 @ powers.reshape(4, -1)).reshape(2, 2, n, n)
    pair = powers[3] @ parts[0]
    pair += parts[1]
    U = A @ pair[0]
    V = pair[1]
    return _lapack_solve(V - U, V + U)


def _sinch(x):
    """sinh(x) / x, with its limit 1 at 0."""
    zero = x == 0.0
    safe = np.where(zero, 1.0, x)
    return np.where(zero, 1.0, np.sinh(safe) / safe)


def logm_branch(E: Eigendecomposition, selection, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Branch-parameterized matrix logarithm V diag(Log lam_j + 2 pi i k_j) V^-1.

    ``selection`` is a sequence of integer offsets, one per eigenvalue in
    the canonical order; an offset array of any non-integer dtype (floats,
    booleans, strings) raises ValueError rather than being rounded or
    parsed.  All-zero offsets give the
    principal logarithm.  Offsets that differ inside a repeated
    eigenvalue cluster do not define a primary function and raise
    RepeatedEigenvalues (constant offsets on a cluster stay basis
    independent and are allowed).  The result is complex.  When Culver's
    (1966) criterion makes the selection real (distinct eigenvalues, offset
    0 on each positive real eigenvalue and (k, -k) on each conjugate pair;
    ``embed._real_blocks`` states it), its imaginary part is rounding and
    its real part is the logarithm.
    """
    return (E.right_eigenvectors * _branch_logs(E, selection, cfg)) @ E.inverse_basis


def _branch_logs(E: Eigendecomposition, selection, cfg: ToleranceConfig) -> np.ndarray:
    """Log lam_j + 2 pi i k_j for the offsets of ``selection``, validated as
    :func:`logm_branch` describes."""
    offsets = np.asarray(selection)
    if offsets.dtype.kind not in "iu":
        raise ValueError(f"branch offsets must be integers, got dtype {offsets.dtype}")
    if offsets.shape != (E.n,):
        raise ValueError(f"expected {E.n} branch offsets, got shape {offsets.shape}")
    lam = E.eigenvalues
    _require_nonzero_eigenvalues(lam, cfg, "matrix has no logarithm")
    if E.is_repeated(cfg):
        for cluster in _eigenvalue_clusters(lam, cfg):
            if len({int(offsets[j]) for j in cluster}) > 1:
                raise RepeatedEigenvalues(
                    "offsets differ inside a repeated eigenvalue cluster"
                )
    return np.log(lam) + 2j * np.pi * offsets


def branch_roots(E: Eigendecomposition, selection, orders, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The roots exp(L/m) = V diag(exp(mu_j/m)) V^-1 of the branch logarithm
    L = V diag(mu_j) V^-1 of :func:`logm_branch`, one per order m in
    ``orders``, as one complex stack from one product (evaluation by
    diagonalization; Higham, Functions of Matrices, 2008, Sec. 4.5).  Like
    :func:`logm_branch` the result is complex: a real selection gives real
    roots up to rounding, whose error grows with the condition number of V,
    so callers take the real parts and check what they use.
    """
    m = np.asarray(orders, dtype=float).reshape(-1, 1)
    return (E.right_eigenvectors * np.exp(_branch_logs(E, selection, cfg) / m)[:, None, :]) @ E.inverse_basis


def _check_log_preconditions(lam, cfg):
    """Raise unless the eigenvalues ``lam`` admit a real primary logarithm:
    none may be zero or lie on the closed negative real axis."""
    _require_nonzero_eigenvalues(lam, cfg, "no primary logarithm or root")
    if np.any(_on_negative_axis(lam, cfg)):
        raise NegativeRealEigenvalue(
            "eigenvalue on the closed negative real axis: primary function is not real"
        )


# Denman-Beavers steps allowed over all the square roots of one logarithm.
# Their count grows with the spread of log2|lambda| about its mean and with
# the nonnormal part: the seeded test family takes at most 27, eigenvalues
# 1e-9 and 1e9 together 63, and a 2x2 Jordan block at 2e-9 about 100.
_MAX_SQRT_STEPS = 500
_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))
# ||X - I||_1 up to which the [8/8] Pade approximant of log(I + Y) has a
# truncation error below the unit roundoff (Higham, SIAM J. Matrix Anal.
# Appl. 22, 2001)
_LOG_PADE_RADIUS = 0.25
# 8-point Gauss-Legendre nodes and weights, moved from [-1, 1] to [0, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_NODES, _GL_WEIGHTS = (_GL_NODES + 1.0) / 2.0, _GL_WEIGHTS / 2.0


def _norm1(M) -> float:
    return float(np.abs(M).sum(axis=0).max())


def principal_log(A, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Primary principal logarithm of a real matrix with no eigenvalue on the
    closed negative real axis.  Valid for repeated eigenvalues as well.  The
    precondition and the scaling read the spectrum ``_lapack_eigvals(A)``.

    Inverse scaling and squaring.  First log A = e log(2) I + log(2^-e A),
    with 2^e the power of two nearest the geometric mean of |lambda|: the
    scaling is exact and centres the spectrum on 1, so the work below does
    not grow with the scale of A.  Then X = (2^-e A)^(1/2^k) by k
    Denman-Beavers square roots in product form (Higham, Functions of
    Matrices, 2008, Sec. 6.3) until ||X - I||_1 <= 0.25, and
    log(2^-e A) = 2^k log(I + Y), Y = X - I, from the [8/8] Pade approximant
    in its partial-fraction form, the 8-point Gauss-Legendre rule
    sum_j w_j Y (I + x_j Y)^-1 (Higham, SIAM J. Matrix Anal. Appl. 22, 2001;
    Higham 2008, Sec. 11.5), whose truncation error is below the unit
    roundoff for ||Y||_1 <= 0.25.  Each root stops one step after
    ||M - I||_1 <= sqrt(eps), since M_{j+1} - I = M_j^-1 (M_j - I)^2 / 4.
    Raises IllConditioned when the roots take more than ``_MAX_SQRT_STEPS``
    steps in all (an iterate gone NaN never converges); no unconverged
    logarithm is returned.  Raises SingularMatrix when an iterate is
    singular to working precision: the zero-eigenvalue gate is absolute, so
    a nearly singular matrix of large scale passes it.  Real arithmetic
    throughout, and no random draws."""
    A = as_square_matrix(A)
    lam = _lapack_eigvals(A)
    _check_log_preconditions(lam, cfg)
    n = A.shape[0]
    I = np.eye(n)
    e = round(float(np.mean(np.log2(np.abs(lam)))))
    X, k, steps = np.ldexp(A, -e), 0, 0
    while not _norm1(X - I) <= _LOG_PADE_RADIUS:
        M = X
        converged = False
        while not converged:
            if steps == _MAX_SQRT_STEPS:
                raise IllConditioned(f"principal logarithm: square roots did not converge in {steps} steps")
            steps += 1
            try:
                M_inv = _lapack_inv(M)
            except LinAlgError as exc:
                raise SingularMatrix("principal logarithm: a square-root iterate is singular") from exc
            X = 0.5 * X @ (I + M_inv)
            converged = _norm1(M - I) <= _SQRT_EPS
            M = 0.5 * I + 0.25 * (M + M_inv)
        k += 1
    Y = X - I
    terms = _lapack_solve(I + _GL_NODES[:, None, None] * Y, Y)
    return 2.0**k * np.tensordot(_GL_WEIGHTS, terms, 1) + (e * math.log(2.0)) * I


def _check_order(m, name: str) -> None:
    """Raise ValueError unless ``m``, the parameter ``name``, is a positive
    integer (a Python or numpy int); a boolean is not an order."""
    if isinstance(m, bool) or not (isinstance(m, (int, np.integer)) and m >= 1):
        raise ValueError(f"{name}: expected a positive integer, got {m!r}")


def primary_root(A, n: int, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Primary nth root: exp of the principal logarithm divided by ``n``.

    Raises SingularMatrix for singular input and NegativeRealEigenvalue when
    an eigenvalue lies on the closed negative real axis.
    """
    A = as_square_matrix(A)
    _check_order(n, "root order n")
    if n == 1:
        _check_log_preconditions(_lapack_eigvals(A), cfg)
        return A.copy()
    R = expm(principal_log(A, cfg) / n)
    return R


def _condition(V) -> float:
    """2-norm condition number sigma_0 / sigma_n-1, as ``np.linalg.cond(V)``
    computes it for a finite V (a singular V gives inf), without its checks."""
    s = np.linalg.svd(V, compute_uv=False)
    with np.errstate(all="ignore"):
        cond = float(s[0] / s[-1])
    return np.inf if np.isnan(cond) else cond


@functools.cache
def _index_pairs(n: int):
    """Index arrays (i, j) of the n(n-1)/2 pairs i < j, built once per n."""
    return np.triu_indices(n, 1)


def _min_gap(values) -> float:
    """Smallest |lambda_i - lambda_j| over i < j, inf for one value.  Each
    unordered pair is taken once: |a - b| = |b - a| exactly in floating
    point, so this is the minimum over every ordered pair bit for bit."""
    if len(values) == 1:
        return np.inf
    i, j = _index_pairs(len(values))
    return float(np.abs(values[i] - values[j]).min())
