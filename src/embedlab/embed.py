"""Decision core for embeddability and strong infinite divisibility.

Both questions ask for a real logarithm L of the input with nonnegative
off-diagonal entries: a stochastic P is embeddable when such an L also has
zero row sums, and a nonnegative B is strongly infinitely divisible with the
Z-matrix Q = -L.  So one pipeline, ``_decide``, answers both after each
public entry's determinant gate and structural necessary conditions: the
eigendecomposition, then either the branch search or, for a repeated or
ill-conditioned spectrum, the principal logarithm alone.  A diagonalizable
repeated spectrum is resolved from the eigenbasis the search already holds,
V Log(Lambda) V^-1, and a positive found that way passes the acceptance test
of every search hit; negatives on that path still rest on scipy's principal
logarithm, and what it leaves open is Undetermined.  A ``_Problem``
constant per question holds what differs: the intensity test (zero row
sums, Runnenberg cone), the one complete window and the verdict names.
Trailing blocks of a divisible reducible input are not decided again: their
sub-reports are slices of the parent's witness and roots, one reconstruction
check each, with ``bound_used`` None and ``branches_examined`` 0.

Only real branch selections are built: with distinct eigenvalues a
logarithm is real exactly when each real eigenvalue is positive and keeps
offset 0 and each conjugate pair takes offsets (k, -k) (Culver 1966, On the
existence and uniqueness of the real logarithm of a matrix), so the cost
follows the number of real candidates rather than the raw product of
per-eigenvalue windows.  Branch candidates are independent pure
computations; enumeration order is deterministic (principal branch first,
then lexicographic over offsets sorted by absolute value), so the reported
witness is always the most principal admissible one.  Inverse-M power forms
and nonnegative root construction complete the module.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from . import numkit, structure
from .classify import is_nonnegative, is_stochastic, is_z_matrix
from .errors import (
    IllConditioned,
    NegativeRealEigenvalue,
    NotNonnegative,
    NotStochastic,
    OffDiagonalZeros,
    RepeatedEigenvalues,
    SearchExhausted,
    SingularDeterminant,
    SingularMatrix,
)
from .numkit import DEFAULT_TOL, Eigendecomposition, ToleranceConfig, as_square_matrix

__all__ = [
    "BOUND_MODES",
    "EMBEDDABLE",
    "NOT_EMBEDDABLE",
    "STRONGLY_INF_DIVISIBLE",
    "NOT_STRONGLY_INF_DIVISIBLE",
    "UNDETERMINED",
    "BranchSelection",
    "BranchBound",
    "EmbeddabilityReport",
    "DivisibilityReport",
    "InverseMRoot",
    "branch_bound",
    "enumerate_generators",
    "check_embeddable",
    "check_strong_inf_divisible",
    "inverse_m_power_form",
    "im_root_approx",
]

BOUND_MODES = ("israel_two_sided", "paper_one_sided", "perron_radius")

EMBEDDABLE = "Embeddable"
NOT_EMBEDDABLE = "NotEmbeddable"
STRONGLY_INF_DIVISIBLE = "StronglyInfDivisible"
NOT_STRONGLY_INF_DIVISIBLE = "NotStronglyInfDivisible"
UNDETERMINED = "Undetermined"

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class BranchSelection:
    """One integer branch offset per eigenvalue in the canonical order.

    Admissible real selections keep the spectral-radius position at offset 0
    and carry negated offsets on conjugate-pair positions.
    """

    offsets: Tuple[int, ...]

    @staticmethod
    def principal(n: int) -> "BranchSelection":
        return BranchSelection(offsets=(0,) * n)


@dataclass
class BranchBound:
    """Admissible imaginary-part window for candidate generator eigenvalues
    and the branch-offset counts it induces per eigenvalue.

    ``raw_tuple_count`` is the product of the per-eigenvalue counts;
    ``candidate_count`` is the number of those tuples whose logarithm is
    real (None when not computed).
    """

    mode: str
    im_low: float
    im_high: float
    per_eigenvalue_counts: List[int]
    raw_tuple_count: int
    candidate_count: Optional[int] = None


@dataclass
class EmbeddabilityReport:
    verdict: str
    generator: Optional[np.ndarray] = None
    branches_examined: int = 0
    failed_conditions: List[dict] = field(default_factory=list)
    bound_used: Optional[BranchBound] = None


@dataclass
class DivisibilityReport:
    verdict: str
    z_matrix: Optional[np.ndarray] = None
    roots_demonstrated: List[Tuple[int, np.ndarray]] = field(default_factory=list)
    recursion: List["DivisibilityReport"] = field(default_factory=list)
    branches_examined: int = 0
    failed_conditions: List[dict] = field(default_factory=list)
    bound_used: Optional[BranchBound] = None


@dataclass(frozen=True)
class InverseMRoot:
    """Root of a matrix that lies in the inverse-M class.

    ``root`` is the nonnegative primary mth root whose inverse is an
    M-matrix.  For stochastic targets ``epsilon`` and ``h`` give the
    equivalent resolvent form ``P = (1 - epsilon)^m (I - epsilon*h)^-m``.
    """

    root: np.ndarray
    epsilon: Optional[float] = None
    h: Optional[np.ndarray] = None


def _offset_window(arg: float, lo: float, hi: float) -> range:
    """Integers k with lo <= arg + 2*pi*k <= hi (tiny slack on the closed ends)."""
    eps = 1e-12
    kmin = math.ceil((lo - arg) / _TWO_PI - eps)
    kmax = math.floor((hi - arg) / _TWO_PI + eps)
    return range(kmin, kmax + 1)


def branch_bound(E: Eigendecomposition, det: float, mode: str) -> BranchBound:
    """Imaginary-part window for the eigenvalues of a candidate generator.

    israel_two_sided    |Im log lam| <= |log det|  (Israel, Rosenthal & Wei 2001)
    paper_one_sided     log det <= Im log lam <= 0  (the paper's window)
    perron_radius       |Im log lam| <= n*r + t,  r = log rho, t = -log det

    Israel's window is complete for intensity matrices; embeddability searches
    it.  The one-sided window is not: a conjugate pair takes offsets (k, -k),
    whose logarithms cannot both lie in it, so it misses every generator with
    a complex eigenvalue.  No decision searches it; it is kept only for the
    raw tuple count of acceptance criterion 3.

    The Perron radius is complete for any real logarithm L with nonnegative
    off-diagonal entries, so its exhaustion is a proof.  Such an L has a real
    Perron root, its largest real part, so that root is r = log rho = log|lam_0|.
    With s = max(-L_jj) the matrix L + sI is nonnegative with Perron root
    s + r, so every L_jj <= r; as trace L = -t, s <= t + (n-1)r.  Every
    eigenvalue -a + i*theta of L lies in the disk of radius s + r centred at
    -s, so theta^2 <= (r+a)(2s + r - a) <= (s + r)^2 <= (n*r + t)^2.  For a
    stochastic input r = 0 and the radius is Israel's |log det|.

    The spectral-radius position always gets exactly one offset (its
    logarithm must stay real).  ``raw_tuple_count`` is the product of the
    per-eigenvalue counts before any reality filtering; ``candidate_count``
    counts the real selections among them (Culver 1966), so it is 0 when an
    eigenvalue is negative real.
    """
    if mode not in BOUND_MODES:
        raise ValueError(f"unknown bound mode {mode!r}")
    if not det > 0:
        raise SingularDeterminant("branch bounds need det > 0")
    log_det = math.log(det)
    if mode == "israel_two_sided":
        radius = abs(log_det)
        lo, hi = -radius, radius
    elif mode == "paper_one_sided":
        lo, hi = min(log_det, 0.0), max(log_det, 0.0)
    else:
        radius = E.n * math.log(abs(E.eigenvalues[0])) - log_det
        lo, hi = -radius, radius

    windows = _offset_windows(E, lo, hi)
    counts = [len(window) for window in windows]
    return BranchBound(
        mode=mode,
        im_low=lo,
        im_high=hi,
        per_eigenvalue_counts=counts,
        raw_tuple_count=math.prod(counts),
        candidate_count=math.prod(len(block) for block in _real_blocks(E, windows)),
    )


def _offset_windows(E: Eigendecomposition, lo: float, hi: float) -> List[range]:
    """Branch offsets per eigenvalue that keep Im log lam in [lo, hi]; the
    spectral-radius position admits only 0 (its logarithm must stay real)."""
    args = np.angle(E.eigenvalues).tolist()
    return [range(1)] + [_offset_window(arg, lo, hi) for arg in args[1:]]


def _in_runnenberg_cone(mu: np.ndarray, n: int, slack: float = 1e-9) -> np.ndarray:
    """Which entries of ``mu`` lie in the angular cone admissible for the
    eigenvalues of an n-state generator (Runnenberg 1962):
    arg in [pi*(1/2 + 1/n), pi*(3/2 - 1/n)], zero admitted."""
    phi = np.angle(mu)
    phi = np.where(phi < 0, phi + _TWO_PI, phi)
    lo = math.pi * (0.5 + 1.0 / n) - slack
    hi = math.pi * (1.5 - 1.0 / n) + slack
    return (np.abs(mu) <= slack) | ((lo <= phi) & (phi <= hi))


def _real_blocks(
    E: Eigendecomposition, windows: List[range], runnenberg: bool = False
) -> List[List[Tuple[int, ...]]]:
    """Offsets that keep the logarithm real, per real eigenvalue and per
    conjugate pair in the canonical order.

    With distinct eigenvalues every logarithm is primary, and it is real
    exactly when each real eigenvalue is positive and keeps offset 0 and each
    conjugate pair takes offsets (k, -k) (Culver 1966).  Each offset must lie
    in its own eigenvalue's window and, with ``runnenberg``, put that
    eigenvalue's logarithm inside the generator cone.  Pair offsets are
    sorted principal first, so the product of the blocks runs in the
    lexicographic order of the full offset tuples.
    """
    lam = E.eigenvalues.tolist()
    if runnenberg:
        js = [j for j, window in enumerate(windows) for _ in window]
        ks = [k for window in windows for k in window]
        mu = np.log(E.eigenvalues)[js] + 2j * np.pi * np.asarray(ks)
        windows = [set() for _ in windows]
        for j, k, inside in zip(js, ks, _in_runnenberg_cone(mu, len(lam)).tolist()):
            if inside:
                windows[j].add(k)

    blocks: List[List[Tuple[int, ...]]] = []
    j = 0
    while j < len(lam):
        z = lam[j]
        if z.imag == 0:
            blocks.append([(0,)] if z.real > 0 and 0 in windows[j] else [])
            j += 1
        elif j + 1 < len(lam) and lam[j + 1] == z.conjugate():
            ks = [k for k in windows[j] if -k in windows[j + 1]]
            blocks.append([(k, -k) for k in sorted(ks, key=lambda k: (abs(k), k))])
            j += 2
        else:
            # a spectrum not closed under conjugation has no real logarithm
            blocks.append([])
            j += 1
    return blocks


def _candidate_stream(
    E: Eigendecomposition,
    bound: BranchBound,
    cfg: ToleranceConfig,
    runnenberg: bool = False,
) -> Iterator[Tuple[BranchSelection, Optional[np.ndarray]]]:
    """Real branch selections in lexicographic order with their assembled
    logarithm, or None when its imaginary residue is not negligible."""
    blocks = _real_blocks(E, _offset_windows(E, bound.im_low, bound.im_high), runnenberg)
    for picks in itertools.product(*blocks):
        sel = BranchSelection(offsets=tuple(itertools.chain.from_iterable(picks)))
        yield sel, numkit.as_real(numkit.logm_branch(E, sel, cfg), cfg)


def enumerate_generators(
    E: Eigendecomposition, bound: BranchBound, cfg: ToleranceConfig = DEFAULT_TOL
) -> Iterator[Tuple[BranchSelection, np.ndarray]]:
    """Yield every branch selection within the bound whose assembled
    logarithm is real, principal branch first.

    Only the selections that Culver's (1966) criterion makes real are built:
    offset 0 on each positive real eigenvalue and (k, -k) on each conjugate
    pair; a negative real eigenvalue leaves none.  Eigenvalues must be
    nonzero.  Repeated eigenvalues are an error except in the diagonalizable
    all-real-positive case, where the principal branch is the only real
    primary candidate and is yielded alone.
    """
    lam = E.eigenvalues
    if np.any(np.abs(lam) <= cfg.entry_tol):
        raise SingularMatrix("zero eigenvalue: no generator exists")
    if E.min_pairwise_gap < cfg.distinct_tol:
        if np.all(np.abs(lam.imag) <= cfg.distinct_tol) and np.all(lam.real > cfg.entry_tol):
            sel = BranchSelection.principal(E.n)
            real = numkit.as_real(numkit.logm_branch(E, sel, cfg), cfg)
            if real is not None:
                yield sel, real
                return
        raise RepeatedEigenvalues(
            "branch enumeration needs distinct eigenvalues (or a real positive spectrum)"
        )
    for sel, real in _candidate_stream(E, bound, cfg):
        if real is not None:
            yield sel, real


def _offdiag(M: np.ndarray) -> np.ndarray:
    return M[~np.eye(M.shape[0], dtype=bool)]


def _log_acceptor(target: np.ndarray, require_row_sums: bool, cfg: ToleranceConfig):
    """Acceptance test for a real candidate logarithm L of ``target``.

    Embeddability requires L to be an intensity matrix; plain divisibility
    only requires -L to be a Z-matrix.  Failures within 10x the slack are
    marked borderline.
    """
    n = target.shape[0]

    def accept(L: np.ndarray):
        off = _offdiag(L)
        min_off = float(np.min(off)) if off.size else 0.0
        if min_off < -cfg.entry_tol:
            return False, {
                "reason": "off_diagonal_negative",
                "value": min_off,
                "borderline": min_off >= -10 * cfg.entry_tol,
            }
        if require_row_sums:
            worst = float(np.max(np.abs(L.sum(axis=1))))
            if worst > n * cfg.entry_tol:
                return False, {
                    "reason": "row_sum_violation",
                    "value": worst,
                    "borderline": worst <= 10 * n * cfg.entry_tol,
                }
        resid = numkit.relative_residual(numkit.expm(L), target)
        if resid > cfg.recon_tol:
            return False, {"reason": "reconstruction_failure", "value": resid}
        return True, None

    return accept


def _branch_search(E, bound, accept, cfg, runnenberg):
    """Scan the real branch selections; return the first accepted log."""
    negative = [z.real for z in E.eigenvalues.tolist() if z.imag == 0 and z.real < 0]
    if negative:
        # a simple negative real eigenvalue admits no real logarithm (Culver 1966)
        return None, 0, [{"reason": "negative_real_eigenvalue", "value": negative[0]}]
    examined = 0
    records: List[dict] = []
    for sel, real in _candidate_stream(E, bound, cfg, runnenberg=runnenberg):
        examined += 1
        if real is None:
            records.append({"branch": sel.offsets, "reason": "complex_candidate"})
            continue
        ok, failure = accept(real)
        if ok:
            return real, examined, records
        failure["branch"] = sel.offsets
        records.append(failure)
    return None, examined, records


def _primary_log_is_only_real_log(A: np.ndarray, cfg: ToleranceConfig) -> bool:
    """True when every real logarithm of A must be the principal primary one:
    all eigenvalues real positive and each repeated eigenvalue confined to a
    single Jordan block (geometric multiplicity one)."""
    lam = np.linalg.eigvals(A)
    if np.any(np.abs(lam.imag) > cfg.distinct_tol) or np.any(lam.real <= cfg.entry_tol):
        return False
    n = A.shape[0]
    for cluster in numkit.cluster_indices(lam, cfg.distinct_tol):
        if len(cluster) > 1:
            value = float(np.mean(lam[cluster].real))
            rank = int(np.linalg.matrix_rank(A - value * np.eye(n)))
            if rank != n - 1:
                return False
    return True


@dataclass(frozen=True)
class _Problem:
    """What tells the two questions apart.  Embeddability asks for an
    ``intensity`` matrix, so it requires zero row sums and prunes with the
    Runnenberg cone; divisibility asks only for nonnegative off-diagonal
    entries.  Each searches one complete window, so an exhausted search is a
    proof (see ``branch_bound``): embeddability Israel's, divisibility the
    Perron radius from the spectrum."""

    positive: str
    negative: str
    intensity: bool
    bound_mode: str


_EMBEDDABILITY = _Problem(EMBEDDABLE, NOT_EMBEDDABLE, intensity=True, bound_mode="israel_two_sided")
_DIVISIBILITY = _Problem(
    STRONGLY_INF_DIVISIBLE, NOT_STRONGLY_INF_DIVISIBLE, intensity=False, bound_mode="perron_radius"
)


@dataclass
class _Decision:
    """Verdict of the shared pipeline with what a report needs of it."""

    verdict: str
    witness: Optional[np.ndarray] = None
    records: List[dict] = field(default_factory=list)
    examined: int = 0
    bound: Optional[BranchBound] = None


def _eigenbasis_principal_log(eigen, cfg) -> Optional[np.ndarray]:
    """The real principal logarithm V Log(Lambda) V^-1 of ``eigen``; None
    without an eigenbasis, with an eigenvalue zero or on the closed negative
    real axis, or with an imaginary residue that is not negligible."""
    if eigen is None:
        return None
    try:
        numkit._check_log_preconditions(eigen.eigenvalues, cfg)
    except (SingularMatrix, NegativeRealEigenvalue):
        return None
    return numkit.as_real(numkit.logm_branch(eigen, BranchSelection.principal(eigen.n), cfg), cfg)


def _repeated_spectrum_verdict(A, eigen, accept, problem, cfg) -> _Decision:
    """Resolve a repeated or ill-conditioned spectrum; ``eigen`` is A's
    eigendecomposition, None when eig found the input defective, and
    ``accept`` the problem's acceptance test.

    A diagonalizable repeated spectrum is first resolved from that eigenbasis:
    the principal logarithm is a primary function, so any eigenbasis gives it
    (Higham, Functions of Matrices, 2008, Def. 1.2).  If the acceptor takes
    it, it is the witness, with the same certificate as any search hit (real,
    an intensity or Z-matrix, and expm reconstructs A within recon_tol).
    Otherwise scipy's principal primary logarithm decides, so every failure
    record and every negative rests on it: a passing one certifies a positive
    verdict outright; a failing one is conclusive only when it is the sole
    real-logarithm candidate.  The other real logarithms of a repeated
    spectrum are not enumerated, so anything else is Undetermined.
    """
    witness = _eigenbasis_principal_log(eigen, cfg)
    if witness is not None and accept(witness)[0]:
        return _Decision(problem.positive, witness)

    records: List[dict] = []
    principal = None
    try:
        principal = numkit.principal_log(A, cfg)
    except (SingularMatrix, NegativeRealEigenvalue) as exc:
        records.append({"reason": "principal_log_unavailable", "detail": str(exc)})

    if principal is not None:
        ok, failure = accept(principal)
        if ok:
            return _Decision(problem.positive, principal, records)
        failure["branch"] = "principal_primary"
        records.append(failure)
        if _primary_log_is_only_real_log(A, cfg):
            records.append({"reason": "primary_log_is_only_candidate"})
            return _Decision(problem.negative, records=records)

    detail = "non-principal real logarithms of a repeated spectrum are not enumerated"
    records.append({"reason": "repeated_eigenvalues", "detail": detail})
    return _Decision(UNDETERMINED, records=records)


def _failed_necessary_conditions(A, cfg, decomposition=None) -> List[dict]:
    """One record per violated structural necessary condition, none when
    they all hold; ``decomposition`` as in ``structure.necessary_conditions``."""
    nc = structure.necessary_conditions(A, cfg, decomposition=decomposition)
    return [
        {"reason": "necessary_condition", "condition": name, "location": location}
        for name, location in nc.violations
    ]


def _decide(A, det, problem, cfg) -> _Decision:
    """The pipeline both questions share, after the determinant gate and the
    structural necessary conditions: the eigendecomposition, then either the
    branch search or the repeated-spectrum resolution."""
    try:
        eigen = numkit.eig(A, cfg)
    except IllConditioned:
        eigen = None
    accept = _log_acceptor(A, problem.intensity, cfg)
    if eigen is None or eigen.is_repeated(cfg):
        return _repeated_spectrum_verdict(A, eigen, accept, problem, cfg)
    bound = branch_bound(eigen, det, problem.bound_mode)
    witness, examined, records = _branch_search(eigen, bound, accept, cfg, problem.intensity)
    if witness is None:
        records.append({"reason": "all_branches_exhausted", "branches": examined})
    verdict = problem.negative if witness is None else problem.positive
    return _Decision(verdict, witness, records, examined, bound=bound)


def check_embeddable(P, cfg: ToleranceConfig = DEFAULT_TOL) -> EmbeddabilityReport:
    """Decide whether a stochastic matrix is the exponential of an intensity
    matrix.

    A positive determinant and the structural necessary conditions are
    required outright.  With distinct eigenvalues a simple negative real
    eigenvalue rules out any real logarithm (Culver 1966); otherwise only the
    real branch selections within Israel's window are enumerated, each
    eigenvalue pruned by the angular cone admissible for generator spectra,
    and the first candidate passing the intensity test is the witness.
    Exhausting them proves non-embeddability when eigenvalues are distinct.
    Repeated eigenvalues are resolved through the principal logarithm, taken
    from the search's eigenbasis when the spectrum is diagonalizable: it is
    the witness when it passes, a failing one proves non-embeddability only
    when it is the sole real logarithm, and otherwise the verdict is
    Undetermined.
    """
    P = as_square_matrix(P)
    if not is_stochastic(P, cfg):
        raise NotStochastic("input is not row-stochastic within tolerance")

    det = float(np.linalg.det(P))
    if abs(det) <= cfg.entry_tol:
        failed = [{"reason": "determinant_near_singular", "value": det}]
        return EmbeddabilityReport(verdict=UNDETERMINED, failed_conditions=failed)
    if det < 0:
        failed = [{"reason": "determinant_negative", "value": det}]
        return EmbeddabilityReport(verdict=NOT_EMBEDDABLE, failed_conditions=failed)

    failed = _failed_necessary_conditions(P, cfg)
    if failed:
        return EmbeddabilityReport(verdict=NOT_EMBEDDABLE, failed_conditions=failed)

    decision = _decide(P, det, _EMBEDDABILITY, cfg)
    return EmbeddabilityReport(
        verdict=decision.verdict,
        generator=decision.witness,
        branches_examined=decision.examined,
        failed_conditions=decision.records,
        bound_used=decision.bound,
    )


def check_strong_inf_divisible(
    B,
    cfg: ToleranceConfig = DEFAULT_TOL,
    root_orders: Tuple[int, ...] = (2, 3, 5),
) -> DivisibilityReport:
    """Decide whether a nonnegative matrix has nonnegative roots of every
    order together with a positive determinant.

    A witness is a real matrix Q with nonpositive off-diagonal entries and
    exp(-Q) equal to the input; sample roots exp(-Q/n) are demonstrated for
    ``root_orders``, and a failing root makes the verdict Undetermined.  A
    repeated spectrum is resolved through the principal logarithm alone, as
    in ``check_embeddable``.  With a witness, -Q's pattern lies inside the
    input's, so Q and its roots are block upper triangular in the input's
    Frobenius form and each trailing block is exp(-Q_t) of its slice.  Its
    sub-report holds Q_t and the sliced roots once one reconstruction check
    passes, and is Undetermined with that check's record otherwise; no
    search runs for it, so ``bound_used`` is None and ``branches_examined``
    0, and it carries no recursion.
    """
    if not all(isinstance(order, (int, np.integer)) and order >= 1 for order in root_orders):
        raise ValueError("root orders must be positive integers")
    B = as_square_matrix(B)
    if not is_nonnegative(B, cfg):
        raise NotNonnegative("input has an entry below -entry_tol")

    det = float(np.linalg.det(B))
    if det <= cfg.entry_tol:
        failed = [{"reason": "determinant_not_positive", "value": det}]
        return DivisibilityReport(verdict=NOT_STRONGLY_INF_DIVISIBLE, failed_conditions=failed)

    decomp = structure.frobenius_form(B, cfg)
    failed = _failed_necessary_conditions(B, cfg, decomp)
    if failed:
        return DivisibilityReport(verdict=NOT_STRONGLY_INF_DIVISIBLE, failed_conditions=failed)

    decision = _decide(B, det, _DIVISIBILITY, cfg)
    report = DivisibilityReport(
        verdict=decision.verdict,
        branches_examined=decision.examined,
        failed_conditions=decision.records,
        bound_used=decision.bound,
    )
    if decision.verdict != STRONGLY_INF_DIVISIBLE:
        return report

    Q = report.z_matrix = -decision.witness
    roots: List[Tuple[int, np.ndarray]] = []
    for order in root_orders:
        root = numkit.expm(-Q / order)
        failure = None
        if np.min(root) < -cfg.entry_tol:
            failure = {"reason": "root_not_nonnegative", "order": order, "value": float(np.min(root))}
        elif numkit.relative_residual(np.linalg.matrix_power(root, order), B) > 10 * cfg.recon_tol:
            failure = {"reason": "root_power_mismatch", "order": order}
        if failure is not None:
            report.failed_conditions.append(failure)
            report.verdict = UNDETERMINED
            return report
        roots.append((order, root))
    report.roots_demonstrated = roots

    for offset in itertools.accumulate(decomp.block_sizes[:-1]):
        tail = np.ix_(decomp.permutation[offset:], decomp.permutation[offset:])
        ok, failure = _log_acceptor(decomp.U[offset:, offset:], False, cfg)(-Q[tail])
        if ok:
            sliced = [(order, root[tail]) for order, root in roots]
            sub = DivisibilityReport(STRONGLY_INF_DIVISIBLE, Q[tail], sliced)
        else:
            sub = DivisibilityReport(UNDETERMINED, failed_conditions=[failure])
        report.recursion.append(sub)
    return report


def inverse_m_power_form(P, m: int, cfg: ToleranceConfig = DEFAULT_TOL) -> Optional[InverseMRoot]:
    """Express P as the mth power of an inverse-M matrix, when possible.

    The primary mth root W of P^-1 is tested for M-matrix membership.  For
    stochastic P the result carries the resolvent parameters
    ``epsilon = (s-1)/s`` and stochastic ``h`` with ``W = s(I - epsilon*h)``;
    the identity P = (1-epsilon)^m (I - epsilon*h)^-m is verified within
    ``recon_tol``.  Returns None when P has no such representation.
    """
    P = as_square_matrix(P)
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise ValueError("power m must be a positive integer")
    n = P.shape[0]
    det = float(np.linalg.det(P))
    if abs(det) <= cfg.entry_tol:
        raise SingularMatrix("inverse-M power form needs a nonsingular matrix")
    stochastic = is_stochastic(P, cfg)
    Pinv = np.linalg.inv(P)
    W = numkit.primary_root(Pinv, m, cfg)

    if not is_z_matrix(W, cfg):
        return None
    try:
        Winv = np.linalg.inv(W)
    except np.linalg.LinAlgError:
        return None
    if not is_nonnegative(Winv, cfg):
        return None

    if not stochastic:
        return InverseMRoot(root=Winv)

    s = float(np.max(np.diag(W)))
    if abs(s - 1.0) <= n * cfg.entry_tol:
        # boundary P = I: epsilon 0 and any stochastic factor; identity by convention
        return InverseMRoot(root=Winv, epsilon=0.0, h=np.eye(n))
    K = s * np.eye(n) - W
    H = K / (s - 1.0)
    if not is_stochastic(H, cfg):
        return None
    epsilon = (s - 1.0) / s
    recon = (1.0 - epsilon) ** m * np.linalg.matrix_power(
        np.linalg.inv(np.eye(n) - epsilon * H), m
    )
    if numkit.relative_residual(recon, P) > cfg.recon_tol:
        return None
    return InverseMRoot(root=Winv, epsilon=epsilon, h=H)


def im_root_approx(
    P,
    generator,
    n: int = 1,
    cfg: ToleranceConfig = DEFAULT_TOL,
    n_max: int = 2**20,
) -> np.ndarray:
    """Smallest-order inverse-M root certificate.

    Requires exp(generator) to reconstruct P and every off-diagonal entry of
    the generator to be strictly positive; without that the construction can
    fail outright.  Doubles the root order from ``n`` until the primary root
    of P^-1 passes the M-matrix test, demonstrating that the matching root of
    P lies in the inverse-M class.
    """
    P = as_square_matrix(P)
    G = as_square_matrix(generator)
    if P.shape != G.shape:
        raise ValueError("matrix and generator must have matching shapes")
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError("starting order n must be a positive integer")
    if numkit.relative_residual(numkit.expm(G), P) > cfg.recon_tol:
        raise ValueError("exp(generator) does not reconstruct the matrix")
    off = _offdiag(G)
    if off.size == 0 or np.min(off) <= cfg.entry_tol:
        raise OffDiagonalZeros(
            "generator off-diagonal entries must be strictly positive"
        )
    Pinv = np.linalg.inv(P)
    order = int(n)
    while order <= n_max:
        W = numkit.primary_root(Pinv, order, cfg)
        if is_z_matrix(W, cfg) and is_nonnegative(np.linalg.inv(W), cfg):
            return W
        order *= 2
    raise SearchExhausted(f"no M-matrix root of the inverse found up to order {n_max}")
