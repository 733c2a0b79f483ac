"""Decision core for embeddability and strong infinite divisibility.

Both questions ask for a real logarithm L of the input with nonnegative
off-diagonal entries: a nonnegative B is strongly infinitely divisible with
the Z-matrix Q = -L, and a stochastic P is embeddable with the generator L,
because such an L of a stochastic P has zero row sums (Kingman 1962; the
proof is in ``_search_windows``).  So one decision, ``_decide``, answers
both with one acceptance test and one searched window; only the verdict
names differ.  Each public entry validates its input and applies its own
determinant gate; ``_decide`` then runs the structural necessary
conditions, one eigendecomposition, and either the branch search or, for a
repeated or ill-conditioned spectrum, the principal logarithm alone.  That
eigendecomposition is the one source of every spectral fact the decision
uses: the searched window and, on a repeated spectrum, whether a real
principal logarithm exists and its value V Log(Lambda) V^-1.  A positive
found that way passes the acceptance test of every search hit; negatives on
that path rest on ``numkit.principal_log``, and what it leaves open is
Undetermined.  A negative that rests on a failure within the acceptor's
borderline band is Undetermined too, and a reconstruction failure is never
evidence: a search that holds one tries ``numkit.principal_log`` through the
acceptor, and is Undetermined when that fails too.  The acceptor tests each candidate
set to zero at the input's off-diagonal structural zeros (``_log_acceptor``),
so a witness lies on the input's zero pattern unless only the candidate as
computed passed.  Trailing blocks of a divisible reducible input are not
decided or checked again: their sub-reports are slices of the parent's
witness and roots, with ``bound_used`` None and ``branches_examined`` 0,
and a block the witness does not leave block triangular is Undetermined.

The searched window gives each eigenvalue its branch offsets in one pass,
the Perron radius and Runnenberg's cone together (``_search_windows``), and
a decision builds it and its real selections once: the search walks them
and ``bound_used`` counts them.  ``branch_bound`` states the uncut windows,
for their tuple counts.  Only real branch selections are built
(``_real_blocks``): with distinct eigenvalues a logarithm is real exactly
when each real eigenvalue is positive and keeps offset 0 and each conjugate
pair takes offsets (k, -k) (Culver 1966, On the existence and uniqueness of
the real logarithm of a matrix), so the cost follows the number of real
candidates rather than the raw product of the windows.
Each candidate, and each sample root, is the real part of its computed
value: the selection is real, so the imaginary part is rounding, and no
imaginary-residue threshold enters a verdict; the acceptor alone judges it.
Branch candidates are independent pure computations; enumeration order is
deterministic (principal branch first, then lexicographic over offsets
sorted by absolute value), so the reported witness is always the most
principal admissible one.  Inverse-M power forms and nonnegative root
construction complete the module.

The sample roots exp(-Q/m) of a divisibility witness found in the
eigenbasis come from that basis, V diag(exp(mu/m)) V^-1; expm runs for the
acceptance test, a root that fails its checks, and the roots of a witness
from ``numkit.principal_log``, never for a trailing block.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from . import numkit, structure
from .classify import _offdiag_mask, is_nonnegative, is_stochastic, is_z_matrix
from .errors import (
    IllConditioned,
    NegativeRealEigenvalue,
    NotNonnegative,
    NotStochastic,
    OffDiagonalZeros,
    Overflow,
    SearchExhausted,
    SingularDeterminant,
    SingularMatrix,
)
from .numkit import DEFAULT_TOL, Eigendecomposition, ToleranceConfig, as_square_matrix, structural_pattern

__all__ = [
    "BOUND_MODES",
    "EMBEDDABLE",
    "NOT_EMBEDDABLE",
    "STRONGLY_INF_DIVISIBLE",
    "NOT_STRONGLY_INF_DIVISIBLE",
    "UNDETERMINED",
    "BranchBound",
    "EmbeddabilityReport",
    "DivisibilityReport",
    "InverseMRoot",
    "branch_bound",
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
# slack of a branch offset window's closed ends, in turns (_offset_window)
_OFFSET_SLACK = 1e-12
# slack of Runnenberg's cone: added to its angle, and the radius about its
# apex it admits whatever the angle (_search_windows)
_CONE_SLACK = 1e-9


@dataclass
class BranchBound:
    """Admissible imaginary-part window for candidate generator eigenvalues
    and the branch-offset counts it induces per eigenvalue.

    ``raw_tuple_count`` is the product of the per-eigenvalue counts;
    ``candidate_count`` is the number of those tuples whose logarithm is
    real (Culver 1966).  ``cone_apex`` is log rho when each eigenvalue's
    offsets are also cut to Runnenberg's cone with that apex, as in every
    decision's ``bound_used`` (``_search_windows``), and None for an uncut
    window from ``branch_bound``.
    """

    mode: str
    im_low: float
    im_high: float
    per_eigenvalue_counts: List[int]
    raw_tuple_count: int
    candidate_count: int
    cone_apex: Optional[float] = None


@dataclass
class EmbeddabilityReport:
    verdict: str
    generator: Optional[np.ndarray] = None
    branches_examined: int = 0
    failed_conditions: List[dict] = field(default_factory=list)
    bound_used: Optional[BranchBound] = None


@dataclass
class DivisibilityReport:
    """A divisibility decision.  ``recursion`` holds one sub-report per
    trailing block of the input's Frobenius form, sliced from this report's
    witness and roots: a sub-report's reconstruction is certified within
    recon_tol times the norm of this report's input, not its block's."""

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

    ``root`` is the target's own nonnegative primary mth root, whose inverse
    is an M-matrix (at m = 1 it is the target itself).  For stochastic
    targets ``epsilon`` and ``h`` give the equivalent resolvent form
    ``P = (1 - epsilon)^m (I - epsilon*h)^-m``.
    """

    root: np.ndarray
    epsilon: Optional[float] = None
    h: Optional[np.ndarray] = None


def _offset_window(arg: float, lo: float, hi: float) -> range:
    """Integers k with lo <= arg + 2*pi*k <= hi (``_OFFSET_SLACK`` on the
    closed ends)."""
    kmin = math.ceil((lo - arg) / _TWO_PI - _OFFSET_SLACK)
    kmax = math.floor((hi - arg) / _TWO_PI + _OFFSET_SLACK)
    return range(kmin, kmax + 1)


def _log_det(det: float) -> float:
    """log det for a branch window; a det that is not a finite float raises
    Overflow, one that is not positive SingularDeterminant."""
    if not math.isfinite(det):
        raise Overflow("the determinant is not a finite float")
    if not det > 0:
        raise SingularDeterminant("branch bounds need det > 0")
    return math.log(det)


def _perron_radius(E: Eigendecomposition, log_det: float) -> float:
    """The Perron radius n*r + t, r = log rho and t = -log det, that bounds
    |Im mu| for every eigenvalue mu of the logarithms searched
    (``_search_windows`` holds the proof)."""
    return E.n * math.log(abs(E.eigenvalues[0])) - log_det


def _bound(mode, lo, hi, windows, blocks, cone_apex=None) -> BranchBound:
    """The ``BranchBound`` of per-eigenvalue offset ``windows`` within
    [lo, hi] and their ``_real_blocks``."""
    counts = [len(window) for window in windows]
    candidates = math.prod(len(block) for block in blocks)
    return BranchBound(mode, lo, hi, counts, math.prod(counts), candidates, cone_apex)


def branch_bound(E: Eigendecomposition, det: float, mode: str) -> BranchBound:
    """Imaginary-part window for the eigenvalues of a candidate generator.

    israel_two_sided    |Im log lam| <= |log det|  (Israel, Rosenthal & Wei 2001)
    paper_one_sided     log det <= Im log lam <= 0  (the paper's window)
    perron_radius       |Im log lam| <= n*r + t,  r = log rho, t = -log det

    The windows are not cut to Runnenberg's cone, so ``cone_apex`` is None.
    A decision searches the Perron radius with each eigenvalue's offsets cut
    to that cone (``_search_windows``, which holds both proofs), and its
    ``bound_used`` counts that searched window, not this one.  A det that is
    not a finite float raises Overflow.

    Israel's window is complete for intensity matrices.  The one-sided window
    is not: a conjugate pair takes offsets (k, -k), whose logarithms cannot
    both lie in it, so it misses every generator with a complex eigenvalue.
    No decision searches either; both are kept only for the raw tuple count
    of acceptance criterion 3.

    The spectral-radius position always gets exactly one offset (its
    logarithm must stay real).  ``raw_tuple_count`` is the product of the
    per-eigenvalue counts before any reality filtering; ``candidate_count``
    counts the real selections among them (Culver 1966), so it is 0 when an
    eigenvalue is negative real.
    """
    if mode not in BOUND_MODES:
        raise ValueError(f"unknown bound mode {mode!r}")
    log_det = _log_det(det)
    if mode == "israel_two_sided":
        lo, hi = -abs(log_det), abs(log_det)
    elif mode == "paper_one_sided":
        lo, hi = min(log_det, 0.0), max(log_det, 0.0)
    else:
        radius = _perron_radius(E, log_det)
        lo, hi = -radius, radius
    windows = _offset_windows(E, lo, hi)
    return _bound(mode, lo, hi, windows, _real_blocks(E, windows))


def _offset_windows(E: Eigendecomposition, lo: float, hi: float) -> List[range]:
    """Branch offsets per eigenvalue that keep Im log lam in [lo, hi]; the
    spectral-radius position admits only 0 (its logarithm must stay real)."""
    args = np.angle(E.eigenvalues).tolist()
    return [range(1)] + [_offset_window(arg, lo, hi) for arg in args[1:]]


def _search_windows(E: Eigendecomposition, radius: float) -> List[range]:
    """The searched offsets per eigenvalue: |Im mu| <= h for
    mu = log lam + 2*pi*i*k, with

        h = min(radius, (r - log|lam|) cot(pi/n)),  r = log rho = log|lam_0|,

    ``radius`` the Perron radius n*r + t of ``_perron_radius`` (t = -log det)
    and the second term Runnenberg's (1962) cone with its apex at r.  The
    cone's angle gets ``_CONE_SLACK`` of slack and admits |mu - r| <=
    ``_CONE_SLACK``.  The spectral-radius position keeps offset 0 alone; the
    canonical order puts rho first, so no later log|lam| exceeds r.

    Both bounds hold for any real logarithm L with nonnegative off-diagonal
    entries, so exhausting this window is a proof.  Such an L has a real
    Perron root, its largest real part, so that root is r.

    Perron radius.  With s = max(-L_jj) the matrix L + sI is nonnegative with
    Perron root s + r, so every L_jj <= r; as trace L = -t, s <= t + (n-1)r.
    Every eigenvalue -a + i*theta of L lies in the disk of radius s + r
    centred at -s, so theta^2 <= (r+a)(2s + r - a) <= (s + r)^2 <= (n*r + t)^2.
    For a stochastic input r = 0 and the radius is Israel's |log det|, up to
    rounding.

    Cone.  If L is irreducible with right Perron vector x > 0 and
    D = diag(x), then D^-1 (L - rI) D has nonnegative off-diagonal entries
    and zero row sums: it is an intensity matrix, so its eigenvalues lie in
    the cone with apex 0.  A reducible L has the eigenvalues of its
    irreducible diagonal blocks; a block of m states lies in the narrower
    m-state cone with apex at its own Perron root, at most r, so inside the
    n-state cone at r.  Re mu = log|lam| does not depend on k, so the cone
    bounds |Im mu| alone.

    For a stochastic P such an L is an intensity matrix (Kingman 1962), so
    one search answers both questions.  Here r = 0 and the disk above touches
    the imaginary axis only at 0, so e^mu = 1 only for mu = 0.  P1 = 1 then
    puts 1 in L's generalized 0-eigenspace, where L is a nilpotent N, and
    (e^N - I)1 = N phi(N)1 = 0 with phi(N) = sum N^k/(k+1)! invertible gives
    L1 = N1 = 0.  A computed witness meets this up to rounding only: its row
    sums are not tested and carry the rounding error of the computed log.
    """
    apex = math.log(abs(E.eigenvalues[0]))
    cot = math.tan(math.pi * (0.5 - 1.0 / E.n) + _CONE_SLACK)
    windows = [range(1)]
    for z, arg in zip(E.eigenvalues[1:].tolist(), np.angle(E.eigenvalues[1:]).tolist()):
        re = math.log(abs(z)) - apex
        h = min(radius, max(-re * cot, math.sqrt(max(_CONE_SLACK * _CONE_SLACK - re * re, 0.0))))
        windows.append(_offset_window(arg, -h, h))
    return windows


def _real_blocks(E: Eigendecomposition, windows: List[range]) -> List[List[Tuple[int, ...]]]:
    """Offsets that keep the logarithm real, per real eigenvalue and per
    conjugate pair in the canonical order.

    With distinct eigenvalues every logarithm is primary, and it is real
    exactly when each real eigenvalue is positive and keeps offset 0 and each
    conjugate pair takes offsets (k, -k) (Culver 1966).  Each offset must lie
    in its own eigenvalue's window.  Pair offsets are sorted principal first,
    so the product of the blocks runs in the lexicographic order of the full
    offset tuples.
    """
    lam = E.eigenvalues.tolist()
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
    E: Eigendecomposition, blocks: List[List[Tuple[int, ...]]], cfg: ToleranceConfig
) -> Iterator[Tuple[Tuple[int, ...], np.ndarray]]:
    """The real branch selections of ``blocks`` (``_real_blocks``), each a
    tuple of offsets, in lexicographic order with their assembled logarithm.
    Culver's criterion makes each selection's logarithm real, so the
    imaginary part of the computed one is rounding and its real part is the
    candidate; the acceptor alone judges it."""
    for picks in itertools.product(*blocks):
        sel = tuple(itertools.chain.from_iterable(picks))
        yield sel, numkit.logm_branch(E, sel, cfg).real.copy()


def _offdiag_zeros(A: np.ndarray, cfg: ToleranceConfig) -> Optional[np.ndarray]:
    """The off-diagonal structural zeros of A (``classify.structural_pattern``,
    the pattern of ``structure.frobenius_form``) as a boolean mask, None when
    A has none."""
    pattern = structural_pattern(A, cfg)
    if pattern.all():
        return None
    zeros = _offdiag_mask(len(A)) & ~pattern
    return zeros if zeros.any() else None


def _on_pattern(zeros: Optional[np.ndarray], check):
    """``check`` (which returns (ok, record)) of a matrix M set to 0.0, in
    place, at ``zeros``; when that fails and the projection removed
    anything, M is restored and checked as given, and that check's result
    and record stand, so the projection never rejects an M that ``check``
    accepts as given.  With no zeros (None) it is ``check`` itself."""
    if zeros is None:
        return check

    def projected(M: np.ndarray, *args):
        dropped = M[zeros]
        M[zeros] = 0.0
        ok, record = check(M, *args)
        if ok or not dropped.any():
            return ok, record
        M[zeros] = dropped
        return check(M, *args)

    return projected


def _log_acceptor(target: np.ndarray, zeros: Optional[np.ndarray], cfg: ToleranceConfig):
    """Acceptance test for a real candidate logarithm L of ``target``: L must
    have nonnegative off-diagonal entries and expm(L) must reconstruct the
    target.  For a stochastic target such an L is an intensity matrix (see
    ``_search_windows``), so the one test serves both questions.  An
    off-diagonal failure within 10x the slack is marked borderline, and
    ``_decide`` certifies no negative that rests on one.

    Before both checks L is set to 0.0, in place, at ``zeros``, the target's
    off-diagonal structural zeros (``_offdiag_zeros``), through
    ``_on_pattern``.  A logarithm with nonnegative off-diagonal entries is
    zero at an exact zero of the target: with s = max(-L_jj), expm(L) >=
    e^-s (I + L + sI) entrywise, so L_ij <= e^s expm(L)_ij.  A target entry
    that is below ``entry_tol`` but not zero allows L_ij up to e^s
    entry_tol, and removing that can cost the reconstruction; L is then
    checked as given.  An accepted L lies exactly on the target's pattern
    unless only L as given passed.  The target is not zero (both entries
    gate on its determinant), so its norm, taken once, divides every
    residual; a norm past the float range raises Overflow, as a determinant
    there does.
    """
    n = target.shape[0]
    offdiag = _offdiag_mask(n)
    scale = numkit._frob(target)
    if scale == math.inf:
        raise Overflow("the Frobenius norm is not a finite float")

    def check(L: np.ndarray):
        off = L[offdiag]
        min_off = float(off.min()) if off.size else 0.0
        borderline = numkit._candidate_sign_failure(min_off, cfg)
        if borderline is not None:
            return False, {"reason": "off_diagonal_negative", "value": min_off, "borderline": borderline}
        # expm raises Overflow unless its result is finite, and L has passed
        # the sign test, so that result and the target are nonnegative up to
        # the slack: their difference cannot overflow
        resid = numkit._frob(numkit.expm(L) - target) / scale
        if numkit._reconstruction_fails(resid, cfg):
            return False, {"reason": "reconstruction_failure", "value": resid}
        return True, None

    return _on_pattern(zeros, check)


def _branch_search(E, blocks, accept, cfg):
    """Scan the real branch selections of ``blocks``; return the first
    accepted log with its selection (both None when none is accepted), the
    number examined and the failure records."""
    negative = [z.real for z in E.eigenvalues.tolist() if z.imag == 0 and z.real < 0]
    if negative:
        # a simple negative real eigenvalue admits no real logarithm (Culver 1966)
        return None, None, 0, [{"reason": "negative_real_eigenvalue", "value": negative[0]}]
    examined = 0
    records: List[dict] = []
    for sel, real in _candidate_stream(E, blocks, cfg):
        examined += 1
        ok, failure = accept(real)
        if ok:
            return real, sel, examined, records
        failure["branch"] = sel
        records.append(failure)
    return None, None, examined, records


def _primary_log_is_only_real_log(A: np.ndarray, eigen: Optional[Eigendecomposition], cfg: ToleranceConfig) -> bool:
    """True when every real logarithm of A must be the principal primary
    one: all eigenvalues real positive and each repeated eigenvalue confined
    to a single Jordan block (geometric multiplicity one).  The eigenvalues
    are those of ``eigen``, A's eigendecomposition, or with none (None)
    ``numkit._lapack_eigvals(A)``, the spectrum ``numkit.principal_log``
    read, bit for bit."""
    lam = numkit._lapack_eigvals(A) if eigen is None else eigen.eigenvalues
    if np.any(numkit._nonreal(lam, cfg)) or not np.all(numkit._positive(lam.real, cfg)):
        return False
    n = A.shape[0]
    for cluster in numkit._eigenvalue_clusters(lam, cfg):
        if len(cluster) > 1:
            value = float(np.mean(lam[cluster].real))
            rank = int(np.linalg.matrix_rank(A - value * np.eye(n)))
            if rank != n - 1:
                return False
    return True


def _principal_witness(A, accept, records, cfg):
    """``numkit.principal_log`` of A when the acceptor ``accept`` takes it,
    else None with the reason appended to ``records``: a
    ``principal_log_unavailable`` record when A has no real principal
    logarithm or its square roots do not converge, otherwise the acceptor's
    failure record with ``branch`` ``principal_primary``."""
    try:
        witness = numkit.principal_log(A, cfg)
    except (SingularMatrix, NegativeRealEigenvalue, IllConditioned) as exc:
        records.append({"reason": "principal_log_unavailable", "detail": str(exc)})
        return None
    ok, failure = accept(witness)
    if ok:
        return witness
    records.append(dict(failure, branch="principal_primary"))
    return None


def _repeated_spectrum_verdict(A, eigen, accept, verdicts, cfg):
    """Resolve a repeated or ill-conditioned spectrum into (verdict, witness,
    records, selection); ``eigen`` is A's eigendecomposition, None when eig
    found the input defective, ``accept`` the acceptance test and
    ``verdicts`` the question's (positive, negative) verdict names.
    ``selection`` is the principal one when the witness is eig's eigenbasis
    log, None otherwise.

    With an eigenbasis its eigenvalues decide whether a real principal
    logarithm exists: one that is zero or on the closed negative real axis
    ends the path Undetermined with a ``principal_log_unavailable`` record,
    as does a ``numkit.principal_log`` whose square roots do not converge.
    Otherwise the principal logarithm is taken from that eigenbasis first: it
    is a primary function, so any eigenbasis gives it (Higham, Functions of
    Matrices, 2008, Def. 1.2).  If the acceptor takes it, it is the witness,
    with the same certificate as any search hit (real, nonnegative off the
    diagonal, and expm reconstructs A within recon_tol).
    ``numkit.principal_log``, which needs no eigenbasis, runs only when that
    one is rejected or there is none (``_principal_witness``), so every
    failure record and every negative rests on it: a passing one certifies a
    positive verdict outright; a failing one is conclusive only when it is
    the sole real-logarithm candidate and its failure is not a
    reconstruction failure, which is rounding (see ``_decide``).  Without an
    eigenbasis that last test takes the spectrum again, only when it runs.
    The other real logarithms of a repeated spectrum are not enumerated, so
    anything else is Undetermined.
    """
    positive, negative = verdicts
    records: List[dict] = []
    try:
        if eigen is not None:
            numkit._check_log_preconditions(eigen.eigenvalues, cfg)
            sel = (0,) * eigen.n
            # the principal selection of a spectrum off the closed negative
            # real axis is real, so its real part is the candidate
            witness = numkit.logm_branch(eigen, sel, cfg).real.copy()
            if accept(witness)[0]:
                return positive, witness, records, sel
    except (SingularMatrix, NegativeRealEigenvalue) as exc:
        records.append({"reason": "principal_log_unavailable", "detail": str(exc)})
    else:
        witness = _principal_witness(A, accept, records, cfg)
        if witness is not None:
            return positive, witness, records, None
        # a reconstruction failure is rounding, never evidence (_decide)
        conclusive = records[-1]["reason"] not in ("principal_log_unavailable", "reconstruction_failure")
        if conclusive and _primary_log_is_only_real_log(A, eigen, cfg):
            records.append({"reason": "primary_log_is_only_candidate"})
            return negative, None, records, None

    detail = "non-principal real logarithms of a repeated spectrum are not enumerated"
    records.append({"reason": "repeated_eigenvalues", "detail": detail})
    return UNDETERMINED, None, records, None


def _decide(A, log_det, zeros, verdicts, cfg, decomposition=None):
    """The decision both questions share: the structural necessary
    conditions (``decomposition`` as in ``structure.necessary_conditions``),
    one eigendecomposition, then either the search of ``_search_windows``
    (the Perron radius cut to the cone with apex log rho, both from that
    eigendecomposition, built once and counted in ``bound``) or the
    repeated-spectrum resolution.  An exhausted search whose records hold a
    reconstruction failure certifies no negative: such a failure is
    rounding, not evidence.  Culver's real selection L = V diag(mu) V^-1 has
    exp(L) = V Lambda V^-1 exactly, and eig certified V Lambda V^-1 within
    recon_tol of A, so the residual of the computed L measures only the
    kappa(V) u error of L and expm's own (Higham, Functions of Matrices,
    2008, Sec. 4.5).  ``numkit.principal_log`` then goes through the same
    acceptor (``_principal_witness``): accepted, it is the witness of a
    positive verdict; otherwise the verdict is Undetermined, with a last
    ``reconstruction_failure_not_evidence`` record.  A negative that rests
    on a failure the acceptor marks borderline is not certified: it ends
    Undetermined with a trailing ``near_threshold`` record.  A search that
    would have to take the logarithm of an eigenvalue within ``entry_tol``
    of zero ends Undetermined with an ``eigenvalue_near_zero`` record
    holding its modulus.  The determinant gates differ between the
    questions and stay in the public entries, which call this after them
    with ``log_det``, ``_log_det`` of the gated determinant, taken before
    any other work so that a determinant that overflowed always raises
    Overflow; ``zeros`` is A's ``_offdiag_zeros`` and ``verdicts`` the
    question's (positive, negative) pair.  Returns (verdict, witness,
    examined, records, bound), the field order of ``EmbeddabilityReport``,
    then the witness's spectral form (eigen, selection) when it is eig's
    V Log(Lambda) V^-1 at that branch selection, None otherwise."""
    positive, negative = verdicts
    conditions = structure.necessary_conditions(A, cfg, decomposition=decomposition)
    if conditions.violations:
        records = [{"reason": "necessary_condition", "condition": name, "location": location}
                   for name, location in conditions.violations]
        return negative, None, 0, records, None, None
    try:
        eigen = numkit.eig(A, cfg)
    except IllConditioned:
        eigen = None
    accept = _log_acceptor(A, zeros, cfg)
    if eigen is None or eigen.is_repeated(cfg):
        verdict, witness, records, sel = _repeated_spectrum_verdict(A, eigen, accept, verdicts, cfg)
        examined, bound = 0, None
    else:
        radius = _perron_radius(eigen, log_det)
        windows = _search_windows(eigen, radius)
        blocks = _real_blocks(eigen, windows)
        bound = _bound("perron_radius", -radius, radius, windows, blocks, math.log(abs(eigen.eigenvalues[0])))
        try:
            witness, sel, examined, records = _branch_search(eigen, blocks, accept, cfg)
        except SingularMatrix:
            # numkit takes no logarithm of an eigenvalue within entry_tol of
            # zero; the canonical order puts the smallest modulus last
            smallest = float(abs(eigen.eigenvalues[-1]))
            return UNDETERMINED, None, 0, [{"reason": "eigenvalue_near_zero", "value": smallest}], bound, None
        if witness is None:
            records.append({"reason": "all_branches_exhausted", "branches": examined})
        verdict = negative if witness is None else positive
        if verdict == negative and any(record["reason"] == "reconstruction_failure" for record in records):
            verdict, witness = positive, _principal_witness(A, accept, records, cfg)
            if witness is None:
                verdict = UNDETERMINED
                records.append({"reason": "reconstruction_failure_not_evidence"})
    if verdict == negative and any(record.get("borderline") for record in records):
        verdict = UNDETERMINED
        records.append({"reason": "near_threshold"})
    return verdict, witness, examined, records, bound, None if sel is None else (eigen, sel)


def check_embeddable(P, cfg: ToleranceConfig = DEFAULT_TOL) -> EmbeddabilityReport:
    """Decide whether a stochastic matrix is the exponential of an intensity
    matrix.

    A positive determinant and the structural necessary conditions are
    required outright.  The rest is the divisibility decision of P (see
    ``_search_windows``): with distinct eigenvalues a simple negative real
    eigenvalue rules out any real logarithm (Culver 1966); otherwise only the
    real branch selections within the Perron radius, which for a stochastic
    input is Israel's window up to rounding, are enumerated, each eigenvalue
    pruned by the generator cone, and the first candidate with nonnegative
    off-diagonal entries that reconstructs P is the witness.  Such a
    logarithm of a stochastic matrix is an intensity matrix, so the
    witness's row sums are zero up to rounding; they are not tested.
    Exhausting the candidates proves non-embeddability when eigenvalues are
    distinct, unless a candidate failed its reconstruction: that is
    rounding, so the principal logarithm is tried and, when it fails too,
    the verdict is Undetermined.  Repeated eigenvalues are resolved through
    the principal logarithm, taken from the decision's eigenbasis when the
    spectrum is diagonalizable: it is the witness when it passes, a failing
    one proves non-embeddability only when it is the sole real logarithm and
    fails by more than its reconstruction, and otherwise the verdict is
    Undetermined.  A negative that rests on a borderline
    failure is Undetermined, with a last ``near_threshold`` record.
    """
    P = as_square_matrix(P)
    if not is_stochastic(P, cfg):
        raise NotStochastic("input is not row-stochastic within tolerance")

    det = float(numkit._lapack_det(P))
    if numkit._det_below_gate(abs(det), cfg):
        failed = [{"reason": "determinant_near_singular", "value": det}]
        return EmbeddabilityReport(verdict=UNDETERMINED, failed_conditions=failed)
    if det < 0:
        failed = [{"reason": "determinant_negative", "value": det}]
        return EmbeddabilityReport(verdict=NOT_EMBEDDABLE, failed_conditions=failed)
    log_det = _log_det(det)

    return EmbeddabilityReport(*_decide(P, log_det, _offdiag_zeros(P, cfg), (EMBEDDABLE, NOT_EMBEDDABLE), cfg)[:5])


def check_strong_inf_divisible(
    B,
    cfg: ToleranceConfig = DEFAULT_TOL,
    root_orders: Tuple[int, ...] = (2, 3, 5),
) -> DivisibilityReport:
    """Decide whether a nonnegative matrix has nonnegative roots of every
    order together with a positive determinant.

    A witness is a real matrix Q with nonpositive off-diagonal entries and
    exp(-Q) equal to the input; sample roots exp(-Q/m) are demonstrated for
    the orders m in ``root_orders`` (any iterable of positive integers, read
    once; booleans are not orders): each must be nonnegative and its mth
    power must reconstruct the input, and a failing root makes the verdict
    Undetermined.  Each root is set to zero at the input's off-diagonal
    structural zeros before its checks and, when that fails, checked as
    computed (``_on_pattern``, as for the witness).  When the witness is
    -Q = V diag(mu) V^-1 from the decision's eigenbasis (a search hit, or
    the principal logarithm of a repeated diagonalizable spectrum), the
    roots are V diag(exp(mu/m)) V^-1, all orders in one product
    (``numkit.branch_roots``), whose real parts are the roots, as the
    witness's selection is real.  A root that fails a check is recomputed as
    expm(-Q/m) and checked again, so the report then rests on the expm root.
    A witness from ``numkit.principal_log`` has no eigenbasis, and its roots
    are expm's.  A repeated spectrum is resolved through the principal
    logarithm alone, and a negative that rests on a borderline failure or a
    reconstruction failure is Undetermined, as in ``check_embeddable``.  The
    acceptor sets each candidate to zero at the input's off-diagonal
    structural zeros, so a witness it accepts that way is block upper
    triangular in the input's Frobenius form, its roots are so up to
    rounding, and each trailing block B_t is exp(-Q_t) of its slice.
    Exactly, exp(-Q_t) - B_t is a diagonal block of exp(-Q) - B, so the
    slice inherits the parent's reconstruction bound with no check of its own:
    ||exp(-Q_t) - B_t||_F <= ||exp(-Q) - B||_F <= recon_tol ||B||_F, a
    tolerance relative to the parent's norm, not to B_t's.  Its sub-report
    holds Q_t and the sliced roots; no search runs for it, so
    ``bound_used`` is None and ``branches_examined`` 0, and it carries no
    recursion.  A witness the acceptor took without the projection can be
    nonzero below a block (Q[tail, head]); that block's sub-report is then
    Undetermined with a ``witness_not_block_triangular`` record holding the
    largest such |Q| entry, since its slice inherits nothing.
    """
    root_orders = tuple(root_orders)
    for m in root_orders:
        numkit._check_order(m, "root orders")
    B = as_square_matrix(B)
    if not is_nonnegative(B, cfg):
        raise NotNonnegative("input has an entry below -entry_tol")

    det = float(numkit._lapack_det(B))
    if numkit._det_below_gate(det, cfg):
        failed = [{"reason": "determinant_not_positive", "value": det}]
        return DivisibilityReport(verdict=NOT_STRONGLY_INF_DIVISIBLE, failed_conditions=failed)
    log_det = _log_det(det)

    decomp = structure.frobenius_form(B, cfg)
    zeros = _offdiag_zeros(B, cfg)
    verdicts = (STRONGLY_INF_DIVISIBLE, NOT_STRONGLY_INF_DIVISIBLE)
    verdict, witness, examined, records, bound, spectral = _decide(B, log_det, zeros, verdicts, cfg, decomp)
    report = DivisibilityReport(verdict, branches_examined=examined, failed_conditions=records,
                                bound_used=bound)
    if verdict != STRONGLY_INF_DIVISIBLE:
        return report

    Q = report.z_matrix = -witness
    # the witness's selection is real, and so are its basis roots
    candidates = numkit.branch_roots(*spectral, root_orders, cfg).real.copy() if spectral else [None] * len(root_orders)
    accept_root = _on_pattern(zeros, _root_check(B, cfg))
    roots: List[Tuple[int, np.ndarray]] = []
    for order, root in zip(root_orders, candidates):
        if root is None or not accept_root(root, order)[0]:
            root = numkit.expm(-Q / order)
            ok, failure = accept_root(root, order)
            if not ok:
                report.failed_conditions.append(failure)
                report.verdict = UNDETERMINED
                return report
        roots.append((order, root))
    report.roots_demonstrated = roots
    if decomp.n_blocks == 1:
        return report

    # Q and the roots in the Frobenius form's order: each trailing block is
    # then a contiguous slice, copied so that its sub-report owns it
    rows, cols = decomp.permutation[:, None], decomp.permutation
    Q, roots = Q[rows, cols], [(order, root[rows, cols]) for order, root in roots]
    for offset in itertools.accumulate(decomp.block_sizes[:-1]):
        leak = float(np.abs(Q[offset:, :offset]).max())
        if leak:
            failed = [{"reason": "witness_not_block_triangular", "value": leak}]
            report.recursion.append(DivisibilityReport(UNDETERMINED, failed_conditions=failed))
            continue
        sliced = [(order, root[offset:, offset:].copy()) for order, root in roots]
        report.recursion.append(DivisibilityReport(STRONGLY_INF_DIVISIBLE, Q[offset:, offset:].copy(), sliced))
    return report


def _root_check(B: np.ndarray, cfg: ToleranceConfig):
    """The check of a sample root of order m: (True, None) when it is
    nonnegative and its mth power reconstructs B within 10 recon_tol,
    otherwise False with the record of the first check it fails.  ||B||_F is
    taken once, here; B is not zero, as its determinant is positive."""
    scale = numkit._frob(B)

    def check(root: np.ndarray, order: int):
        low = float(root.min())
        if not numkit._nonnegative(low, cfg):
            return False, {"reason": "root_not_nonnegative", "order": order, "value": low}
        if numkit._reconstruction_fails(numkit._frob(np.linalg.matrix_power(root, order) - B) / scale, cfg, 10):
            return False, {"reason": "root_power_mismatch", "order": order}
        return True, None

    return check


def inverse_m_power_form(P, m: int, cfg: ToleranceConfig = DEFAULT_TOL) -> Optional[InverseMRoot]:
    """Express P as the mth power of an inverse-M matrix, when possible.

    The primary mth root of P must be nonnegative and its inverse W a
    Z-matrix, so that W is a nonsingular M-matrix and the root lies in the
    inverse-M class.  For stochastic P the result carries the resolvent
    parameters ``epsilon = (s-1)/s`` and stochastic ``h`` with
    ``W = s(I - epsilon*h)``; the identity P = (1-epsilon)^m (I - epsilon*h)^-m
    is verified within ``recon_tol``.  Returns None when P has no such
    representation, in particular when det P < 0, since an inverse-M matrix
    and its powers have a positive determinant.  Raises SingularMatrix when P
    is singular relative to its scale, sigma_min <= entry_tol * sigma_max, so
    the answer does not change when P is multiplied by a positive constant.
    Raises NegativeRealEigenvalue when det P > 0 but an eigenvalue lies on
    the closed negative real axis, where the primary root is not real: such
    a P may still be the mth power of an inverse-M matrix, through a root
    that is not the primary one.
    """
    P = as_square_matrix(P)
    numkit._check_order(m, "power m")
    n = P.shape[0]
    if numkit._singular(P, cfg):
        raise SingularMatrix("inverse-M power form needs a nonsingular matrix")
    if np.linalg.slogdet(P)[0] < 0:
        return None
    stochastic = is_stochastic(P, cfg)
    root = numkit.primary_root(P, m, cfg)

    if not is_nonnegative(root, cfg):
        return None
    try:
        W = numkit._lapack_inv(root)
    except np.linalg.LinAlgError:
        return None
    if not is_z_matrix(W, cfg):
        return None

    if not stochastic:
        return InverseMRoot(root=root)

    s = float(np.max(np.diag(W)))
    if numkit._row_sums_within(abs(s - 1.0), n, cfg):
        # boundary P = I: epsilon 0 and any stochastic factor; identity by convention
        return InverseMRoot(root=root, epsilon=0.0, h=np.eye(n))
    K = s * np.eye(n) - W
    H = K / (s - 1.0)
    if not is_stochastic(H, cfg):
        return None
    epsilon = (s - 1.0) / s
    recon = (1.0 - epsilon) ** m * np.linalg.matrix_power(
        numkit._lapack_inv(np.eye(n) - epsilon * H), m
    )
    if numkit._reconstruction_fails(numkit.relative_residual(recon, P), cfg):
        return None
    return InverseMRoot(root=root, epsilon=epsilon, h=H)


def im_root_approx(
    P,
    generator,
    n: int = 1,
    cfg: ToleranceConfig = DEFAULT_TOL,
    n_max: int = 2**20,
) -> np.ndarray:
    """Smallest-order inverse-M root certificate.

    Requires exp(generator) to reconstruct P and every off-diagonal entry of
    the generator G to be strictly positive; without that the construction
    can fail outright.  Doubles the root order m from ``n`` up to ``n_max``
    and returns the first W = expm(-G/m) that is a Z-matrix with a
    nonnegative inverse: W is then an M-matrix, and its inverse expm(G/m),
    an mth root of P, lies in the inverse-M class.  No logarithm is taken,
    so W comes from the given G: for a generator that is not P's principal
    logarithm, W and the root belong to that branch, not the principal one.
    Raises SearchExhausted when no order up to ``n_max`` passes.
    """
    P = as_square_matrix(P)
    G = as_square_matrix(generator)
    if P.shape != G.shape:
        raise ValueError("matrix and generator must have matching shapes")
    numkit._check_order(n, "starting order n")
    if numkit._reconstruction_fails(numkit.relative_residual(numkit.expm(G), P), cfg):
        raise ValueError("exp(generator) does not reconstruct the matrix")
    off = G[_offdiag_mask(len(G))]
    if off.size == 0 or not numkit._positive(np.min(off), cfg):
        raise OffDiagonalZeros("generator off-diagonal entries must be strictly positive")
    order = int(n)
    while order <= n_max:
        W = numkit.expm(-G / order)
        if is_z_matrix(W, cfg) and is_nonnegative(numkit._lapack_inv(W), cfg):
            return W
        order *= 2
    raise SearchExhausted(f"no M-matrix root of the inverse found up to order {n_max}")
