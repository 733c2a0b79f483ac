import dataclasses
import functools
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from embedlab import classify, embed, numkit, structure
from embedlab.errors import (
    NegativeRealEigenvalue,
    NotNonnegative,
    NotStochastic,
    OffDiagonalZeros,
    Overflow,
    SearchExhausted,
    SingularDeterminant,
    SingularMatrix,
)
from helpers import (
    DIVISIBLE_TRIANGLE,
    EXP_GEN_A,
    GEN_A,
    GEN_B,
    NONCONVEX_2X2,
    SCALED_TRIANGLE,
    count_calls,
    equal_input,
    min_eig_gap,
    random_intensity,
    random_inverse_m,
    random_permutation_matrix,
    random_shifted_z,
    random_sparse_intensity,
    random_stochastic,
    random_z_matrix,
    scaled_dense_exp_z,
    triangular_intensity,
    wrapped_circulant,
)

CFG = numkit.DEFAULT_TOL
TRANS_A = numkit.expm(GEN_A)
TRANS_B = numkit.expm(GEN_B)


def report_bits(x):
    """A report as nested tuples, with arrays as dtype, shape and bytes and
    floats as their hex form, so equal results are bitwise equal."""
    if dataclasses.is_dataclass(x):
        return tuple((f.name, report_bits(getattr(x, f.name))) for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, dict):
        return tuple((k, report_bits(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return tuple(report_bits(v) for v in x)
    return x.hex() if isinstance(x, float) else x


@functools.cache
def triangular_generators():
    """The 2,000 generators R = triangular_intensity(rng, n, g) with n in
    3..6 and g = 10^U(-6.5, -2) from default_rng(5): the draws of ROADMAP
    item 9's probe.  Read-only, as the list is shared."""
    rng = np.random.default_rng(5)
    generators = []
    for _ in range(2000):
        n = int(rng.integers(3, 7))
        R = triangular_intensity(rng, n, 10 ** rng.uniform(-6.5, -2))
        R.flags.writeable = False
        generators.append(R)
    return generators


def shifted_triangular_generators():
    """The first 200 generators of ``triangular_generators`` plus 0.3 I: the
    draws of ROADMAP item 9's divisibility probe."""
    return [R + 0.3 * np.eye(len(R)) for R in triangular_generators()[:200]]


# draws of shifted_triangular_generators() whose numkit.expm the search once
# called NotStronglyInfDivisible on a reconstruction failure alone
ITEM_9_FLIPS = (86,)
# draws of triangular_generators() whose numkit.expm the search once called
# NotEmbeddable on a reconstruction failure alone, with residuals of 1.02e-8
# to 1.71e-8; numkit's principal log is their generator
ITEM_9_EMBEDDABLE = (196, 550, 735, 1490, 1834)


def shifted_principal_log(monkeypatch):
    """Make numkit.principal_log return its logarithm minus 1e-6 I: the
    off-diagonal entries keep their signs, and exp of it misses the input by
    about 1e-6 relative, a reconstruction failure."""
    principal_log = numkit.principal_log

    def shifted(A, cfg=CFG, **kwargs):
        return principal_log(A, cfg, **kwargs) - 1e-6 * np.eye(len(A))

    monkeypatch.setattr(numkit, "principal_log", shifted)


def block_triangular_z(rng, sizes):
    """Z-matrix with dense diagonal blocks of the given sizes, block upper
    triangular up to a random symmetric permutation."""
    n = sum(sizes)
    ids = np.repeat(np.arange(len(sizes)), sizes)
    Q = -rng.uniform(0.1, 1.0, (n, n)) * (ids[:, None] <= ids[None, :])
    np.fill_diagonal(Q, rng.uniform(0.5, 2.0, n))
    L = random_permutation_matrix(rng, n)
    return L @ Q @ L.T


def near_threshold_chains(rng, count):
    """exp(R) for sparse intensity matrices R of 2 to 5 states whose rates
    are each, with probability one half, scaled to 1e-10 to 1e-7, so that
    the chain has entries on both sides of entry_tol."""
    chains = []
    for _ in range(count):
        R = random_sparse_intensity(rng, int(rng.integers(2, 6)))
        np.fill_diagonal(R, 0.0)
        R *= np.where(rng.random(R.shape) < 0.5, 10.0 ** rng.uniform(-10.0, -7.0, R.shape), 1.0)
        np.fill_diagonal(R, -R.sum(axis=1))
        chains.append(numkit.expm(R))
    return chains


def assert_zero_below_the_form_blocks(B, report):
    """In the order of B's Frobenius form, the witness of the positive
    divisibility ``report`` and each of its roots are 0.0 below every
    diagonal block, and every trailing sub-report is positive."""
    decomp = structure.frobenius_form(B)
    rows, cols = decomp.permutation[:, None], decomp.permutation
    for M in [report.z_matrix] + [root for _, root in report.roots_demonstrated]:
        for offset in itertools.accumulate(decomp.block_sizes[:-1]):
            assert np.all(M[rows, cols][offset:, :offset] == 0.0)
    assert len(report.recursion) == decomp.n_blocks - 1
    assert all(sub.verdict == embed.STRONGLY_INF_DIVISIBLE for sub in report.recursion)


def make_symmetric_stochastic_with_det(rng, n, det):
    """Symmetric generator scaled so the exponential has the requested
    determinant; eigenvalues come out real, positive and distinct."""
    while True:
        R = rng.uniform(0.2, 1.0, (n, n))
        R = (R + R.T) / 2
        np.fill_diagonal(R, 0.0)
        np.fill_diagonal(R, -R.sum(axis=1))
        R *= np.log(det) / np.trace(R)
        P = numkit.expm(R)
        if min_eig_gap(P) >= CFG.distinct_tol:
            return P


class TestBranchBound:
    def test_sixteen_cases(self):
        P = make_symmetric_stochastic_with_det(np.random.default_rng(7), 5, 1e-5)
        eigen = numkit.eig(P)
        bound = embed.branch_bound(eigen, float(np.linalg.det(P)), "paper_one_sided")
        assert bound.per_eigenvalue_counts == [1, 2, 2, 2, 2]
        assert bound.raw_tuple_count == 16

    def test_large_determinant_principal_only(self):
        eigen = numkit.eig(np.array([[0.95, 0.05], [0.05, 0.95]]))
        for mode in ("israel_two_sided", "paper_one_sided"):
            bound = embed.branch_bound(eigen, 0.9, mode)
            assert bound.raw_tuple_count == 1

    def test_israel_three_state(self):
        eigen = numkit.eig(np.diag([1.0, 0.9, 1e-3 / 0.9]))
        bound = embed.branch_bound(eigen, 1e-3, "israel_two_sided")
        # |log det| = log 1000 = 6.908 admits k in {-1, 0, 1} on the free spots
        assert bound.per_eigenvalue_counts == [1, 3, 3]
        assert bound.raw_tuple_count == 9

    def test_window_consistency(self):
        eigen = numkit.eig(np.diag([1.0, 0.5, 0.25]))
        bound = embed.branch_bound(eigen, 0.1, "israel_two_sided")
        assert bound.im_low == -bound.im_high
        assert bound.im_high == pytest.approx(np.log(10.0))

    def test_unpaired_conjugates_have_no_real_selection(self):
        # blockdiag(C0, C0) repeats a conjugate pair; the canonical order puts
        # both copies of one eigenvalue first, so no position has its
        # conjugate next to it, and no offsets make the logarithm real
        C0 = np.array([[0.1, 0.9, 0.0], [0.0, 0.1, 0.9], [0.9, 0.0, 0.1]])
        B = scipy.linalg.block_diag(C0, C0)
        eigen = numkit.eig(B)
        assert eigen.eigenvalues[2] == eigen.eigenvalues[3] and eigen.eigenvalues[2].imag != 0
        for mode in embed.BOUND_MODES:
            assert embed.branch_bound(eigen, float(np.linalg.det(B)), mode).candidate_count == 0

    def test_perron_radius(self):
        # n*log rho - log det: Israel's |log det| when rho = 1, else n*log rho more
        bound = embed.branch_bound(numkit.eig(np.diag([1.0, 0.5])), 0.5, "perron_radius")
        assert bound.im_low == -bound.im_high
        assert bound.im_high == pytest.approx(np.log(2.0))
        bound = embed.branch_bound(numkit.eig(np.diag([2.0, 0.5])), 1.0, "perron_radius")
        assert bound.im_high == pytest.approx(2 * np.log(2.0))

    def test_perron_radius_holds_every_z_matrix_spectrum(self):
        # B = exp(-Q): every eigenvalue of Q must lie inside B's radius
        rng = np.random.default_rng(36)
        log_rhos = []
        for k in range(300):
            n = int(rng.integers(2, 9))
            Q = random_z_matrix(rng, n) if k % 2 else random_shifted_z(rng, n)
            B = numkit.expm(-Q)
            eigen = numkit.eig(B)
            bound = embed.branch_bound(eigen, float(np.linalg.det(B)), "perron_radius")
            assert np.max(np.abs(np.linalg.eigvals(Q).imag)) <= bound.im_high + 1e-9
            log_rhos.append(np.log(np.abs(eigen.eigenvalues[0])))
        assert min(log_rhos) < 0 < max(log_rhos)

    def test_singular_determinant(self):
        eigen = numkit.eig(np.diag([1.0, 0.5]))
        with pytest.raises(SingularDeterminant):
            embed.branch_bound(eigen, 0.0, "israel_two_sided")
        with pytest.raises(SingularDeterminant):
            embed.branch_bound(eigen, -0.5, "israel_two_sided")

    def test_count_monotone_in_log_det(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            P = random_stochastic(rng, n)
            if min_eig_gap(P) < CFG.distinct_tol:
                continue
            eigen = numkit.eig(P)
            for mode in ("israel_two_sided", "paper_one_sided"):
                previous = None
                # det increasing toward 1 shrinks |log det|
                for det in (1e-8, 1e-5, 1e-2, 0.5, 0.99):
                    count = embed.branch_bound(eigen, det, mode).raw_tuple_count
                    if previous is not None:
                        assert count <= previous
                    previous = count


def window_candidates(eigen, bound):
    """The real branch selections of ``bound``'s window, not cut to the cone,
    with their logarithms, through the search's own enumerator."""
    windows = embed._offset_windows(eigen, bound.im_low, bound.im_high)
    return embed._candidate_stream(eigen, embed._real_blocks(eigen, windows), CFG)


class TestWindowCandidates:
    def test_principal_first_recovers_generator(self):
        eigen = numkit.eig(TRANS_A)
        bound = embed.branch_bound(eigen, float(np.linalg.det(TRANS_A)), "israel_two_sided")
        sel, candidate = next(window_candidates(eigen, bound))
        assert sel == (0, 0, 0)
        assert np.allclose(candidate, GEN_A, atol=1e-8)

    def test_two_state_single_real_candidate(self):
        P = np.array([[0.8, 0.2], [0.1, 0.9]])
        det = float(np.linalg.det(P))
        assert det == pytest.approx(0.7)
        eigen = numkit.eig(P)
        bound = embed.branch_bound(eigen, det, "israel_two_sided")
        candidates = list(window_candidates(eigen, bound))
        assert len(candidates) == 1
        assert candidates[0][0] == (0, 0)

    def test_yielded_selections_satisfy_reality_structure(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 50:
            n = int(rng.integers(3, 6))
            P = numkit.expm(random_intensity(rng, n))
            lam = np.linalg.eigvals(P)
            if min_eig_gap(P) < CFG.distinct_tol or np.all(np.abs(lam.imag) < 1e-12):
                continue
            checked += 1
            eigen = numkit.eig(P)
            bound = embed.branch_bound(eigen, float(np.linalg.det(P)), "israel_two_sided")
            for sel, _ in window_candidates(eigen, bound):
                assert sel[0] == 0
                for i, li in enumerate(eigen.eigenvalues):
                    if abs(li.imag) > 1e-12:
                        j = int(np.argmin(np.abs(eigen.eigenvalues - np.conj(li))))
                        assert sel[i] == -sel[j]


def perron_apex(eigen):
    """log rho: the apex of the cone that ``_decide`` prunes with."""
    return float(np.log(np.abs(eigen.eigenvalues[0])))


def imaginary_residue_bound(L):
    """n entry_tol (1 + ||L||_F): the reference's bound on the imaginary
    residue of a computed logarithm L that counts it as real, a test
    independent of Culver's criterion."""
    return L.shape[0] * CFG.entry_tol * (1.0 + np.linalg.norm(L))


def brute_force_real_selections(eigen, bound, apex=None):
    """Reference enumeration: walk the full product of per-eigenvalue offset
    windows (spectral-radius position pinned at 0, each list sorted by
    |k| then k), drop the tuples outside the Runnenberg cone moved to
    ``apex`` unless it is None, and keep the tuples whose assembled
    logarithm has an imaginary residue within ``imaginary_residue_bound``,
    with its real part."""
    lam = eigen.eigenvalues
    n = eigen.n
    lists = [[0]]
    for value in lam[1:]:
        arg = float(np.angle(value))
        kmin = int(np.ceil((bound.im_low - arg) / (2 * np.pi) - 1e-12))
        kmax = int(np.floor((bound.im_high - arg) / (2 * np.pi) + 1e-12))
        lists.append(sorted(range(kmin, kmax + 1), key=lambda k: (abs(k), k)))
    cone_lo, cone_hi = np.pi * (0.5 + 1.0 / n), np.pi * (1.5 - 1.0 / n)
    found = []
    for combo in itertools.product(*lists):
        if apex is not None:
            mu = np.log(lam) + 2j * np.pi * np.asarray(combo) - apex
            phi = np.mod(np.angle(mu), 2 * np.pi)
            inside = (np.abs(mu) <= 1e-9) | ((phi >= cone_lo - 1e-9) & (phi <= cone_hi + 1e-9))
            if not inside.all():
                continue
        L = numkit.logm_branch(eigen, combo, CFG)
        if np.abs(L.imag).max() <= imaginary_residue_bound(L):
            found.append((combo, L.real))
    return found


def cone_blocks(eigen, bound):
    """The real selections of each eigenvalue's offset window within the
    symmetric ``bound`` cut to the Runnenberg cone with apex log rho, as
    ``_decide`` hands them to the search."""
    assert bound.im_low == -bound.im_high
    return embed._real_blocks(eigen, embed._search_windows(eigen, bound.im_high))


class TestRealSelectionEnumeration:
    def inputs(self, seed, count, sizes=(3, 7), kinds=(0, 1)):
        # kinds in turn: 0 exp of a dense generator, 1 a random chain, 2 a lazy
        # chain a*I + (1 - a)*S, whose determinant keeps eight states in the
        # cap, 3 a scaled chain c*S, whose cone apex log c is not 0
        rng = np.random.default_rng(seed)
        done = 0
        while done < count:
            n = int(rng.integers(*sizes))
            kind = kinds[done % len(kinds)]
            if kind == 0:
                P = numkit.expm(random_intensity(rng, n))
            else:
                P = random_stochastic(rng, n)
                if kind == 2:
                    a = rng.uniform(0.25, 0.6)
                    P = a * np.eye(n) + (1 - a) * P
                if kind == 3:
                    P = rng.uniform(0.3, 3.0) * P
            det = float(np.linalg.det(P))
            if det <= 1e-12 or min_eig_gap(P) < CFG.distinct_tol:
                continue
            eigen = numkit.eig(P)
            if embed.branch_bound(eigen, det, "israel_two_sided").raw_tuple_count > 5000:
                continue
            done += 1
            yield eigen, det

    def test_matches_brute_force_product(self):
        streams = [self.inputs(40, 60), self.inputs(42, 60, sizes=(2, 9), kinds=(0, 1, 2)),
                   self.inputs(43, 12, sizes=(7, 9), kinds=(2,)), self.inputs(45, 40, kinds=(3,))]
        for eigen, det in itertools.chain(*streams):
            for mode in embed.BOUND_MODES:
                bound = embed.branch_bound(eigen, det, mode)
                reference = brute_force_real_selections(eigen, bound)
                assert bound.candidate_count == len(reference)
                listed = list(window_candidates(eigen, bound))
                assert [s for s, _ in listed] == [c for c, _ in reference]
                for (_, got), (_, want) in zip(listed, reference):
                    assert np.array_equal(got, want)
                if mode == "paper_one_sided":
                    # no decision prunes the one-sided window
                    continue
                pruned = list(embed._candidate_stream(eigen, cone_blocks(eigen, bound), CFG))
                reference = brute_force_real_selections(eigen, bound, perron_apex(eigen))
                assert [c for c, _ in pruned] == [c for c, _ in reference]
                for (_, got), (_, want) in zip(pruned, reference):
                    assert np.array_equal(got, want)

    def test_true_generator_survives_pruning(self):
        rng = np.random.default_rng(41)
        # slower dense rates keep det >= 1e-6 up to eight states
        slow_dense = functools.partial(random_intensity, hi=0.3)
        draws = [((3, 7), random_intensity, 100), ((2, 9), slow_dense, 60), ((2, 9), random_sparse_intensity, 60)]
        for sizes, generator, count in draws:
            done = 0
            while done < count:
                n = int(rng.integers(*sizes))
                R = generator(rng, n)
                P = numkit.expm(R)
                det = float(np.linalg.det(P))
                if det < 1e-6 or min_eig_gap(P) < CFG.distinct_tol:
                    continue
                done += 1
                eigen = numkit.eig(P)
                bound = embed.branch_bound(eigen, det, "perron_radius")
                stream = embed._candidate_stream(eigen, cone_blocks(eigen, bound), CFG)
                assert any(np.allclose(real, R, atol=1e-7) for _, real in stream)
                assert embed.check_embeddable(P).verdict == embed.EMBEDDABLE

    @pytest.mark.parametrize(
        "draw, reducible",
        [(random_shifted_z, False), (functools.partial(random_z_matrix, density=0.3), True)],
        ids=["shifted_z", "sparse_reducible_z"],
    )
    def test_true_z_matrix_survives_pruning(self, draw, reducible):
        # -Q is Metzler, so its eigenvalues lie in the cone with apex log rho
        # of exp(-Q); the sparse draws are kept only when reducible, where
        # each diagonal block sits in a narrower cone of its own
        rng = np.random.default_rng(44)
        done = 0
        while done < 60:
            n = int(rng.integers(2, 8))
            Q = draw(rng, n)
            B = numkit.expm(-Q)
            det = float(np.linalg.det(B))
            if not 1e-6 <= det <= 1e6 or min_eig_gap(B) < CFG.distinct_tol:
                continue
            if reducible and structure.frobenius_form(B).n_blocks == 1:
                continue
            done += 1
            eigen = numkit.eig(B)
            bound = embed.branch_bound(eigen, det, "perron_radius")
            stream = embed._candidate_stream(eigen, cone_blocks(eigen, bound), CFG)
            assert any(np.allclose(real, -Q, atol=1e-7) for _, real in stream)
            assert embed.check_strong_inf_divisible(B).verdict == embed.STRONGLY_INF_DIVISIBLE

    def test_eight_states_examine_few_branches(self):
        P = random_stochastic(np.random.default_rng(25), 8)
        bound = embed.branch_bound(numkit.eig(P), float(np.linalg.det(P)), "israel_two_sided")
        assert bound.raw_tuple_count == 32000
        report = embed.check_embeddable(P)
        assert report.verdict in (embed.EMBEDDABLE, embed.NOT_EMBEDDABLE)
        # the cone cuts Israel's 32,000 tuples to the 16 the search walks
        assert report.bound_used.raw_tuple_count == 16
        assert report.bound_used.candidate_count == 4
        assert report.branches_examined <= 10

    @pytest.mark.parametrize("a, b", [(-0.2, -0.3), (-0.02, -0.03)])
    def test_negative_real_eigenvalue_leaves_no_candidate(self, a, b):
        # symmetric stochastic matrix with eigenvalues 1, a, b; at (a, b) =
        # (-0.02, -0.03) |log det| exceeds pi, so the window itself is not empty
        ones = np.ones(3) / np.sqrt(3)
        u = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        v = np.array([1.0, 1.0, -2.0]) / np.sqrt(6)
        P = np.outer(ones, ones) + a * np.outer(u, u) + b * np.outer(v, v)
        assert np.allclose(np.sort(np.linalg.eigvals(P).real), [b, a, 1.0])
        bound = embed.branch_bound(numkit.eig(P), float(np.linalg.det(P)), "israel_two_sided")
        assert bound.candidate_count == 0
        assert bound.raw_tuple_count == (0 if a == -0.2 else 4)
        report = embed.check_embeddable(P)
        assert report.verdict == embed.NOT_EMBEDDABLE
        assert report.branches_examined == 0
        assert report.bound_used is not None
        reasons = [r["reason"] for r in report.failed_conditions]
        assert reasons == ["negative_real_eigenvalue", "all_branches_exhausted"]
        # the canonical order puts the larger modulus first
        assert report.failed_conditions[0]["value"] == pytest.approx(b)


class TestReportedWindow:
    """``bound_used`` counts the window the search walks: the Perron radius
    cut to the cone with apex log rho."""

    def decisions(self, seed, count):
        # exp of a dense generator and a random chain in turn, 3 to 8 states,
        # distinct spectra; each asked as a chain and, scaled by c, as a
        # divisibility input whose cone apex is log c
        rng = np.random.default_rng(seed)
        done = 0
        while done < count:
            n = int(rng.integers(3, 9))
            P = numkit.expm(random_intensity(rng, n)) if done % 2 == 0 else random_stochastic(rng, n)
            c = rng.uniform(0.5, 2.0)
            if min(np.linalg.det(P), np.linalg.det(c * P)) <= 1e-8 or min_eig_gap(P) < CFG.distinct_tol:
                continue
            done += 1
            yield P, embed.check_embeddable(P)
            yield c * P, embed.check_strong_inf_divisible(c * P)

    def test_bound_used_counts_the_searched_window(self):
        hits = exhausted = 0
        for A, report in self.decisions(46, 80):
            bound = report.bound_used
            eigen = numkit.eig(A)
            log_rho = math.log(abs(eigen.eigenvalues[0]))
            assert bound.mode == "perron_radius"
            assert bound.cone_apex == log_rho
            assert bound.im_low == -bound.im_high
            assert bound.im_high == pytest.approx(A.shape[0] * log_rho - np.log(np.linalg.det(A)))
            windows = embed._search_windows(eigen, bound.im_high)
            assert bound.per_eigenvalue_counts == [len(w) for w in windows]
            assert bound.raw_tuple_count == math.prod(bound.per_eigenvalue_counts)
            assert bound.candidate_count == math.prod(len(b) for b in embed._real_blocks(eigen, windows))
            if report.failed_conditions and report.failed_conditions[-1]["reason"] == "all_branches_exhausted":
                exhausted += 1
                assert report.branches_examined == bound.candidate_count
                # the search's own enumerator lists the same window
                tried = [r["branch"] for r in report.failed_conditions if "branch" in r]
                stream = embed._candidate_stream(eigen, embed._real_blocks(eigen, windows), CFG)
                assert [s for s, _ in stream] == tried
            else:
                assert report.verdict in (embed.EMBEDDABLE, embed.STRONGLY_INF_DIVISIBLE)
                hits += 1
                assert 1 <= report.branches_examined <= bound.candidate_count
        assert hits > 20 and exhausted > 20


class TestCheckEmbeddable:
    def test_product_order_matters(self):
        bad = embed.check_embeddable(TRANS_B @ TRANS_A)
        assert bad.verdict == embed.NOT_EMBEDDABLE
        negatives = [
            r for r in bad.failed_conditions if r.get("reason") == "off_diagonal_negative"
        ]
        assert negatives and negatives[0]["value"] < 0
        assert negatives[0]["branch"] == (0, 0, 0)

        good = embed.check_embeddable(TRANS_A @ TRANS_B)
        assert good.verdict == embed.EMBEDDABLE
        assert classify.is_intensity_matrix(good.generator, CFG)
        assert numkit.relative_residual(numkit.expm(good.generator), TRANS_A @ TRANS_B) <= CFG.recon_tol

    def test_two_state_closed_form_generator(self):
        report = embed.check_embeddable(np.array([[0.9, 0.1], [0.2, 0.8]]))
        assert report.verdict == embed.EMBEDDABLE
        assert np.allclose(
            report.generator, [[-0.11889, 0.11889], [0.23778, -0.23778]], atol=5e-6
        )

    def test_negative_determinant(self):
        report = embed.check_embeddable(np.array([[0.1, 0.9], [0.9, 0.1]]))
        assert report.verdict == embed.NOT_EMBEDDABLE
        assert report.failed_conditions[0]["reason"] == "determinant_negative"

    def test_singular_boundary_undetermined(self):
        report = embed.check_embeddable(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert report.verdict == embed.UNDETERMINED

    def test_requires_stochastic(self):
        with pytest.raises(NotStochastic):
            embed.check_embeddable(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("scale", [1 + 5e-10, 1 + 2e-9])
    def test_chain_scaled_within_tolerance_keeps_its_witness(self, scale):
        # is_stochastic admits row sums within n*entry_tol of 1, so rho may
        # exceed 1; the cone's apex is log rho, so the Perron root stays at it
        P = scale * numkit.expm(random_intensity(np.random.default_rng(1), 4))
        assert classify.is_stochastic(P, CFG)
        report = embed.check_embeddable(P)
        assert report.verdict == embed.EMBEDDABLE
        assert report.branches_examined >= 1
        assert numkit.relative_residual(numkit.expm(report.generator), P) <= CFG.recon_tol

    def test_unknown_bound_mode_is_rejected_up_front(self):
        # the mode is checked before the determinant, so a singular one
        # does not mask the error
        eigen = numkit.eig(TRANS_A)
        for det in (float(np.linalg.det(TRANS_A)), 0.0):
            with pytest.raises(ValueError, match="unknown bound mode"):
                embed.branch_bound(eigen, det, "bogus")

    def test_identity_embeddable_without_perturbation(self):
        report = embed.check_embeddable(np.eye(4))
        assert report.verdict == embed.EMBEDDABLE
        assert np.array_equal(report.generator, np.zeros((4, 4)))

    def test_jordan_block_fixture_not_embeddable(self):
        # repeated eigenvalue confined to one Jordan block: the principal
        # primary logarithm is the only real candidate and it fails
        P = np.array([[0.5, 0.4, 0.1], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        report = embed.check_embeddable(P)
        assert report.verdict == embed.NOT_EMBEDDABLE
        reasons = {r.get("reason") for r in report.failed_conditions}
        assert "primary_log_is_only_candidate" in reasons

    def test_jordan_block_fixture_embeddable(self):
        P = np.array([[0.5, 0.25, 0.25], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        report = embed.check_embeddable(P)
        assert report.verdict == embed.EMBEDDABLE
        assert classify.is_intensity_matrix(report.generator, CFG)

    def test_derogatory_failure_is_undetermined(self, monkeypatch):
        # the eigenbasis log fails, so numkit's principal log decides, once
        calls = count_calls(monkeypatch, numkit, "principal_log")
        bad = TRANS_B @ TRANS_A
        blocked = np.block([[bad, np.zeros((3, 3))], [np.zeros((3, 3)), bad]])
        report = embed.check_embeddable(blocked)
        assert report.verdict == embed.UNDETERMINED
        assert len(calls) == 1
        records = [(r["reason"], r.get("branch")) for r in report.failed_conditions]
        assert records == [("off_diagonal_negative", "principal_primary"), ("repeated_eigenvalues", None)]

    def test_repeated_spectrum_spectral_passes(self, monkeypatch):
        # _decide's eig, then the eigenvalues of principal_log's precondition
        # and one rank of a cluster; _primary_log_is_only_real_log reads eig's
        bad = TRANS_B @ TRANS_A
        blocked = np.block([[bad, np.zeros((3, 3))], [np.zeros((3, 3)), bad]])
        counts = {name: count_calls(monkeypatch, numkit, name) for name in ("_lapack_eig", "_lapack_eigvals")}
        counts["matrix_rank"] = count_calls(monkeypatch, np.linalg, "matrix_rank")
        embed.check_embeddable(blocked)
        assert {name: len(calls) for name, calls in counts.items()} == {
            "_lapack_eig": 1, "_lapack_eigvals": 1, "matrix_rank": 1}

    def test_two_state_grid_matches_determinant_criterion(self):
        for i in range(1, 20, 3):
            for j in range(1, 20, 3):
                a, b = i / 20.0, j / 20.0
                P = np.array([[1 - a, a], [b, 1 - b]])
                verdict = embed.check_embeddable(P).verdict
                assert (verdict == embed.EMBEDDABLE) == (20 - i - j > 0)

    def test_soundness_on_generated_chains(self):
        rng = np.random.default_rng(32)
        done = 0
        while done < 200:
            n = int(rng.integers(2, 7))
            R = random_intensity(rng, n)
            P = numkit.expm(R)
            if min_eig_gap(P) < CFG.distinct_tol or np.linalg.det(P) < 1e-8:
                continue
            done += 1
            report = embed.check_embeddable(P)
            assert report.verdict == embed.EMBEDDABLE
            assert np.linalg.norm(numkit.expm(report.generator) - P) <= 1e-7

    def test_verdict_permutation_invariant(self):
        rng = np.random.default_rng(33)
        for k in range(200):
            n = int(rng.integers(2, 6))
            P = (
                numkit.expm(random_intensity(rng, n))
                if k % 2
                else random_stochastic(rng, n)
            )
            L = random_permutation_matrix(rng, n)
            assert (
                embed.check_embeddable(P).verdict
                == embed.check_embeddable(L @ P @ L.T).verdict
            )

    def test_perron_radius_mode_matches_israel_on_stochastic_inputs(self):
        # rho = 1 for a stochastic input, so the two windows coincide
        for P in (np.array([[0.9, 0.1], [0.2, 0.8]]), TRANS_A, TRANS_A @ TRANS_B, TRANS_B @ TRANS_A):
            eigen, det = numkit.eig(P), float(np.linalg.det(P))
            israel = embed.branch_bound(eigen, det, "israel_two_sided")
            perron = embed.branch_bound(eigen, det, "perron_radius")
            assert perron.im_high == pytest.approx(israel.im_high, rel=1e-12)
            assert perron.per_eigenvalue_counts == israel.per_eigenvalue_counts

    def test_one_sided_mode_documented_discrepancy(self):
        # a conjugate pair takes offsets (k, -k), so its two logarithms never
        # both lie in the one-sided window: it holds no candidate for this
        # circulant, which is why no decision searches it
        R = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
        P = numkit.expm(R)
        report = embed.check_embeddable(P)
        assert report.verdict == embed.EMBEDDABLE
        assert numkit.relative_residual(numkit.expm(report.generator), P) <= CFG.recon_tol
        det = float(np.linalg.det(P))
        assert embed.branch_bound(numkit.eig(P), det, "paper_one_sided").candidate_count == 0


class TestCheckStrongInfDivisible:
    def test_overflowing_determinant_raises_overflow(self):
        B = scaled_dense_exp_z(1e40)
        assert embed.check_strong_inf_divisible(B).verdict == embed.STRONGLY_INF_DIVISIBLE
        with pytest.raises(Overflow):
            embed.check_strong_inf_divisible(1e5 * B)

    @pytest.mark.parametrize("c", [1e160, 1e200, 1e300])
    def test_overflowing_determinant_raises_before_the_spectrum(self, c, monkeypatch):
        # a determinant that overflowed ends Overflow before eig runs, so
        # also where eig's spectrum would take the repeated-spectrum path,
        # which builds no branch window, and without a warning
        P = numkit.expm(np.array([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [0.0, 1.0, -1.0]]))
        eigs = count_calls(monkeypatch, numkit, "eig")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Overflow, match="not a finite float"):
                embed.check_strong_inf_divisible(c * P)
        assert eigs == []

    @pytest.mark.parametrize(
        "c",
        [
            1.0,
            1e-1,
            1e-2,
            pytest.param(1e-3, marks=pytest.mark.xfail(
                strict=True, reason="det 5e-11 falls under the absolute determinant gate (ROADMAP item 1)")),
        ],
    )
    def test_verdict_does_not_depend_on_scale(self, c):
        # c exp(-Q) = exp(-(Q - log(c) I)); the Perron radius and the cone's
        # apex move with log c, so the search is the same
        B = numkit.expm(-np.array([[1.0, -0.5, -0.2], [-0.3, 1.0, -0.4], [-0.1, -0.6, 1.0]]))
        base = embed.check_strong_inf_divisible(B)
        report = embed.check_strong_inf_divisible(c * B)
        assert report.verdict == base.verdict == embed.STRONGLY_INF_DIVISIBLE
        assert report.branches_examined == base.branches_examined

    def test_triangular_scaling_counterexample(self):
        assert (
            embed.check_strong_inf_divisible(DIVISIBLE_TRIANGLE).verdict
            == embed.STRONGLY_INF_DIVISIBLE
        )
        report = embed.check_strong_inf_divisible(SCALED_TRIANGLE)
        assert report.verdict == embed.NOT_STRONGLY_INF_DIVISIBLE

    def test_nonconvex_two_state_pair(self):
        for A in (NONCONVEX_2X2, NONCONVEX_2X2.T):
            report = embed.check_strong_inf_divisible(A)
            assert report.verdict == embed.STRONGLY_INF_DIVISIBLE
            assert classify.is_z_matrix(report.z_matrix, CFG)
        assert np.linalg.det(NONCONVEX_2X2 + NONCONVEX_2X2.T) == pytest.approx(-1.64)

    def test_identity(self):
        report = embed.check_strong_inf_divisible(np.eye(3))
        assert report.verdict == embed.STRONGLY_INF_DIVISIBLE
        assert np.array_equal(report.z_matrix, np.zeros((3, 3)))

    def test_witness_roots_validated(self):
        report = embed.check_strong_inf_divisible(TRANS_A, root_orders=(2, 3, 5))
        assert report.verdict == embed.STRONGLY_INF_DIVISIBLE
        assert [order for order, _ in report.roots_demonstrated] == [2, 3, 5]
        for order, root in report.roots_demonstrated:
            assert np.min(root) >= -CFG.entry_tol
            assert (
                numkit.relative_residual(np.linalg.matrix_power(root, order), TRANS_A)
                <= 1e-7
            )

    def test_recursion_reports_trailing_blocks(self):
        report = embed.check_strong_inf_divisible(TRANS_A)
        assert len(report.recursion) == 2
        assert all(r.verdict == embed.STRONGLY_INF_DIVISIBLE for r in report.recursion)
        assert all(not r.recursion for r in report.recursion)

    def test_trailing_sub_reports_match_standalone_decisions(self):
        # each sub-report is sliced from the parent's witness and roots and
        # agrees with deciding its block alone; no search runs for it
        rng = np.random.default_rng(39)
        draws = [numkit.expm(-block_triangular_z(rng, sizes)) for sizes in ((1, 3), (2, 2, 1), (3, 1, 2))]
        for B in [DIVISIBLE_TRIANGLE, TRANS_A] + draws:
            report = embed.check_strong_inf_divisible(B)
            assert report.verdict == embed.STRONGLY_INF_DIVISIBLE
            decomp = structure.frobenius_form(B)
            assert len(report.recursion) == decomp.n_blocks - 1 >= 1
            for offset, sub in zip(itertools.accumulate(decomp.block_sizes[:-1]), report.recursion, strict=True):
                block = decomp.U[offset:, offset:]
                alone = embed.check_strong_inf_divisible(block)
                assert sub.verdict == alone.verdict
                assert np.max(np.abs(sub.z_matrix - alone.z_matrix)) <= 1e-12
                assert [order for order, _ in sub.roots_demonstrated] == [order for order, _ in alone.roots_demonstrated]
                for (_, root), (_, root_alone) in zip(sub.roots_demonstrated, alone.roots_demonstrated):
                    assert np.max(np.abs(root - root_alone)) <= 1e-12
                assert sub.bound_used is None
                assert sub.branches_examined == 0
                assert sub.failed_conditions == []
                assert not sub.recursion
                recon = scipy.linalg.expm(-sub.z_matrix)
                assert np.linalg.norm(recon - block) <= CFG.recon_tol * np.linalg.norm(block)

    def test_witnesses_lie_on_the_input_zero_pattern(self):
        # the witnesses of these inputs are exactly zero at the input's
        # off-diagonal structural zeros, for both questions, so each
        # trailing slice inherits the parent's reconstruction bound; the
        # chains add positives with entries on both sides of entry_tol
        rng = np.random.default_rng(39)
        draws = [numkit.expm(-block_triangular_z(rng, sizes)) for sizes in ((1, 3), (2, 2, 1), (3, 1, 2))]
        fixed = [TRANS_A, DIVISIBLE_TRIANGLE, EXP_GEN_A] + draws
        chains = near_threshold_chains(np.random.default_rng(7), 60)
        off_zeros = lambda M: ~classify.structural_pattern(M, CFG) & ~np.eye(len(M), dtype=bool)
        reducible = 0
        for k, B in enumerate(fixed + chains):
            report = embed.check_strong_inf_divisible(B)
            if k >= len(fixed) and report.verdict != embed.STRONGLY_INF_DIVISIBLE:
                continue
            assert report.verdict == embed.STRONGLY_INF_DIVISIBLE
            assert_zero_below_the_form_blocks(B, report)
            reducible += k >= len(fixed) and bool(report.recursion)
            witnesses = [report.z_matrix]
            if classify.is_stochastic(B, CFG):
                generated = embed.check_embeddable(B)
                assert generated.verdict == embed.EMBEDDABLE
                witnesses.append(-generated.generator)
            for Q in witnesses:
                assert np.all(Q[off_zeros(B)] == 0.0)
                assert structure.zero_pattern_invariance(B, Q) == []
            decomp = structure.frobenius_form(B)
            bound = np.linalg.norm(numkit.expm(-report.z_matrix) - B) + 8 * np.finfo(float).eps * np.linalg.norm(B)
            for offset, sub in zip(itertools.accumulate(decomp.block_sizes[:-1]), report.recursion, strict=True):
                block = decomp.U[offset:, offset:]
                assert np.all(sub.z_matrix[off_zeros(block)] == 0.0)
                assert np.linalg.norm(numkit.expm(-sub.z_matrix) - block) <= bound
        assert reducible >= 30

    @pytest.mark.parametrize(
        "check, positive",
        [(embed.check_embeddable, embed.EMBEDDABLE),
         (embed.check_strong_inf_divisible, embed.STRONGLY_INF_DIVISIBLE)],
        ids=["embeddability", "divisibility"],
    )
    def test_zero_pattern_projection_certifies_no_negative(self, check, positive):
        # P's (0, 1) entry, about 9.5e-10, counts as a structural zero, but
        # the generator's rate there is 1.9e-8 (L_ij <= e^s P_ij with s = 20):
        # the candidate set to zero there misses P by 1.8e-8 relative.  That
        # is a reconstruction failure, never evidence, so the principal
        # logarithm is tried through the same acceptor and the verdict is
        # Undetermined, not negative
        a = 1.9e-8
        G = np.array([[-a, a], [20.0 - a, a - 20.0]])
        P = numkit.expm(G)
        assert not classify.structural_pattern(P, CFG)[0, 1]
        assert np.linalg.det(P) > CFG.entry_tol
        report = check(P)
        assert report.verdict == embed.UNDETERMINED
        records = report.failed_conditions
        assert [r["reason"] for r in records] == [
            "reconstruction_failure", "all_branches_exhausted",
            "reconstruction_failure", "reconstruction_failure_not_evidence"]
        assert [r.get("branch") for r in records] == [(0, 0), None, "principal_primary", None]
        assert records[0]["value"] == pytest.approx(1.76e-8, rel=1e-2)
        if positive == embed.STRONGLY_INF_DIVISIBLE:
            assert report.z_matrix is None
            assert report.recursion == []
        else:
            assert report.generator is None

    def test_trailing_sub_reports_are_owned_slices_of_the_parent(self):
        # three blocks under a random permutation: each sub-report's witness
        # and roots are the np.ix_ gathers of the parent's, bit for bit, in
        # arrays of their own
        B = numkit.expm(-block_triangular_z(np.random.default_rng(47), (2, 2, 1)))
        report = embed.check_strong_inf_divisible(B)
        assert report.verdict == embed.STRONGLY_INF_DIVISIBLE
        decomp = structure.frobenius_form(B)
        assert decomp.block_sizes == [2, 2, 1]
        assert decomp.permutation.tolist() != sorted(decomp.permutation.tolist())
        parents = [report.z_matrix] + [root for _, root in report.roots_demonstrated]
        owned = []
        for offset, sub in zip(itertools.accumulate(decomp.block_sizes[:-1]), report.recursion):
            tail = decomp.permutation[offset:]
            grid = np.ix_(tail, tail)
            assert sub.verdict == embed.STRONGLY_INF_DIVISIBLE
            assert report_bits(sub.z_matrix) == report_bits(report.z_matrix[grid])
            assert report_bits(sub.roots_demonstrated) == report_bits(
                [(order, root[grid]) for order, root in report.roots_demonstrated])
            owned += [sub.z_matrix] + [root for _, root in sub.roots_demonstrated]
        assert len(owned) == 2 * 4
        for k, M in enumerate(owned):
            assert M.flags.owndata
            assert not any(np.shares_memory(M, other) for other in parents + owned[k + 1:])

    def test_roots_lie_on_the_input_zero_pattern(self):
        # each sample root is set to zero at the input's off-diagonal
        # structural zeros before its checks, as the witness is; the chains
        # add positives with entries on both sides of entry_tol
        rng = np.random.default_rng(39)
        draws = [numkit.expm(-block_triangular_z(rng, sizes)) for sizes in ((1, 3), (2, 2, 1), (3, 1, 2))]
        fixed = [DIVISIBLE_TRIANGLE, TRANS_A] + draws
        chains = near_threshold_chains(np.random.default_rng(8), 60)
        checked = 0
        for k, B in enumerate(fixed + chains):
            report = embed.check_strong_inf_divisible(B)
            zeros = embed._offdiag_zeros(B, CFG)
            if k >= len(fixed) and (report.verdict != embed.STRONGLY_INF_DIVISIBLE or zeros is None):
                continue
            assert report.verdict == embed.STRONGLY_INF_DIVISIBLE
            assert zeros is not None
            for order, root in report.roots_demonstrated:
                assert np.all(root[zeros] == 0.0)
                assert np.linalg.norm(np.linalg.matrix_power(root, order) - B) <= 10 * CFG.recon_tol * np.linalg.norm(B)
            assert_zero_below_the_form_blocks(B, report)
            checked += k >= len(fixed)
        assert checked >= 30

    def test_projection_is_the_only_check(self):
        # the one project -> check helper of witnesses and roots: the check
        # runs once, on M set to 0.0 at the zeros, and M stays projected even
        # when a check that needs the dropped entry fails there
        zeros = np.array([[False, True], [False, False]])
        seen = []

        def check(M, tag):
            seen.append(float(M[0, 1]))
            return (True, None) if M[0, 1] else (False, {"reason": tag, "value": float(M[0, 1])})

        M = np.array([[1.0, 3e-10], [0.5, 1.0]])
        assert embed._on_pattern(zeros, check)(M, "needs_the_entry") == (False, {"reason": "needs_the_entry", "value": 0.0})
        assert seen == [0.0]
        assert M.tolist() == [[1.0, 0.0], [0.5, 1.0]]
        assert embed._on_pattern(None, check) is check

    def test_plain_acceptor_matches_the_projecting_one_on_a_positive_input(self):
        # with no off-diagonal structural zero the acceptor is the plain
        # check; the projecting form over an empty mask gives the same
        # (ok, record), bit for bit, on an accepted and on rejected candidates
        B = numkit.expm(-(0.5 * np.eye(4) - random_intensity(np.random.default_rng(48), 4)))
        assert (B > CFG.entry_tol).all()
        assert embed._offdiag_zeros(B, CFG) is None
        plain = embed._log_acceptor(B, None, CFG)
        projecting = embed._log_acceptor(B, np.zeros((4, 4), dtype=bool), CFG)
        witness = -embed.check_strong_inf_divisible(B).z_matrix
        E = numkit.eig(B)
        far = numkit.logm_branch(E, [0, 0, 0, 0]).real + 0.5 * np.ones((4, 4))
        negative = witness.copy()
        negative[0, 1] = -1e-3
        candidates = [witness, witness - 1e-3 * np.eye(4), far, negative]
        results = [(plain(L.copy()), projecting(L.copy())) for L in candidates]
        assert [ok for (ok, _), _ in results] == [True, False, False, False]
        reasons = [record["reason"] for (ok, record), _ in results if not ok]
        assert reasons == ["reconstruction_failure", "reconstruction_failure", "off_diagonal_negative"]
        for ours, theirs in results:
            assert report_bits(ours) == report_bits(theirs)

    def test_large_residual_is_a_finite_reconstruction_failure(self):
        # a diagonal similarity of a divisible input with entries up to 1.5e10
        # (item 11's probe, case 200 of infdiv-truth at seed 2026): the
        # principal candidate's expm has entries past 1e171, so the sum of
        # the squares of its residual overflows; the norm is retaken scaled,
        # and the failure has its finite value, with no RuntimeWarning
        # (warnings are errors here).  The candidate fails as computed too,
        # so the record is that of the candidate set to 0.0 at B's
        # structural zeros.  The verdict is a known wrong negative
        # (ROADMAP items 9, 11 and 16), so only the record is pinned
        B = np.array([
            [0.09861034827133333, 1.5372524912754677e-11, 3.588247943204499e-13, 0.04565240161233268],
            [262232948.37224358, 0.09050358403014584, 0.001534425398255617, 153681067.39489305],
            [14925325803.570621, 3.132087434626659, 0.08523629233902447, 7991905185.052102],
            [0.1852145278536192, 3.6708989494416295e-11, 9.533599927559998e-13, 0.16525159443708576],
        ])
        report = embed.check_strong_inf_divisible(B)
        assert report.failed_conditions[0] == {"reason": "reconstruction_failure",
                                               "value": 1.43572849043602e+161, "branch": (0, 0, 0, 0)}

    @pytest.mark.parametrize("c", [1e200, 1e300])
    def test_large_scalar_is_divisible_with_its_roots(self, c):
        # c = exp(log c), and the residual of its exact logarithm is about
        # 1e-16 c: its square passes the float range, but not its norm
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = embed.check_strong_inf_divisible(np.array([[c]]))
        assert report.verdict == embed.STRONGLY_INF_DIVISIBLE
        assert [order for order, _ in report.roots_demonstrated] == [2, 3, 5]

    def test_norm_past_the_float_range_raises_overflow(self):
        # det B = 1.5e308 passes the determinant gate, but ||B||_F does not
        # fit a float, so no residual relative to it can be checked
        with pytest.raises(Overflow, match="Frobenius norm"):
            embed.check_strong_inf_divisible(np.array([[1.5e308, 1.5e308], [0.0, 1.0]]))

    def test_overflowing_gate_norms_warn_not(self):
        # det B = 2, but ||V^-1||_F of the eigenbasis and ||B||_F pass the
        # square root of the largest float: both norms are retaken scaled,
        # and the condition bound, about 1e200, takes the SVD gate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = embed.check_strong_inf_divisible(np.array([[1.0, 1e200], [0.0, 2.0]]))
        assert report.verdict == embed.UNDETERMINED

    def test_small_trailing_block_is_bounded_by_the_parent_norm(self):
        # the trailing block is about e^-7 of the leading one, so the bound a
        # slice inherits, recon_tol ||B||_F, is about 10^3 times looser
        # relative to the block's own norm than a standalone decision's
        c = 7.0
        Q = np.array([
            [1.0, -0.5, -0.2, -0.1],
            [-0.4, 1.2, -0.1, -0.2],
            [0.0, 0.0, c + 0.9, -0.3],
            [0.0, 0.0, -0.6, c + 1.1],
        ])
        B = numkit.expm(-Q)
        report = embed.check_strong_inf_divisible(B)
        assert report.verdict == embed.STRONGLY_INF_DIVISIBLE
        decomp = structure.frobenius_form(B)
        assert decomp.block_sizes == [2, 2]
        block = decomp.U[2:, 2:]
        assert np.linalg.norm(B) / np.linalg.norm(block) > 500
        (sub,) = report.recursion
        assert sub.verdict == embed.STRONGLY_INF_DIVISIBLE
        assert np.all(report.z_matrix[2:, :2] == 0.0)
        eps = np.finfo(float).eps
        resid = np.linalg.norm(numkit.expm(-sub.z_matrix) - block)
        assert resid <= np.linalg.norm(numkit.expm(-report.z_matrix) - B) + 8 * eps * np.linalg.norm(B)
        assert resid <= CFG.recon_tol * np.linalg.norm(B)
        # the block decided alone reaches the same verdict on its own norm
        alone = embed.check_strong_inf_divisible(block)
        assert alone.verdict == embed.STRONGLY_INF_DIVISIBLE
        assert np.max(np.abs(sub.z_matrix - alone.z_matrix)) <= 1e-12

    def test_trailing_blocks_cost_no_second_decision(self, monkeypatch):
        # three 1x1 blocks: the only determinants are the gate's and the
        # trailing conditions', and a block costs no expm
        B = np.triu(np.full((3, 3), 0.3)) + np.diag([0.4, 0.5, 0.6])
        dets = count_calls(monkeypatch, numkit, "_lapack_det")
        eigs = count_calls(monkeypatch, numkit, "eig")
        expms = count_calls(monkeypatch, numkit, "expm")
        roots = count_calls(monkeypatch, numkit, "branch_roots")
        report = embed.check_strong_inf_divisible(B)
        assert report.verdict == embed.STRONGLY_INF_DIVISIBLE
        assert len(report.recursion) == 2
        assert [M.shape for (M,) in dets] == [(3, 3), (2, 2), (1, 1)]
        assert len(eigs) == 1
        # the acceptance test alone; the three roots come from the witness's
        # eigenbasis in one call
        assert len(expms) == 1
        assert len(roots) == 1

    @pytest.mark.parametrize(
        "decide, matrix, verdict",
        [
            (embed.check_embeddable, TRANS_A, embed.EMBEDDABLE),
            (embed.check_strong_inf_divisible, DIVISIBLE_TRIANGLE, embed.STRONGLY_INF_DIVISIBLE),
        ],
        ids=["embeddability", "divisibility"],
    )
    def test_necessary_conditions_run_once_per_decision(self, decide, matrix, verdict, monkeypatch):
        # three 1x1 blocks; a trailing block passes every condition its
        # parent passed
        calls = count_calls(monkeypatch, structure, "necessary_conditions")
        assert decide(matrix).verdict == verdict
        assert len(calls) == 1

    def test_determinant_must_be_positive(self):
        report = embed.check_strong_inf_divisible(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert report.verdict == embed.NOT_STRONGLY_INF_DIVISIBLE
        reasons = {r.get("reason") for r in report.failed_conditions}
        assert "determinant_not_positive" in reasons or "necessary_condition" in reasons

    def test_rejects_negative_entries(self):
        with pytest.raises(NotNonnegative):
            embed.check_strong_inf_divisible(np.array([[1.0, -1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("orders", [(0,), (-2,), (2, 2.5), (True,)])
    def test_root_orders_must_be_positive_integers(self, orders, monkeypatch):
        forms = count_calls(monkeypatch, embed.structure, "frobenius_form")
        with pytest.raises(ValueError, match="root orders"):
            embed.check_strong_inf_divisible(DIVISIBLE_TRIANGLE, root_orders=orders)
        assert not forms

    def test_root_orders_are_read_once_from_any_iterable(self):
        from_tuple = embed.check_strong_inf_divisible(DIVISIBLE_TRIANGLE, root_orders=(2, 3, 5))
        from_generator = embed.check_strong_inf_divisible(DIVISIBLE_TRIANGLE, root_orders=(m for m in (2, 3, 5)))
        assert [order for order, _ in from_generator.roots_demonstrated] == [2, 3, 5]
        assert report_bits(from_generator) == report_bits(from_tuple)

    def test_one_decision_runs_every_traced_stage_once(self, monkeypatch):
        # a strictly positive input takes every shortcut, yet each stage the
        # benchmark traces still runs through its public name
        B = numkit.expm(-(0.5 * np.eye(4) - random_intensity(np.random.default_rng(44), 4)))
        stages = [(numkit, "eig"), (structure, "frobenius_form"), (structure, "necessary_conditions"),
                  (numkit, "expm"), (numkit, "branch_roots")]
        calls = {name: count_calls(monkeypatch, module, name) for module, name in stages}
        svds = count_calls(monkeypatch, numkit, "_condition")
        report = embed.check_strong_inf_divisible(B)
        assert report.verdict == embed.STRONGLY_INF_DIVISIBLE
        assert len(report.roots_demonstrated) == 3
        assert {name: len(c) for name, c in calls.items()} == {name: 1 for _, name in stages}
        # a well-conditioned eigenbasis passes eig's Frobenius bound with no SVD
        assert svds == []

    @pytest.mark.parametrize("spoil", ["negative_entry", "nan_entry"])
    def test_rejected_spectral_root_falls_back_to_expm(self, spoil, monkeypatch):
        # a root from the eigenbasis that fails a check is recomputed with
        # expm, so the report prints exactly the expm root; a NaN entry
        # fails the checks too, since they fail closed
        B = numkit.expm(-(0.5 * np.eye(3) - random_intensity(np.random.default_rng(45), 3)))
        expected = embed.check_strong_inf_divisible(B)
        branch_roots = numkit.branch_roots

        def spoiled(*args):
            roots = branch_roots(*args)
            for root in roots:
                root[0, 1] = -1.0 if spoil == "negative_entry" else np.nan
            return roots

        monkeypatch.setattr(numkit, "branch_roots", spoiled)
        expms = count_calls(monkeypatch, numkit, "expm")
        report = embed.check_strong_inf_divisible(B)
        assert report.verdict == embed.STRONGLY_INF_DIVISIBLE
        assert report.failed_conditions == []
        assert report_bits(report.z_matrix) == report_bits(expected.z_matrix)
        Q = report.z_matrix
        assert report_bits(report.roots_demonstrated) == report_bits(
            [(order, numkit.expm(-Q / order)) for order in (2, 3, 5)]
        )
        assert len(expms) == 1 + 3 + 3  # acceptance, the fallbacks, the comparison above

    def test_roots_of_an_eigenbasis_principal_log_come_from_that_basis(self, monkeypatch):
        # a repeated diagonalizable spectrum: the witness is eig's principal
        # log, and so are its roots
        B = equal_input(np.random.default_rng(46), 4)
        expms = count_calls(monkeypatch, numkit, "expm")
        roots = count_calls(monkeypatch, numkit, "branch_roots")
        report = embed.check_strong_inf_divisible(B)
        assert report.verdict == embed.STRONGLY_INF_DIVISIBLE
        assert report.bound_used is None
        assert (len(expms), len(roots)) == (1, 1)
        for order, root in report.roots_demonstrated:
            expected = scipy.linalg.expm(-report.z_matrix / order)
            assert np.linalg.norm(root - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_scipy_witness_keeps_expm_roots(self, monkeypatch):
        # a defective input has no eigenbasis, so its roots are expm's
        B = numkit.expm(np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]]))
        roots = count_calls(monkeypatch, numkit, "branch_roots")
        report = embed.check_strong_inf_divisible(B)
        assert report.verdict == embed.STRONGLY_INF_DIVISIBLE
        assert roots == []
        Q = report.z_matrix
        assert report_bits(report.roots_demonstrated) == report_bits(
            [(order, numkit.expm(-Q / order)) for order in (2, 3, 5)]
        )

    def test_spectral_roots_keep_every_verdict_on_ill_conditioned_bases(self, monkeypatch):
        # expm(R + 0.3 I) for upper-triangular R whose exit rates nearly
        # coincide: eigenbases with condition numbers up to about 5e8, where
        # roots by diagonalization are least accurate (the rest have none
        # and take numkit's principal log).  No spectral root is rejected,
        # and against the expm roots no verdict changes and no root moves
        # beyond 1e-7 relative.  The inputs are scipy's exponentials, so
        # they keep the bits this test was written with; the draws that
        # numkit's own bits turn wrong are the strict xfails below
        draws = [scipy.linalg.expm(G) for G in shifted_triangular_generators()]
        spectral_calls = count_calls(monkeypatch, numkit, "branch_roots")
        expms = count_calls(monkeypatch, numkit, "expm")
        spectral = [embed.check_strong_inf_divisible(B) for B in draws]
        assert [r.verdict for r in spectral] == [embed.STRONGLY_INF_DIVISIBLE] * 200
        assert 50 <= len(spectral_calls) <= 150
        # acceptance, plus three expm roots for each witness without an
        # eigenbasis: no fallback fired
        assert len(expms) == 200 + 3 * (200 - len(spectral_calls))
        # basis roots that fail every check send each root to expm
        monkeypatch.setattr(numkit, "branch_roots", lambda E, sel, orders, cfg: np.full((len(orders), E.n, E.n), -1.0))
        reference = [embed.check_strong_inf_divisible(B) for B in draws]
        assert [r.verdict for r in reference] == [r.verdict for r in spectral]
        for ours, theirs in zip(spectral, reference):
            assert report_bits(ours.z_matrix) == report_bits(theirs.z_matrix)
            assert [order for order, _ in ours.roots_demonstrated] == [order for order, _ in theirs.roots_demonstrated]
            for (_, root), (_, expected) in zip(ours.roots_demonstrated, theirs.roots_demonstrated):
                assert np.linalg.norm(root - expected) <= 1e-7 * np.linalg.norm(expected)

    @pytest.mark.parametrize("draw", ITEM_9_FLIPS)
    def test_ill_conditioned_draw_from_numkit_bits_is_divisible(self, draw):
        # the same generator as above, exponentiated by numkit: its last bits
        # move the acceptance residual of the one candidate, 1.1e-8, across
        # recon_tol; that failure is rounding, and numkit's principal log is
        # the witness
        B = numkit.expm(shifted_triangular_generators()[draw])
        assert embed.check_strong_inf_divisible(B).verdict == embed.STRONGLY_INF_DIVISIBLE

    def test_root_failure_reports_count_the_branches_searched(self, monkeypatch):
        expected = embed.check_strong_inf_divisible(TRANS_A)
        # a power that never reconstructs the input forces root_power_mismatch
        monkeypatch.setattr(np.linalg, "matrix_power", lambda M, k: np.zeros_like(M))
        report = embed.check_strong_inf_divisible(TRANS_A)
        assert report.verdict == embed.UNDETERMINED
        assert report.failed_conditions[-1] == {"reason": "root_power_mismatch", "order": 2}
        assert report.branches_examined == expected.branches_examined >= 1
        assert report.bound_used == expected.bound_used

    def test_embeddable_chains_are_divisible(self):
        rng = np.random.default_rng(34)
        done = 0
        while done < 100:
            n = int(rng.integers(2, 6))
            P = numkit.expm(random_intensity(rng, n))
            if min_eig_gap(P) < CFG.distinct_tol or np.linalg.det(P) < 1e-8:
                continue
            done += 1
            report = embed.check_strong_inf_divisible(P)
            assert report.verdict == embed.STRONGLY_INF_DIVISIBLE

    def test_nonstochastic_nonnegative_family(self):
        rng = np.random.default_rng(35)
        done = 0
        while done < 100:
            n = int(rng.integers(2, 6))
            Q = random_shifted_z(rng, n, shift_hi=0.5)
            B = numkit.expm(-Q)
            if min_eig_gap(B) < CFG.distinct_tol:
                continue
            done += 1
            report = embed.check_strong_inf_divisible(B)
            assert report.verdict == embed.STRONGLY_INF_DIVISIBLE
            assert classify.is_z_matrix(report.z_matrix, CFG)
            assert numkit.relative_residual(numkit.expm(-report.z_matrix), B) <= CFG.recon_tol

    def test_window_widens_until_the_witness_fits(self):
        # its Perron radius 2.60 admits only the principal offset tuple
        Q = np.array([[-0.5414, -0.4968, 0], [0, -0.9704, -0.9357], [-1, -0.1438, -0.6479]])
        report = embed.check_strong_inf_divisible(numkit.expm(-Q))
        assert report.verdict == embed.STRONGLY_INF_DIVISIBLE
        assert report.bound_used.raw_tuple_count == 1
        assert np.allclose(report.z_matrix, Q, atol=1e-10)

    def test_exhaustion_of_the_perron_radius(self):
        # the radius 1.66 is below |arg lam| = 1.69 of the conjugate pair, so
        # no real logarithm with nonnegative off-diagonal entries exists
        C = np.array([[0.3, 0.6, 0.1], [0.1, 0.3, 0.6], [0.6, 0.1, 0.3]])
        report = embed.check_strong_inf_divisible(C)
        assert report.verdict == embed.NOT_STRONGLY_INF_DIVISIBLE
        assert report.branches_examined == 0
        assert report.bound_used.raw_tuple_count == 0
        assert report.bound_used.im_high == pytest.approx(1.6607, abs=1e-4)
        assert report.failed_conditions[-1]["reason"] == "all_branches_exhausted"

    def test_principal_log_built_once_per_branch(self, monkeypatch):
        # one logm_branch per examined branch; the trailing sub-reports are
        # sliced from the witness and examine none
        calls = count_calls(monkeypatch, numkit, "logm_branch")
        report = embed.check_strong_inf_divisible(TRANS_A)
        examined = report.branches_examined + sum(r.branches_examined for r in report.recursion)
        assert examined == 1
        assert len(calls) == 1

    def test_repeated_spectrum_ends_at_the_principal_log(self, monkeypatch):
        calls = count_calls(monkeypatch, numkit, "principal_log")
        bad = TRANS_B @ TRANS_A
        B = np.block([[bad, np.zeros((3, 3))], [np.zeros((3, 3)), bad]])
        report = embed.check_strong_inf_divisible(B)
        assert report.verdict == embed.UNDETERMINED
        records = [(r["reason"], r.get("branch")) for r in report.failed_conditions]
        assert records == [("off_diagonal_negative", "principal_primary"), ("repeated_eigenvalues", None)]
        assert len(calls) == 1


class TestEmbeddabilityIsDivisibility:
    def test_one_decision_answers_both_questions(self):
        # a real logarithm of a stochastic matrix with nonnegative
        # off-diagonal entries has zero row sums (Kingman 1962), so past the
        # determinant gates the two questions run the same search
        classes = {
            embed.EMBEDDABLE: "positive",
            embed.STRONGLY_INF_DIVISIBLE: "positive",
            embed.NOT_EMBEDDABLE: "negative",
            embed.NOT_STRONGLY_INF_DIVISIBLE: "negative",
            embed.UNDETERMINED: "undetermined",
        }
        rng = np.random.default_rng(16)
        seen = []
        for k in range(120):
            n = int(rng.integers(3, 7))
            P = random_stochastic(rng, n) if k % 2 else numkit.expm(random_intensity(rng, n, hi=2.0))
            if np.linalg.det(P) <= CFG.entry_tol:
                continue
            gen = embed.check_embeddable(P)
            div = embed.check_strong_inf_divisible(P)
            seen.append(classes[gen.verdict])
            assert classes[div.verdict] == seen[-1]
            assert gen.branches_examined == div.branches_examined
            assert report_bits(gen.bound_used) == report_bits(div.bound_used)
            assert report_bits(gen.failed_conditions) == report_bits(div.failed_conditions)
            if gen.generator is None:
                assert div.z_matrix is None
            else:
                assert report_bits(gen.generator) == report_bits(-div.z_matrix)
                assert classify.is_intensity_matrix(gen.generator, CFG)
        assert len(seen) == 63
        assert {"positive", "negative"} <= set(seen)

    @pytest.mark.parametrize(
        "decide, matrix, verdict",
        [
            (embed.check_embeddable, TRANS_A, embed.EMBEDDABLE),
            (embed.check_strong_inf_divisible,
             numkit.expm(-(0.5 * np.eye(3) - random_intensity(np.random.default_rng(45), 3))),
             embed.STRONGLY_INF_DIVISIBLE),
            (embed.check_strong_inf_divisible, equal_input(np.random.default_rng(46), 4),
             embed.STRONGLY_INF_DIVISIBLE),
        ],
        ids=["embeddability", "divisibility", "repeated-spectrum"],
    )
    def test_imaginary_residue_of_a_real_selection_is_rounding(self, decide, matrix, verdict, monkeypatch):
        # a decision builds only selections whose logarithm is real (Culver
        # 1966), so the imaginary part of a computed candidate is rounding,
        # even far above imaginary_residue_bound: the candidate is its real
        # part and only the acceptor judges it.  The report is the unpatched
        # one bit for bit, roots and witness included
        expected = decide(matrix)
        assert expected.verdict == verdict
        logm_branch = numkit.logm_branch

        def with_residue(E, selection, cfg=CFG):
            L = logm_branch(E, selection, cfg) + 1e-6j
            assert np.abs(L.imag).max() > imaginary_residue_bound(L)
            return L

        monkeypatch.setattr(numkit, "logm_branch", with_residue)
        assert report_bits(decide(matrix)) == report_bits(expected)


def scipy_accepts(P, L, intensity):
    """The acceptance test without the library: nonnegative off-diagonal
    entries, zero row sums for an intensity matrix, and scipy's expm
    reconstructing P within recon_tol."""
    n = len(L)
    if np.min(L[~np.eye(n, dtype=bool)]) < -CFG.entry_tol:
        return False
    if intensity and np.max(np.abs(L.sum(axis=1))) > n * CFG.entry_tol:
        return False
    return np.linalg.norm(scipy.linalg.expm(L) - P) <= CFG.recon_tol * np.linalg.norm(P)


class TestRepeatedSpectrum:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_equal_input_is_resolved_from_the_search_eigenbasis(self, n, monkeypatch):
        # exp(-c) repeated n-1 times on a diagonalizable spectrum: the
        # principal log of eig's basis is the witness, numkit's never runs
        calls = count_calls(monkeypatch, numkit, "principal_log")
        rng = np.random.default_rng(40 + n)
        for _ in range(3):
            P = equal_input(rng, n)
            assert min_eig_gap(P) < CFG.distinct_tol
            gen = embed.check_embeddable(P)
            div = embed.check_strong_inf_divisible(P)
            assert gen.verdict == embed.EMBEDDABLE
            assert div.verdict == embed.STRONGLY_INF_DIVISIBLE
            for report, L, intensity in ((gen, gen.generator, True), (div, -div.z_matrix, False)):
                assert report.bound_used is None
                assert report.failed_conditions == []
                assert scipy_accepts(P, L, intensity)
        assert calls == []

    @pytest.mark.parametrize("check", [embed.check_embeddable, embed.check_strong_inf_divisible])
    def test_wrapped_circulant_has_no_principal_log(self, check):
        # eig returns the double eigenvalue near -0.003 as a conjugate pair
        # with imaginary parts near 1e-16.  Offsets 0 on that pair give a
        # real logarithm, which the acceptor can take for this draw, but it is
        # not a principal one: the negative-axis guard keeps it out
        P = scipy.linalg.expm(wrapped_circulant(np.random.default_rng(42), 3))
        report = check(P)
        assert report.verdict == embed.UNDETERMINED
        assert report.failed_conditions[0]["reason"] == "principal_log_unavailable"

    @pytest.mark.parametrize("check", [embed.check_embeddable, embed.check_strong_inf_divisible])
    def test_log_precondition_is_read_from_the_decision_eigenbasis(self, check, monkeypatch):
        # the double negative eigenvalue of eig's spectrum already rules out a
        # real principal log, so no second spectrum and no principal_log follow
        P = numkit.expm(wrapped_circulant(np.random.default_rng(3), 3))
        names = ("_lapack_eig", "_lapack_eigvals", "principal_log")
        counts = {name: count_calls(monkeypatch, numkit, name) for name in names}
        report = check(P)
        assert report.verdict == embed.UNDETERMINED
        assert [r["reason"] for r in report.failed_conditions] == ["principal_log_unavailable", "repeated_eigenvalues"]
        assert {name: len(calls) for name, calls in counts.items()} == {
            "_lapack_eig": 1, "_lapack_eigvals": 0, "principal_log": 0}

    @pytest.mark.parametrize("check", [embed.check_embeddable, embed.check_strong_inf_divisible])
    def test_nonreal_repeated_spectrum_is_not_the_only_real_log(self, check):
        # blockdiag(C, C), C = 0.1 J/3 + 0.9 (0.15 I + 0.85 Pi) with Pi the
        # 3-cycle, repeats a conjugate pair: its principal log fails the sign
        # test, but with a nonreal eigenvalue it need not be the only real
        # logarithm, so that failure certifies nothing
        C = 0.1 * np.ones((3, 3)) / 3 + 0.9 * (0.15 * np.eye(3) + 0.85 * np.roll(np.eye(3), 1, axis=1))
        report = check(scipy.linalg.block_diag(C, C))
        assert report.verdict == embed.UNDETERMINED
        records = [(r["reason"], r.get("branch")) for r in report.failed_conditions]
        assert records == [("off_diagonal_negative", "principal_primary"), ("repeated_eigenvalues", None)]

    @pytest.mark.parametrize("check", [embed.check_embeddable, embed.check_strong_inf_divisible])
    def test_defective_input_reads_one_spectrum(self, check, monkeypatch):
        # no eigenbasis: the principal log's precondition and the test that
        # this log is the only real candidate each take the spectrum, and
        # both get the same bits
        P = numkit.expm(np.array([[-1.0, 1.0 + 5e-8, -5e-8], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]]))
        eigvals, spectra = numkit._lapack_eigvals, []
        monkeypatch.setattr(numkit, "_lapack_eigvals", lambda A: spectra.append(eigvals(A)) or spectra[-1])
        logs = count_calls(monkeypatch, numkit, "principal_log")
        report = check(P)
        reasons = [r["reason"] for r in report.failed_conditions]
        assert reasons == ["off_diagonal_negative", "primary_log_is_only_candidate"]
        assert (len(spectra), len(logs)) == (2, 1)
        assert spectra[0].tobytes() == spectra[1].tobytes()

    @pytest.mark.parametrize("check", [embed.check_embeddable, embed.check_strong_inf_divisible])
    def test_unconverged_principal_log_is_undetermined(self, check, monkeypatch):
        # with no square-root step allowed the principal log never converges:
        # neither the blocked fixture (eigenbasis log rejected) nor the
        # defective input (no eigenbasis, a negative otherwise) gets a verdict
        monkeypatch.setattr(numkit, "_MAX_SQRT_STEPS", 0)
        bad = TRANS_B @ TRANS_A
        blocked = np.block([[bad, np.zeros((3, 3))], [np.zeros((3, 3)), bad]])
        defective = numkit.expm(np.array([[-1.0, 1.0 + 5e-8, -5e-8], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]]))
        for A in (blocked, defective):
            report = check(A)
            assert report.verdict == embed.UNDETERMINED
            reasons = [r["reason"] for r in report.failed_conditions]
            assert reasons == ["principal_log_unavailable", "repeated_eigenvalues"]
            assert "did not converge" in report.failed_conditions[0]["detail"]


class TestReconstructionFailureIsNotEvidence:
    @pytest.mark.parametrize("draw", ITEM_9_EMBEDDABLE)
    def test_ill_conditioned_chain_is_embeddable(self, draw):
        # the search's one candidate misses recon_tol by the kappa(V) u
        # rounding of its eigenbasis; numkit's principal log passes the same
        # acceptor and is the generator
        P = numkit.expm(triangular_generators()[draw])
        report = embed.check_embeddable(P)
        assert report.verdict == embed.EMBEDDABLE
        assert [r["reason"] for r in report.failed_conditions] == ["reconstruction_failure", "all_branches_exhausted"]
        assert 1e-8 < report.failed_conditions[0]["value"] < 2e-8
        assert report.branches_examined == 1
        assert report_bits(report.generator) == report_bits(numkit.principal_log(P))

    @pytest.mark.parametrize("check", [embed.check_embeddable, embed.check_strong_inf_divisible])
    @pytest.mark.parametrize("failure", ["reconstruction_failure", "principal_log_unavailable"])
    def test_failing_principal_log_leaves_the_search_undetermined(self, check, failure, monkeypatch):
        # draw 196 and the divisibility draw 86 each end on a lone
        # reconstruction failure; with the principal log rejected too, or
        # unavailable, nothing certifies either answer
        P = numkit.expm(triangular_generators()[196] if check is embed.check_embeddable
                        else shifted_triangular_generators()[ITEM_9_FLIPS[0]])
        if failure == "reconstruction_failure":
            shifted_principal_log(monkeypatch)
        else:
            monkeypatch.setattr(numkit, "_MAX_SQRT_STEPS", 0)
        report = check(P)
        assert report.verdict == embed.UNDETERMINED
        reasons = [r["reason"] for r in report.failed_conditions]
        assert reasons == ["reconstruction_failure", "all_branches_exhausted", failure,
                           "reconstruction_failure_not_evidence"]
        if failure == "reconstruction_failure":
            assert report.failed_conditions[2]["branch"] == "principal_primary"

    @pytest.mark.parametrize("check", [embed.check_embeddable, embed.check_strong_inf_divisible])
    def test_sole_principal_log_failing_by_rounding_is_undetermined(self, check, monkeypatch):
        # the defective input's principal log is its only real logarithm; a
        # reconstruction failure of it is no evidence, so no negative follows
        shifted_principal_log(monkeypatch)
        report = check(numkit.expm(np.array(TestNearThreshold.DEFECTIVE)))
        assert report.verdict == embed.UNDETERMINED
        reasons = [r["reason"] for r in report.failed_conditions]
        assert reasons == ["reconstruction_failure", "repeated_eigenvalues"]


class TestNearThreshold:
    # R's (0, 2) rate is -eps with its row sum kept at 0: -5e-9 lies inside the
    # acceptor's borderline band of 10 entry_tol, -5e-8 outside it
    SEARCH = [[-0.7, 0.7, 0.0], [0.3, -0.8, 0.5], [0.2, 0.6, -0.8]]
    # an upper-triangular generator whose exponential is defective: eig finds
    # no eigenbasis and numkit's principal log is the only real candidate
    DEFECTIVE = [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]]

    @staticmethod
    def chain(R, eps):
        R = np.array(R)
        R[0, 1] += eps
        R[0, 2] -= eps
        return numkit.expm(R)

    @pytest.mark.parametrize(
        "check, negative",
        [(embed.check_embeddable, embed.NOT_EMBEDDABLE),
         (embed.check_strong_inf_divisible, embed.NOT_STRONGLY_INF_DIVISIBLE)],
        ids=["embeddability", "divisibility"],
    )
    @pytest.mark.parametrize("R, last", [(SEARCH, "all_branches_exhausted"), (DEFECTIVE, "primary_log_is_only_candidate")],
                             ids=["search", "defective"])
    def test_borderline_failure_certifies_no_negative(self, check, negative, R, last):
        report = check(self.chain(R, 5e-9))
        assert report.verdict == embed.UNDETERMINED
        reasons = [r["reason"] for r in report.failed_conditions]
        assert reasons == ["off_diagonal_negative", last, "near_threshold"]
        assert report.failed_conditions[0]["borderline"] is True
        report = check(self.chain(R, 5e-8))
        assert report.verdict == negative
        assert [r["reason"] for r in report.failed_conditions] == ["off_diagonal_negative", last]
        assert report.failed_conditions[0]["borderline"] is False

    def test_eigenvalue_near_zero_is_undetermined(self):
        # det 1e-5 passes the determinant gate, but the eigenvalue 5.0e-10 is
        # within entry_tol of zero, where numkit takes no logarithm.  B is
        # divisible: scipy's logarithm is Metzler and reconstructs it, so no
        # negative may be certified either
        B = 1e4 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
        L = scipy.linalg.logm(B)
        assert np.min(L[~np.eye(2, dtype=bool)]) > 0
        assert numkit.relative_residual(scipy.linalg.expm(L), B) < 1e-13
        report = embed.check_strong_inf_divisible(B)
        assert report.verdict == embed.UNDETERMINED
        assert report.failed_conditions == [{"reason": "eigenvalue_near_zero", "value": pytest.approx(5.0e-10, rel=1e-2)}]
        assert report.branches_examined == 0 and report.z_matrix is None


class TestInverseMPowerForm:
    def test_fixture_first_power(self):
        result = embed.inverse_m_power_form(TRANS_A, 1)
        assert result is not None
        assert result.epsilon == pytest.approx(1.0 - np.exp(-2.0), abs=1e-9)
        assert classify.is_stochastic(result.h, CFG)
        # the first root is the input itself, never a twice-inverted copy
        assert np.array_equal(result.root, TRANS_A)

    def test_root_is_taken_from_the_input_not_its_inverse(self, monkeypatch):
        P = TRANS_A @ TRANS_A
        inverses = count_calls(monkeypatch, numkit, "_lapack_inv")
        # indices into ``inverses`` of the inv calls made inside primary_root,
        # whose square-root iteration inverts its own iterate, P at first
        inside_root = []
        roots = []
        primary_root = numkit.primary_root

        def recording_root(*args):
            roots.append(args)
            start = len(inverses)
            try:
                return primary_root(*args)
            finally:
                inside_root.extend(range(start, len(inverses)))

        monkeypatch.setattr(numkit, "primary_root", recording_root)
        result = embed.inverse_m_power_form(P, 2)
        assert len(roots) == 1 and np.array_equal(roots[0][0], P)
        assert np.array_equal(result.root, numkit.primary_root(P, 2))
        outside_root = [args for j, args in enumerate(inverses) if j not in inside_root]
        assert not any(np.array_equal(args[0], P) for args in outside_root)
        # at m = 1 a dense inverse-M input is its own root, bit for bit
        B = random_inverse_m(np.random.default_rng(62), 4)
        assert np.array_equal(embed.inverse_m_power_form(B, 1).root, B)

    def test_primary_root_with_a_negative_entry_is_none(self):
        # the principal square root of C0 has least entry -0.282
        C0 = np.array([[0.1, 0.9, 0.0], [0.0, 0.1, 0.9], [0.9, 0.0, 0.1]])
        assert numkit.primary_root(C0, 2).min() == pytest.approx(-0.282, abs=1e-3)
        assert embed.inverse_m_power_form(C0, 2) is None

    def test_resolvent_factor_that_is_not_stochastic_is_none(self):
        # P = W^-1 for the row-sum-one W = [[1 + a, -a], [b, 1 - b]]: W's
        # entry b = 5e-10 is a Z-matrix slack, and P's entry -b/det W a
        # nonnegative one, but the factor h = (sI - W)/(s - 1), s = 1 + a,
        # has the entry -b/a = -5e-4.  So this None rests on an absolute
        # slack that the division by s - 1 amplifies
        a, b = 1e-6, 5e-10
        P = np.linalg.inv(np.array([[1.0 + a, -a], [b, 1.0 - b]]))
        assert classify.is_stochastic(P, CFG) and classify.is_z_matrix(np.linalg.inv(P), CFG)
        assert embed.inverse_m_power_form(P, 1) is None

    def test_square_of_inverse_m(self):
        result = embed.inverse_m_power_form(TRANS_A @ TRANS_A, 2)
        assert result is not None
        assert np.allclose(result.root, TRANS_A, atol=1e-8)
        n = 3
        recon = (1 - result.epsilon) ** 2 * np.linalg.matrix_power(
            np.linalg.inv(np.eye(n) - result.epsilon * result.h), 2
        )
        assert numkit.relative_residual(recon, TRANS_A @ TRANS_A) <= CFG.recon_tol

    def test_product_fixture_has_no_form(self):
        assert embed.inverse_m_power_form(TRANS_B @ TRANS_A, 1) is None

    @pytest.mark.parametrize("P", [[[0.2, 0.8], [0.8, 0.2]], np.diag([2.0, -1.0, 1.0])])
    @pytest.mark.parametrize("m", [1, 2])
    def test_negative_determinant_has_no_form(self, P, m):
        # an inverse-M matrix and its powers have a positive determinant
        assert embed.inverse_m_power_form(P, m) is None

    def test_negative_eigenvalues_with_positive_determinant_still_raise(self):
        # no primary root is real, and a positive determinant does not rule
        # out a non-primary inverse-M root
        with pytest.raises(NegativeRealEigenvalue):
            embed.inverse_m_power_form(np.diag([2.0, -1.0, -1.0]), 3)

    def test_identity_convention(self):
        result = embed.inverse_m_power_form(np.eye(3), 1)
        assert result.epsilon == 0.0
        assert np.array_equal(result.h, np.eye(3))

    def test_nonstochastic_target_returns_root_only(self):
        B = (2.0 * TRANS_A) @ (2.0 * TRANS_A)
        result = embed.inverse_m_power_form(B, 2)
        assert result is not None
        assert result.epsilon is None and result.h is None
        assert np.allclose(result.root, 2.0 * TRANS_A, atol=1e-8)
        assert classify.classify_matrix(result.root).flags["inverse_m_matrix"]

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            embed.inverse_m_power_form(np.array([[0.5, 0.5], [0.5, 0.5]]), 1)

    def test_singularity_is_relative_to_scale(self):
        # det(1e-4 I) = 1e-12 lies below entry_tol, yet 1e-4 I is a
        # nonsingular inverse-M matrix, its own root at m = 1 and 1e-2 I at m = 2
        small = 1e-4 * np.eye(3)
        assert np.array_equal(embed.inverse_m_power_form(small, 1).root, small)
        assert np.allclose(embed.inverse_m_power_form(small, 2).root, 1e-2 * np.eye(3), rtol=1e-12, atol=0)
        # rank one at every scale
        for c in (1e-3, 1.0, 1e6):
            with pytest.raises(SingularMatrix):
                embed.inverse_m_power_form(c * np.ones((3, 3)), 1)
        # det = 1 lies far above entry_tol, but sigma_min / sigma_max is 2.5e-13
        with pytest.raises(SingularMatrix):
            embed.inverse_m_power_form(1e6 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]]), 1)


ORDER_PARAMETERS = {
    "root orders": lambda m: embed.check_strong_inf_divisible(DIVISIBLE_TRIANGLE, root_orders=(2, m)),
    "power m": lambda m: embed.inverse_m_power_form(TRANS_A, m),
    "root order n": lambda m: numkit.primary_root(TRANS_A, m),
    "starting order n": lambda m: embed.im_root_approx(TRANS_A, GEN_A, n=m),
}


@pytest.mark.parametrize("bad", [True, 0, -1, 2.0, "2"], ids=repr)
@pytest.mark.parametrize("name", list(ORDER_PARAMETERS))
def test_every_order_parameter_takes_positive_integers_only(name, bad):
    # one check for all four: a boolean is not an order, though True == 1
    with pytest.raises(ValueError, match=f"^{name}: expected a positive integer, got {bad!r}$"):
        ORDER_PARAMETERS[name](bad)


class TestImRootApprox:
    def test_dense_generator_small_order(self):
        R = np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]])
        P = numkit.expm(R)
        W = embed.im_root_approx(P, R, 1)
        flags = classify.classify_matrix(W).flags
        assert flags["m_matrix"]

    def test_generator_must_match_and_reconstruct(self):
        R = np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]])
        P = numkit.expm(R)
        with pytest.raises(ValueError, match="matching shapes"):
            embed.im_root_approx(P, R[:2, :2])
        with pytest.raises(ValueError, match="does not reconstruct"):
            embed.im_root_approx(P, 2.0 * R)

    def test_offdiagonal_zero_precondition(self):
        with pytest.raises(OffDiagonalZeros):
            embed.im_root_approx(TRANS_A, GEN_A, 1)
        with pytest.raises(OffDiagonalZeros):
            embed.im_root_approx(np.eye(3), np.zeros((3, 3)), 1)

    def test_takes_no_logarithm(self, monkeypatch):
        # expm(-R/m) is an M-matrix first at order 16; every order divides
        # the verified generator itself, and P is never inverted
        R = random_intensity(np.random.default_rng(36), 6, lo=0.05, hi=1.5)
        P = numkit.expm(R)
        logs = count_calls(monkeypatch, numkit, "principal_log")
        inverses = count_calls(monkeypatch, numkit, "_lapack_inv")
        W = embed.im_root_approx(P, R, 1)
        assert np.array_equal(W, numkit.expm(-R / 16))
        with pytest.raises(SearchExhausted):
            embed.im_root_approx(P, R, 4, n_max=2)
        assert logs == []
        assert inverses and not any(np.array_equal(args[0], P) for args in inverses)

    def test_non_principal_generator_gives_its_own_root(self):
        # R = 5(C - I) + 0.3(J/3 - I), C the 3-cycle, has eigenvalues
        # -7.8 +- 4.33i: a real logarithm of P = expm(R) but not the principal
        # one G0, which check_embeddable accepts after one branch.  Each
        # generator certifies with its own roots.
        C = np.roll(np.eye(3), 1, axis=1)
        R = 5.0 * (C - np.eye(3)) + 0.3 * (np.ones((3, 3)) / 3 - np.eye(3))
        P = numkit.expm(R)
        report = embed.check_embeddable(P)
        assert report.verdict == embed.EMBEDDABLE and report.branches_examined == 1
        G0 = report.generator
        assert np.max(np.abs(G0 - R)) > 1.0
        assert np.array_equal(embed.im_root_approx(P, R), numkit.expm(-R / 256))
        assert np.array_equal(embed.im_root_approx(P, G0), numkit.expm(-G0 / 8))

    def test_log_free_oracle(self):
        # each returned W is a Z-matrix with a nonnegative inverse whose
        # power of some power-of-two order m reconstructs P
        rng = np.random.default_rng(61)
        for _ in range(30):
            R = random_intensity(rng, int(rng.integers(2, 7)), lo=0.05, hi=2.0)
            P = numkit.expm(R)
            W = embed.im_root_approx(P, R)
            assert classify.is_z_matrix(W, CFG)
            root = np.linalg.inv(W)
            assert classify.is_nonnegative(root, CFG)
            residuals = [numkit.relative_residual(np.linalg.matrix_power(root, 2**k), P) for k in range(21)]
            assert min(residuals) <= CFG.recon_tol

    def test_grows_order_until_m_matrix(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            R = random_intensity(rng, n, lo=0.3, hi=1.5)
            P = numkit.expm(R)
            W = embed.im_root_approx(P, R, 1)
            assert classify.is_z_matrix(W, CFG)
            assert classify.is_nonnegative(np.linalg.inv(W), CFG)


class TestReportInvariants:
    def test_not_embeddable_always_names_a_failure(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            P = random_stochastic(rng, n)
            report = embed.check_embeddable(P)
            if report.verdict == embed.NOT_EMBEDDABLE:
                assert report.failed_conditions
            if report.verdict == embed.EMBEDDABLE:
                assert classify.is_intensity_matrix(report.generator, CFG)
                assert (
                    numkit.relative_residual(numkit.expm(report.generator), P)
                    <= CFG.recon_tol
                )
