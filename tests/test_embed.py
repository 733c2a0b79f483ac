import dataclasses
import itertools

import numpy as np
import pytest
import scipy.linalg

from embedlab import classify, embed, numkit, structure
from embedlab.errors import (
    NotNonnegative,
    NotStochastic,
    OffDiagonalZeros,
    SingularDeterminant,
    SingularMatrix,
)
from helpers import (
    DIVISIBLE_TRIANGLE,
    GEN_A,
    GEN_B,
    NONCONVEX_2X2,
    SCALED_TRIANGLE,
    count_calls,
    equal_input,
    min_eig_gap,
    random_intensity,
    random_permutation_matrix,
    random_shifted_z,
    random_stochastic,
    random_z_matrix,
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


def block_triangular_z(rng, sizes):
    """Z-matrix with dense diagonal blocks of the given sizes, block upper
    triangular up to a random symmetric permutation."""
    n = sum(sizes)
    ids = np.repeat(np.arange(len(sizes)), sizes)
    Q = -rng.uniform(0.1, 1.0, (n, n)) * (ids[:, None] <= ids[None, :])
    np.fill_diagonal(Q, rng.uniform(0.5, 2.0, n))
    L = random_permutation_matrix(rng, n)
    return L @ Q @ L.T


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


class TestEnumerateGenerators:
    def test_principal_first_recovers_generator(self):
        eigen = numkit.eig(TRANS_A)
        bound = embed.branch_bound(eigen, float(np.linalg.det(TRANS_A)), "israel_two_sided")
        sel, candidate = next(embed.enumerate_generators(eigen, bound))
        assert sel.offsets == (0, 0, 0)
        assert np.allclose(candidate, GEN_A, atol=1e-8)

    def test_two_state_single_real_candidate(self):
        P = np.array([[0.8, 0.2], [0.1, 0.9]])
        det = float(np.linalg.det(P))
        assert det == pytest.approx(0.7)
        eigen = numkit.eig(P)
        bound = embed.branch_bound(eigen, det, "israel_two_sided")
        candidates = list(embed.enumerate_generators(eigen, bound))
        assert len(candidates) == 1
        assert candidates[0][0].offsets == (0, 0)

    def test_identity_yields_zero(self):
        eigen = numkit.eig(np.eye(3))
        bound = embed.BranchBound("israel_two_sided", -1.0, 1.0, [1, 1, 1], 1)
        candidates = list(embed.enumerate_generators(eigen, bound))
        assert len(candidates) == 1
        assert np.allclose(candidates[0][1], 0.0)

    def test_singular_spectrum_rejected(self):
        eigen = numkit.eig(np.diag([1.0, 0.0]))
        bound = embed.BranchBound("israel_two_sided", -1.0, 1.0, [1, 1], 1)
        with pytest.raises(SingularMatrix):
            list(embed.enumerate_generators(eigen, bound))

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
            for sel, _ in embed.enumerate_generators(eigen, bound):
                assert sel.offsets[0] == 0
                for i, li in enumerate(eigen.eigenvalues):
                    if abs(li.imag) > 1e-12:
                        j = int(np.argmin(np.abs(eigen.eigenvalues - np.conj(li))))
                        assert sel.offsets[i] == -sel.offsets[j]


def brute_force_real_selections(eigen, bound, cone):
    """Reference enumeration: walk the full product of per-eigenvalue offset
    windows (spectral-radius position pinned at 0, each list sorted by
    |k| then k), optionally drop tuples outside the Runnenberg cone, and keep
    the tuples whose assembled logarithm is real."""
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
        if cone:
            mu = np.log(lam) + 2j * np.pi * np.asarray(combo)
            phi = np.mod(np.angle(mu), 2 * np.pi)
            inside = (np.abs(mu) <= 1e-9) | ((phi >= cone_lo - 1e-9) & (phi <= cone_hi + 1e-9))
            if not inside.all():
                continue
        real = numkit.as_real(numkit.logm_branch(eigen, combo, CFG), CFG)
        if real is not None:
            found.append((combo, real))
    return found


class TestRealSelectionEnumeration:
    def inputs(self, seed, count):
        rng = np.random.default_rng(seed)
        done = 0
        while done < count:
            n = int(rng.integers(3, 7))
            P = random_stochastic(rng, n) if done % 2 else numkit.expm(random_intensity(rng, n))
            det = float(np.linalg.det(P))
            if det <= 1e-12 or min_eig_gap(P) < CFG.distinct_tol:
                continue
            eigen = numkit.eig(P)
            if embed.branch_bound(eigen, det, "israel_two_sided").raw_tuple_count > 5000:
                continue
            done += 1
            yield eigen, det

    def test_matches_brute_force_product(self):
        for eigen, det in self.inputs(40, 60):
            for mode in ("israel_two_sided", "paper_one_sided"):
                bound = embed.branch_bound(eigen, det, mode)
                reference = brute_force_real_selections(eigen, bound, cone=False)
                assert bound.candidate_count == len(reference)
                listed = list(embed.enumerate_generators(eigen, bound))
                assert [s.offsets for s, _ in listed] == [c for c, _ in reference]
                for (_, got), (_, want) in zip(listed, reference):
                    assert np.array_equal(got, want)
                pruned = [
                    (s.offsets, real)
                    for s, real in embed._candidate_stream(eigen, bound, CFG, runnenberg=True)
                ]
                reference = brute_force_real_selections(eigen, bound, cone=True)
                assert [c for c, _ in pruned] == [c for c, _ in reference]
                for (_, got), (_, want) in zip(pruned, reference):
                    assert np.array_equal(got, want)

    def test_true_generator_survives_pruning(self):
        rng = np.random.default_rng(41)
        done = 0
        while done < 100:
            n = int(rng.integers(3, 7))
            R = random_intensity(rng, n)
            P = numkit.expm(R)
            det = float(np.linalg.det(P))
            if det < 1e-6 or min_eig_gap(P) < CFG.distinct_tol:
                continue
            done += 1
            eigen = numkit.eig(P)
            bound = embed.branch_bound(eigen, det, "israel_two_sided")
            candidates = [
                real for _, real in embed._candidate_stream(eigen, bound, CFG, runnenberg=True)
            ]
            assert any(np.allclose(real, R, atol=1e-7) for real in candidates)
            assert embed.check_embeddable(P).verdict == embed.EMBEDDABLE

    def test_eight_states_examine_few_branches(self):
        P = random_stochastic(np.random.default_rng(25), 8)
        bound = embed.branch_bound(numkit.eig(P), float(np.linalg.det(P)), "israel_two_sided")
        assert bound.raw_tuple_count == 32000
        report = embed.check_embeddable(P)
        assert report.verdict in (embed.EMBEDDABLE, embed.NOT_EMBEDDABLE)
        assert report.bound_used.raw_tuple_count == 32000
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
        # the eigenbasis log fails, so scipy's principal log decides, once
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
        # and of _primary_log_is_only_real_log, and one rank of a cluster
        bad = TRANS_B @ TRANS_A
        blocked = np.block([[bad, np.zeros((3, 3))], [np.zeros((3, 3)), bad]])
        counts = {name: count_calls(monkeypatch, np.linalg, name) for name in ("eig", "eigvals", "matrix_rank")}
        embed.check_embeddable(blocked)
        assert {name: len(calls) for name, calls in counts.items()} == {"eig": 1, "eigvals": 2, "matrix_rank": 1}

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
            for t, sub in enumerate(report.recursion, start=1):
                block = structure.trailing_submatrix(decomp, t)
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

    def test_trailing_blocks_cost_no_second_decision(self, monkeypatch):
        # three 1x1 blocks: the only determinants are the gate's and the
        # trailing conditions', and each block costs one expm
        B = np.triu(np.full((3, 3), 0.3)) + np.diag([0.4, 0.5, 0.6])
        dets = count_calls(monkeypatch, np.linalg, "det")
        eigs = count_calls(monkeypatch, numkit, "eig")
        expms = count_calls(monkeypatch, numkit, "expm")
        report = embed.check_strong_inf_divisible(B)
        assert report.verdict == embed.STRONGLY_INF_DIVISIBLE
        assert len(report.recursion) == 2
        assert [M.shape for (M,) in dets] == [(3, 3), (2, 2), (1, 1)]
        assert len(eigs) == 1
        # the acceptance test and three roots, then one check per block
        assert len(expms) == 4 + 2

    def test_trailing_slice_failing_its_check_is_undetermined(self, monkeypatch):
        expected = embed.check_strong_inf_divisible(TRANS_A)
        residual = numkit.relative_residual
        # only the trailing blocks, smaller than the input, fail to reconstruct
        monkeypatch.setattr(
            numkit, "relative_residual", lambda approx, target: 1.0 if len(target) < 3 else residual(approx, target)
        )
        report = embed.check_strong_inf_divisible(TRANS_A)
        assert len(report.recursion) == 2
        for sub in report.recursion:
            assert sub.verdict == embed.UNDETERMINED
            assert sub.failed_conditions == [{"reason": "reconstruction_failure", "value": 1.0}]
            assert sub.z_matrix is None
            assert sub.roots_demonstrated == []
        assert report.verdict == embed.STRONGLY_INF_DIVISIBLE
        assert report_bits(report.z_matrix) == report_bits(expected.z_matrix)
        assert report_bits(report.roots_demonstrated) == report_bits(expected.roots_demonstrated)

    def test_necessary_conditions_run_once_per_decision(self, monkeypatch):
        # a trailing block passes every condition its parent passed
        calls = count_calls(monkeypatch, structure, "necessary_conditions")
        report = embed.check_strong_inf_divisible(DIVISIBLE_TRIANGLE)
        assert len(report.recursion) == 2
        assert len(calls) == 1

    def test_determinant_must_be_positive(self):
        report = embed.check_strong_inf_divisible(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert report.verdict == embed.NOT_STRONGLY_INF_DIVISIBLE
        reasons = {r.get("reason") for r in report.failed_conditions}
        assert "determinant_not_positive" in reasons or "necessary_condition" in reasons

    def test_rejects_negative_entries(self):
        with pytest.raises(NotNonnegative):
            embed.check_strong_inf_divisible(np.array([[1.0, -1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("orders", [(0,), (-2,), (2, 2.5)])
    def test_root_orders_must_be_positive_integers(self, orders, monkeypatch):
        forms = count_calls(monkeypatch, embed.structure, "frobenius_form")
        with pytest.raises(ValueError, match="root orders"):
            embed.check_strong_inf_divisible(DIVISIBLE_TRIANGLE, root_orders=orders)
        assert not forms

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
        # principal log of eig's basis is the witness, scipy's logm never runs
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


class TestInverseMPowerForm:
    def test_fixture_first_power(self):
        result = embed.inverse_m_power_form(TRANS_A, 1)
        assert result is not None
        assert result.epsilon == pytest.approx(1.0 - np.exp(-2.0), abs=1e-9)
        assert classify.is_stochastic(result.h, CFG)
        assert np.allclose(result.root, TRANS_A, atol=1e-9)

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


class TestImRootApprox:
    def test_dense_generator_small_order(self):
        R = np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]])
        P = numkit.expm(R)
        W = embed.im_root_approx(P, R, 1)
        flags = classify.classify_matrix(W).flags
        assert flags["m_matrix"]

    def test_offdiagonal_zero_precondition(self):
        with pytest.raises(OffDiagonalZeros):
            embed.im_root_approx(TRANS_A, GEN_A, 1)
        with pytest.raises(OffDiagonalZeros):
            embed.im_root_approx(np.eye(3), np.zeros((3, 3)), 1)

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
