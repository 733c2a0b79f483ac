import heapq

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph

from embedlab import classify, embed, numkit, structure
from embedlab.errors import NotAValidPair, NotMonomial, OutOfRange
from helpers import (
    DIVISIBLE_TRIANGLE,
    EXP_GEN_A,
    GEN_A,
    count_calls,
    random_intensity,
    random_monomial,
    random_sparse_intensity,
)

CFG = numkit.DEFAULT_TOL


class TestFrobeniusForm:
    def test_strictly_positive_single_block(self):
        d = structure.frobenius_form(np.full((3, 3), 0.5))
        assert d.block_sizes == [3]
        assert np.array_equal(d.permutation, [0, 1, 2])

    def test_triangular_fixture(self):
        d = structure.frobenius_form(numkit.expm(GEN_A))
        assert d.block_sizes == [1, 1, 1]
        assert np.array_equal(d.permutation, [0, 1, 2])

    def test_lower_triangular_swapped(self):
        B = np.array([[1.0, 0.0], [1.0, 1.0]])
        d = structure.frobenius_form(B)
        assert np.array_equal(d.permutation, [1, 0])
        assert np.array_equal(d.U, [[1.0, 1.0], [0.0, 1.0]])
        assert np.array_equal(d.reconstruct(), B)

    def test_reconstruction_bit_exact_fuzzed(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            B = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.5)
            d = structure.frobenius_form(B)
            assert np.array_equal(d.reconstruct(), B)
            L = d.permutation_matrix()
            assert np.array_equal(L @ d.U @ L.T, B)
            assert sum(d.block_sizes) == n
            # below the block diagonal everything is a structural zero
            offset = 0
            for size in d.block_sizes:
                assert np.all(np.abs(d.U[offset + size :, offset : offset + size]) <= CFG.entry_tol)
                offset += size
            for block in d.diagonal_blocks:
                assert block.shape[0] == 1 or classify.is_irreducible(block, CFG)


def reference_frobenius(B):
    """Permutation and block sizes from scipy's strong components and a
    heap-ordered Kahn pass over the condensation (smallest minimum index of
    the ready components first)."""
    pattern = np.abs(B) > CFG.entry_tol
    ncomp, labels = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(pattern), directed=True, connection="strong"
    )
    members = [np.flatnonzero(labels == c) for c in range(ncomp)]
    succ = [set() for _ in range(ncomp)]
    indeg = [0] * ncomp
    for i, j in np.argwhere(pattern):
        ci, cj = labels[i], labels[j]
        if ci != cj and cj not in succ[ci]:
            succ[ci].add(cj)
            indeg[cj] += 1
    ready = [(int(members[c][0]), c) for c in range(ncomp) if indeg[c] == 0]
    heapq.heapify(ready)
    comp_order = []
    while ready:
        _, c = heapq.heappop(ready)
        comp_order.append(c)
        for d in succ[c]:
            indeg[d] -= 1
            if indeg[d] == 0:
                heapq.heappush(ready, (int(members[d][0]), d))
    order = np.concatenate([members[c] for c in comp_order])
    return order, [len(members[c]) for c in comp_order]


def assert_trailing_forms_are_fresh_forms(d):
    """``d.trailing(t)`` equals the form computed from scratch on the
    trailing submatrix, field by field and bit for bit."""
    for t in range(d.n_blocks):
        tail = d.trailing(t)
        fresh = structure.frobenius_form(structure.trailing_submatrix(d, t))
        assert tail.block_sizes == fresh.block_sizes
        pairs = [(tail.permutation, fresh.permutation), (tail.U, fresh.U)]
        for a, b in pairs + list(zip(tail.diagonal_blocks, fresh.diagonal_blocks, strict=True)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFrobeniusFormOracle:
    def check(self, B):
        d = structure.frobenius_form(B)
        order, sizes = reference_frobenius(B)
        assert np.array_equal(d.permutation, order)
        assert d.block_sizes == sizes
        assert np.array_equal(d.U, B[np.ix_(order, order)])
        assert_trailing_forms_are_fresh_forms(d)

    def test_random_patterns(self):
        rng = np.random.default_rng(27)
        for k in range(2400):
            n = int(rng.integers(1, 9))
            B = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < rng.uniform(0.05, 0.7))
            if k % 3 == 0:
                np.fill_diagonal(B, 1.0)
            self.check(B)

    def test_forty_states_twenty_components(self):
        rng = np.random.default_rng(28)
        B = np.zeros((40, 40))
        for b in range(20):
            B[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = rng.uniform(0.1, 1.0, (2, 2))
        perm = rng.permutation(40)
        B = B[np.ix_(perm, perm)]
        self.check(B)
        assert structure.frobenius_form(B).block_sizes == [2] * 20


class TestFrobeniusFormCalls:
    """The decisions compute the Frobenius form once and reuse it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        return count_calls(monkeypatch, structure, "frobenius_form")

    def test_irreducible_divisibility_input(self, calls):
        B = numkit.expm(-(0.5 * np.eye(3) - random_intensity(np.random.default_rng(29), 3)))
        assert embed.check_strong_inf_divisible(B).verdict == embed.STRONGLY_INF_DIVISIBLE
        assert len(calls) == 1

    def test_trailing_recursion_reuses_the_form(self, calls):
        report = embed.check_strong_inf_divisible(DIVISIBLE_TRIANGLE)
        assert report.verdict == embed.STRONGLY_INF_DIVISIBLE
        # the trailing sub-reports are slices of the witness in the input's form
        assert len(report.recursion) == 2
        assert len(calls) == 1

    def test_embeddability(self, calls):
        assert embed.check_embeddable(EXP_GEN_A).verdict == embed.EMBEDDABLE
        assert len(calls) == 1


class TestTrailingSubmatrix:
    def test_zero_returns_whole(self):
        d = structure.frobenius_form(EXP_GEN_A)
        assert np.array_equal(structure.trailing_submatrix(d, 0), d.U)

    def test_last_block(self):
        d = structure.frobenius_form(EXP_GEN_A)
        last = structure.trailing_submatrix(d, d.n_blocks - 1)
        assert np.array_equal(last, d.diagonal_blocks[-1])

    def test_fixture_values(self):
        d = structure.frobenius_form(EXP_GEN_A)
        sub = structure.trailing_submatrix(d, 1)
        e1 = np.exp(-1.0)
        assert np.allclose(sub, [[e1, 1 - e1], [0.0, 1.0]], atol=1e-12)
        assert np.allclose(sub, [[0.368, 0.632], [0.0, 1.0]], atol=5e-4)

    def test_trailing_form_of_fixture(self):
        d = structure.frobenius_form(EXP_GEN_A)
        assert d.trailing(1).block_sizes == [1, 1]
        assert_trailing_forms_are_fresh_forms(d)

    def test_out_of_range(self):
        d = structure.frobenius_form(EXP_GEN_A)
        with pytest.raises(OutOfRange):
            structure.trailing_submatrix(d, 4)
        with pytest.raises(OutOfRange):
            structure.trailing_submatrix(d, -1)


class TestZeroPatternInvariance:
    def test_strictly_positive_vacuous(self):
        B = numkit.expm(random_intensity(np.random.default_rng(21), 4))
        Q = -numkit.principal_log(B)
        assert structure.zero_pattern_invariance(B, Q) == []

    def test_triangular_fixture_clean(self):
        assert structure.zero_pattern_invariance(numkit.expm(GEN_A), -GEN_A) == []

    def test_rotation_generator_of_identity_violates(self):
        Q = np.array([[0.0, 2 * np.pi], [-2 * np.pi, 0.0]])
        violations = structure.zero_pattern_invariance(np.eye(2), Q)
        assert (0, 1, 1) in violations and (1, 0, 1) in violations

    def test_bad_pair_rejected(self):
        with pytest.raises(NotAValidPair):
            structure.zero_pattern_invariance(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_sound_on_generated_pairs(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            Q = -random_sparse_intensity(rng, n) + rng.uniform(0.0, 1.0) * np.eye(n)
            B = numkit.expm(-Q)
            assert structure.zero_pattern_invariance(B, Q) == []


class TestNecessaryConditions:
    def test_zero_diagonal_fails(self):
        report = structure.necessary_conditions(np.array([[1.0, 1.0], [1.0, 0.0]]))
        assert not report.passed
        assert any(name == "positive_diagonal" for name, _ in report.violations)

    def test_transitivity_violation(self):
        B = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        # the square has a strictly positive (0, 2) entry while B itself has a zero
        assert (B @ B)[0, 2] > 0 and B[0, 2] == 0
        report = structure.necessary_conditions(B)
        assert not report.passed
        assert ("zero_pattern_transitive", (0, 2)) in report.violations

    def test_fixture_passes(self):
        assert structure.necessary_conditions(numkit.expm(GEN_A)).passed

    def test_irreducible_but_not_positive(self):
        B = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        report = structure.necessary_conditions(B)
        assert not report.passed
        assert any(name == "irreducible_implies_positive" for name, _ in report.violations)

    def test_negative_trailing_determinant(self):
        B = np.array(
            [
                [1.0, 1.0, 1.0],
                [0.0, 0.1, 0.9],
                [0.0, 0.9, 0.1],
            ]
        )
        report = structure.necessary_conditions(B)
        assert not report.passed
        reasons = [name for name, _ in report.violations]
        assert "trailing_submatrices_recursive" in reasons

    def test_trailing_block_diagonal_is_not_recorded_twice(self):
        B = np.zeros((4, 4))
        B[0] = [1.0, 0.5, 0.5, 0.5]
        B[1:, 1:] = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        assert np.linalg.det(B[1:, 1:]) == pytest.approx(2.0)
        report = structure.necessary_conditions(B)
        assert {name for name, _ in report.violations} == {
            "positive_diagonal",
            "diagonal_blocks_positive",
        }

    def test_sound_on_embeddable_family(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            B = numkit.expm(random_sparse_intensity(rng, n))
            assert structure.necessary_conditions(B).passed

    def test_dichotomy_irreducible_exponentials_strictly_positive(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            # dense off-diagonal rates give an irreducible generator
            B = numkit.expm(random_intensity(rng, n))
            assert classify.is_irreducible(B, CFG)
            assert np.min(B) > CFG.entry_tol


class TestMonomialConjugate:
    def test_identity(self):
        B = numkit.expm(GEN_A)
        assert np.allclose(structure.monomial_conjugate(B, np.eye(3)), B)

    def test_swap_permutation(self):
        B = numkit.expm(GEN_A)
        L = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        got = structure.monomial_conjugate(B, L)
        manual = B[np.ix_([1, 0, 2], [1, 0, 2])]
        assert np.allclose(got, manual)

    def test_diagonal_scaling(self):
        B = numkit.expm(GEN_A)
        L = np.diag([2.0, 1.0, 1.0])
        got = structure.monomial_conjugate(B, L)
        expected = np.linalg.inv(L) @ B @ L
        assert np.allclose(got, expected, atol=1e-14)
        assert np.allclose(got[0, 1:], B[0, 1:] / 2.0)
        assert np.allclose(got[1:, 0], B[1:, 0] * 2.0)
        assert np.allclose(got[1:, 1:], B[1:, 1:])

    def test_rejects_non_monomial(self):
        B = np.eye(2)
        with pytest.raises(NotMonomial):
            structure.monomial_conjugate(B, np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(NotMonomial):
            structure.monomial_conjugate(B, np.array([[-1.0, 0.0], [0.0, 1.0]]))

    def test_divisibility_transported_fuzzed(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            Q = -random_intensity(rng, n) + rng.uniform(0.0, 0.5) * np.eye(n)
            B = numkit.expm(-Q)
            L = random_monomial(rng, n)
            conjugated_Q = structure.monomial_conjugate(Q, L)
            conjugated_B = structure.monomial_conjugate(B, L)
            assert classify.is_z_matrix(conjugated_Q, CFG)
            assert (
                numkit.relative_residual(numkit.expm(-conjugated_Q), conjugated_B)
                <= CFG.recon_tol
            )


class TestPermutationOrientation:
    def test_round_trip_convention(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            B = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.4)
            d = structure.frobenius_form(B)
            L = d.permutation_matrix()
            assert np.array_equal(L.T @ B @ L, d.U)
            assert np.array_equal(L @ d.U @ L.T, B)
            assert np.allclose(L @ L.T, np.eye(n))
