import heapq

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph

from embedlab import classify, embed, numkit, structure
from embedlab.errors import NotAValidPair, OutOfRange
from helpers import (
    DIVISIBLE_TRIANGLE,
    EXP_GEN_A,
    GEN_A,
    count_calls,
    random_intensity,
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
        assert np.array_equal(B[d.permutation][:, d.permutation], d.U)

    def test_reconstruction_bit_exact_fuzzed(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            B = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.5)
            d = structure.frobenius_form(B)
            # U is a pure entry permutation of B, bit for bit
            assert sorted(d.permutation) == list(range(n))
            assert np.array_equal(B[d.permutation][:, d.permutation], d.U)
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
    """The form computed from scratch on each trailing submatrix keeps the
    remaining blocks of ``d`` in place, bit for bit: identity permutation,
    ``d``'s block sizes from t on, U equal to the submatrix and ``d``'s
    diagonal blocks from t on.  Slicing the trailing blocks of a divisible
    input in the parent's form relies on this."""
    for t in range(d.n_blocks):
        sub = structure.trailing_submatrix(d, t)
        fresh = structure.frobenius_form(sub)
        assert np.array_equal(fresh.permutation, np.arange(len(sub)))
        assert fresh.block_sizes == d.block_sizes[t:]
        pairs = [(fresh.U, sub)] + list(zip(fresh.diagonal_blocks, d.diagonal_blocks[t:], strict=True))
        for a, b in pairs:
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

    def test_full_pattern_shortcut(self, monkeypatch):
        # every entry structural, here strictly positive or negative: one block
        # in the original order with no closure, and no necessary condition
        # can fire on a strictly positive input
        closures = count_calls(monkeypatch, structure, "strong_components")
        forms = count_calls(monkeypatch, structure, "frobenius_form")
        rng = np.random.default_rng(50)
        above = np.nextafter(CFG.entry_tol, 1.0)
        for k in range(300):
            n = int(rng.integers(1, 9))
            B = rng.uniform(0.1, 1.0, (n, n))
            B[rng.random((n, n)) < 0.2] = above
            if k % 3 == 0:
                B[rng.random((n, n)) < 0.5] *= -1.0
            self.check(B)
            d = structure.frobenius_form(B)
            assert d.permutation.dtype == np.intp
            assert d.diagonal_blocks[0].tobytes() == d.U.tobytes()
            assert not np.shares_memory(d.diagonal_blocks[0], d.U)
            del forms[:]
            report = structure.necessary_conditions(B)
            if np.all(B > 0):
                assert (report.passed, report.violations) == (True, [])
                assert forms == []
            else:
                assert not report.passed
        assert closures == []

    def test_entries_at_the_structural_threshold_take_the_closure(self, monkeypatch):
        # an entry of exactly +-entry_tol is a structural zero: the closure
        # path runs and the conditions see the zero
        closures = count_calls(monkeypatch, structure, "strong_components")
        rng = np.random.default_rng(51)
        for k in range(300):
            n = int(rng.integers(1, 9))
            B = rng.uniform(0.1, 1.0, (n, n))
            i, j = (int(x) for x in rng.integers(0, n, 2))
            B[i, j] = CFG.entry_tol if k % 2 else -CFG.entry_tol
            self.check(B)
            del closures[:]
            structure.frobenius_form(B)
            assert len(closures) == 1
            violations = structure.necessary_conditions(np.abs(B)).violations
            if i == j:
                assert ("positive_diagonal", (i, CFG.entry_tol)) in violations
            elif n > 2:
                # still irreducible, so the zero is a violation
                assert ("irreducible_implies_positive", (i, j, CFG.entry_tol)) in violations

    @pytest.mark.parametrize("x", [0.5, np.nextafter(1e-9, 1.0), 1e-9, 0.0, -1e-9, -0.5])
    def test_one_by_one(self, x):
        B = np.array([[x]])
        self.check(B)
        d = structure.frobenius_form(B)
        assert (d.block_sizes, d.permutation.tolist()) == ([1], [0])
        report = structure.necessary_conditions(np.abs(B))
        assert report.passed == (abs(x) > CFG.entry_tol)


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

    @pytest.mark.parametrize(
        "P, verdict",
        [
            (EXP_GEN_A, embed.EMBEDDABLE),
            # a path 0 -> 1 -> 2 into the structural zero (0, 2)
            (np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]), embed.NOT_EMBEDDABLE),
        ],
        ids=["searched", "necessary_condition"],
    )
    def test_embeddability(self, calls, P, verdict):
        assert embed.check_embeddable(P).verdict == verdict
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
        assert structure.frobenius_form(structure.trailing_submatrix(d, 1)).block_sizes == [1, 1]
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

    def test_shapes_must_match(self):
        with pytest.raises(ValueError, match="matching shapes"):
            structure.zero_pattern_invariance(np.eye(2), np.zeros((3, 3)))

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


class TestPermutationOrientation:
    def test_round_trip_convention(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            B = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.4)
            d = structure.frobenius_form(B)
            # permutation[a] is the original index at position a of U
            assert sorted(d.permutation) == list(range(n))
            assert np.array_equal(B[np.ix_(d.permutation, d.permutation)], d.U)
            # and the inverse permutation takes U back to B
            inverse = np.argsort(d.permutation)
            assert np.array_equal(d.U[np.ix_(inverse, inverse)], B)
