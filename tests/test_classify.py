import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from embedlab import classify, numkit
from embedlab.errors import NotZMatrix
from helpers import (
    GEN_A,
    GEN_B,
    random_intensity,
    random_inverse_m,
    random_m_matrix,
    random_permutation_matrix,
    random_shifted_z,
    random_stochastic,
    random_z_matrix,
)

CFG = numkit.DEFAULT_TOL


class TestClassifyMatrix:
    def test_intensity_fixture(self):
        report = classify.classify_matrix(GEN_A)
        assert report.flags["intensity_matrix"]
        assert not report.flags["z_matrix"]
        assert not report.flags["nonnegative"]

    def test_exponentials_are_inverse_m(self):
        for gen in (GEN_A, GEN_B):
            report = classify.classify_matrix(numkit.expm(gen))
            assert report.flags["inverse_m_matrix"]
            assert report.flags["stochastic"]
            # the certificate is the actual inverse
            cert = report.witnesses["inverse_m_matrix"]
            assert np.allclose(cert @ numkit.expm(gen), np.eye(3), atol=1e-9)

    def test_identity_flags(self):
        report = classify.classify_matrix(np.eye(3))
        for name in ("nonnegative", "stochastic", "z_matrix", "m_matrix", "inverse_m_matrix"):
            assert report.flags[name], name
        assert not report.flags["strictly_positive"]
        assert not report.flags["irreducible"]
        assert report.det == pytest.approx(1.0)
        assert report.spectral_radius == pytest.approx(1.0)

    def test_positive_two_state_chain(self):
        report = classify.classify_matrix(np.array([[0.9, 0.1], [0.2, 0.8]]))
        assert report.flags["stochastic"]
        assert report.flags["irreducible"]
        assert report.flags["strictly_positive"]

    def test_singular_input_witnessed(self):
        report = classify.classify_matrix(np.ones((2, 2)))
        assert not report.flags["nonsingular"]
        assert report.witnesses["m_matrix"] == "singular"
        assert report.witnesses["inverse_m_matrix"] == "singular"

    def test_singularity_is_relative_to_scale(self):
        # det 1e-12 is far below entry_tol, yet 1e-4 I is perfectly conditioned
        report = classify.classify_matrix(1e-4 * np.eye(3))
        for name in ("nonsingular", "m_matrix", "inverse_m_matrix"):
            assert report.flags[name], name
        assert report.det == pytest.approx(1e-12)
        report = classify.classify_matrix(np.ones((2, 2)))
        assert not report.flags["nonsingular"]
        s = np.linalg.svd(np.ones((2, 2)), compute_uv=False)
        assert report.witnesses["nonsingular"] == ("sigma_ratio", pytest.approx(s[-1] / s[0], rel=1e-15))

    def test_singular_witness_is_the_ratio_that_decided(self):
        # det 1.0000229e8 is far from zero, but sigma_min / sigma_max is
        # 2.5e-13: the witness gives the ratio the flag was decided on
        A = 1e10 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
        report = classify.classify_matrix(A)
        assert not report.flags["nonsingular"] and report.det > 1e8
        assert report.witnesses["nonsingular"] == ("sigma_ratio", 2.500245067452982e-13)
        assert classify.classify_matrix(np.zeros((3, 3))).witnesses["nonsingular"] == ("sigma_ratio", 0.0)

    @staticmethod
    def witness_family():
        # every class, on both sides of its flag: dense and sparse normal
        # draws, stochastic ones with and without rounding off their row
        # sums, Z, M, inverse-M and (singular) intensity matrices
        rng = np.random.default_rng(10)
        draws = (
            lambda n: rng.normal(size=(n, n)),
            lambda n: rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.4),
            lambda n: random_stochastic(rng, n),
            lambda n: random_stochastic(rng, n) * rng.choice([1.0 - 1e-6, 1.0 + 1e-6]),
            lambda n: random_z_matrix(rng, n),
            lambda n: random_m_matrix(rng, n)[0],
            lambda n: random_inverse_m(rng, n),
            lambda n: random_intensity(rng, n),
        )
        for k in range(800):
            yield draws[k % len(draws)](int(rng.integers(1, 7)))

    def test_every_false_flag_has_a_witness(self):
        tol = CFG.entry_tol
        # what an (i, j, v) witness fails: its own flag's comparison
        fails = {
            "nonnegative": lambda i, j, v: not v >= -tol,
            "strictly_positive": lambda i, j, v: not v > tol,
            "positive_diagonal": lambda i, j, v: i == j and not v > tol,
            "stochastic": lambda i, j, v: not v >= -tol,
            "z_matrix": lambda i, j, v: i != j and not v <= tol,
            "intensity_matrix": lambda i, j, v: i != j and not v >= -tol,
        }
        targets = {"stochastic": 1.0, "intensity_matrix": 0.0}
        # a tagged witness that names the failing flag carries its witness
        tagged_flags = {"not_z_matrix": "z_matrix", "not_nonnegative": "nonnegative"}
        inverse_fails = {
            ("m_matrix", "inverse_entry_negative"): fails["nonnegative"],
            ("inverse_m_matrix", "inverse_offdiag_positive"): fails["z_matrix"],
        }
        predicates = {
            "nonnegative": classify.is_nonnegative,
            "stochastic": classify.is_stochastic,
            "z_matrix": classify.is_z_matrix,
            "intensity_matrix": classify.is_intensity_matrix,
            "irreducible": classify.is_irreducible,
        }
        seen = set()
        for A in self.witness_family():
            n = A.shape[0]
            report = classify.classify_matrix(A)
            wit = report.witnesses
            for name, predicate in predicates.items():
                assert predicate(A, CFG) == report.flags[name], name
            for name, value in report.flags.items():
                if value:
                    continue
                assert name in wit, name
                w = wit[name]
                kind = w if isinstance(w, str) else w[0] if isinstance(w[0], str) else "entry"
                seen.add((name, kind))
                if name in fails and w[0] == "row_sum":
                    _, i, s = w
                    assert s == A[i].sum() and not abs(s - targets[name]) <= n * tol, (name, A)
                elif name in fails:
                    i, j, v = w
                    assert v == A[i, j] and fails[name](i, j, v), (name, A)
                elif name == "nonsingular":
                    s = np.linalg.svd(A, compute_uv=False)
                    assert w[0] == "sigma_ratio" and 0.0 <= w[1] <= tol
                    assert np.isclose(w[1] * s[0], s[-1], rtol=1e-12, atol=1e-300), A
                elif name == "irreducible":
                    assert w[0] == "strongly_connected_components" and w[1] > 1 and len(set(w[2])) == w[1]
                elif w == "singular":
                    assert not report.flags["nonsingular"]
                elif w[0] in tagged_flags:
                    assert w[1] == wit[tagged_flags[w[0]]]
                else:
                    i, j, v = w[1]
                    assert v == numkit._lapack_inv(A)[i, j] and inverse_fails[name, w[0]](i, j, v), (name, A)
        # the family reaches every kind of witness
        assert {("stochastic", "row_sum"), ("stochastic", "entry"), ("intensity_matrix", "row_sum"),
                ("m_matrix", "inverse_entry_negative"), ("inverse_m_matrix", "inverse_offdiag_positive"),
                ("m_matrix", "singular"), ("irreducible", "strongly_connected_components")} <= seen, seen

    def test_stochastic_witness_is_the_negative_entry(self):
        # its row sums are 1, so a row sum witnesses nothing
        report = classify.classify_matrix(np.array([[1.2, -0.2], [0.5, 0.5]]))
        assert report.witnesses["stochastic"] == (0, 1, -0.2)

    def test_overflowing_determinant_is_inf_without_a_warning(self):
        # warnings are errors here, so an overflow warning in det fails
        report = classify.classify_matrix(1e200 * numkit.expm(GEN_A))
        assert report.det == np.inf
        assert report.flags["nonsingular"] and report.flags["inverse_m_matrix"]

    def test_one_by_one_irreducible(self):
        assert classify.classify_matrix(np.array([[2.0]])).flags["irreducible"]

    def test_flag_implications_fuzzed(self):
        rng = np.random.default_rng(11)
        for k in range(300):
            n = int(rng.integers(1, 7))
            pick = k % 4
            if pick == 0:
                A = rng.normal(size=(n, n))
            elif pick == 1:
                A = random_stochastic(rng, n)
            elif pick == 2:
                A = random_z_matrix(rng, n)
            else:
                A, _, _ = random_m_matrix(rng, n)
            f = classify.classify_matrix(A).flags
            assert not f["strictly_positive"] or f["nonnegative"]
            assert not f["strictly_positive"] or f["positive_diagonal"]
            assert not f["stochastic"] or f["nonnegative"]
            assert not f["m_matrix"] or f["z_matrix"]
            assert not f["m_matrix"] or f["nonsingular"]
            assert not f["inverse_m_matrix"] or (f["nonnegative"] and f["nonsingular"])
            if f["intensity_matrix"]:
                assert classify.is_z_matrix(-A, CFG)

    def test_m_matrix_family(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            n = int(rng.integers(2, 7))
            W, _, _ = random_m_matrix(rng, n)
            assert classify.classify_matrix(W).flags["m_matrix"]
            assert classify.classify_matrix(np.linalg.inv(W)).flags["inverse_m_matrix"]

    def test_irreducibility_permutation_invariant(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            A = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.4)
            L = random_permutation_matrix(rng, n)
            direct = classify.classify_matrix(A).flags["irreducible"]
            conjugated = classify.classify_matrix(L @ A @ L.T).flags["irreducible"]
            assert direct == conjugated


def scipy_components(A):
    """Strong components of the zero pattern from scipy, relabelled by each
    component's smallest state index."""
    graph = scipy.sparse.csr_matrix(np.abs(A) > CFG.entry_tol)
    ncomp, labels = scipy.sparse.csgraph.connected_components(
        graph, directed=True, connection="strong"
    )
    first = [int(np.flatnonzero(labels == c)[0]) for c in range(ncomp)]
    rank = {c: r for r, c in enumerate(sorted(range(ncomp), key=first.__getitem__))}
    return ncomp, [rank[c] for c in labels]


class TestStrongComponentsOracle:
    def check(self, A):
        ncomp, labels = scipy_components(A)
        assert classify.is_irreducible(A, CFG) == (ncomp == 1)
        report = classify.classify_matrix(A)
        assert report.flags["irreducible"] == (ncomp == 1)
        if ncomp > 1:
            assert report.witnesses["irreducible"] == ("strongly_connected_components", ncomp, labels)

    def test_random_patterns(self):
        rng = np.random.default_rng(15)
        for k in range(2400):
            n = int(rng.integers(1, 9))
            A = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < rng.uniform(0.05, 0.7))
            if k % 3 == 0:
                np.fill_diagonal(A, 1.0)
            self.check(A)

    def test_forty_states_twenty_components(self):
        rng = np.random.default_rng(16)
        A = np.zeros((40, 40))
        for b in range(20):
            A[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = rng.uniform(0.1, 1.0, (2, 2))
        perm = rng.permutation(40)
        A = A[np.ix_(perm, perm)] + np.eye(40)
        self.check(A)
        assert classify.classify_matrix(A).witnesses["irreducible"][1] == 20


class TestNonnegEigvecOfZ:
    def test_diagonal(self):
        v, lam = classify.nonneg_eigvec_of_z(np.diag([1.0, 2.0, 3.0]))
        assert lam == pytest.approx(1.0)
        assert v[0] == pytest.approx(1.0, abs=1e-9)

    def test_negated_intensity_fixture(self):
        # direct solve: the kernel of -GEN_A is spanned by the ones vector
        v, lam = classify.nonneg_eigvec_of_z(-GEN_A)
        assert lam == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(v, 1.0 / 3.0, atol=1e-9)
        assert np.allclose(-GEN_A @ v, 0.0, atol=1e-12)

    def test_symmetric_two_state(self):
        v, lam = classify.nonneg_eigvec_of_z(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert lam == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(v, 0.5, atol=1e-9)

    def test_rejects_non_z(self):
        with pytest.raises(NotZMatrix, match=r"\(0, 1, 1\.0\)"):
            classify.nonneg_eigvec_of_z(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_residual_and_sign_fuzzed(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            Q = random_z_matrix(rng, n)
            v, lam = classify.nonneg_eigvec_of_z(Q)
            assert np.min(v) >= -CFG.entry_tol
            assert np.sum(v) == pytest.approx(1.0)
            assert np.max(np.abs(Q @ v - lam * v)) <= 1e-8


    def test_repeated_perron_root_residual(self):
        # Q = Pi^T blockdiag(Z, D^-1 Z D) Pi: both blocks have the Perron root
        # lam, so its eigenvectors form a cone, and nonnegative ones have
        # residual 0.  A power iteration stalls on this draw at residual
        # 2.4e-5, as on 82 of 2,000 at this seed
        rng = np.random.default_rng(3)
        k = int(rng.integers(2, 5))
        Z = random_shifted_z(rng, k)
        d = 10.0 ** rng.uniform(-1.0, 1.0, k)
        order = rng.permutation(2 * k)
        Q = scipy.linalg.block_diag(Z, Z * d[None, :] / d[:, None])[np.ix_(order, order)]
        v, lam = classify.nonneg_eigvec_of_z(Q)
        # criterion 7a reads only lam, which is right
        assert lam == pytest.approx(np.linalg.eigvals(Z).real.min(), abs=1e-12)
        assert np.min(v) >= -CFG.entry_tol
        assert np.max(np.abs(Q @ v - lam * v)) <= 1e-8


class TestPredicatesOnNonFiniteEntries:
    # the predicates compare through numkit's threshold helpers; on NaN and
    # infinite entries they answer as the direct comparisons below do
    @staticmethod
    def reference(A, tol):
        n = A.shape[0]
        off = A[~np.eye(n, dtype=bool)]
        nonnegative = bool(A.min() >= -tol)
        z_matrix = bool(off.size == 0 or np.max(off) <= tol)
        intensity = not (off.size and np.min(off) < -tol) and bool(np.max(np.abs(A.sum(axis=1))) <= n * tol)
        stochastic = nonnegative and bool(np.max(np.abs(A.sum(axis=1) - 1.0)) <= n * tol)
        return nonnegative, z_matrix, intensity, stochastic, (np.abs(A) > tol).tobytes()

    def test_answers_match_the_direct_comparisons(self):
        rng = np.random.default_rng(7)
        values = [np.nan, np.inf, -np.inf, 0.0, -1e-9, -2e-9, 1e-9, 2e-9, 0.5, -0.5, 1.0]
        for _ in range(2000):
            A = rng.choice(values, size=(int(rng.integers(1, 4)),) * 2)
            with np.errstate(invalid="ignore"):  # inf - inf in a row sum
                ours = (classify.is_nonnegative(A, CFG), classify.is_z_matrix(A, CFG),
                        classify.is_intensity_matrix(A, CFG), classify.is_stochastic(A, CFG),
                        classify.structural_pattern(A, CFG).tobytes())
                assert ours == self.reference(A, CFG.entry_tol), A
