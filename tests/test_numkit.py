import fractions
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from embedlab import embed, numkit
from embedlab.errors import (
    IllConditioned,
    NegativeRealEigenvalue,
    Overflow,
    RepeatedEigenvalues,
    SingularMatrix,
)
from helpers import (
    EXP_GEN_A,
    GEN_A,
    GEN_B,
    SCALED_TRIANGLE,
    count_calls,
    equal_input,
    global_random_state,
    min_eig_gap,
    random_intensity,
    random_inverse_m,
    random_sparse_intensity,
    random_stochastic,
    triangular_intensity,
)

CFG = numkit.DEFAULT_TOL


def blocked_fixture():
    """blockdiag(P, P) for the non-embeddable P = expm(GEN_B) expm(GEN_A):
    a repeated spectrum whose eigenbasis log is rejected."""
    bad = numkit.expm(GEN_B) @ numkit.expm(GEN_A)
    return np.block([[bad, np.zeros((3, 3))], [np.zeros((3, 3)), bad]])


class TestAsSquareMatrix:
    @pytest.mark.parametrize(
        "A", [np.array([[1.0 + 1.0j]]), [[1 + 1j]], np.array([[1.0 + 0.0j, 0.0], [0.0, 1.0]])]
    )
    def test_complex_entries_are_rejected_before_conversion(self, A):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="real"):
                numkit.as_square_matrix(A)

    def test_complex_input_gets_no_verdict(self):
        with pytest.raises(ValueError, match="real"):
            embed.check_embeddable(np.array([[0.9, 0.1], [0.2, 0.8]]) + 1e-3j)

    @pytest.mark.parametrize(
        "A",
        [
            np.array([[0.9, 0.1], [0.2, 0.8]]),
            np.array([[0.9, 0.1], [0.2, 0.8]]).T,
            np.arange(16.0).reshape(4, 4)[::2, ::2],
            np.eye(2, dtype=np.float32),
            [[1, 0], [0, 2]],
            [[True, False], [False, True]],
        ],
    )
    def test_real_input_becomes_a_float_copy(self, A):
        M = numkit.as_square_matrix(A)
        assert M.dtype == np.float64
        assert np.array_equal(M, np.asarray(A, dtype=float))
        assert not np.shares_memory(M, A)
        # the memory layout is kept, so norms and products sum in one order
        assert M.strides == np.array(A, dtype=float, copy=True).strides

    @pytest.mark.parametrize(
        "A",
        [
            [["1"]],
            np.array([[b"1"]]),
            np.array([[1 + 1j]], dtype=object),
            np.array([["0.5", 0.5], [0.5, 0.5]], dtype=object),
            np.array([[None]]),
        ],
    )
    def test_strings_and_non_real_objects_are_rejected(self, A):
        with pytest.raises(ValueError, match="real"):
            numkit.as_square_matrix(A)

    def test_object_array_of_real_numbers_is_converted(self):
        A = np.array([[1, 0.5], [np.float32(0.25), fractions.Fraction(1, 4)]], dtype=object)
        assert numkit.as_square_matrix(A).tolist() == [[1.0, 0.5], [0.25, 0.25]]


class TestToleranceConfig:
    def test_defaults(self):
        assert CFG.entry_tol == 1e-9
        assert CFG.recon_tol == 1e-8
        assert CFG.distinct_tol == 1e-7

    @pytest.mark.parametrize("name", ["entry_tol"])
    def test_positivity_enforced(self, name):
        with pytest.raises(ValueError):
            numkit.ToleranceConfig(**{name: 0.0})

    def test_entry_tol_is_the_only_setting(self):
        # recon_tol and distinct_tol are fixed: neither is a keyword
        for name in ("recon_tol", "distinct_tol"):
            with pytest.raises(TypeError):
                numkit.ToleranceConfig(**{name: 1e-6})


class TestEig:
    def test_identity_flags_repeated(self):
        e = numkit.eig(np.eye(3))
        assert np.allclose(e.eigenvalues, 1.0)
        assert e.min_pairwise_gap == 0.0
        assert e.is_repeated(CFG)

    def test_min_pairwise_gap(self):
        assert numkit.eig(np.array([[2.0]])).min_pairwise_gap == np.inf
        e = numkit.eig(np.diag([1.0, 0.5, 0.2]))
        assert e.min_pairwise_gap == pytest.approx(0.3)

    def test_triangular_exponential_spectrum(self):
        e = numkit.eig(numkit.expm(GEN_A))
        assert np.allclose(e.eigenvalues, [1.0, np.exp(-1), np.exp(-2)], atol=1e-12)
        assert not e.is_repeated(CFG)

    def test_rotation_conjugate_pair(self):
        e = numkit.eig(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert set(np.round(e.eigenvalues, 12)) == {1j, -1j}
        # exact conjugates at the level of paired values
        assert e.eigenvalues[0] == np.conj(e.eigenvalues[1])

    def test_canonical_order_and_invariants_fuzzed(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            A = rng.normal(size=(n, n))
            try:
                e = numkit.eig(A)
            except IllConditioned:
                continue
            lam = e.eigenvalues
            keys = [(-abs(l), -l.real, l.imag) for l in lam]
            assert keys == sorted(keys)
            # conjugate-pair symmetry is exact, not approximate
            assert sorted(map(complex, lam), key=lambda z: (z.real, z.imag)) == sorted(
                map(complex, np.conj(lam)), key=lambda z: (z.real, z.imag)
            )
            assert np.allclose(A @ e.right_eigenvectors, e.right_eigenvectors * lam)
            # eig's own residual: V diag(lambda) V^-1 reproduces A
            V_lam_Vinv = (e.right_eigenvectors * e.eigenvalues) @ e.inverse_basis
            assert numkit.relative_residual(V_lam_Vinv, A) <= CFG.recon_tol

    def test_defective_raises(self):
        with pytest.raises(IllConditioned):
            numkit.eig(np.array([[1.0, 1.0], [0.0, 1.0]]))
        # the 3x3 shift: LAPACK returns an exactly singular eigenvector basis
        with pytest.raises(IllConditioned, match="eigenvector basis is singular"):
            numkit.eig(np.eye(3, k=1))

    def test_basis_condition_is_numpys_condition_number(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            try:
                e = numkit.eig(rng.normal(size=(n, n)))
            except IllConditioned:
                continue
            expected = np.linalg.cond(e.right_eigenvectors)
            assert e.basis_condition.hex() == float(expected).hex()

    @pytest.mark.parametrize("V", [np.zeros((2, 2)), np.diag([1.0, 0.0]), np.ones((3, 3), dtype=complex)])
    def test_singular_basis_condition_is_infinite_without_a_warning(self, V):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert numkit._condition(V) == np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert np.linalg.cond(V) == np.inf

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            numkit.eig(np.ones((2, 3)))
        with pytest.raises(ValueError):
            numkit.eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("c", [1e160, 1e200, 1e300])
    def test_large_scale_takes_no_warning(self, c):
        # the squares of these inputs, and for the Jordan block its
        # reconstruction, pass the float range unless eig scales them
        P = numkit.expm(np.array([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [0.0, 1.0, -1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E = numkit.eig(c * P)
            with pytest.raises(IllConditioned):
                numkit.eig(c * np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.allclose(E.eigenvalues / c, numkit.eig(P).eigenvalues, rtol=0.0, atol=1e-14)

    def test_residual_past_the_safe_scale_is_the_same_residual(self, monkeypatch):
        # a power-of-two scaling is exact: every residual eig takes, of its
        # input and reconstruction scaled, equals the unscaled one bit for bit
        rng = np.random.default_rng(66)
        inputs = [rng.normal(size=(n, n)) * 10.0 ** int(rng.integers(-5, 6)) for n in range(1, 9)]
        inputs.append(np.array([[1.0, 1.0], [0.0, 1.0]]))
        residual = numkit.relative_residual
        calls = count_calls(monkeypatch, numkit, "relative_residual")
        expected = []
        for A in inputs:
            lam, V = numkit._lapack_eig(A)
            order = numkit._canonical_order(lam)
            lam, V = lam[order], V[:, order]
            expected.append(residual((V * lam) @ np.linalg.inv(V), A).hex())
            try:
                numkit.eig(A)
            except IllConditioned:
                pass
        assert [residual(*args).hex() for args in calls] == expected


def tuple_key_order(lam):
    """The canonical order as a Python sort over tuple keys, the reference
    for ``numkit._canonical_order``."""
    return sorted(range(len(lam)), key=lambda j: (-abs(lam[j]), -lam[j].real, lam[j].imag))


def triangular_with_condition(rng, n, kappa):
    """A permuted upper triangular n x n matrix with distinct diagonal whose
    unit eigenvector basis has 2-norm condition number kappa (to a relative
    1/kappa^2): its one off-diagonal entry c = kappa |d_j - d_i| / 2 tilts
    eigenvector j to an angle theta from e_i with cot(theta / 2) = kappa.
    The rest of the basis is the identity's, and eig computes it to full
    relative accuracy, so kappa is what eig's gate sees."""
    d = rng.uniform(0.5, 2.0, n)
    T = np.diag(d)
    i, j = sorted(rng.choice(n, 2, replace=False))
    T[i, j] = 0.5 * kappa * abs(d[j] - d[i])
    p = rng.permutation(n)
    return T[np.ix_(p, p)]


class TestConditionGate:
    def test_gate_decides_as_the_condition_number(self, monkeypatch):
        # eig takes the SVD only above the Frobenius bound 1e10 and must
        # raise exactly when the residual or the SVD condition number of its
        # basis, ordered by the tuple-key sort, says so
        rng = np.random.default_rng(53)
        svds = count_calls(monkeypatch, numkit, "_condition")
        seen = set()
        for kappa in np.geomspace(1e8, 1e14, 61):
            A = triangular_with_condition(rng, int(rng.integers(2, 7)), kappa)
            lam, V = np.linalg.eig(A)
            lam, V = lam.astype(complex), V.astype(complex)
            order = tuple_key_order(lam)
            lam, V = lam[order], V[:, order]
            Vinv = np.linalg.inv(V)
            resid = numkit.relative_residual((V * lam) @ Vinv, A)
            cond = float(np.linalg.cond(V))
            bound = float(np.linalg.norm(V) * np.linalg.norm(Vinv))
            svds.clear()
            try:
                E = numkit.eig(A)
            except IllConditioned as exc:
                assert resid > CFG.recon_tol or cond > 1e12
                assert f"eigenbasis condition {cond:.3g}," in str(exc)
                seen.add("raised")
            else:
                assert not (resid > CFG.recon_tol or cond > 1e12)
                seen.add("svd" if bound > 1e10 else "no svd")
            assert len(svds) == int(resid > CFG.recon_tol or bound > 1e10)
        assert seen == {"raised", "svd", "no svd"}

    def test_a_typical_basis_takes_no_svd_until_its_condition_is_read(self, monkeypatch):
        svds = count_calls(monkeypatch, numkit, "_condition")
        E = numkit.eig(numkit.expm(GEN_A))
        assert svds == []
        assert E.basis_condition.hex() == float(np.linalg.cond(E.right_eigenvectors)).hex()
        assert E.basis_condition == E.basis_condition
        assert len(svds) == 1


    def test_overflowing_bound_takes_the_svd_gate_without_a_warning(self, monkeypatch):
        # ||V^-1||_F of this basis is about 1e200, so the sum of its squares
        # overflows: the norm is retaken scaled, and the SVD decides
        svds = count_calls(monkeypatch, numkit, "_condition")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditioned, match="eigenbasis condition 2e\\+200"):
                numkit.eig(np.array([[1.0, 1e200], [0.0, 2.0]]))
        assert len(svds) == 1


class TestNumpyEquivalents:
    # each fast path must give numpy's own result bit for bit
    RNG = np.random.default_rng(57)
    REAL = RNG.normal(size=(5, 5))
    COMPLEX = REAL + 1j * RNG.normal(size=(5, 5))
    MATRICES = [REAL, COMPLEX, REAL.T, COMPLEX.T, REAL[::2, 1::2], COMPLEX[1::2, ::2],
                np.array([[-3.5]]), np.array([[2.0 - 1.5j]]), np.zeros((3, 3)), REAL.astype(np.float32)]
    IDS = ["real", "complex", "real_T", "complex_T", "real_strided", "complex_strided",
           "real_1x1", "complex_1x1", "zero", "float32"]

    @pytest.mark.parametrize("M", MATRICES, ids=IDS)
    def test_frobenius_norm(self, M):
        assert numkit._frob(M).hex() == float(np.linalg.norm(M, "fro")).hex()

    @pytest.mark.parametrize("M", [np.array([[1e200, -1e200], [0.0, 3e199]]),
                                   np.array([[1e200, -1e200j], [0.0, 3e199 + 4e199j]])], ids=["real", "complex"])
    def test_frobenius_norm_past_overflow(self, M):
        # the sum of the squares overflows; the norm itself does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = numkit._frob(M)
        assert norm == pytest.approx(1e200 * np.linalg.norm(M / 1e200), rel=1e-15)

    def test_determinant_overflow_is_signed_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert numkit._lapack_det(np.diag([1e200, 1e200])) == np.inf
            assert numkit._lapack_det(np.diag([-1e200, 1e200])) == -np.inf

    @pytest.mark.parametrize("M", MATRICES, ids=IDS)
    def test_relative_residual(self, M):
        target = np.asarray(M.real, dtype=float) + 0.5
        scale = float(np.linalg.norm(target, "fro"))
        expected = float(np.linalg.norm(M - target, "fro")) / scale
        assert numkit.relative_residual(M, target).hex() == expected.hex()
        zero = 0 * target
        assert numkit.relative_residual(M, zero).hex() == float(np.linalg.norm(M - zero, "fro")).hex()

    @staticmethod
    def kernel_inputs():
        """Seeded n = 1..8: a dense draw (conjugate pairs from n = 2 on),
        symmetric and triangular ones (all-real spectra), a cyclic
        permutation (the roots of unity) and, for even n, two copies of one
        draw on the diagonal (every eigenvalue repeated)."""
        rng = np.random.default_rng(64)
        for n in range(1, 9):
            D = rng.normal(size=(n, n))
            yield from (D, D + D.T, np.triu(D), np.roll(np.eye(n), 1, axis=1))
            if n % 2 == 0:
                yield np.kron(np.eye(2), rng.normal(size=(n // 2, n // 2)))

    @staticmethod
    def same(got, expected):
        return type(got) is type(expected) and got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_lapack_kernels_match_numpy(self):
        # each kernel gives its np.linalg function's result bit for bit and
        # dtype for dtype, but eig's and eigvals' are complex128 also for an
        # all-real spectrum, which numpy returns as float64
        rng = np.random.default_rng(65)
        kinds = set()
        for A in self.kernel_inputs():
            lam, V = np.linalg.eig(A)
            kinds.add(lam.dtype.kind)
            got_lam, got_V = numkit._lapack_eig(A)
            assert self.same(got_lam, lam.astype(complex)) and self.same(got_V, V.astype(complex))
            assert self.same(numkit._lapack_eigvals(A), np.linalg.eigvals(A).astype(complex))
            assert self.same(numkit._lapack_det(A), np.linalg.det(A))
            if abs(np.linalg.det(A)) > 1e-6:
                assert self.same(numkit._lapack_inv(A), np.linalg.inv(A))
            if abs(np.linalg.det(got_V)) > 1e-6:
                assert self.same(numkit._lapack_inv(got_V), np.linalg.inv(got_V))
            n = len(A)
            B = rng.normal(size=(n, n))
            stack = np.eye(n) + rng.uniform(0.0, 0.2, (8, 1, 1)) * B
            assert self.same(numkit._lapack_solve(A + n * np.eye(n), B), np.linalg.solve(A + n * np.eye(n), B))
            assert self.same(numkit._lapack_solve(stack, B), np.linalg.solve(stack, np.broadcast_to(B, (8, n, n))))
        assert kinds == {"f", "c"}

    def test_lapack_failure_is_numpys_error(self):
        # no finite input is known to stop LAPACK's QR iteration; a NaN one
        # does, and the kernels raise numpy's error without a warning
        A = np.full((2, 2), np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kernel in (numkit._lapack_eig, numkit._lapack_eigvals):
                with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
                    kernel(A)

    @pytest.mark.parametrize("A", [np.zeros((3, 3)), np.ones((3, 3)), np.ones((2, 2), dtype=complex)])
    def test_singular_inverse_and_solve_raise_without_a_warning(self, A):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                numkit._lapack_inv(A)
            if A.dtype.kind == "f":
                with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                    numkit._lapack_solve(A, np.eye(len(A)))

    def test_gufunc_signatures_are_pinned(self):
        # a numpy that renames or reshapes a gufunc the kernels call, or
        # drops the loop they select, fails here by name
        gufuncs = numkit._umath_linalg
        assert {name: getattr(gufuncs, name).signature for name in ("eig", "eigvals", "inv", "solve", "det")} == {
            "eig": "(m,m)->(m),(m,m)",
            "eigvals": "(m,m)->(m)",
            "inv": "(m, m)->(m, m)",
            "solve": "(m,m),(m,n)->(m,n)",
            "det": "(m,m)->()",
        }
        loops = [("eig", "d->DD"), ("eigvals", "d->D"), ("inv", "d->d"), ("inv", "D->D"), ("solve", "dd->d"),
                 ("det", "d->d")]
        for name, loop in loops:
            assert loop in getattr(gufuncs, name).types, (name, loop)

    def test_min_gap_is_the_masked_minimum(self):
        # the i < j pairs give the minimum over every ordered pair with the
        # diagonal masked, bit for bit: one value, exact ties, conjugate
        # pairs and random spectra, each in shuffled orders
        def masked(values):
            if len(values) == 1:
                return np.inf
            gaps = np.abs(values[:, None] - values[None, :])
            np.fill_diagonal(gaps, np.inf)
            return float(np.min(gaps))

        rng = np.random.default_rng(60)
        crafted = [[2.0 - 1.5j], [0.5, 0.5], [1.0, 0.3, 1.0, 0.3], [1 + 2j, 1 - 2j, 0.5, -0.3 + 1e-9j, -0.3 - 1e-9j],
                   [complex(0.0, 0.5), complex(-0.0, 0.5), 3.0]]
        randoms = [rng.normal(size=n) + 1j * rng.normal(size=n) * (n % 2) for n in range(2, 9)]
        for spectrum in [np.array(c, dtype=complex) for c in crafted] + randoms:
            for _ in range(10):
                lam = rng.permutation(spectrum.astype(complex))
                assert numkit._min_gap(lam).hex() == masked(lam).hex()

    def test_canonical_order_keeps_exact_ties_as_the_tuple_sort(self):
        # exact conjugate pairs, equal moduli (0.6 + 0.8i and 1 have modulus
        # 1.0 exactly, circulant spectra nearly or exactly) and imaginary
        # parts 0.0 and -0.0, which compare equal, each in shuffled orders;
        # the rotation spectra fail if the modulus is taken with np.abs
        crafted = [
            [1 + 2j, 1 - 2j, -1 + 2j, -1 - 2j, 3.0, -3.0],
            [1.0, -1.0, 1j, -1j, 0.6 + 0.8j, 0.6 - 0.8j, -0.6 + 0.8j, -0.8 - 0.6j],
            [complex(0.5, 0.0), complex(0.5, -0.0), complex(-0.0, 0.5), complex(0.0, 0.5), 0.5j, -0.5j],
        ]
        rng = np.random.default_rng(59)
        circulants = [np.linalg.eigvals(scipy.linalg.circulant(rng.uniform(size=n))) for n in range(2, 9)]
        rotations = [np.linalg.eigvals(np.roll(np.eye(n), 1, axis=1)) for n in range(2, 9)]
        for spectrum in [np.array(c, dtype=complex) for c in crafted] + circulants + rotations:
            for _ in range(20):
                lam = rng.permutation(spectrum.astype(complex))
                assert numkit._canonical_order(lam).tolist() == tuple_key_order(lam)


class TestExpm:
    def test_zero_matrix(self):
        assert np.array_equal(numkit.expm(np.zeros((4, 4))), np.eye(4))

    def test_triangular_closed_form(self):
        E = numkit.expm(GEN_A)
        assert np.allclose(E, EXP_GEN_A, atol=1e-12)
        # the three-decimal rendering used throughout the fixtures
        assert np.allclose(
            E, [[0.135, 0.233, 0.632], [0, 0.368, 0.632], [0, 0, 1]], atol=5e-4
        )

    def test_symmetric_closed_form(self):
        Q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        c = (1 + np.exp(-2)) / 2
        assert np.allclose(numkit.expm(Q), [[c, 1 - c], [1 - c, c]], atol=1e-12)

    def test_overflow(self):
        with pytest.raises(Overflow):
            numkit.expm(np.array([[1e4]]))

    @staticmethod
    def seeded_family():
        """Dense intensity matrices at n = 2..8 and scales 1e-3..1e2, the
        ill-conditioned triangular family of ROADMAP item 9, the generator
        fixtures and a nonnormal 2x2 with a large off-diagonal entry."""
        rng = np.random.default_rng(31)
        family = [GEN_A, GEN_B, np.array([[-1.0, 400.0], [0.01, -3.0]])]
        for n in range(2, 9):
            R = random_intensity(rng, n)
            family += [10.0**k * R for k in range(-3, 3)]
        for _ in range(50):
            n = int(rng.integers(3, 7))
            family.append(triangular_intensity(rng, n, 10 ** rng.uniform(-6.5, -2)) + 0.3 * np.eye(n))
        return family

    def test_matches_scipy_on_a_seeded_family(self):
        for A in self.seeded_family():
            assert numkit.relative_residual(numkit.expm(A), scipy.linalg.expm(A)) <= 1e-13

    def test_diagonal_and_one_by_one_inputs_are_exact(self):
        d = np.array([-3.5, 0.0, 0.7, 2.25])
        assert np.array_equal(numkit.expm(np.diag(d)), np.diag(np.exp(d)))
        for x in (-40.0, -1.0, 0.0, 0.3, 9.0):
            assert np.array_equal(numkit.expm([[x]]), np.exp([[x]]))

    def test_triangular_inputs_give_triangular_results(self):
        rng = np.random.default_rng(37)
        for scale in (0.1, 1.0, 40.0):  # unscaled, and squared up to 6 times
            for n in (2, 3, 6):
                T = scale * np.triu(rng.standard_normal((n, n)))
                assert not np.tril(numkit.expm(T), -1).any()
                assert not np.triu(numkit.expm(T.T), 1).any()
                assert np.array_equal(numkit.expm(T.T), numkit.expm(T).T)

    def test_squared_triangle_keeps_its_closed_form(self):
        # after each squaring the diagonal and the off-diagonal of a 2x2
        # triangle are set from exp's closed form, whatever s is
        a, b, t = -35.0, 4.0, 60.0
        E = numkit.expm([[a, t], [0.0, b]])
        assert E[0, 0] == np.exp(a) and E[1, 1] == np.exp(b) and E[1, 0] == 0.0
        assert E[0, 1] == pytest.approx(t * (np.exp(a) - np.exp(b)) / (a - b), rel=1e-14)

    def test_large_norm_with_a_finite_result(self):
        Q = 400.0 * np.array([[-1.0, 1.0], [1.0, -1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E = numkit.expm(Q)
        assert np.allclose(E, 0.5, rtol=1e-13, atol=0.0)

    def test_dense_overflow_raises_without_a_warning(self):
        A = np.full((3, 3), 1e3 / 3) + np.diag([1.0, -2.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Overflow):
                numkit.expm(A)

    def test_intensity_exponentials_stochastic(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            n = int(rng.integers(2, 7))
            P = numkit.expm(random_intensity(rng, n))
            assert np.min(P) >= -CFG.entry_tol
            assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= n * CFG.entry_tol


class TestLogmBranch:
    def test_identity_principal_is_zero(self):
        e = numkit.eig(np.eye(3))
        L = numkit.logm_branch(e, [0, 0, 0])
        assert np.allclose(L, 0.0)

    def test_cluster_offsets_must_agree(self):
        e = numkit.eig(np.eye(3))
        with pytest.raises(RepeatedEigenvalues):
            numkit.logm_branch(e, [0, 1, 0])

    @pytest.mark.parametrize("offsets", [[1.9, 0], [1.0, 0], ["1", 0], [True, False]])
    def test_offsets_must_be_integers(self, offsets):
        e = numkit.eig(np.diag([2.0, 0.5]))
        with pytest.raises(ValueError, match="integers"):
            numkit.logm_branch(e, offsets)

    def test_integer_offsets_of_any_width_are_accepted(self):
        e = numkit.eig(np.diag([2.0, 0.5]))
        L = numkit.logm_branch(e, [1, 0])
        widths = (np.array([1, 0], dtype=np.int8), np.array([1, 0], dtype=np.uint16))
        for offsets in widths:
            assert np.array_equal(numkit.logm_branch(e, offsets), L)

    def test_product_fixture_has_negative_offdiagonal(self):
        P = numkit.expm(GEN_B) @ numkit.expm(GEN_A)
        # the principal selection of a distinct positive spectrum is real
        L = numkit.logm_branch(numkit.eig(P), [0, 0, 0]).real
        off = L[~np.eye(3, dtype=bool)]
        assert np.min(off) < -1e-3

    def test_two_state_closed_form(self):
        P = np.array([[0.9, 0.1], [0.2, 0.8]])
        # rank-one update form: log P = log(l2)/(l2 - 1) * (P - I) with l2 = det
        expected = (np.log(0.7) / (0.7 - 1.0)) * (P - np.eye(2))
        L = numkit.logm_branch(numkit.eig(P), [0, 0])
        # complex L: allclose bounds its imaginary part by atol too
        assert np.allclose(L, expected, atol=1e-12)
        assert np.allclose(
            L, [[-0.11889, 0.11889], [0.23778, -0.23778]], atol=5e-6
        )

    def test_singular_raises(self):
        e = numkit.eig(np.diag([1.0, 0.0]))
        with pytest.raises(SingularMatrix):
            numkit.logm_branch(e, [0, 0])

    @pytest.mark.xfail(strict=True, raises=SingularMatrix, reason=(
        "ROADMAP item 1: the zero-eigenvalue gate |lam| <= entry_tol is absolute, so "
        "eigenvalues 1e-10, 3.7e-11 and 1.4e-11 of a nonsingular input count as zero"))
    def test_scaled_nonsingular_input_has_a_principal_branch(self):
        # log(c P) = log P + log(c) I on every branch, so the principal
        # branch of 1e-10 P is GEN_A shifted by log(1e-10)
        L = numkit.logm_branch(numkit.eig(1e-10 * numkit.expm(GEN_A)), (0, 0, 0))
        assert np.allclose(L, GEN_A + math.log(1e-10) * np.eye(3), atol=1e-8)

    def test_nonzero_offset_shifts_eigenvalue(self):
        e = numkit.eig(np.diag([2.0, 0.5]))
        L = numkit.logm_branch(e, [1, 0])
        assert np.allclose(np.diag(L), [np.log(2) + 2j * np.pi, np.log(0.5)])

    def test_round_trip_fuzzed(self):
        rng = np.random.default_rng(2)
        done = 0
        while done < 300:
            n = int(rng.integers(2, 7))
            P = random_stochastic(rng, n)
            lam = np.linalg.eigvals(P)
            # a real principal logarithm needs the spectrum off the closed
            # negative real axis
            if np.any((lam.real < 0) & (np.abs(lam.imag) <= 1e-9 * (1 + np.abs(lam)))):
                continue
            if min_eig_gap(P) < CFG.distinct_tol:
                continue
            done += 1
            L = numkit.logm_branch(numkit.eig(P), [0] * n)
            assert np.abs(L.imag).max() <= 1e-9
            assert numkit.relative_residual(numkit.expm(L.real), P) <= 1e-8


class TestBranchRoots:
    def test_roots_of_a_branch_logarithm(self):
        rng = np.random.default_rng(49)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            P = numkit.expm(random_intensity(rng, n))
            e = numkit.eig(P)
            L = numkit.logm_branch(e, [0] * n)
            roots = numkit.branch_roots(e, [0] * n, (1, 2, 3, 7))
            assert roots.dtype == complex and roots.shape == (4, n, n)
            for m, root in zip((1, 2, 3, 7), roots):
                expected = numkit.expm(np.real(L) / m)
                assert numkit.relative_residual(root, expected) <= 1e-12
            assert numkit.relative_residual(roots[0], P) <= 1e-12

    def test_nonreal_selection_keeps_its_imaginary_part(self):
        # the roots are complex, like logm_branch: offsets (1, 0) on the real
        # spectrum {2, 0.5} give the real square root diag(-sqrt 2, sqrt 0.5)
        # since exp(pi i) = -1, and the nonreal cube and fourth roots
        # diag(exp(2 pi i / m) 2^(1/m), 0.5^(1/m)), imaginary parts intact
        e = numkit.eig(np.diag([2.0, 0.5]))
        roots = numkit.branch_roots(e, [1, 0], (2, 3, 4))
        for m, root in zip((2, 3, 4), roots):
            expected = np.diag([np.exp(2j * np.pi / m) * 2.0 ** (1 / m), 0.5 ** (1 / m)])
            assert np.allclose(root, expected, atol=1e-14)
        assert np.abs(roots[1:].imag).max() > 0.5
        # (k, -k) on a conjugate pair keeps them real
        rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
        e = numkit.eig(numkit.expm(0.5 * rotation))
        for m, root in zip((2, 3), numkit.branch_roots(e, [0, 0], (2, 3))):
            assert np.allclose(root, numkit.expm(0.5 * rotation / m), atol=1e-14)

    def test_no_orders_no_roots(self):
        e = numkit.eig(np.diag([2.0, 0.5]))
        assert numkit.branch_roots(e, [0, 0], ()).shape == (0, 2, 2)

    def test_selection_is_validated_as_for_logm_branch(self):
        e = numkit.eig(np.eye(3))
        with pytest.raises(RepeatedEigenvalues):
            numkit.branch_roots(e, [0, 1, 0], (2,))
        with pytest.raises(ValueError):
            numkit.branch_roots(e, [0, 0], (2,))
        for offsets in ([1.9, 0, 0], ["1", 0, 0], [True, False, False]):
            with pytest.raises(ValueError, match="integers"):
                numkit.branch_roots(e, offsets, (2,))


class TestPrimaryRoot:
    def test_order_one_is_identity_map(self):
        A = np.array([[2.0, 1.0], [0.5, 3.0]])
        assert np.array_equal(numkit.primary_root(A, 1), A)

    def test_scalar_multiple_of_identity(self):
        assert np.allclose(numkit.primary_root(4.0 * np.eye(3), 2), 2.0 * np.eye(3))

    def test_triangular_square_root(self):
        E = numkit.expm(GEN_A)
        R = numkit.primary_root(E, 2)
        assert np.allclose(np.diag(R), [np.exp(-1), np.exp(-0.5), 1.0], atol=1e-10)
        assert np.allclose(R @ R, E, atol=1e-8)

    def test_errors(self):
        with pytest.raises(SingularMatrix):
            numkit.primary_root(np.diag([1.0, 0.0]), 2)
        with pytest.raises(NegativeRealEigenvalue):
            numkit.primary_root(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
        with pytest.raises(ValueError):
            numkit.primary_root(np.eye(2), 0)

    def test_repeated_power_reconstructs_inverse_m(self):
        rng = np.random.default_rng(3)
        for k in range(200):
            n = int(rng.integers(2, 7))
            B = random_inverse_m(rng, n)
            order = (2, 3, 5, 7)[k % 4]
            R = numkit.primary_root(B, order)
            assert numkit.relative_residual(np.linalg.matrix_power(R, order), B) <= 1e-7


class TestPrincipalLog:
    def test_singular_iterate_raises_singular_matrix(self):
        # eigenvalues 2e300 and about 2e284 pass the absolute zero-eigenvalue
        # gate, but the first square-root iterate is singular
        A = 1e300 * np.ones((2, 2))
        with pytest.raises(SingularMatrix, match="square-root iterate is singular"):
            numkit.principal_log(A)
        with pytest.raises(SingularMatrix, match="square-root iterate is singular"):
            numkit.primary_root(A, 2)

    @staticmethod
    def scipy_logm(A):
        # scipy's logm draws from numpy's global generator and warns when it
        # doubts its accuracy; the comparison needs neither
        saved = np.random.get_state()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                L = scipy.linalg.logm(A)
        finally:
            np.random.set_state(saved)
        return np.real_if_close(L)

    @staticmethod
    def seeded_family():
        def jordan(value, size):
            return value * np.eye(size) + np.diag(np.ones(size - 1), 1)

        family = [jordan(0.7, 2), jordan(0.3, 3), jordan(2.5, 4), jordan(0.9, 6), blocked_fixture(), SCALED_TRIANGLE]
        family.append(numkit.expm(np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]])))
        rng = np.random.default_rng(7)
        family += [equal_input(rng, n) for n in (2, 3, 4, 6, 8)]
        # near-defective triangular chains, eigenbasis condition up to about 1e9
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(3, 7))
            family.append(numkit.expm(triangular_intensity(rng, n, 10 ** rng.uniform(-6.5, -2))))
        rng = np.random.default_rng(8)
        family += [numkit.expm(random_intensity(rng, n, hi=2.0)) for n in (2, 3, 5, 8, 8)]
        return family

    def test_matches_scipy_on_a_seeded_family(self):
        for A in self.seeded_family():
            L = numkit.principal_log(A)
            assert L.dtype == np.float64
            assert numkit.relative_residual(L, self.scipy_logm(A)) <= 1e-12
            assert numkit.relative_residual(numkit.expm(L), A) <= 1e-12

    def test_scale_only_shifts_the_diagonal(self):
        # log(cA) = log(c) I + log(A); the power-of-two scaling keeps the
        # square roots as few at c = 1e150 as at c = 1
        L = numkit.principal_log(SCALED_TRIANGLE)
        for c in (1e-6, 1e3, 1e150):
            expected = L + np.log(c) * np.eye(3)
            assert numkit.relative_residual(numkit.principal_log(c * SCALED_TRIANGLE), expected) <= 1e-12

    def test_never_touches_the_global_random_state(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy's global random state was used")

        for name in ("get_state", "set_state", "seed"):
            monkeypatch.setattr(np.random, name, refuse)
        numkit.principal_log(blocked_fixture())
        numkit.primary_root(numkit.expm(GEN_A), 3)

    def test_unconverged_square_roots_raise(self, monkeypatch):
        monkeypatch.setattr(numkit, "_MAX_SQRT_STEPS", 0)
        with pytest.raises(IllConditioned, match="did not converge"):
            numkit.principal_log(blocked_fixture())
        # within 0.25 of I in the 1-norm the Pade step alone runs
        near_identity = np.array([[0.9, 0.1], [0.05, 0.95]])
        assert numkit.relative_residual(numkit.principal_log(near_identity), self.scipy_logm(near_identity)) <= 1e-12


class TestGlobalRandomState:
    """The library neither reads nor advances numpy's global generator."""

    def test_callers_state_is_left_as_it_was(self):
        blocked = blocked_fixture()
        calls = [
            lambda: embed.check_embeddable(blocked),
            lambda: embed.check_strong_inf_divisible(blocked),
            lambda: numkit.primary_root(numkit.expm(GEN_A), 2),
        ]
        for call in calls:
            before = global_random_state()
            call()
            assert global_random_state() == before

    def test_log_does_not_depend_on_the_global_seed(self):
        # scipy's logm of this chain differs in its last bits under seeds 0 and 1
        P = numkit.expm(random_sparse_intensity(np.random.default_rng(11), 8))
        saved = np.random.get_state()
        try:
            logs = []
            for seed in (0, 1):
                np.random.seed(seed)
                logs.append(numkit.principal_log(P).tobytes())
        finally:
            np.random.set_state(saved)
        assert logs[0] == logs[1]
