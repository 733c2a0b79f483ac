"""Shared fixtures and random matrix generators for the test suite."""

import math

import numpy as np
import scipy.linalg

# Two upper triangular intensity matrices whose exponentials are the standing
# regression fixtures: TRANS_B @ TRANS_A is not embeddable while
# TRANS_A @ TRANS_B is, and both factors lie in the inverse-M class.
GEN_A = np.array([[-2.0, 1.0, 1.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]])
GEN_B = np.array([[-0.5, 1.0 / 12.0, 5.0 / 12.0], [0.0, -3.0, 3.0], [0.0, 0.0, 0.0]])

# exp(GEN_A) in closed form (triangular, distinct diagonal)
_e1, _e2 = np.exp(-1.0), np.exp(-2.0)
EXP_GEN_A = np.array(
    [[_e2, _e1 - _e2, 1.0 - _e1], [0.0, _e1, 1.0 - _e1], [0.0, 0.0, 1.0]]
)

# Rescaling the last column of the first matrix by 1/2 destroys the existence
# of nonnegative roots: the principal logarithm picks up a negative
# off-diagonal entry.
DIVISIBLE_TRIANGLE = np.array([[0.4, 0.4, 0.2], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
SCALED_TRIANGLE = np.array([[0.4, 0.4, 0.2], [0.0, 0.5, 0.5], [0.0, 0.0, 0.5]])

# Divisible together with its transpose, yet det(A + A^T) = -1.64 < 0.
NONCONVEX_2X2 = np.array([[2.0, 1.2], [3.0, 2.0]])


def min_eig_gap(A):
    lam = np.linalg.eigvals(A)
    if len(lam) == 1:
        return np.inf
    diff = np.abs(lam[:, None] - lam[None, :])
    return float(diff[~np.eye(len(lam), dtype=bool)].min())


def random_intensity(rng, n, lo=0.05, hi=1.0):
    """Dense intensity matrix: positive off-diagonal rates, zero row sums."""
    R = rng.uniform(lo, hi, (n, n))
    np.fill_diagonal(R, 0.0)
    np.fill_diagonal(R, -R.sum(axis=1))
    return R


def random_sparse_intensity(rng, n, density=0.5, lo=0.1, hi=1.0):
    """Intensity matrix with a random off-diagonal zero pattern."""
    mask = rng.random((n, n)) < density
    R = rng.uniform(lo, hi, (n, n)) * mask
    np.fill_diagonal(R, 0.0)
    np.fill_diagonal(R, -R.sum(axis=1))
    return R


def triangular_intensity(rng, n, g):
    """Upper-triangular intensity matrix with its last state absorbing: state
    k < n-1 leaves at rate 0.5 + g*k, split over the later states in
    uniform(0.05, 1) proportions.  A small g brings the exit rates together,
    so the eigenbasis of its exponential is ill-conditioned."""
    R = np.zeros((n, n))
    for k in range(n - 1):
        rate = 0.5 + g * k
        weights = rng.uniform(0.05, 1.0, n - 1 - k)
        R[k, k + 1 :] = rate * weights / weights.sum()
        R[k, k] = -rate
    return R


def random_stochastic(rng, n, lo=0.01):
    P = rng.uniform(lo, 1.0, (n, n))
    return P / P.sum(axis=1, keepdims=True)


def random_z_matrix(rng, n, density=0.6):
    """General Z-matrix: nonpositive off-diagonal, unconstrained diagonal."""
    Q = -rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(Q, rng.uniform(-1.0, 2.0, n))
    return Q


def random_shifted_z(rng, n, shift_hi=2.0):
    """Z-matrix of the form s*I minus an intensity matrix (s >= 0), so the
    eigenvalue paired with the all-ones nonnegative eigenvector equals s."""
    return rng.uniform(0.0, shift_hi) * np.eye(n) - random_intensity(rng, n)


def equal_input(rng, n):
    """exp(c (1 pi^T - I)): an eigenvalue exp(-c) repeated n-1 times."""
    pi = rng.dirichlet(np.ones(n))
    c = rng.uniform(0.2, 2.0)
    return np.exp(-c) * np.eye(n) + (1.0 - np.exp(-c)) * np.outer(np.ones(n), pi)


def wrapped_circulant(rng, n):
    """Circulant generator whose conjugate pair sits at +-i pi, so its
    exponential has a repeated negative eigenvalue and no principal log."""
    rate = {3: 2 * math.pi / math.sqrt(3), 4: math.pi}[n]
    C = np.roll(np.eye(n), 1, axis=1)
    mix = rng.uniform(0.1, 1.0)
    return rate * (C - np.eye(n)) + mix * (np.full((n, n), 1.0 / n) - np.eye(n))


def scaled_dense_exp_z(c):
    """c * exp(-Q) for a fixed dense 8-state Z-matrix Q: divisible for every
    c > 0, and its determinant overflows a float from c of about 1e41."""
    rng = np.random.default_rng(3)
    Q = -rng.uniform(0.1, 1.0, (8, 8))
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1) + 0.5)
    return c * scipy.linalg.expm(-Q)


def random_m_matrix(rng, n, margin=0.1):
    """alpha*I - K with K >= 0 and alpha > rho(K) + margin."""
    K = rng.uniform(0.0, 1.0, (n, n))
    alpha = float(np.max(np.abs(np.linalg.eigvals(K)))) + margin + rng.uniform(0.0, 1.0)
    return alpha * np.eye(n) - K, K, alpha


def random_inverse_m(rng, n, margin=0.1):
    W, _, _ = random_m_matrix(rng, n, margin)
    return np.linalg.inv(W)


def random_permutation_matrix(rng, n):
    L = np.zeros((n, n))
    L[np.arange(n), rng.permutation(n)] = 1.0
    return L


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` for the test; each call appends its positional
    arguments to the returned list."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def global_random_state():
    """numpy's legacy global random state, comparable with ``==``."""
    kind, keys, pos, has_gauss, cached_gaussian = np.random.get_state()
    return kind, keys.tobytes(), pos, has_gauss, cached_gaussian
