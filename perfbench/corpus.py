"""Seeded, truth-labelled input corpora for the four benchmark workloads.

Every matrix is built from ``numpy.random.default_rng(seed)`` before any
timing starts, so the same seed gives byte-identical inputs.  The random
generators mirror the ones in ``tests/helpers.py`` but live here, so that a
change to the test helpers cannot silently change what the benchmark measures.

A truth label is ``"positive"`` when the input is an exponential by
construction (``exp(R)`` of an intensity matrix, ``exp(-Q)`` of a Z-matrix),
``"negative"`` when an exact fact rules it out (a negative determinant, an
exact zero on the diagonal, an intransitive exact zero pattern, a fixture
whose verdict the paper proves), and ``None`` when nothing is known.
"""

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.linalg

EMBED = "embed"
INFDIV = "infdiv"

# Upper triangular generators of the regression fixtures (paper, criterion 1):
# exp(GEN_B) exp(GEN_A) is not embeddable while exp(GEN_A) exp(GEN_B) is.
GEN_A = np.array([[-2.0, 1.0, 1.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]])
GEN_B = np.array([[-0.5, 1.0 / 12.0, 5.0 / 12.0], [0.0, -3.0, 3.0], [0.0, 0.0, 0.0]])
# Divisible, and not divisible after halving the last column (criterion 4).
DIVISIBLE_TRIANGLE = np.array([[0.4, 0.4, 0.2], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
SCALED_TRIANGLE = np.array([[0.4, 0.4, 0.2], [0.0, 0.5, 0.5], [0.0, 0.0, 0.5]])
# Divisible together with its transpose (criterion 5).
NONCONVEX_2X2 = np.array([[2.0, 1.2], [3.0, 2.0]])

# Exact raw branch-tuple counts of the Israel window for the random
# stochastic part of `search`: the modal count at each size.  Holding the
# count fixed makes a run's work independent of the seed.
SEARCH_RANDOM_TUPLES = {5: 36, 6: 432, 7: 4096, 8: 32000}
# A divisible-by-construction input whose determinant is at or below this is
# judged NotStronglyInfDivisible by the library's absolute determinant gate
# (det <= entry_tol, ROADMAP item 2).  Such inputs are kept out of the timed
# corpora, whose every output must be right, and decided apart in every run
# as the known-defect probe (known_defect_cases), where the defect shows.
DETERMINANT_GATE = 1e-9

# Offsets per non-leading eigenvalue of the triangular part: 2k+1 with k = 2,
# so n states give 5**(n-1) raw tuples (78,125 at n = 8).
SEARCH_TRIANGULAR_HALF_WIDTH = 2


@dataclass(frozen=True)
class Case:
    """One benchmark input: which question it asks, its family and its truth."""

    family: str
    kind: str
    matrix: np.ndarray
    truth: Optional[str]

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


# --- generators -------------------------------------------------------------


def random_intensity(rng, n, lo=0.05, hi=1.0):
    """Dense intensity matrix: positive off-diagonal rates, zero row sums."""
    R = rng.uniform(lo, hi, (n, n))
    np.fill_diagonal(R, 0.0)
    np.fill_diagonal(R, -R.sum(axis=1))
    return R


def random_sparse_intensity(rng, n, density=0.5, lo=0.1, hi=1.0):
    """Intensity matrix with a random off-diagonal zero pattern."""
    R = rng.uniform(lo, hi, (n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(R, 0.0)
    np.fill_diagonal(R, -R.sum(axis=1))
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
    """Z-matrix s*I - R for an intensity matrix R and s >= 0."""
    return rng.uniform(0.0, shift_hi) * np.eye(n) - random_intensity(rng, n)


def israel_tuple_count(P) -> int:
    """Raw branch tuples in the Israel-Rosenthal-Wei window |Im| <= |log det|.

    The eigenvalue of largest modulus gets one offset; every other eigenvalue
    lam gets the integers k with |arg(lam) + 2 pi k| <= |log det P|.
    """
    lam = np.linalg.eigvals(P)
    lam = lam[np.argsort(-np.abs(lam), kind="stable")]
    radius = abs(math.log(np.linalg.det(P)))
    count = 1
    for value in lam[1:]:
        arg = float(np.angle(value))
        kmin = math.ceil((-radius - arg) / (2 * math.pi) - 1e-12)
        kmax = math.floor((radius - arg) / (2 * math.pi) + 1e-12)
        count *= max(0, kmax - kmin + 1)
    return count


def _random_stochastic_with_tuples(rng, n, tuples, max_tries=200_000):
    for _ in range(max_tries):
        P = random_stochastic(rng, n)
        if np.linalg.det(P) > 1e-6 and israel_tuple_count(P) == tuples:
            return P
    raise RuntimeError(f"no {n}-state stochastic matrix with {tuples} tuples")


def _triangular_stochastic(rng, n, half_width):
    """Upper triangular stochastic matrix with an absorbing last state whose
    |log det| lies inside (2 pi k, 2 pi (k+1)), so every non-leading
    eigenvalue gets exactly 2k+1 offsets."""
    radius = rng.uniform(2 * math.pi * half_width + 0.5, 2 * math.pi * (half_width + 1) - 0.5)
    weights = rng.dirichlet(np.full(n - 1, 4.0))
    diag = np.exp(-radius * weights)
    P = np.zeros((n, n))
    for i in range(n - 1):
        rest = rng.uniform(0.1, 1.0, n - 1 - i)
        P[i, i] = diag[i]
        P[i, i + 1 :] = (1.0 - diag[i]) * rest / rest.sum()
    P[n - 1, n - 1] = 1.0
    return P


def _cyclic_generator(rng, n):
    """Rates 4-5 around a cycle: the generator's spectrum wraps past pi."""
    R = np.zeros((n, n))
    for i in range(n):
        rate = rng.uniform(4.0, 5.0)
        R[i, (i + 1) % n] = rate
        R[i, i] = -rate
    return R


def _equal_input(rng, n):
    """exp(c (1 pi^T - I)): an eigenvalue exp(-c) repeated n-1 times."""
    pi = rng.dirichlet(np.ones(n))
    c = rng.uniform(0.2, 2.0)
    return np.exp(-c) * np.eye(n) + (1.0 - np.exp(-c)) * np.outer(np.ones(n), pi)


def _wrapped_circulant(rng, n):
    """Circulant generator whose conjugate pair sits at +-i pi, so its
    exponential has a repeated negative eigenvalue and no principal log."""
    rate = {3: 2 * math.pi / math.sqrt(3), 4: math.pi}[n]
    C = np.roll(np.eye(n), 1, axis=1)
    mix = rng.uniform(0.1, 1.0)
    return rate * (C - np.eye(n)) + mix * (np.full((n, n), 1.0 / n) - np.eye(n))


def _zero_diagonal_stochastic(rng, n):
    while True:
        P = random_stochastic(rng, n)
        i = int(rng.integers(n))
        P[i, i] = 0.0
        P[i] /= P[i].sum()
        if np.linalg.det(P) > 1e-6:
            return P


def _intransitive_stochastic(rng, n):
    """P[0,1] > 0 and P[1,2] > 0 but P[0,2] == 0 exactly."""
    S = random_stochastic(rng, n)
    S[0, 2] = 0.0
    S[0] /= S[0].sum()
    return 0.6 * np.eye(n) + 0.4 * S


def _negative_det_stochastic(rng, n):
    while True:
        P = random_stochastic(rng, n)
        if np.linalg.det(P) < -1e-9:
            return P


def _block_triangular_z(rng, n):
    """Z-matrix, block upper triangular with two or three irreducible
    diagonal blocks, so exp(-Q) is reducible and the trailing recursion runs."""
    nblocks = int(rng.integers(2, min(3, n - 1) + 1))
    cuts = np.sort(rng.choice(np.arange(1, n), nblocks - 1, replace=False))
    bounds = [0, *cuts.tolist(), n]
    Q = np.zeros((n, n))
    for a, b in zip(bounds[:-1], bounds[1:]):
        Q[a:b, a:b] = -rng.uniform(0.1, 1.0, (b - a, b - a))
        Q[a:b, b:] = -rng.uniform(0.0, 0.5, (b - a, n - b))
    np.fill_diagonal(Q, rng.uniform(0.5, 2.0, n))
    return Q


def _zero_diagonal_nonnegative(rng, n):
    while True:
        B = rng.uniform(0.0, 1.0, (n, n)) + 2.0 * np.eye(n)
        i = int(rng.integers(n))
        B[i, i] = 0.0
        if np.linalg.det(B) > 1e-6:
            return B


def _negative_det_nonnegative(rng, n):
    B = rng.uniform(0.1, 1.0, (n, n)) + np.eye(n)
    if np.linalg.det(B) > 0:
        B[[0, 1]] = B[[1, 0]]
    return B


# --- workloads --------------------------------------------------------------


def _case(family, kind, matrix, truth):
    return Case(family, kind, np.ascontiguousarray(matrix, dtype=float), truth)


def search_cases(rng) -> List[Case]:
    cases = []
    for n in (3, 4):
        for _ in range(6):
            cases.append(_case(f"cyclic_exp_n{n}", EMBED, scipy.linalg.expm(_cyclic_generator(rng, n)), "positive"))
    for n, count in ((5, 4), (6, 8), (7, 3), (8, 2)):
        for _ in range(count):
            P = _random_stochastic_with_tuples(rng, n, SEARCH_RANDOM_TUPLES[n])
            cases.append(_case(f"random_stochastic_n{n}", EMBED, P, None))
    for n, count in ((5, 3), (6, 3), (7, 6), (8, 1)):
        for _ in range(count):
            P = _triangular_stochastic(rng, n, SEARCH_TRIANGULAR_HALF_WIDTH)
            cases.append(_case(f"triangular_n{n}", EMBED, P, None))
    return cases


def two_state_grid(steps=6) -> List[Case]:
    """P = [[1-a, a], [b, 1-b]] on a grid a = i/steps, b = j/steps.

    Embeddable iff det = 1 - a - b > 0; det = 0 is singular, so negative, and
    an Undetermined verdict there is acceptable."""
    cases = []
    for i in range(steps + 1):
        for j in range(steps + 1):
            a, b = i / steps, j / steps
            P = np.array([[1.0 - a, a], [b, 1.0 - b]])
            cases.append(_case("two_state_grid", EMBED, P, "positive" if i + j < steps else "negative"))
    return cases


def embed_fixtures() -> List[Case]:
    trans_a = scipy.linalg.expm(GEN_A)
    trans_b = scipy.linalg.expm(GEN_B)
    bad = trans_b @ trans_a
    blocked = np.block([[bad, np.zeros((3, 3))], [np.zeros((3, 3)), bad]])
    return [
        _case("fixture_exp_gen_a", EMBED, trans_a, "positive"),
        _case("fixture_exp_gen_b", EMBED, trans_b, "positive"),
        _case("fixture_a_times_b", EMBED, trans_a @ trans_b, "positive"),
        _case("fixture_b_times_a", EMBED, bad, "negative"),
        # block diagonal with exact zero coupling: a generator would have to be
        # block diagonal too, and the block is not embeddable
        _case("fixture_blocked_b_times_a", EMBED, blocked, "negative"),
    ]


def embed_truth_cases(rng) -> List[Case]:
    cases = two_state_grid() + embed_fixtures()
    for n in range(3, 9):
        for _ in range(10):
            cases.append(_case(f"dense_exp_n{n}", EMBED, scipy.linalg.expm(random_intensity(rng, n)), "positive"))
        for _ in range(10):
            cases.append(_case(f"sparse_exp_n{n}", EMBED, scipy.linalg.expm(random_sparse_intensity(rng, n)), "positive"))
        for _ in range(4):
            cases.append(_case("equal_input", EMBED, _equal_input(rng, n), "positive"))
        for _ in range(3):
            cases.append(_case("negative_det", EMBED, _negative_det_stochastic(rng, n), "negative"))
    for n in (3, 4):
        for _ in range(3):
            cases.append(_case("wrapped_circulant", EMBED, scipy.linalg.expm(_wrapped_circulant(rng, n)), "positive"))
    for n in range(3, 7):
        for _ in range(3):
            cases.append(_case("zero_diagonal", EMBED, _zero_diagonal_stochastic(rng, n), "negative"))
            cases.append(_case("intransitive_zero", EMBED, _intransitive_stochastic(rng, n), "negative"))
    return cases


def infdiv_fixtures() -> List[Case]:
    return [
        _case("fixture_divisible_triangle", INFDIV, DIVISIBLE_TRIANGLE, "positive"),
        _case("fixture_scaled_triangle", INFDIV, SCALED_TRIANGLE, "negative"),
        _case("fixture_nonconvex_2x2", INFDIV, NONCONVEX_2X2, "positive"),
        _case("fixture_nonconvex_2x2_t", INFDIV, NONCONVEX_2X2.T, "positive"),
    ]


def below_determinant_gate(case: Case) -> bool:
    return case.truth == "positive" and np.linalg.det(case.matrix) <= DETERMINANT_GATE


def infdiv_truth_cases(rng) -> List[Case]:
    """The divisibility draws, less those below the determinant gate."""
    return [c for c in _infdiv_draws(rng) if not below_determinant_gate(c)]


def _infdiv_draws(rng) -> List[Case]:
    cases = infdiv_fixtures()
    for n in range(2, 7):
        for _ in range(30):
            cases.append(_case(f"exp_z_n{n}", INFDIV, scipy.linalg.expm(-random_z_matrix(rng, n)), "positive"))
        for _ in range(30):
            cases.append(_case(f"exp_shifted_z_n{n}", INFDIV, scipy.linalg.expm(-random_shifted_z(rng, n)), "positive"))
        for _ in range(4):
            cases.append(_case("negative_det", INFDIV, _negative_det_nonnegative(rng, n), "negative"))
    for n in range(4, 7):
        for _ in range(10):
            cases.append(_case("block_triangular_exp_z", INFDIV, scipy.linalg.expm(-_block_triangular_z(rng, n)), "positive"))
    for n in range(3, 7):
        for _ in range(4):
            cases.append(_case("zero_diagonal", INFDIV, _zero_diagonal_nonnegative(rng, n), "negative"))
    return cases


def cli_report_cases(rng) -> List[Case]:
    """A slice of the other corpora, generated from the same seed: the
    search inputs up to six states, whose reports are large, and the first
    input of every truth family, whose reports are small."""
    search = [c for c in search_cases(rng) if c.n <= 6]
    truth, seen = [], set()
    for case in embed_truth_cases(rng) + infdiv_truth_cases(rng):
        if (case.kind, case.family) not in seen:
            seen.add((case.kind, case.family))
            truth.append(case)
    return search + truth


WORKLOADS = {
    "search": search_cases,
    "embed-truth": embed_truth_cases,
    "infdiv-truth": infdiv_truth_cases,
    "cli-report": cli_report_cases,
}


def _rng(workload: str, seed: int):
    return np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])


def build(workload: str, seed: int) -> List[Case]:
    """The workload's corpus for ``seed``, in a seeded shuffled order."""
    rng = _rng(workload, seed)
    cases = WORKLOADS[workload](rng)
    order = rng.permutation(len(cases))
    return [cases[i] for i in order]


def known_defect_cases(seed: int) -> List[Case]:
    """The divisibility draws of ``infdiv-truth`` for ``seed`` that the
    determinant gate misjudges, in draw order.  None of them is timed."""
    return [c for c in _infdiv_draws(_rng("infdiv-truth", seed)) if below_determinant_gate(c)]


def fingerprint(cases: List[Case]) -> bytes:
    """Canonical bytes of a corpus: family, kind, truth and matrix bytes."""
    parts = []
    for c in cases:
        parts.append(f"{c.family}|{c.kind}|{c.truth}|{c.matrix.shape}".encode())
        parts.append(c.matrix.tobytes())
    return b"\n".join(parts)
