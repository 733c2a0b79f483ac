"""Structural necessary conditions that never compute a logarithm.

Frobenius block-upper-triangular form by strongly-connected-component
condensation, trailing submatrices, zero-pattern invariance of candidate
generators, positive-diagonal and transitivity checks, and monomial
conjugation.  These serve as a cheap pre-filter for the decision core.  The
components come from :func:`embedlab.classify.strong_components`, the dense
reachability-closure routine every irreducibility test shares.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .classify import strong_components, structural_pattern
from .errors import NotAValidPair, NotMonomial, OutOfRange
from .numkit import DEFAULT_TOL, ToleranceConfig, as_square_matrix, expm, relative_residual

__all__ = [
    "StructureDecomposition",
    "NecessaryConditionReport",
    "CONDITION_NAMES",
    "frobenius_form",
    "trailing_submatrix",
    "zero_pattern_invariance",
    "necessary_conditions",
    "monomial_conjugate",
]

CONDITION_NAMES = (
    "positive_diagonal",
    "irreducible_implies_positive",
    "diagonal_blocks_positive",
    "trailing_submatrices_recursive",
    "zero_pattern_transitive",
)


@dataclass
class StructureDecomposition:
    """Permutation to block upper triangular form with irreducible blocks.

    ``permutation[a]`` is the original index placed at position ``a`` of
    ``U``, so ``U = B[permutation][:, permutation]`` and, with L the 0/1
    matrix ``L[i, a] = (permutation[a] == i)``, ``B = L U L^T``.
    Reconstruction is a pure entry permutation, bit-identical to the input.
    """

    permutation: np.ndarray
    block_sizes: List[int]
    U: np.ndarray
    diagonal_blocks: List[np.ndarray]

    @property
    def n_blocks(self) -> int:
        return len(self.block_sizes)

    def permutation_matrix(self) -> np.ndarray:
        n = len(self.permutation)
        L = np.zeros((n, n))
        L[self.permutation, np.arange(n)] = 1.0
        return L

    def reconstruct(self) -> np.ndarray:
        inverse = np.empty_like(self.permutation)
        inverse[self.permutation] = np.arange(len(self.permutation))
        return self.U[np.ix_(inverse, inverse)]

    def trailing(self, t: int) -> "StructureDecomposition":
        """``frobenius_form`` of U without its first ``t`` blocks: the
        components are blocks t, t+1, ..., and as later blocks never reach
        earlier ones they stay in place, so the permutation is the identity."""
        if not 0 <= t <= self.n_blocks:
            raise OutOfRange(f"block index {t} outside [0, {self.n_blocks}]")
        offset = int(sum(self.block_sizes[:t]))
        U = self.U[offset:, offset:].copy()
        return StructureDecomposition(np.arange(len(U)), self.block_sizes[t:], U, self.diagonal_blocks[t:])


def frobenius_form(B, cfg: ToleranceConfig = DEFAULT_TOL) -> StructureDecomposition:
    """Condense the zero-pattern digraph into strongly connected components
    and order them topologically so the permuted matrix is block upper
    triangular.

    Both come from :func:`embedlab.classify.strong_components`: mutually
    reachable states in the closure of the pattern plus I by repeated boolean
    squaring.  Next goes the unplaced component with the smallest original
    index that no other unplaced one reaches, and indices inside a component
    stay ascending, so the decomposition is deterministic.  A fully
    irreducible matrix yields a single block.
    """
    B = as_square_matrix(B)
    labels, comp_order = strong_components(structural_pattern(B, cfg))
    rank = np.argsort(comp_order)  # position of each component in comp_order
    order = np.argsort(rank[labels], kind="stable")
    U = B[np.ix_(order, order)]
    block_sizes = np.bincount(labels)[comp_order].tolist()
    blocks, offset = [], 0
    for size in block_sizes:
        blocks.append(U[offset : offset + size, offset : offset + size].copy())
        offset += size
    return StructureDecomposition(
        permutation=order, block_sizes=block_sizes, U=U, diagonal_blocks=blocks
    )


def trailing_submatrix(D: StructureDecomposition, n: int) -> np.ndarray:
    """Square submatrix of U after deleting the first ``n`` diagonal blocks
    from the top rows and left columns.  ``n = 0`` returns U itself."""
    return D.trailing(n).U


def zero_pattern_invariance(
    B, Q, cfg: ToleranceConfig = DEFAULT_TOL
) -> List[Tuple[int, int, int]]:
    """Violations of the generator zero-pattern invariant.

    For every off-diagonal structural zero ``B[i, j] == 0`` the shifted
    candidate ``theta*I - Q`` (theta = max diagonal of Q, the smallest shift
    with a nonnegative diagonal) must have ``((theta*I - Q)^m)[i, j] == 0``
    for all m; the check is combinatorial on the pattern, and walks longer
    than n-1 add no new reachable pairs.  Returns (i, j, m) triples, empty
    when the invariant holds.  Raises NotAValidPair when exp(-Q) does not
    reconstruct B.
    """
    B = as_square_matrix(B)
    Q = as_square_matrix(Q)
    if B.shape != Q.shape:
        raise ValueError("B and Q must have matching shapes")
    if relative_residual(expm(-Q), B) > cfg.recon_tol:
        raise NotAValidPair("exp(-Q) does not reconstruct B within recon_tol")
    n = B.shape[0]
    theta = float(np.max(np.diag(Q)))
    shifted_pattern = structural_pattern(theta * np.eye(n) - Q, cfg)
    zero_mask = ~structural_pattern(B, cfg) & ~np.eye(n, dtype=bool)

    violations: List[Tuple[int, int, int]] = []
    step = shifted_pattern.astype(np.int64)
    power = step.copy()
    for m in range(1, n):
        for i, j in np.argwhere(zero_mask & (power > 0)):
            violations.append((int(i), int(j), m))
        power = np.sign(power @ step)
    return violations


@dataclass
class NecessaryConditionReport:
    """Aggregate of the checks in :func:`necessary_conditions`;
    ``passed`` iff ``violations`` is empty."""

    passed: bool
    violations: List[Tuple[str, tuple]]
    conditions_checked: Tuple[str, ...] = CONDITION_NAMES


def necessary_conditions(
    B, cfg: ToleranceConfig = DEFAULT_TOL, decomposition: Optional[StructureDecomposition] = None
) -> NecessaryConditionReport:
    """Logarithm-free necessary conditions for strong infinite divisibility.

    Checked, in order: strictly positive diagonal; irreducible implies
    strictly positive; strictly positive diagonal blocks of the Frobenius
    form; trailing submatrices with positive determinant; and zero-pattern
    transitivity (a length-2 path into an off-diagonal structural zero).  A
    trailing submatrix needs no other check: its diagonal and its diagonal
    blocks are those of B, already checked.
    ``decomposition``, when given, must be ``frobenius_form(B, cfg)``; the
    form is computed here otherwise.
    """
    B = as_square_matrix(B)
    n = B.shape[0]
    violations: List[Tuple[str, tuple]] = []

    diag = np.diag(B)
    for i in np.flatnonzero(diag <= cfg.entry_tol):
        violations.append(("positive_diagonal", (int(i), float(diag[i]))))

    pattern = structural_pattern(B, cfg)
    decomp = frobenius_form(B, cfg) if decomposition is None else decomposition
    if decomp.n_blocks == 1 and n > 1:
        bad = np.argwhere(B <= cfg.entry_tol)
        if bad.size:
            i, j = bad[0]
            violations.append(("irreducible_implies_positive", (int(i), int(j), float(B[i, j]))))
    else:
        offset = 0
        for b, block in enumerate(decomp.diagonal_blocks):
            bad = np.argwhere(block <= cfg.entry_tol)
            if bad.size:
                i, j = bad[0]
                violations.append(
                    ("diagonal_blocks_positive", (b, int(i + offset), int(j + offset), float(block[i, j])))
                )
            offset += block.shape[0]

    for t in range(1, decomp.n_blocks):
        sub_det = float(np.linalg.det(trailing_submatrix(decomp, t)))
        if sub_det <= cfg.entry_tol:
            violations.append(("trailing_submatrices_recursive", (t, sub_det)))

    two_step = (pattern.astype(np.int64) @ pattern.astype(np.int64)) > 0
    for i, j in np.argwhere(two_step & ~pattern & ~np.eye(n, dtype=bool)):
        violations.append(("zero_pattern_transitive", (int(i), int(j))))

    return NecessaryConditionReport(passed=not violations, violations=violations)


def monomial_conjugate(B, L, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """``L^-1 B L`` for a strictly positive monomial L, with the inverse
    taken exactly from the monomial structure (transposed pattern,
    reciprocal entries)."""
    B = as_square_matrix(B)
    L = as_square_matrix(L)
    if B.shape != L.shape:
        raise ValueError("B and L must have matching shapes")
    n = L.shape[0]
    pattern = np.abs(L) > cfg.entry_tol
    if not (np.all(pattern.sum(axis=0) == 1) and np.all(pattern.sum(axis=1) == 1)):
        raise NotMonomial("expected exactly one nonzero entry per row and column")
    cols = np.argmax(pattern, axis=1)
    values = L[np.arange(n), cols]
    if np.any(values <= cfg.entry_tol):
        raise NotMonomial("monomial entries must be strictly positive")
    Linv = np.zeros_like(L)
    Linv[cols, np.arange(n)] = 1.0 / values
    return Linv @ B @ L
