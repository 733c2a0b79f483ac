"""Structural necessary conditions that never compute a logarithm.

Frobenius block-upper-triangular form by strongly-connected-component
condensation, trailing submatrices, zero-pattern invariance of candidate
generators, and positive-diagonal and transitivity checks.  These serve as
a cheap pre-filter for the decision core.  The components come from
:func:`embedlab.classify.strong_components`, the dense reachability-closure
routine every irreducibility test shares.
"""

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import numkit
from .classify import _offdiag_mask, strong_components
from .errors import NotAValidPair
from .numkit import DEFAULT_TOL, ToleranceConfig, as_square_matrix, expm, relative_residual, structural_pattern
from .numkit import _det_below_gate, _positive, _reconstruction_fails

__all__ = [
    "StructureDecomposition",
    "NecessaryConditionReport",
    "CONDITION_NAMES",
    "frobenius_form",
    "zero_pattern_invariance",
    "necessary_conditions",
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
    ``U``, so ``U = B[permutation][:, permutation]``, a pure entry
    permutation of B, bit for bit, and, with L the 0/1 matrix
    ``L[i, a] = (permutation[a] == i)``, ``B = L U L^T``.
    """

    permutation: np.ndarray
    block_sizes: List[int]
    U: np.ndarray
    diagonal_blocks: List[np.ndarray]

    @property
    def n_blocks(self) -> int:
        return len(self.block_sizes)


def frobenius_form(B, cfg: ToleranceConfig = DEFAULT_TOL) -> StructureDecomposition:
    """Condense the zero-pattern digraph into strongly connected components
    and order them topologically so the permuted matrix is block upper
    triangular.

    Both come from :func:`embedlab.classify.strong_components`: mutually
    reachable states in the closure of the pattern plus I by repeated boolean
    squaring.  Next goes the unplaced component with the smallest original
    index that no other unplaced one reaches, and indices inside a component
    stay ascending, so the decomposition is deterministic.  A fully
    irreducible matrix yields a single block; a full pattern (every entry
    beyond ``entry_tol`` in absolute value) is that block in the original
    order, with no closure computed.
    """
    B = as_square_matrix(B)
    pattern = structural_pattern(B, cfg)
    if pattern.all():
        # a full pattern is one irreducible block in the original order
        return StructureDecomposition(
            permutation=np.arange(len(B)), block_sizes=[len(B)], U=B, diagonal_blocks=[B.copy()]
        )
    labels, comp_order = strong_components(pattern)
    rank = np.array(comp_order).argsort()  # position of each component in comp_order
    order = rank[labels].argsort(kind="stable")
    U = B[order[:, None], order]
    block_sizes = np.bincount(labels)[comp_order].tolist()
    blocks, offset = [], 0
    for size in block_sizes:
        blocks.append(U[offset : offset + size, offset : offset + size].copy())
        offset += size
    return StructureDecomposition(
        permutation=order, block_sizes=block_sizes, U=U, diagonal_blocks=blocks
    )


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
    if _reconstruction_fails(relative_residual(expm(-Q), B), cfg):
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
    blocks are those of B, already checked.  The form is walked once: one
    scan of U's entries at most ``entry_tol`` finds the first in each
    diagonal block (a single block of n > 1 states is B in its own order,
    and gives the irreducible-implies-positive record), and trailing
    submatrix t is the slice of U from the offset of block t.
    ``decomposition``, when given, must be ``frobenius_form(B, cfg)``; the
    form is computed here otherwise.  A strictly positive B (every entry
    above ``entry_tol``) passes at once: none of the five can fire on it.
    """
    B = as_square_matrix(B)
    if _positive(B, cfg).all():
        # strictly positive: a positive diagonal, one irreducible block, no
        # trailing submatrix and no structural zero, so nothing can fire
        return NecessaryConditionReport(passed=True, violations=[])
    n = B.shape[0]
    violations: List[Tuple[str, tuple]] = []

    diag = B.diagonal()
    for i in (~_positive(diag, cfg)).nonzero()[0].tolist():
        violations.append(("positive_diagonal", (i, float(diag[i]))))

    pattern = structural_pattern(B, cfg)
    decomp = frobenius_form(B, cfg) if decomposition is None else decomposition
    # the first entry at most entry_tol of each diagonal block, in row-major
    # order, from one scan of U's entries at most entry_tol; a single block
    # of n > 1 states is B in its own order (the identity permutation)
    irreducible = decomp.n_blocks == 1 and n > 1
    block_of = [b for b, size in enumerate(decomp.block_sizes) for _ in range(size)]
    rows, cols = (~_positive(decomp.U, cfg)).nonzero()
    last = -1
    for i, j in zip(rows.tolist(), cols.tolist()):
        if block_of[i] == block_of[j] != last:
            last, value = block_of[i], float(decomp.U[i, j])
            violations.append(("irreducible_implies_positive", (i, j, value)) if irreducible
                              else ("diagonal_blocks_positive", (last, i, j, value)))

    # trailing submatrix t starts at the offset of block t; _lapack_det
    # copies the slice into LAPACK's buffer, as it would a copy
    for t, offset in enumerate(itertools.accumulate(decomp.block_sizes[:-1]), start=1):
        sub_det = float(numkit._lapack_det(decomp.U[offset:, offset:]))
        if _det_below_gate(sub_det, cfg):
            violations.append(("trailing_submatrices_recursive", (t, sub_det)))

    two_step = pattern @ pattern  # boolean: some k with pattern[i, k] and pattern[k, j]
    rows, cols = (two_step & ~pattern & _offdiag_mask(n)).nonzero()
    for i, j in zip(rows.tolist(), cols.tolist()):
        violations.append(("zero_pattern_transitive", (i, j)))

    return NecessaryConditionReport(passed=not violations, violations=violations)
