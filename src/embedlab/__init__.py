"""embedlab: infinite divisibility of nonnegative matrices and the embedding
problem for finite-state Markov chains.

Decides whether a nonnegative square matrix has nonnegative roots of every
order (and a positive determinant), and whether a stochastic matrix is the
exponential of an intensity matrix, by enumerating branch candidates for the
matrix logarithm under eigenvalue bounds and applying structural necessary
conditions that never compute a logarithm.
"""

from .classify import (
    ClassReport,
    FLAG_NAMES,
    classify_matrix,
    is_intensity_matrix,
    is_irreducible,
    is_nonnegative,
    is_stochastic,
    is_z_matrix,
    nonneg_eigvec_of_z,
)
from .embed import (
    BOUND_MODES,
    EMBEDDABLE,
    NOT_EMBEDDABLE,
    NOT_STRONGLY_INF_DIVISIBLE,
    STRONGLY_INF_DIVISIBLE,
    UNDETERMINED,
    BranchBound,
    DivisibilityReport,
    EmbeddabilityReport,
    InverseMRoot,
    branch_bound,
    check_embeddable,
    check_strong_inf_divisible,
    im_root_approx,
    inverse_m_power_form,
)
from .errors import (
    EmbedlabError,
    IllConditioned,
    NegativeRealEigenvalue,
    NotAValidPair,
    NotNonnegative,
    NotStochastic,
    NotZMatrix,
    OffDiagonalZeros,
    OutOfRange,
    Overflow,
    RepeatedEigenvalues,
    SearchExhausted,
    SingularDeterminant,
    SingularMatrix,
)
from .numkit import (
    DEFAULT_TOL,
    Eigendecomposition,
    ToleranceConfig,
    as_square_matrix,
    eig,
    expm,
    logm_branch,
    primary_root,
    principal_log,
)
from .structure import (
    NecessaryConditionReport,
    StructureDecomposition,
    frobenius_form,
    necessary_conditions,
    trailing_submatrix,
    zero_pattern_invariance,
)

__version__ = "0.1.0"
