"""Exception types shared across the embedlab modules."""


class EmbedlabError(Exception):
    """Base class for every embedlab-specific error."""


class IllConditioned(EmbedlabError):
    """Eigenvector basis is defective or too ill-conditioned to trust."""


class SingularMatrix(EmbedlabError):
    """Operation requires a nonsingular matrix."""


class RepeatedEigenvalues(EmbedlabError):
    """Operation requires eigenvalues separated by at least ``distinct_tol``."""


class NegativeRealEigenvalue(EmbedlabError):
    """An eigenvalue on the closed negative real axis makes the primary
    root/logarithm non-real."""


class Overflow(EmbedlabError):
    """Result entries exceed the floating-point range."""


class NotZMatrix(EmbedlabError):
    """Input has an off-diagonal entry above the tolerance."""


class NotAValidPair(EmbedlabError):
    """exp(-Q) does not reconstruct B within the reconstruction tolerance."""


class OutOfRange(EmbedlabError):
    """Index argument outside its admissible range."""


class NotStochastic(EmbedlabError):
    """Input is not row-stochastic within tolerance."""


class NotNonnegative(EmbedlabError):
    """Input has an entry below ``-entry_tol``."""


class SingularDeterminant(EmbedlabError):
    """Branch bounds need a strictly positive determinant."""


class OffDiagonalZeros(EmbedlabError):
    """Generator has an off-diagonal entry at or below the tolerance, so the
    inverse-M root construction is not guaranteed."""


class SearchExhausted(EmbedlabError):
    """Root-order search hit its ceiling without finding an M-matrix root."""
