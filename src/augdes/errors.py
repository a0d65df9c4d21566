"""Exception types shared across the package."""


class AugdesError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(AugdesError):
    """Matrix or vector dimensions do not agree."""


class NotSymmetric(AugdesError, ValueError):
    """A matrix expected to be symmetric is not, within tolerance."""


class SingularMatrix(AugdesError):
    """The Cholesky factorization failed, or the smallest squared diagonal
    entry of its factor fell below the singularity tolerance."""


class Disconnected(AugdesError):
    """The design (or the matrix derived from it) is not connected."""


class LabelOutOfRange(AugdesError):
    """A treatment label lies outside 1..v."""


class EmptyBlock(AugdesError):
    """A block contains no treatments."""


class IndexOutOfRange(AugdesError):
    """A block or treatment index lies outside its valid range."""


class TooFewBlocksRemain(AugdesError):
    """Deleting the requested blocks would leave fewer than two."""


class InvalidSize(AugdesError):
    """A subset size is outside 1..v."""


class NotSupportedOrder(AugdesError):
    """The requested lattice order is not a supported prime."""


class DesignFormatError(AugdesError):
    """A design text file does not follow the `v` / `block` format."""


class NonUniformBlockSize(AugdesError):
    """Criteria require a constant block size."""


class InvalidParameters(AugdesError):
    """Design or augmentation parameters are infeasible."""


class NotEstimable(AugdesError):
    """The contrast lies outside the row space of the model matrix."""


class ClassTooLarge(AugdesError):
    """A design class, or the blocks of a construction, exceed their cap."""


class NoConnectedStart(AugdesError):
    """Random sampling found no connected starting design."""
