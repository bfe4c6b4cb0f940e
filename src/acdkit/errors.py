"""Exception hierarchy shared by all acdkit modules.

Every error the library raises on bad input or bad data is a subclass of
AcdError, so callers (and the CLI) can catch one type and still report the
specific failure by class name.
"""


class AcdError(Exception):
    """Base class for all acdkit errors."""


class NotFound(AcdError):
    """A required input file does not exist."""


class FormatError(AcdError):
    """An on-disk file violates its format: an R32 raster, a pixel dump or a model."""


class IoError(AcdError):
    """Reading or writing a file failed at the OS level."""


class DimensionMismatch(AcdError):
    """Two grids or vectors that must agree in size do not."""


class GridMismatch(AcdError):
    """Two per-pixel structures do not share the same image grid."""


class MaskInconsistent(AcdError):
    """The inner ground-truth mask is not a subset of the outer mask."""


class BadPatchSize(AcdError):
    """Patch side length is even, non-positive, or too large for the grid."""


class BadOffset(AcdError):
    """A co-occurrence offset does not fit inside the patch."""


class SingularCovariance(AcdError):
    """The (regularized) covariance matrix is not positive definite."""


class EmptyClass(AcdError):
    """A ROC curve was requested with no positive or no negative pixels."""


class BadConfig(AcdError):
    """A scene or pipeline configuration violates its invariants."""
