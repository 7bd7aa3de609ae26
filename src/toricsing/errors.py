"""Exception and warning types shared across the package."""


class ToricError(Exception):
    """Base class for all domain errors raised by this package."""


class AlignmentError(ToricError):
    """Polynomial operands do not share a variable table."""


class ModelFormatError(ToricError):
    """Model text is syntactically or semantically invalid.

    Messages carry a line number when the offending line is known.
    """


class NonIsolatedZeroError(ToricError):
    """The local multiplicity computation did not reach its plateau.

    The message starts with "proved not isolated" when the truncated
    dimension exceeded the Bezout bound, so the zero locus at the origin is
    positive-dimensional, and with "cap below the plateau" when the degree
    cap stopped the computation before that was decided.
    """


class ToricWarning(UserWarning):
    """Base class for warnings emitted by this package."""


class NotWellFormedWarning(ToricWarning):
    """Weights share a factor: the space is not well formed, or its singular
    locus is not isolated.  Counts still apply to isolated singularities."""


class OrbifoldHypothesisWarning(ToricWarning):
    """An operation stated for smooth models was run on an orbifold model."""
