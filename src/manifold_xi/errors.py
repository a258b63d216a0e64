"""Semantic exception hierarchy shared by all modules."""


class ManifoldXiError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(ManifoldXiError, ValueError):
    """An argument violates a documented precondition (domain, shape, size)."""


class DuplicatePointsError(InvalidInputError):
    """Duplicate predictor rows under ``xi_n(strict=True)``."""


class TieError(InvalidInputError):
    """Exactly tied responses under ``xi_n(strict=True)``."""


class DegenerateInputError(InvalidInputError):
    """The input is degenerate (e.g. a constant response) and the requested
    procedure has no meaningful answer for it."""


class DatasetFormatError(ManifoldXiError, ValueError):
    """A dataset or configuration file could not be parsed."""
