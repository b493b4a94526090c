"""Exception hierarchy shared by all modules."""


class QSpaceError(Exception):
    """Base class for all qspace3 errors."""


class DomainError(QSpaceError):
    """Arguments outside the mathematical domain of an operation."""


class WindowError(DomainError):
    """A truncation window is inconsistent with the requested construction."""


class CoverageError(WindowError):
    """A window is too small to cover the requested labels."""


class PrecisionError(QSpaceError):
    """A sum or recurrence failed to converge within its precision budget."""
