"""qspace3: the three-dimensional quantum Euclidean space at desk scale.

q-deformed special functions, truncated operator representations of the
coordinate / angular-momentum algebras, and the basis transforms that
diagonalize the orbital Casimir and the coordinate X3.
"""

from .context import QContext
from .errors import (CoverageError, DomainError, PrecisionError, QSpaceError,
                     WindowError)

__version__ = "0.1.0"

__all__ = [
    "QContext", "QSpaceError", "DomainError", "WindowError",
    "CoverageError", "PrecisionError", "__version__",
]
