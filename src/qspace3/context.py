"""Deformation-parameter context: q, derived constants, precision policy."""

import functools
import inspect
import math
from dataclasses import dataclass

import mpmath as mp

from .errors import DomainError

EXTENDED_DPS = 40


@dataclass(frozen=True)
class QContext:
    """Deformation parameter q > 1 plus tolerance and precision policy.

    lam is the combination q - 1/q, which vanishes in the classical limit.
    precision selects the working arithmetic for scalar special-function
    evaluation: "double" (binary64, with transparent internal escalation
    where cancellation demands it) or "extended" (>= 30 significant digits
    throughout, for large windows where q**(4m) spans hundreds of orders
    of magnitude).
    """

    q: float
    tol_rel: float = 1e-10
    precision: str = "double"

    def __post_init__(self):
        if not 1.0 < self.q < math.inf:
            raise DomainError(f"q must be finite and > 1, got {self.q}")
        if not 0.0 < self.tol_rel < 1.0:
            raise DomainError(f"require 0 < tol_rel < 1, got {self.tol_rel}")
        if self.precision not in ("double", "extended"):
            raise DomainError(f"unknown precision mode {self.precision!r}")

    @property
    def lam(self) -> float:
        return self.q - 1.0 / self.q

    @property
    def is_extended(self) -> bool:
        return self.precision == "extended"

    @property
    def dps(self) -> int:
        """Base decimal precision for the scalar kernels (0 = binary64)."""
        return EXTENDED_DPS if self.is_extended else 0

    def qval(self):
        """q in the working arithmetic type."""
        if self.is_extended:
            with mp.workdps(EXTENDED_DPS):
                return mp.mpf(self.q)
        return self.q

    def out(self, x):
        """Coerce a computed value to the context's output type."""
        return x if self.is_extended else float(x)


def _at_ctx_dps(fn):
    """fn with its arithmetic at ctx.dps digits when its argument ctx is an
    extended QContext, whatever the ambient mpmath precision; a binary64
    context calls fn as it is."""
    i = list(inspect.signature(fn).parameters).index("ctx")

    @functools.wraps(fn)
    def run(*args, **kwargs):
        ctx = args[i] if i < len(args) else kwargs["ctx"]
        if not ctx.is_extended:
            return fn(*args, **kwargs)
        with mp.workdps(ctx.dps):
            return fn(*args, **kwargs)
    return run
