"""q-arithmetic primitives: symmetric q-numbers, q-factorials and
q-binomials, the building blocks of the direct sum of the big q-Jacobi
polynomials in qspecial.

The q-factorials are one prefix list per (q, dps), extended in place under
_QFACT_LOCK and read without a lock; the binary64 list rounds the entries
of the EXTENDED_DPS list.  Values are returned as float in "double" mode
and as mpmath.mpf in "extended" mode.

The denominator lambda = q - 1/q of every q-number is formed once per loop
that computes q-numbers at one q and precision, and passed to _qnum: here
in _extend_qfacts, in qspecial in _u2_mp, _ptilde_factors and the
coefficient-list extension _coeffs_through.  It is the same value at every
call, so each [a] is the one a call without lam gives, bit for bit.
"""

import math
import threading
from functools import lru_cache

import mpmath as mp

from .context import EXTENDED_DPS, QContext, _at_ctx_dps
from .errors import DomainError, PrecisionError

__all__ = ["qnum_sym", "qfactorial_sym", "qbinomial_sym"]


@_at_ctx_dps
def qnum_sym(a, ctx: QContext):
    """Symmetric q-number [a] = (q^a - q^-a)/(q - q^-1).

    Odd in a and continuous; [a] -> a as q -> 1+.
    """
    return _in_range(ctx, f"[{a}]", _qnum, a, ctx.qval())


def _qnum(a, q, lam=None):
    """[a] at q; lam, when given, is _lam(q) formed once by the caller."""
    if lam is None:
        lam = _lam(q)
    return (q**a - q**(-a)) / lam


def _lam(q):
    """q - 1/q, the denominator of every q-number."""
    return q - 1 / q


_QFACT_LOCK = threading.Lock()     # one extender per prefix list at a time


@lru_cache(maxsize=4096)
def _qfact_cached(n: int, qkey: float, dps: int):
    """[n]! at q = qkey, in binary64 (dps = 0) or at dps digits.  A binary64
    entry is the EXTENDED_DPS entry rounded once, so it is within an ulp of
    the exact [n]! instead of carrying the roundings of n factors."""
    facts = _qfact_list(qkey, dps)
    if n >= len(facts):
        with _QFACT_LOCK, mp.workdps(dps or EXTENDED_DPS):
            if dps:
                _extend_qfacts(facts, n, mp.mpf(qkey))
            else:
                ext = _qfact_list(qkey, EXTENDED_DPS)
                _extend_qfacts(ext, n, mp.mpf(qkey))
                facts.extend(float(v) for v in ext[len(facts):n + 1])
    return facts[n]


@lru_cache(maxsize=256)
def _qfact_list(qkey: float, dps: int):
    """Prefix list [0]!, [1]!, ... of one (q, dps), extended in place by
    _qfact_cached up to the highest n asked for so far."""
    return [mp.mpf(1) if dps else 1.0]


def _extend_qfacts(facts, n, q):
    r = facts[-1]
    lam = _lam(q)
    for k in range(len(facts), n + 1):
        r *= _qnum(k, q, lam)
        facts.append(r)


def qfactorial_sym(n: int, ctx: QContext):
    """Symmetric q-factorial [n]! = [1][2]...[n]; [0]! = 1."""
    if n < 0:
        raise DomainError(f"q-factorial needs n >= 0, got {n}")
    return _in_range(ctx, f"[{n}]!", _qfact_cached, n, float(ctx.q), ctx.dps)


@_at_ctx_dps
def qbinomial_sym(n: int, k: int, ctx: QContext):
    """Symmetric q-binomial [n]!/([k]![n-k]!); 0 when n < k or n < 0 or k < 0."""
    if k < 0 or n < 0 or n < k:
        return _zero(ctx)
    return _in_range(ctx, f"[{n} over {k}]", _qbin, n, k, ctx.q, ctx.dps)


def _in_range(ctx, name, fn, *args):
    """ctx.out(fn(*args)), or a PrecisionError where a binary64 value leaves
    the range: an OverflowError, an inf, or the NaN of inf / inf."""
    try:
        v = ctx.out(fn(*args))
    except OverflowError:
        v = math.inf
    if not (ctx.is_extended or math.isfinite(v)):
        raise PrecisionError(f"{name} at q={ctx.q} leaves the binary64 "
                             f"range; set QSPACE3_PRECISION=extended")
    return v


def _zero(ctx):
    """0 in the context's output type.  ctx.out(0.0) would pass a float
    through in extended mode, where every value is an mpf."""
    return mp.mpf(0) if ctx.is_extended else 0.0


def _qbin(n, k, q, dps=0):
    if k < 0 or n < 0 or n < k:
        return 0.0
    if dps and k in (0, n):
        # [n]!/([0]! [n]!) at the factorials' own digits is exactly 1; in
        # binary64 the quotient stays, since an overflowed [n]! gives
        # inf/inf = NaN there and p_lm's accept test reads it
        return mp.mpf(1)
    qk = float(q)
    return _qfact_cached(n, qk, dps) \
        / (_qfact_cached(k, qk, dps) * _qfact_cached(n - k, qk, dps))
