"""q-arithmetic primitives: symmetric q-numbers, q-factorials and
q-binomials, the building blocks of the direct sum of the big q-Jacobi
polynomials in qspecial.

The q-factorials are one prefix list per (q, dps), extended in place under
_QFACT_LOCK and read without a lock.  A multiprecision list holds libmp
tuples (mpf._mpf_), the multiprecision q-binomials _qbin are tuples too, and
qfactorial_sym and qbinomial_sym make an mpf where they return; the binary64
list rounds the entries of the EXTENDED_DPS list once.  Values are returned
as float in "double" mode and as mpmath.mpf in "extended" mode.

Every tuple multiplication, addition, subtraction and division of qarith,
qspecial and basistrans is one kernel, _mul, _add, _sub and _div: libmp's
round-to-nearest mpf_mul, mpf_add, mpf_sub and mpf_div, bit for bit,
without its generic rounding call; zero and special operands go to libmp
itself.  Each kernel hands an odd mantissa to one rounding step, _round (an
exact quotient's or an equal-exponent sum's trailing zeros go first, in one
shift), so a tie needs exactly one cut bit.  Every multiprecision integer
power reads one bounded memo, _pow.  At q = 2 every [a] and every
q-binomial is a dyadic rational, so most quotients of the direct sum are
exact.

The denominator lambda = q - 1/q of every q-number is formed once per loop
that computes q-numbers at one q and precision: here in _extend_qfacts and
in qspecial's _u2 (on tuples), in _coupling and the coefficient-list
extension _coeffs_through (passed to _qnum).  It is the same value at every
call, so each [a] is the one a call without lam gives, bit for bit.
"""

import math
import threading
from functools import lru_cache

import mpmath as mp
from mpmath.libmp import (dps_to_prec, fone, fzero, from_float, mpf_add,
                          mpf_div, mpf_mul, mpf_pow_int, round_nearest as _RN,
                          to_float)

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


def _round(sign, man, exp, prec):
    """The libmp tuple of (-1)**sign * man * 2**exp rounded to nearest at
    prec bits, for an odd man: libmp's normalize1 at round_nearest, bit for
    bit.  Below the rounding bit an odd mantissa is never zero where more
    than one bit is cut, so a tie needs exactly one cut bit, and r & 2 then
    rounds it to even.  A round-up's trailing zeros go in one shift, and
    int.bit_length replaces libmp's bisect bitcount."""
    bc = man.bit_length()
    n = bc - prec
    if n <= 0:
        return sign, man, exp, bc
    r = man >> (n - 1)
    man = r >> 1
    if r & 1 and (n > 1 or r & 2):
        man += 1
    if not man & 1:
        z = (man & -man).bit_length() - 1
        man >>= z
        n += z
    return sign, man, exp + n, man.bit_length()


def _mul(s, t, prec):
    """mpf_mul(s, t, prec, round_nearest) on the libmp tuples s and t, bit
    for bit: the product of two odd mantissas is odd.  Zero and special
    operands are mpf_mul's own cases."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    man = sman * tman
    if not man:
        return mpf_mul(s, t, prec, _RN)
    return _round(ssign ^ tsign, man, sexp + texp, prec)


def _adder(neg):
    """The kernel of mpf_add(s, t, prec, round_nearest, neg), bit for bit:
    _add at neg = 0, _sub (s - t) at neg = 1.  The exact sum is odd unless
    the exponents are equal, when its trailing zeros go first in one shift,
    where libmp's normalize strips them eight bits at a time.  Zero and
    special operands are mpf_add's own cases."""
    def add(s, t, prec):
        ssign, sman, sexp, sbc = s
        tsign, tman, texp, tbc = t
        if not (sman and tman):
            return mpf_add(s, t, prec, _RN, neg)
        tsign ^= neg
        if sexp < texp:             # s the operand of the larger exponent
            ssign, sman, sexp, sbc, tsign, tman, texp, tbc = \
                tsign, tman, texp, tbc, ssign, sman, sexp, sbc
        offset = sexp - texp
        if offset > 100 and sbc + sexp - tbc - texp > prec + 4:
            # t lies below prec + 4 bits of s: mpf_add's one-unit nudge
            return _round(ssign, (sman << prec + 4)
                          + (1 if ssign == tsign else -1),
                          sexp - prec - 4, prec)
        man = ((-sman if ssign else sman) << offset) \
            + (-tman if tsign else tman)
        if not man:
            return fzero
        sign = 0
        if man < 0:
            sign, man = 1, -man
        if not man & 1:             # equal exponents: an even sum
            z = (man & -man).bit_length() - 1
            man >>= z
            texp += z
        return _round(sign, man, texp, prec)
    add.__name__ = add.__qualname__ = ("_add", "_sub")[neg]
    return add


_add, _sub = _adder(0), _adder(1)


def _div(s, t, prec):
    """mpf_div(s, t, prec, round_nearest) on the libmp tuples s and t, bit
    for bit: a divisor mantissa of 1 leaves s's mantissa, and any other
    takes mpf_div's extra bits and divmod, with a sticky bit for an inexact
    quotient.  An exact quotient's trailing zeros go in one shift instead
    of normalize's eight bits at a time, so every mantissa rounded is odd;
    since rounding is correct, the result is mpf_div's.  Zero and special
    operands are mpf_div's own cases."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if not (sman and tman):
        return mpf_div(s, t, prec, _RN)
    if tman == 1:
        return _round(ssign ^ tsign, sman, sexp - texp, prec)
    extra = prec - sbc + tbc + 5
    if extra < 5:
        extra = 5
    man, rem = divmod(sman << extra, tman)
    if rem:
        man = (man << 1) + 1
        extra += 1
    else:
        z = (man & -man).bit_length() - 1
        man >>= z
        extra -= z
    return _round(ssign ^ tsign, man, sexp - texp - extra, prec)


@lru_cache(maxsize=256)
def _pow(s, n, prec):
    """mpf_pow_int(s, n, prec, round_nearest), one memo for every integer
    power of the multiprecision routes: q**k and q**-k of the factorials and
    of u^2, the order's q-powers and the direct sum's sign-powers and
    b_k = (q**-2)**(k-1)."""
    return mpf_pow_int(s, n, prec, _RN)


_QFACT_LOCK = threading.Lock()     # one extender per prefix list at a time


@lru_cache(maxsize=4096)
def _qfact_cached(n: int, qkey: float, dps: int):
    """[n]! at q = qkey, a float in binary64 (dps = 0), else a libmp tuple
    at dps digits.  A binary64 entry is the EXTENDED_DPS entry rounded once,
    so it is within an ulp of the exact [n]! instead of carrying the
    roundings of n factors."""
    facts = _qfact_list(qkey, dps)
    if n >= len(facts):
        with _QFACT_LOCK:
            if dps:
                _extend_qfacts(facts, n, qkey, dps)
            else:
                ext = _qfact_list(qkey, EXTENDED_DPS)
                _extend_qfacts(ext, n, qkey, EXTENDED_DPS)
                facts.extend(to_float(v, rnd=_RN)
                             for v in ext[len(facts):n + 1])
    return facts[n]


@lru_cache(maxsize=256)
def _qfact_list(qkey: float, dps: int):
    """Prefix list [0]!, [1]!, ... of one (q, dps), extended in place by
    _qfact_cached up to the highest n asked for so far."""
    return [fone if dps else 1.0]


def _extend_qfacts(facts, n, qkey, dps):
    """facts through [n]!: the mpf expressions r *= (q**k - q**-k) / lam,
    lam = q - 1/q, at dps digits on libmp tuples."""
    prec = dps_to_prec(dps)
    q = from_float(qkey, prec, _RN)
    lam = _sub(q, _div(fone, q, prec), prec)
    r = facts[-1]
    for k in range(len(facts), n + 1):
        qk = _sub(_pow(q, k, prec), _pow(q, -k, prec), prec)
        r = _mul(r, _div(qk, lam, prec), prec)
        facts.append(r)


def qfactorial_sym(n: int, ctx: QContext):
    """Symmetric q-factorial [n]! = [1][2]...[n]; [0]! = 1."""
    if n < 0:
        raise DomainError(f"q-factorial needs n >= 0, got {n}")
    return _in_range(ctx, f"[{n}]!", _qfact_cached, n, float(ctx.q), ctx.dps)


@_at_ctx_dps
def qbinomial_sym(n: int, k: int, ctx: QContext):
    """Symmetric q-binomial [n]!/([k]![n-k]!); 0 when n < k or n < 0 or k < 0,
    and exactly 1 at k = 0 and k = n, also where [n]! leaves binary64."""
    if k < 0 or n < 0 or n < k:
        return _zero(ctx)
    if k in (0, n):
        return mp.mpf(1) if ctx.is_extended else 1.0
    return _in_range(ctx, f"[{n} over {k}]", _qbin, n, k, ctx.q, ctx.dps)


def _in_range(ctx, name, fn, *args):
    """ctx.out(fn(*args)), an mpf of a libmp tuple, or a PrecisionError
    where a binary64 value leaves the range: an OverflowError, an inf, or
    the NaN of inf / inf."""
    try:
        v = fn(*args)
    except OverflowError:
        v = math.inf
    if type(v) is tuple:
        return mp.make_mpf(v)
    v = ctx.out(v)
    if not (ctx.is_extended or math.isfinite(v)):
        raise PrecisionError(f"{name} at q={ctx.q} leaves the binary64 "
                             f"range; set QSPACE3_PRECISION=extended")
    return v


def _zero(ctx):
    """0 in the context's output type.  ctx.out(0.0) would pass a float
    through in extended mode, where every value is an mpf."""
    return mp.mpf(0) if ctx.is_extended else 0.0


def _qbin(n, k, q, dps=0):
    """[n over k] from the prefix lists F: the binary64 F[n] / (F[k] F[n-k]),
    or that mpf expression at dps digits as a libmp tuple."""
    if k < 0 or n < 0 or n < k:
        return fzero if dps else 0.0
    qk = float(q)
    if not dps:
        # no shortcut at the edges: an overflowed [n]! gives inf / inf = NaN
        # there, which p_lm's accept test reads
        return _qfact_cached(n, qk, 0) \
            / (_qfact_cached(k, qk, 0) * _qfact_cached(n - k, qk, 0))
    if k in (0, n):
        # [n]! / ([0]! [n]!) at the factorials' own digits is exactly 1
        return fone
    prec = dps_to_prec(dps)
    return _div(_qfact_cached(n, qk, dps),
                _mul(_qfact_cached(k, qk, dps), _qfact_cached(n - k, qk, dps),
                     prec), prec)
