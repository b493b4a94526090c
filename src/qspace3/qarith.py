"""q-arithmetic primitives: symmetric q-numbers, q-factorials and binomials,
q-Pochhammer symbols, the basic hypergeometric series and the Jackson integral.

All functions are pure; caches are read-mostly and safe under concurrent
readers.  Values are returned as float in "double" mode and as mpmath.mpf in
"extended" mode.
"""

import math
import threading
from functools import lru_cache

import mpmath as mp

from .context import QContext
from .errors import DomainError, PoleError, PrecisionError

__all__ = [
    "qnum_sym", "qfactorial_sym", "qbinomial_sym",
    "qpochhammer", "qpochhammer_inf", "basic_hypergeometric",
    "jackson_integral",
]


def qnum_sym(a, ctx: QContext):
    """Symmetric q-number [a] = (q^a - q^-a)/(q - q^-1).

    Odd in a and continuous; [a] -> a as q -> 1+.
    """
    q = ctx.qval()
    return ctx.out(_qnum(a, q))


def _qnum(a, q):
    return (q**a - q**(-a)) / (q - 1 / q)


_TAIL_EPS = 1e-14        # binary64 truncation threshold of series and products
_MAX_TERMS = 4096        # term budget of series and products

_QFACT_LOCK = threading.Lock()     # one extender per prefix list at a time


@lru_cache(maxsize=4096)
def _qfact_cached(n: int, qkey: float, dps: int):
    """[n]! at q = qkey, in binary64 (dps = 0) or at dps digits."""
    facts = _qfact_list(qkey, dps)
    if n >= len(facts):
        with _QFACT_LOCK:
            if dps:
                with mp.workdps(dps):
                    _extend_qfacts(facts, n, mp.mpf(qkey))
            else:
                _extend_qfacts(facts, n, qkey)
    return facts[n]


@lru_cache(maxsize=256)
def _qfact_list(qkey: float, dps: int):
    """Prefix list [0]!, [1]!, ... of one (q, dps), extended in place by
    _qfact_cached up to the highest n asked for so far."""
    return [mp.mpf(1) if dps else 1.0]


def _extend_qfacts(facts, n, q):
    r = facts[-1]
    for k in range(len(facts), n + 1):
        r *= _qnum(k, q)
        facts.append(r)


def qfactorial_sym(n: int, ctx: QContext):
    """Symmetric q-factorial [n]! = [1][2]...[n]; [0]! = 1."""
    if n < 0:
        raise DomainError(f"q-factorial needs n >= 0, got {n}")
    return ctx.out(_qfact_cached(n, float(ctx.q), ctx.dps))


def qbinomial_sym(n: int, k: int, ctx: QContext):
    """Symmetric q-binomial [n]!/([k]![n-k]!); 0 when n < k or n < 0 or k < 0."""
    return ctx.out(_qbin(n, k, ctx.q, ctx.dps))


def _qbin(n, k, q, dps=0):
    if k < 0 or n < 0 or n < k:
        return 0.0
    qk = float(q)
    return _qfact_cached(n, qk, dps) \
        / (_qfact_cached(k, qk, dps) * _qfact_cached(n - k, qk, dps))


def qpochhammer(a, base, k: int):
    """Finite q-shifted factorial (a; base)_k = prod_{n<k} (1 - a*base^n).

    a may be a scalar or a sequence; a sequence multiplies the individual
    symbols together.
    """
    if k < 0:
        raise DomainError(f"Pochhammer order must be >= 0, got {k}")
    if _is_seq(a):
        r = 1.0
        for ai in a:
            r = r * qpochhammer(ai, base, k)
        return r
    r = 1 + 0 * (a + base)
    for n in range(k):
        r = r * (1 - a * base**n)
    return r


def _is_seq(a):
    return isinstance(a, (list, tuple))


def qpochhammer_inf(a, base, ctx: QContext):
    """Infinite q-shifted factorial (a; base)_inf for |base| < 1.

    Truncated once |a * base^n| < _TAIL_EPS; deterministic for fixed ctx.
    """
    if _is_seq(a):
        r = 1.0
        for ai in a:
            r = r * qpochhammer_inf(ai, base, ctx)
        return r
    if abs(base) >= 1:
        raise DomainError(f"infinite Pochhammer needs |base| < 1, got {base}")
    if ctx.is_extended:
        with mp.workdps(ctx.dps):
            return _poch_inf(mp.mpf(a), mp.mpf(base),
                             mp.mpf(10) ** (-ctx.dps - 5))
    return ctx.out(_poch_inf(a, base, _TAIL_EPS))


def _poch_inf(a, base, tail_eps):
    r = 1 + 0 * (a + base)
    t = a
    for _ in range(_MAX_TERMS):
        if abs(t) < tail_eps:
            return r
        r = r * (1 - t)
        t = t * base
    raise PrecisionError(
        f"infinite Pochhammer did not converge within {_MAX_TERMS} terms")


def basic_hypergeometric(upper, lower, base, x, ctx: QContext):
    """Basic hypergeometric series r_phi_s(upper; lower; base; x) for |base| < 1.

    Includes the balancing factor ((-1)^k base^(k(k-1)/2))^(1+s-r).  A series
    terminates when some upper parameter equals base^(-j) for integer j >= 0;
    terminating series are summed exactly to the terminating index.
    """
    if abs(base) >= 1:
        raise DomainError(f"series base must satisfy |base| < 1, got {base}")
    upper = list(upper)
    lower = list(lower)
    if ctx.is_extended:
        with mp.workdps(ctx.dps):
            return _hyper(list(map(mp.mpf, upper)), list(map(mp.mpf, lower)),
                          mp.mpf(base), mp.mpf(x),
                          mp.mpf(10) ** (-ctx.dps - 5))
    return ctx.out(_hyper(upper, lower, base, x, _TAIL_EPS))


def _terminating_index(upper, base):
    k_term = None
    lb = math.log(abs(float(base)))
    for a in upper:
        af = float(a)
        if af <= 0:
            continue
        j = round(-math.log(af) / lb)
        if j >= 0 and abs(math.log(af) + j * lb) < 1e-9 * (1 + abs(j * lb)):
            k_term = j if k_term is None else min(k_term, j)
    return k_term


def _hyper(upper, lower, base, x, tail_eps):
    k_term = _terminating_index(upper, base)
    extra = 1 + len(lower) - len(upper)
    s = 1 + 0 * (base + x)
    term = s
    k = 0
    while True:
        if k_term is not None and k >= k_term:
            return s
        if k_term is None and k > 0 and abs(term) < tail_eps * abs(s):
            return s
        if k >= _MAX_TERMS:
            raise PrecisionError("basic hypergeometric series did not converge")
        bk = base**k
        num = 1 + 0 * s
        for a in upper:
            num = num * (1 - a * bk)
        den = 1 - base ** (k + 1)
        for b in lower:
            f = 1 - b * bk
            if f == 0 or abs(f) < 1e-12 * (1 + abs(b * bk)):
                raise PoleError(
                    f"lower Pochhammer factor vanished at order {k + 1}")
            den = den * f
        ratio = num / den * x
        if extra:
            ratio = ratio * ((-1) ** extra) * base ** (extra * k)
        term = term * ratio
        s = s + term
        k += 1


def jackson_integral(f, a, ctx: QContext):
    """Jackson integral of f over [0, a] with nodes a*q^-nu, nu = 0, 1, ...

    Evaluates (1 - 1/q) * sum_nu a q^-nu f(a q^-nu), truncating once the
    running term drops below _TAIL_EPS relative to the partial sum.
    """
    if a == 0:
        return ctx.out(0.0)
    q = ctx.qval()
    s = 0.0 * q
    node = a + 0 * q
    for _ in range(_MAX_TERMS):
        t = node * f(node)
        s = s + t
        if abs(t) < _TAIL_EPS * max(abs(s), _TAIL_EPS):
            return ctx.out((1 - 1 / q) * s)
        node = node / q
    raise PrecisionError(
        f"Jackson integral did not converge within {_MAX_TERMS} terms")
