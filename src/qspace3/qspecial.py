"""Big q-Jacobi polynomials, the q-deformed associated Legendre functions,
and their recurrence, difference, orthonormality and completeness identities.

Evaluation strategy
-------------------
The direct sum of P_lm alternates with terms up to ~q**(l*l - m*m) while the
value at a lattice point is exponentially small: it loses about
2.2*l*l*log10(q) digits to cancellation, and an odd-degree P ~ x loses
log10(1/|x|) more near 0.  Binary64 p_lm keeps its float sum while the sum
cancels less than _CANCEL_OK.  Every multiprecision direct sum (p_lm in both
modes, p_tilde's multiprecision route, the identity checks' reads) follows
one rule, _p_value: it starts at _sum_dps, that estimate plus _GUARD digits
rounded up to a multiple of _STEP, measures the loss max|t_k|/|s| on the
result and sums again at twice the digits while fewer than _KEEP survive.
Degree 0 (l = m) has no sum; its weight gets the guard digits alone.  Whole
columns P~_l(x), l = 0..l_max, come from the three-term recurrence in l:
downward (minimal solution, rescaled) at lattice arguments where it is not
contractive, upward otherwise and at x = 0, with coefficients computed once
per (m, ctx).  The extended columns and _site_rows' extended rows, and the
whole multiprecision point route, run on libmp tuples (mpf._mpf_) through
the primitives the mpf operators call, in their order and rounding to
nearest, so each value is the mpf expression's bit for bit without its
object layer; every tuple multiplication, addition, subtraction and
division is one kernel of qarith (_mul, _add, _sub, _div), libmp's value
bit for bit, and every integer power reads qarith's bounded memo _pow.  In
the point route the tuple is the one format: u^2 (_u2), the radicand
(_rad_at), the terms (_sum_terms, over qarith's tuple q-factorial lists),
the q-powers (_order) and check_difference's shell (_shell) are built on
tuples, the couplings (_coupling) and Pochhammer lists convert their mpf
expressions once, and only the public returns (_public, weight_w) make an
mpf or a float.  lambda = q - 1/q is formed once per loop over q-numbers:
in _u2, _coupling, _coeffs_through and qarith._extend_qfacts.

One idiom carries a binary64 value past the range: a mantissa and an
integer binary exponent (math.frexp/ldexp), so every rescaling is exact.
The weight is ldexp(sqrt(f rad), k), u^2 / norm ~ f 4**k (_weight_scale);
the downward table keeps a binary exponent per entry.

The bounded records below keep every value bit-identical to an inline
evaluation, each keyed by what it depends on.  x-independent: _weight_scale
in binary64 (u^2 / norm as (f, k)); per (l, m, q, dps) _weight_factors
(u^2 and the normalization, all the weight reads), _coupling (degrees l
and l + 1, which check_recurrence reads at both) and _sum_terms; per (l, q,
dps) check_difference's _shell; per (m, q, dps) _snorm_mp_cached and
_order.  Binary64 p_lm sums its own float loop, _p_sum; every
multiprecision sum is one kernel, _p_sum_at, over a point record _Node (the
mpf x and its Pochhammer prefix list (x; q^-2)_k).  A lattice node sigma
q^e (_snap_lattice) has one _node per dps, a radicand (_node_rad) and
check_difference's square roots (_roots) that both signs share, and one P
(_p_node) and one P~ (_ptilde_node) per (l, m), at the dps the rule gave
them, which p_lm, p_tilde and the checks read; the weight (_weight_at) is
keyed by the radicand.  Any other point is transient and uncached.  The
checks read P~ through _reader, the q-difference neighbours of a node as
the nodes e -+ 2, at the highest dps among their reads; they sum every P~
directly, so they test the recurrence rather than restate it.
clear_caches() empties every cache of this module and qarith.

The one lattice map is _site: the argument and prefactor of a chain site
(sigma, m_t).  _doubled_rows builds the lattice matrix from it, one table
per site m_t with the sigma = -1 rows by parity; the transforms, both
lattice sums, ortho and complete read that matrix, each sum an entry of a
Gram product taken with numpy matmul.

The recurrence coefficient lists, the q-factorial prefix lists and the
nodes' Pochhammer lists are extended under one lock, qarith._QFACT_LOCK,
which re-reads the length inside it; readers take no lock, since an entry
never changes once appended.  The weight normalization makes the lattice
orthonormality sum delta_{l,l'}; its l-independent constant is the degree-m
lattice sum in closed form (elementary-symmetric expansion).
"""

import math
from collections import namedtuple
from functools import lru_cache, partial

import mpmath as mp
import numpy as np
from mpmath.libmp import (dps_to_prec, fone, from_float, fzero, mpf_abs,
                          mpf_eq, mpf_gt, mpf_le, mpf_lt, mpf_mul_int,
                          mpf_neg, mpf_sqrt, round_nearest as _RN, to_float)

from .context import EXTENDED_DPS, QContext, _at_ctx_dps
from .errors import DomainError, PrecisionError
from .qarith import (_add, _div, _lam, _mul, _pow, _qnum, _qbin,
                     _qfact_cached, _qfact_list, _QFACT_LOCK, _sub, _zero)

__all__ = [
    "p_lm", "weight_w", "p_tilde", "p_tilde_table",
    "check_recurrence", "check_difference",
    "orthonormality_sum", "completeness_sum",
    "recurrence_coeff_up", "recurrence_coeff_down", "clear_caches",
]

_CANCEL_OK = 1e2          # direct-sum cancellation accepted in binary64
_EPS = 2.0**-52           # binary64 machine epsilon
_RAD_ULPS = 8             # rounding bound of a _rad factor, in epsilons
_GUARD = 40               # digits of a sum's start beyond its cancellation
_STEP = 40                # starts are multiples of it, so records are shared
_KEEP = 18                # digits a multiprecision sum must keep
_WEIGHT_MIN = 1e-250      # a binary64 weight below it reads 0
_TABLE_MIN = 1e-300       # a binary64 table entry below it reads +0.0


# ---------------------------------------------------------------------------
# kernels: the direct sums, the radicand and the normalization
# ---------------------------------------------------------------------------

def _p_sum(l, m, x, q):
    """The binary64 direct sum at x, (value, max_abs_term), so that callers
    can judge cancellation; (x; q^-2)_k is formed term by term."""
    s = 0 * x
    worst = abs(s)
    pochx = 1 + 0 * x
    for k, (bk, sign, pochd, a, b, c) in enumerate(_sum_factors(l, m, q)):
        if k:
            pochx = pochx * (1 - x * bk)
        t = sign * pochx / pochd
        t = t * a * b / c
        s = s + t
        worst = max(worst, abs(t))
    if s != s:          # max() above passes over a NaN term
        worst = s
    return s, worst


def _sum_factors(l, m, q):
    """The x-independent factors of each binary64 term k = 0..l-m of the
    direct sum: base**(k-1), the sign-power (-1)**k q**(-k(m+1)), the
    denominator Pochhammer and the three q-binomials, one tuple per term;
    _sum_terms is the multiprecision record of the same expressions."""
    base = q**-2
    shift = q**(-2 * (m + 1))
    bk = pochd = 1.0
    for k in range(l - m + 1):
        if k > 0:
            bk = base**(k - 1)
            pochd = pochd * (1 + shift * bk)
        yield (bk, (-1)**k * q**(-k * (m + 1)), pochd,
               _qbin(l - m, k, q), _qbin(l + m + k, k, q), _qbin(m + k, k, q))


def _p_sum_at(point, terms):
    """The multiprecision direct sum at the point record over the terms
    record _sum_terms, (x; q^-2)_k read from the point's Pochhammer list
    (_node_poch): (value, max_abs_term) as libmp tuples, each operation
    rounded to nearest at the ambient precision (call it under workdps).
    max(worst, |t|) keeps worst unless |t| > worst; a NaN sum is its own."""
    prec = mp.mp.prec
    s = worst = fzero
    for pochx, (_, sign, pochd, a, b, c) in zip(_node_poch(point, terms),
                                                terms):
        t = _div(_mul(sign, pochx, prec), pochd, prec)
        t = _div(_mul(_mul(t, a, prec), b, prec), c, prec)
        s = _add(s, t, prec)
        t = mpf_abs(t, prec, _RN)
        if mpf_gt(t, worst):
            worst = t
    if not mpf_eq(s, s):
        worst = s
    return s, worst


def _rad(m, x, q):
    """Binary64 radicand product attached to the weight, or DomainError where
    it is negative (off the support).  A factor 1 - x^2 q^(4(m-j)) within
    _RAD_ULPS machine epsilons of zero, its rounding bound, is a zero of the
    radicand and the product is 0; every other factor, and so the product,
    has its exact sign."""
    try:
        q4m, q4j = q**(4 * m), [q**(-4 * j) for j in range(m)]
    except OverflowError:
        raise PrecisionError(
            f"q**(4m) leaves the binary64 range at m={m}, q={q}; set "
            f"QSPACE3_PRECISION=extended") from None
    bound = _RAD_ULPS * _EPS
    r = 1 + 0 * x
    x2q = x * x * q4m
    for qj in q4j:
        f = 1 - x2q * qj
        if abs(f) <= bound:     # 0, not inf * 0, where r has overflowed
            return 0 * x
        r = r * f
    if r < 0:
        raise DomainError(
            f"argument {float(x)} outside the weight support for m={m}")
    return r


def _snorm_core(m, q):
    """Closed form of the lattice sum sum_{n<=0} q^(2(n-m-1)) rad_m(x_n).

    Expanding the radicand product into elementary symmetric polynomials of
    {q^-4j} turns every piece into a geometric series, so the sum is exact at
    any q > 1 (no term-by-term iteration).
    """
    one = 1 + 0 * q
    t = q**-4
    elem = [one]                       # e_k of {t^0, ..., t^(j-1)}
    for j in range(m):
        new = [one]
        for k in range(1, j + 2):
            prev_k = elem[k] if k < len(elem) else 0 * q
            new.append(prev_k + t**j * elem[k - 1])
        elem = new
    s = 0 * q
    for k in range(m + 1):
        s += (-1)**k * elem[k] * q**(-2 * (m + 1) - 4 * k) \
            / (1 - q**(-2 - 4 * k))
    return 2 * (1 - q**-2) * s


def _u2(l, m, qkey, dps):
    """u^2 at dps digits on libmp tuples: q**(l(l+1)) [2l+1] [l+m]! / [l-m]!
    as the mpf expression with [k] = (q**k - q**-k) / lam, lam = q - 1/q."""
    prec = dps_to_prec(dps)
    q = from_float(qkey, prec, _RN)
    lam = _sub(q, _div(fone, q, prec), prec)
    t = _pow(q, l * (l + 1), prec)
    for k in (2 * l + 1, *range(l - m + 1, l + m + 1)):
        t = _div(_mul(t, _sub(_pow(q, k, prec), _pow(q, -k, prec), prec),
                      prec), lam, prec)
    return t


@lru_cache(maxsize=256)
def _snorm_mp_cached(m: int, qkey: float, dps: int):
    """u^2 at l = m and the normalization constant, it times the core
    _snorm_core of order m, as libmp tuples at dps digits."""
    u2 = _u2(m, m, qkey, dps)
    with mp.workdps(dps):
        core = _snorm_core(m, mp.mpf(qkey))._mpf_
    return u2, _mul(core, u2, dps_to_prec(dps))


@lru_cache(maxsize=4096)
def _weight_scale(l: int, m: int, qkey: float):
    """The binary64 record of weight_w's x-independent factor u^2 / norm at
    (l, m): the EXTENDED_DPS value rounded once to (f, k), u^2 / norm ~
    f 4**k with 1/2 <= f < 2, so that the weight is ldexp(sqrt(f rad), k)."""
    u2_mm, norm = _snorm_mp_cached(m, qkey, EXTENDED_DPS)
    u2 = u2_mm if l == m else _u2(l, m, qkey, EXTENDED_DPS)
    f, e = mp.frexp(_mpf(_div(u2, norm, dps_to_prec(EXTENDED_DPS))))
    return math.ldexp(float(f), e % 2), e // 2


def _ldexp(v, k):
    """v 2**k, exact in the normal range; +-inf beyond it."""
    try:
        return math.ldexp(v, k)
    except OverflowError:
        return math.copysign(math.inf, v)


def _lattice_point(n, m, sigma, q):
    """The order-m lattice node sigma q^(2(n-m-1)); n <= 0 on the support.
    Generic over float and mpf q."""
    return sigma * q**(2 * (n - m - 1))


def _site(m, m_t, sigma, q):
    """Lattice argument and prefactor of the chain site (m_t, sigma) in the
    order-m columns: the coefficient there is pref * P~_l(x) with order |m|
    at the lattice index n = m_t - min(m, 0).  Generic over float and mpf q.
    """
    return (_lattice_point(m_t - min(m, 0), abs(m), sigma, q),
            _sqrt_any(1 - q**-2) * q**(m_t - max(m, 0) - 1))


def _site_rows(m, mts, l_values, q, ctx, alternate):
    """Rows pref * P~_l(x), l in l_values (ascending), one per sigma = +1
    site m_t; the sites are taken in the type of q, the tables in ctx's
    mode.  alternate adds the phase (-1)^m_t."""
    if ctx.is_extended:
        rows = _raw_site_rows(m, mts, l_values, q, ctx, alternate, mp.mp.prec)
        return [[_mpf(v) for v in row] for row in rows]
    rows = []
    for mt in mts:
        x, pref = _site(m, mt, 1, q)
        tab = p_tilde_table(l_values[-1], abs(m), x, ctx)
        sp = ((-1)**mt if alternate else 1) * pref
        rows.append([sp * tab[l] for l in l_values])
    return rows


def _raw_site_rows(m, mts, l_values, q, ctx, alternate, prec):
    """The rows of _site_rows in extended mode as libmp tuples, each
    product rounded to nearest at prec bits: the mpf operator's value at
    mp.mp.prec = prec."""
    for mt in mts:
        x, pref = _site(m, mt, 1, q)
        tab = p_tilde_table(l_values[-1], abs(m), x, ctx)
        sp = _raw(((-1)**mt if alternate else 1) * pref)
        yield [_mul(sp, tab[l]._mpf_, prec) for l in l_values]


def _doubled_rows(m, mts, l_values, q, ctx, alternate):
    """The rows of _site_rows over the sign-doubled sites (sigma, m_t),
    sigma = 1, -1 outer: one table per m_t, the sigma = -1 half by parity.

    P~_l(-x) = (-1)^(l-|m|) P~_l(x), and the table route keeps that parity
    bit for bit: it reads x only through |x| and x^2, and rounding to
    nearest commutes with negation.  So the sigma = -1 site (argument -x,
    the same prefactor) carries the sigma = +1 value negated at odd
    l - |m|.  A zero keeps its sign: a binary64 table stores an
    underflowed entry as +0.0 at both signs of x, so pref * 0.0 is the
    same zero on both rows (an mpf zero has no sign).
    """
    rows = _site_rows(m, mts, l_values, q, ctx, alternate)
    odd = [(l - abs(m)) % 2 == 1 for l in l_values]
    return rows + [[-v if o and v else v for v, o in zip(row, odd)]
                   for row in rows]


def _snap_lattice(x, q):
    """The node (e, sigma) when |x| is within 1e-12 of q^e, e even: the
    node sigma q^(2(n-m-1)) of every order m with n - m = e/2 + 1.

    Binary64 lattice arguments are taken to *mean* the exact lattice point:
    at large degree the function value is astronomically sensitive to
    off-lattice perturbations of the argument, so the rounded input would
    otherwise poison the evaluation.
    """
    ax = abs(float(x))
    if ax == 0.0 or not math.isfinite(ax):
        return None
    qf = float(q)
    e = 2 * round(math.log(ax) / math.log(qf) / 2.0)
    if abs(ax / qf**e - 1.0) < 1e-12:
        return e, (1 if float(x) > 0 else -1)
    return None


@lru_cache(maxsize=16)
def _weight_factors(l, m, qkey, dps):
    """The x-independent factors of P~_l's multiprecision weight at (l, m,
    q, dps), as libmp tuples: (u^2, the normalization constant)."""
    u2_mm, norm = _snorm_mp_cached(m, qkey, dps)
    return (u2_mm if l == m else _u2(l, m, qkey, dps)), norm


@lru_cache(maxsize=64)
def _coupling(l, m, qkey, dps):
    """The coupling of degrees l and l + 1 at dps digits as a libmp tuple,
    the mpf expression _recurrence_coeff: check_recurrence reads it as the
    up coefficient at l and as the down one at l + 1."""
    with mp.workdps(dps):
        q = mp.mpf(qkey)
        return _recurrence_coeff(l, m, partial(_qnum, q=q,
                                               lam=_lam(q)))._mpf_


@lru_cache(maxsize=16)
def _shell(l, qkey, dps):
    """check_difference's shell (q**(2l+1) + q**(-2l-1)) / q at dps digits,
    the mpf expression's value as a libmp tuple; it does not depend on m."""
    prec = dps_to_prec(dps)
    q = from_float(qkey, prec, _RN)
    return _div(_add(_pow(q, 2 * l + 1, prec), _pow(q, -2 * l - 1, prec),
                     prec), q, prec)


_Order = namedtuple("_Order", "qm1 centre q4m c_in c_out q4 q4j")


@lru_cache(maxsize=64)
def _order(m, qkey, dps):
    """The q-powers of order m that the checks and the radicand read, at dps
    digits as libmp tuples, each the mpf expression's value: q**(m+1),
    (q*q + 1) q**(-2(m+2)), q**(4m), q**(-2(m+1)), q**(-4(m+1)), q**-4 and
    q**(-4j), j = 0..m-1."""
    prec = dps_to_prec(dps)
    q = from_float(qkey, prec, _RN)
    centre = _add(_mul(q, q, prec), fone, prec)
    return _Order(_pow(q, m + 1, prec),
                  _mul(centre, _pow(q, -2 * (m + 2), prec), prec),
                  _pow(q, 4 * m, prec), _pow(q, -2 * (m + 1), prec),
                  _pow(q, -4 * (m + 1), prec), _pow(q, -4, prec),
                  tuple(_pow(q, k, prec) for k in range(0, -4 * m, -4)))


def _rad_at(m, x, qkey, dps):
    """_rad at the libmp tuple x and dps digits, on libmp tuples: the mpf
    expression's value, with the bound _RAD_ULPS mp.eps."""
    o, prec = _order(m, qkey, dps), dps_to_prec(dps)
    bound = mpf_mul_int((0, 1, 1 - prec, 1), _RAD_ULPS, prec, _RN)
    x2q = _mul(_mul(x, x, prec), o.q4m, prec)
    r = fone
    for qj in o.q4j:
        f = _sub(fone, _mul(x2q, qj, prec), prec)
        if mpf_le(mpf_abs(f), bound):
            return fzero
        r = _mul(r, f, prec)
    if mpf_lt(r, fzero):
        raise DomainError(
            f"argument {to_float(x, rnd=_RN)} outside the weight support "
            f"for m={m}")
    return r


@lru_cache(maxsize=4)
def _sum_terms(l, m, qkey, dps):
    """The factors of _sum_factors at dps digits, the record every
    multiprecision sum reads: per term k = 0..l-m, base**(k-1), the
    sign-power, the denominator Pochhammer and the three q-binomials, each
    a libmp tuple with the mpf expression's value, bit for bit."""
    prec = dps_to_prec(dps)
    q = from_float(qkey, prec, _RN)
    base = _pow(q, -2, prec)
    shift = _pow(q, -2 * (m + 1), prec)
    bk = pochd = fone
    terms = []
    for k in range(l - m + 1):
        if k:
            bk = _pow(base, k - 1, prec)
            pochd = _mul(pochd, _add(fone, _mul(shift, bk, prec), prec), prec)
        sign = _pow(q, -k * (m + 1), prec)
        terms.append((bk, mpf_neg(sign) if k % 2 else sign, pochd,
                      _qbin(l - m, k, qkey, dps),
                      _qbin(l + m + k, k, qkey, dps),
                      _qbin(m + k, k, qkey, dps)))
    return tuple(terms)


_Node = namedtuple("_Node", "x poch")     # an mpf point, a list of tuples
_Value = namedtuple("_Value", "dps v")     # a libmp tuple and its dps


@lru_cache(maxsize=1024)
def _node(e, sigma, qkey, dps):
    """The l-independent record of the lattice node sigma q^e at dps
    digits: the point and the prefix list of its Pochhammer products
    (x; q^-2)_k, which _node_poch extends."""
    with mp.workdps(dps):
        return _Node(sigma * mp.mpf(qkey)**e, [fone])


def _node_poch(node, terms):
    """node.poch through the last index of terms, extended in place under
    _QFACT_LOCK (re-reading the length inside it); the factor 1 - x b_k
    reads b_k = q**(-2(k-1)) from the terms, the same value in every (l, m)
    record of this (q, dps).  Call under mp.workdps(dps): the products run
    on libmp tuples at the ambient precision."""
    poch = node.poch
    if len(poch) < len(terms):
        with _QFACT_LOCK:
            prec, x, r = mp.mp.prec, node.x._mpf_, poch[-1]
            for bk, *_ in terms[len(poch):]:
                r = _mul(r, _sub(fone, _mul(x, bk, prec), prec), prec)
                poch.append(r)
    return poch


@lru_cache(maxsize=1024)
def _node_rad(m, e, qkey, dps):
    """_rad_at at the nodes +-q^e and dps digits.  It reads only x^2, so
    both signs share it."""
    return _rad_at(m, _node(e, 1, qkey, dps).x._mpf_, qkey, dps)


@lru_cache(maxsize=64)
def _weight_at(l, m, rad, qkey, dps):
    """weight_w at dps digits from the tuple rad of _rad_at: the mpf
    expression mp.sqrt(u^2 * rad / norm) at dps digits, on libmp tuples,
    shared by both signs and by equal radicands."""
    u2, norm = _weight_factors(l, m, qkey, dps)
    prec = dps_to_prec(dps)
    return mpf_sqrt(_div(_mul(u2, rad, prec), norm, prec), prec, _RN)


def _weighted(l, m, p, rad, qkey):
    """The record (dps, P~_l) from the record p = (dps, P) at x and the
    radicand rad of _rad_at(m, x) at p.dps digits: the mpf expression
    p.v * _weight_at(...), on libmp tuples."""
    w = _weight_at(l, m, rad, qkey, p.dps)
    return _Value(p.dps, _mul(p.v, w, dps_to_prec(p.dps)))


def _sum_dps(l, m, t, q):
    """The dps every multiprecision direct sum of P_lm at |x| = q**t starts
    at: the estimated cancellation, 2.2 l^2 log10 q digits and, for an odd
    degree, the -t log10 q more that P ~ x cancels at |x| < 1, plus _GUARD,
    rounded up to a multiple of _STEP; at l = m, with no sum, _GUARD."""
    lost = 0 if l == m else 2.2 * l * l
    if (l - m) % 2 and -math.inf < t < 0:
        lost -= t
    return _STEP * math.ceil((lost * math.log10(q) + _GUARD) / _STEP)


def _p_value(l, m, lift, t, qkey):
    """The record (dps, P_lm) at |x| = q**t over the point records lift(dps),
    by the one rule: summed from _sum_dps digits, doubled while the sum keeps
    fewer than _KEEP digits of its largest term (an exact 0 keeps none unless
    all terms vanish), PrecisionError after 6 sums."""
    dps = start = _sum_dps(l, m, t, qkey)
    if l == m or ((l - m) % 2 and t == -math.inf):   # 1, and an odd P at 0
        return _Value(dps, fone if l == m else fzero)
    for _ in range(6):
        with mp.workdps(dps):
            point = lift(dps)
            s, worst = _p_sum_at(point, _sum_terms(l, m, qkey, dps))
            if _keeps(s, worst, dps, mp.mp.prec):
                return _Value(dps, s)
        dps *= 2
    raise PrecisionError(
        f"p_lm({l}, {m}, {float(point.x)}) at q={qkey} did not converge "
        f"between {start} and {dps // 2} digits")


def _keeps(s, worst, dps, prec):
    """The stopping test of _p_value on libmp tuples, worst == 0 or (s != 0
    and worst < |s| 10**(dps - _KEEP)) with mpf operators at prec bits."""
    return worst == fzero or (s != fzero and mpf_lt(worst, mpf_mul_int(
        mpf_abs(s, prec, _RN), 10**(dps - _KEEP), prec, _RN)))


@lru_cache(maxsize=64)
def _p_node(l, m, e, sigma, qkey):
    """The record (dps, P_lm) at the lattice node sigma q^e, summed over the
    node records _node.  p_lm reads it, and _ptilde_node right after."""
    return _p_value(l, m, partial(_node, e, sigma, qkey), e, qkey)


@lru_cache(maxsize=4096)
def _ptilde_node(l, m, e, sigma, qkey):
    """The record (dps, P~_l) of order m at the lattice node sigma q^e: its
    P times the weight, at the dps of P.  The identity checks reach each
    (l, m, node) from up to six calls, so each is summed once."""
    p = _p_node(l, m, e, sigma, qkey)
    return _weighted(l, m, p, _node_rad(m, e, qkey, p.dps), qkey)


def _exponent(x, qkey):
    """t with |x| = q**t (-inf at 0), from the binary exponent of x."""
    if not x:
        return -math.inf
    y, n = mp.frexp(x)
    return (math.log10(abs(float(y))) + n * math.log10(2)) / math.log10(qkey)


def _transient(x, qkey, step=0):
    """A lift of x q^(2 step), step in {-1, 0, 1}: dps -> a point record at
    dps digits, which nothing caches."""
    def lift(dps):
        with mp.workdps(dps):
            xx = mp.mpf(x)
            if step:
                q2 = mp.mpf(qkey)**2
                xx = xx * q2 if step > 0 else xx / q2
            return _Node(xx, [fone])
    return lift


def _reader(x, m, qkey):
    """(t, lift, read) at x: |x| = q**t, lift(dps) the point record of x,
    read(l, step) the record (dps, P~_l) at x q^(2 step), step in {-1, 0, 1}.
    A near-lattice x is its node (e, sigma) (_snap_lattice), t = e, and read
    reads the nodes e + 2 step; any other x is a transient point."""
    snap = _snap_lattice(x, qkey)
    if snap is not None:
        e, sigma = snap
        return (e, partial(_node, e, sigma, qkey),
                lambda l, step=0: _ptilde_node(l, m, e + 2 * step, sigma,
                                               qkey))
    t = _exponent(x, qkey)

    def read(l, step=0):
        lift = _transient(x, qkey, step)
        p = _p_value(l, m, lift, t + 2 * step, qkey)
        rad = _rad_at(m, lift(p.dps).x._mpf_, qkey, p.dps)
        return _weighted(l, m, p, rad, qkey)
    return t, _transient(x, qkey), read


def _check_args(m, x):
    """DomainError unless the order m is >= 0 and the argument x finite."""
    if m < 0:
        raise DomainError(f"order m must be >= 0, got {m}")
    if not math.isfinite(float(x)):
        raise DomainError(f"argument must be finite, got {float(x)}")


_mpf = mp.make_mpf         # an mpf around a libmp tuple, as the operators make


def _public(v, ctx, name, l, m, x):
    """The tuple v of name(l, m, x) as a public value: an mpf in extended
    mode, else float(mpf)'s rounding, a PrecisionError beyond binary64."""
    if ctx.is_extended:
        return _mpf(v)
    f = to_float(v, rnd=_RN)
    if not math.isfinite(f):
        raise PrecisionError(f"{name}({l}, {m}, {float(x)}) at q="
                             f"{float(ctx.q)} leaves the binary64 range")
    return f


def _raw(v):
    """The libmp tuple of an mpf, or the exact value of a float, as the mpf
    operators convert one."""
    return v._mpf_ if isinstance(v, mp.mpf) else from_float(float(v))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def p_lm(l: int, m: int, x, ctx: QContext):
    """Associated big q-Jacobi polynomial of degree l - m in x.

    Defined for m >= 0; identically 0 for l < m.  The explicit finite sum,
    in binary64 while it cancels less than _CANCEL_OK, else and in extended
    mode by the multiprecision rule, at the exact node for a near-lattice
    argument: the value p_tilde reads.
    """
    _check_args(m, x)
    if l < m or (x == 0 and (l - m) % 2):
        return _zero(ctx)             # an odd polynomial vanishes at 0 exactly
    # degree 0: the one-term sum is exactly 1, also where its binary64
    # q-binomials overflow to inf / inf
    if l == m:
        return mp.mpf(1) if ctx.is_extended else 1.0
    qkey = float(ctx.q)
    if not ctx.is_extended:
        s, worst = _p_sum(l, m, float(x), qkey)
        if math.isfinite(s) and math.isfinite(worst) and (
                worst == 0 or (s != 0 and worst / abs(s) < _CANCEL_OK)):
            return s
    snap = _snap_lattice(x, qkey)
    if snap is None:
        p = _p_value(l, m, _transient(x, qkey), _exponent(x, qkey), qkey)
    else:
        p = _p_node(l, m, *snap, qkey)
    return _public(p.v, ctx, "p_lm", l, m, x)


@_at_ctx_dps
def weight_w(l: int, m: int, x, ctx: QContext):
    """Orthonormalizing weight for p_lm on the lattice +-q^(2(n-m-1)), n <= 0.

    The l-dependent scale is q^(l(l+1)/2) sqrt([l+m]! [2l+1] / [l-m]!) and the
    constant makes the degree-m member a unit vector on the lattice (closed
    form).  Raises DomainError off the support (negative radicand beyond
    rounding), and in binary64 PrecisionError where the weight, or the
    radicand product behind it, leaves the binary64 range; a weight below
    1e-250 reads 0.
    """
    _check_args(m, x)
    if l < m:
        raise DomainError(f"weight defined for l >= m, got l={l}, m={m}")
    if ctx.is_extended:
        rad = _rad_at(m, mp.mpf(x)._mpf_, float(ctx.q), ctx.dps)
        return _mpf(_weight_at(l, m, rad, float(ctx.q), ctx.dps))
    q = float(ctx.q)
    r = _rad(m, float(x), q)        # DomainError or PrecisionError first
    f, k = _weight_scale(l, m, q)
    w = _ldexp(math.sqrt(f * r), k)
    if not math.isfinite(w):        # inf also when the radicand overflows
        raise PrecisionError(
            f"weight_w({l}, {m}, {float(x)}) at q={q} leaves the binary64 "
            f"range")
    return w if w >= _WEIGHT_MIN else 0.0


def p_tilde(l: int, m: int, x, ctx: QContext):
    """Weighted function w * P; the q-deformed associated Legendre function.

    Returns 0 for l < m.  Arguments within 1e-12 of a lattice point are
    evaluated at the exact lattice point (the function's off-lattice
    continuation is exponentially steep at large degree, so the rounded
    argument is treated as naming the node).  Internally escalates to
    multiprecision whenever cancellation or binary64 range demands it.
    """
    _check_args(m, x)
    if l < m:
        return _zero(ctx)
    q = float(ctx.q)
    if not ctx.is_extended:
        # validate support (and surface DomainError) in double first, unless
        # q**(4m) leaves binary64 (amplification > 150 m): the route below does
        try:
            r = float(_rad(m, float(x), q))
        except PrecisionError:
            r = math.nan
        if r == 0.0:
            return 0.0
        amplification = 2.0 * l * l * math.log10(q)
        if _snap_lattice(x, q) is None and amplification < 13.0:
            p = p_lm(l, m, x, ctx)
            if p == 0.0:
                return 0.0
            f, k = _weight_scale(l, m, q)
            v = _ldexp(math.sqrt(f * r) * p, k)
            if 2.0**-1022 <= abs(v) < math.inf:     # a normal number
                return v
    _, _, read = _reader(x, m, q)
    return _public(read(l).v, ctx, "p_tilde", l, m, x)


def _recurrence_coeff(l, m, qn):
    """sqrt([l-m+1][l+m+1] / ([2l+1][2l+3])), qn(a) = [a]: the coupling of
    degrees l and l+1 in the recurrence (the up coefficient at l, the down
    one at l+1) and, times r0 q^(2M+m), the X3 element <l+1, m|X3|l, m>.
    Generic over float, mpf and arrays of l and m (qn indexing a table)."""
    return _sqrt_any(qn(l - m + 1) * qn(l + m + 1)
                     / (qn(2 * l + 1) * qn(2 * l + 3)))


def _check_chain(l, m):
    """DomainError unless m >= 0 and the degree l is on the chain l >= m."""
    if m < 0 or l < m:
        raise DomainError(
            f"the degree chain needs m >= 0 and l >= m, got l={l}, m={m}")


@_at_ctx_dps
def recurrence_coeff_up(l: int, m: int, ctx: QContext):
    """Coefficient of the degree-(l+1) member in the three-term recurrence."""
    _check_chain(l, m)
    return ctx.out(_recurrence_coeff(l, m, partial(_qnum, q=ctx.qval())))


@_at_ctx_dps
def recurrence_coeff_down(l: int, m: int, ctx: QContext):
    """Coefficient of the degree-(l-1) member; zero at the bottom l = m."""
    _check_chain(l, m)
    if l == m:
        return _zero(ctx)
    return ctx.out(_recurrence_coeff(l - 1, m, partial(_qnum, q=ctx.qval())))


def _sqrt_any(v):
    if isinstance(v, mp.mpf):
        return mp.sqrt(v)
    return np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)


def p_tilde_table(l_max: int, m: int, x, ctx: QContext):
    """P~_l(x) for l = 0..l_max via the three-term recurrence in l.

    At lattice arguments where the upward recurrence is not contractive the
    wanted column is the minimal solution, so it comes from a downward pass
    normalized at l = m (Gautschi 1967); in binary64 that pass keeps a
    binary exponent per entry.  Everywhere else the recurrence runs upward:
    off the lattice P~ is the dominant solution, and at x = 0 every odd
    degree is +0.  Extended tables are computed at ctx.dps whatever the
    ambient mpmath precision.
    """
    _check_args(m, x)
    return list(_table_cached(l_max, m, x, ctx))


_MAX_DELTA = 2000         # overshoot cap of the downward pass


@lru_cache(maxsize=65536)
@_at_ctx_dps
def _table_cached(l_max, m, x, ctx):
    seed = weight_w(m, m, x, ctx) if m <= l_max else 0
    if seed == 0:
        return (_zero(ctx),) * (l_max + 1)
    if x == 0:          # every odd degree is +0, whatever zero it rounds to
        return tuple(v if (l - m) % 2 == 0 else _zero(ctx)
                     for l, v in enumerate(_table_up(l_max, m, x, seed, ctx)))
    q = float(ctx.q)
    lx, lq = math.log10(abs(float(x))), math.log10(q)
    # the step at degree l gains max(0.0, lx + (l + m + 2) lq) decades,
    # written v if v > 0.0 else 0.0, the value max() returns
    log_gain = sum(v if (v := lx + (l + m + 2) * lq) > 0.0 else 0.0
                   for l in range(m, l_max))
    if log_gain < 4.0 or _snap_lattice(x, q) is None:
        return tuple(_table_up(l_max, m, x, seed, ctx))
    # smallest even overshoot delta >= 4 whose steps gain 26 decades
    delta = 4
    gain = sum(v if (v := lx + (l + m + 2) * lq) > 0.0 else 0.0
               for l in range(l_max, l_max + delta))
    while gain < 26.0:
        if delta >= _MAX_DELTA:
            raise PrecisionError(
                f"downward recurrence at x={float(x)}, m={m}, l_max={l_max} "
                f"needs an overshoot beyond {_MAX_DELTA} degrees")
        for l in (l_max + delta, l_max + delta + 1):
            v = lx + (l + m + 2) * lq
            gain += v if v > 0.0 else 0.0
        delta += 2
    return tuple(_table_down(l_max, m, x, seed, ctx, delta))


@lru_cache(maxsize=256)
def _coeff_lists(m, ctx):
    """The list of recurrence_coeff_up by degree l (zero below m), shared by
    every table of this (m, ctx).  The coupling of degrees l - 1 and l is
    both the up coefficient at l - 1 and the down coefficient at l, so the
    tables read recurrence_coeff_down(l) as up[l - 1].

    _coeffs_through extends it in place, so it never runs past the highest
    degree a table has asked for.
    """
    return [_zero(ctx)] * m


def _coeffs_through(top, m, ctx):
    """The coefficient list covering at least the degrees m..top.

    Both tables divide by these coefficients.  In binary64 they underflow
    to 0 (or turn NaN) once the q-number products overflow, and the q-powers
    themselves overflow later still (an OverflowError, read as an infinite
    q-number); either is a PrecisionError at the first degree it reaches,
    raised here as the list grows so the recurrence loops stay unchecked.
    An extension computes each q-number [a] of its degrees once, into a
    table that recurrence_coeff_up's expression reads.
    """
    up = _coeff_lists(m, ctx)
    if len(up) > top:
        return up
    # an extended list at ctx.dps; a binary64 one ignores the digits
    with _QFACT_LOCK, mp.workdps(ctx.dps or mp.mp.dps):
        lo = len(up)                # a racing extender would append twice
        q = ctx.qval()
        lam = _lam(q)
        qn = {}
        for a in sorted({a for l in range(lo, top + 1) for a in
                         (l - m + 1, l + m + 1, 2 * l + 1, 2 * l + 3)}):
            try:
                qn[a] = _qnum(a, q, lam)
            except OverflowError:
                qn[a] = math.inf
        for l in range(lo, top + 1):
            cu = _recurrence_coeff(l, m, qn.__getitem__)
            if not (ctx.is_extended or 0 < cu < math.inf):
                raise PrecisionError(
                    f"recurrence coefficients at degree {l} (m={m}, "
                    f"q={float(ctx.q)}) leave the binary64 range")
            up.append(cu)
    return up


def _raw_xq(x, m, ctx, prec):
    """x q^(m+1), the argument of both recurrences, as a libmp tuple."""
    return _mul(_raw(x), _pow(ctx.qval()._mpf_, m + 1, prec), prec)


def _table_up(l_max, m, x, seed, ctx):
    up = _coeffs_through(l_max - 1, m, ctx)
    if ctx.is_extended:
        col = _raw_up(l_max, m, x, seed, ctx, up, mp.mp.prec)
        return [_mpf(v) for v in col]
    vals = [0.0] * (l_max + 1)
    vals[m] = seed
    xq = x * ctx.qval()**(m + 1)
    if m + 1 <= l_max:
        vals[m + 1] = xq * seed / up[m]
    for l in range(m + 1, l_max):
        vals[l + 1] = (xq * vals[l] - up[l - 1] * vals[l - 1]) / up[l]
    # an inf or NaN carries upward, so the top entry shows any
    if not math.isfinite(vals[l_max]):
        raise PrecisionError(
            f"upward recurrence at x={float(x)}, m={m} leaves the binary64 "
            f"range below degree l_max={l_max}")
    return vals


def _raw_up(l_max, m, x, seed, ctx, up, prec):
    """The extended upward column as libmp tuples: the binary64 branch's
    operations in its order, each rounded to nearest at prec bits."""
    c = [v._mpf_ for v in up]
    xq = _raw_xq(x, m, ctx, prec)
    vals = [fzero] * (l_max + 1)
    vals[m] = seed._mpf_
    if m + 1 <= l_max:
        vals[m + 1] = _div(_mul(xq, vals[m], prec), c[m], prec)
    for l in range(m + 1, l_max):
        t = _sub(_mul(xq, vals[l], prec), _mul(c[l - 1], vals[l - 1], prec),
                 prec)
        vals[l + 1] = _div(t, c[l], prec)
    return vals


def _table_down(l_max, m, x, seed, ctx, delta):
    L = l_max + delta
    up = _coeffs_through(L, m, ctx)
    if ctx.is_extended:
        col = _raw_down(l_max, m, x, seed, ctx, up, L, mp.mp.prec)
        return [_mpf(v) for v in col]
    vals = [0.0] * (l_max + 1)
    v = [0.0] * (L + 2)
    exps = [0] * (L + 2)    # the column is v[l] 2**exps[l]
    v[L] = 1.0
    xq = x * ctx.qval()**(m + 1)
    for l in range(L, m, -1):
        vl1 = v[l + 1]
        if exps[l + 1] != exps[l]:
            vl1 = math.ldexp(vl1, exps[l + 1] - exps[l])
        nxt = (xq * v[l] - up[l] * vl1) / up[l - 1]
        exps[l - 1] = exps[l]
        if abs(nxt) > 2.0**664:
            nxt, e = math.frexp(nxt)
            exps[l - 1] += e
        v[l - 1] = nxt
    if v[m] == 0:
        return vals
    fm, em = math.frexp(v[m])
    ratio = seed / fm
    for l in range(m, l_max + 1):
        f, e = math.frexp(v[l])
        w = math.ldexp(f * ratio, e + exps[l] - exps[m] - em)
        if abs(w) >= _TABLE_MIN:     # else +0.0, at both signs of x
            vals[l] = w
    return vals


def _raw_down(l_max, m, x, seed, ctx, up, L, prec):
    """The extended downward column from degree L as libmp tuples, scaled
    to the seed at l = m; no rescaling is needed, since an mpf exponent has
    no range."""
    c = [v._mpf_ for v in up]
    xq = _raw_xq(x, m, ctx, prec)
    v = [fzero] * (L + 2)
    v[L] = fone
    for l in range(L, m, -1):
        t = _sub(_mul(xq, v[l], prec), _mul(c[l], v[l + 1], prec), prec)
        v[l - 1] = _div(t, c[l - 1], prec)
    if v[m] == fzero:
        return [fzero] * (l_max + 1)
    ratio = _div(seed._mpf_, v[m], prec)
    return [fzero] * m + [_mul(v[l], ratio, prec)
                          for l in range(m, l_max + 1)]


# ---------------------------------------------------------------------------
# identity checks (evaluated end-to-end in multiprecision so the reported
# residual measures the identity, not binary64 input rounding)
# ---------------------------------------------------------------------------

def check_recurrence(l: int, m: int, x, ctx: QContext):
    """Relative residual of the three-term recurrence in l at the point x;
    DomainError at x = 0 with l - m even, where it reads 0 = 0."""
    _check_args(m, x)
    _check_chain(l, m)
    if x == 0 and (l - m) % 2 == 0:
        raise DomainError(f"the recurrence at x = 0 is 0 = 0, l - m = {l - m}")
    qkey = float(ctx.q)
    _, lift, read = _reader(x, m, qkey)
    here, up = read(l), read(l + 1)
    down = read(l - 1) if l > m else None
    dps = max(here.dps, up.dps, down.dps if down else 0)
    prec, x = dps_to_prec(dps), lift(dps).x._mpf_
    lhs = _mul(_mul(x, _order(m, qkey, dps).qm1, prec), here.v, prec)
    rhs = _mul(_coupling(l, m, qkey, dps), up.v, prec)
    if down is not None:
        rhs = _add(rhs, _mul(_coupling(l - 1, m, qkey, dps), down.v, prec),
                   prec)
    return _residual(lhs, rhs, prec)


def check_difference(l: int, m: int, x, ctx: QContext):
    """Relative residual of the q-difference identity linking x, x q^2, x/q^2.

    On the support both square-root coefficients carry an overall minus sign
    (each radicand is a product of two negative factors).  A coefficient
    enters where its radicand is positive, judged on t, |x| = q**t.
    DomainError at x = 0, where x q^(+-2) = x and the identity degenerates.
    """
    _check_args(m, x)
    _check_chain(l, m)
    if x == 0:
        raise DomainError("the q-difference identity degenerates at x = 0")
    qkey = float(ctx.q)
    t, lift, read = _reader(x, m, qkey)
    # (1 - x^2)(1 - x^2 q^4m) and (q^-4(m+1) - x^2)(q^-4 - x^2) are > 0
    here = read(l)
    inner = read(l, -1) if t < -2 * m or t > 0 else None
    outer = read(l, 1) if t < -2 * (m + 1) or t > -2 else None
    dps = max(here.dps, inner.dps if inner else 0,
              outer.dps if outer else 0)
    prec, xx = dps_to_prec(dps), lift(dps).x._mpf_
    x2 = _mul(xx, xx, prec)
    c_in, c_out = _roots(m, x2, qkey, dps, bool(inner), bool(outer))
    lhs = _mul(_sub(_mul(_shell(l, qkey, dps), x2, prec),
                    _order(m, qkey, dps).centre, prec), here.v, prec)
    rhs = fzero
    if inner:
        rhs = _sub(rhs, _mul(c_in, inner.v, prec), prec)
    if outer:
        rhs = _sub(rhs, _mul(c_out, outer.v, prec), prec)
    return _residual(lhs, rhs, prec)


@lru_cache(maxsize=128)
def _roots(m, x2, qkey, dps, inner, outer):
    """check_difference's coefficients at x2 = x^2, dps digits, for both
    signs and every degree: q**(-2(m+1)) sqrt((1 - x^2)(1 - x^2 q^4m)) if
    inner, sqrt((q^-4(m+1) - x^2)(q^-4 - x^2)) if outer, else False.
    Each radicand is positive where it enters: its bounds on t are even
    exponents, the lattice nodes an argument near them snaps to."""
    o = _order(m, qkey, dps)
    prec = dps_to_prec(dps)
    mul = partial(_mul, prec=prec)
    sub = partial(_sub, prec=prec)
    root = partial(mpf_sqrt, prec=prec, rnd=_RN)
    return (inner and mul(o.c_in, root(mul(sub(fone, x2),
                                           sub(fone, mul(x2, o.q4m))))),
            outer and root(mul(sub(o.c_out, x2), sub(o.q4, x2))))


def _residual(lhs, rhs, prec):
    """float(abs(lhs - rhs) / max(1, abs(lhs))) for the libmp tuples lhs and
    rhs, with mpf operators at prec bits: the checks' relative residual."""
    den = mpf_abs(lhs, prec, _RN)
    if not mpf_gt(den, fone):
        den = fone
    return to_float(_div(mpf_abs(_sub(lhs, rhs, prec), prec, _RN), den, prec),
                    rnd=_RN)


# ---------------------------------------------------------------------------
# lattice sums: entries of the Gram products of one lattice matrix
# ---------------------------------------------------------------------------

def _lattice_matrix(m, mts, l_values, ctx):
    """The order-m lattice matrix: a row per site (sigma, m_t) of
    _doubled_rows over mts, without the phase, a column per degree of
    l_values; binary64, or mpfs in extended mode.  The degrees |m|..l_max
    of a completeness sum are none when l_max < |m|: a DomainError."""
    if not l_values:
        raise DomainError(f"l_max must be >= |m| = {abs(m)}")
    return np.array(_doubled_rows(m, mts, l_values, ctx.qval(), ctx, False),
                    dtype=object if ctx.is_extended else float)


@_at_ctx_dps
def _ortho_gram(ls, m, ctx, n_min):
    """U^T U over the degrees ls (ascending) of the lattice matrix U on the
    nodes n = n_min..0 of order m: the truncated orthonormality sums."""
    if m < 0:
        raise DomainError(f"order m must be >= 0, got {m}")
    if n_min > 0:
        raise DomainError("n_min must be <= 0")
    if ls[0] < 0:           # a table read at -1 would be its top degree
        raise DomainError(f"degrees must be >= 0, got {ls[0]}")
    U = _lattice_matrix(m, range(n_min, 1), ls, ctx)
    return U.T @ U


def orthonormality_sum(l: int, lp: int, m: int, ctx: QContext, n_min: int = -60):
    """Truncated lattice orthonormality sum; tends to delta_{l,l'} as
    n_min -> -infinity (geometric tail with ratio q^-2).

    The product of the columns l and l' of the lattice matrix on the nodes
    n = n_min..0 (_ortho_gram).
    """
    ls = sorted({l, lp})
    return ctx.out(_ortho_gram(ls, m, ctx, n_min)[ls.index(l), ls.index(lp)])


@_at_ctx_dps
def completeness_sum(nu: int, nup: int, sigma: int, sigmap: int, m: int,
                     ctx: QContext, l_max: int = 40):
    """Truncated completeness sum over degrees l <= l_max.

    Tends to delta_{nu,nu'} delta_{sigma,sigma'} as l_max grows, for lattice
    labels nu, nu' <= min(m, 0).  The identity is numerically supported on
    nu <= -|m|; basistrans.completeness_check reports the observed
    convergence profile.  The product of the lattice matrix's rows at the
    sites (sigma, nu + max(m, 0)) and (sigma', nu' + max(m, 0)).
    """
    if sigma not in (1, -1) or sigmap not in (1, -1):
        raise DomainError("sigma labels must be +1 or -1")
    top = min(m, 0)
    if nu > top or nup > top:
        raise DomainError(f"nu labels must be <= min(m, 0) = {top}")
    a, b = nu + max(m, 0), nup + max(m, 0)
    U = _lattice_matrix(m, [a, b], range(abs(m), l_max + 1), ctx)
    # the rows of U are the sites (1, a), (1, b), (-1, a), (-1, b)
    return ctx.out(U[1 - sigma] @ U[2 - sigmap])


# ---------------------------------------------------------------------------
# caches
# ---------------------------------------------------------------------------

def clear_caches():
    """Empty every cache of qarith and qspecial, the q-factorial prefix
    lists and the recurrence-coefficient lists included.  Values computed
    afterwards are bit-identical to cached ones; only the time differs."""
    for cache in (_qfact_cached, _qfact_list, _pow, _weight_scale,
                  _snorm_mp_cached, _weight_factors, _coupling, _shell,
                  _order, _sum_terms, _node, _node_rad, _weight_at, _p_node,
                  _ptilde_node, _roots, _table_cached, _coeff_lists):
        cache.cache_clear()
