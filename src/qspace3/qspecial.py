"""Big q-Jacobi polynomials, the q-deformed associated Legendre functions,
and their recurrence, difference, orthonormality and completeness identities.

Evaluation strategy
-------------------
The polynomial sum alternates with terms up to ~q**(l*l - m*m) while the value
at a lattice point is exponentially small, so binary64 loses roughly
2*l*l*log10(q) digits to cancellation.  p_lm therefore escalates to multi-
precision transparently whenever its binary64 sum cancels more than
_CANCEL_OK allows.  It starts at 30 digits plus the loss the binary64 sum
measures, max|t_k|/|s|, while that loss is below _CANCEL_RESOLVED (1e15,
about 1/(4.5 eps)); beyond it, or where the sum overflows, the ratio reads
rounding noise and the start is _cancel_dps, the dps p_tilde uses at the
same point.  The precision doubles until the sum keeps 18 digits.  Whole
columns P~_l(x), l = 0..l_max, are produced by the three-term recurrence in l:
at lattice arguments where it is not contractive by a downward
(minimal-solution) pass with rescaling, otherwise upward.  The recurrence
coefficients are computed once per (m, ctx), up to the highest degree
needed so far.

Every evaluation reads bounded records, each value computed by the
expression an inline evaluation uses, so values are bit-identical to one.
In binary64 the x-independent record is _log_norm (4096 entries): log10 of
u^2 and of the normalization.  In multiprecision there are two
x-independent records per (l, m, q, dps): _ptilde_factors (16 entries:
u^2, the normalization, the couplings to degrees l -+ 1 and the q-powers
of the identity checks) and _sum_terms (8 entries: the direct sum's
terms); u^2 at l = m and the normalization's closed-form core are one
record per (m, q, dps), _snorm_mp_cached.

Every direct sum is one kernel, _p_sum_at, over a point record _Node: the
point x and the prefix list of its Pochhammer products (x; q^-2)_k.  Every
multiprecision P~ is one function of a point record and its radicand,
_ptilde_at, and at l = m, where the sum is exactly 1, it is the weight
without the sum.  A lattice node sigma q^e (_snap_lattice) is the record
_node per (e, sigma, q, dps), with a radicand per (m, e, q, dps),
_node_rad, and P~ per (l, m, e, sigma, q, dps), _ptilde_node.  p_lm's
escalation at a node sums over the node record too, so a binary64 p_lm
and p_tilde at one node share one _node, one _sum_terms record and one
q-factorial list.  Any other point record is transient and nothing caches
it: the binary64 sums and every multiprecision sum off the lattice.
p_tilde's multiprecision route and both identity checks read P~ through
_reader, the q-difference neighbours of a node as the nodes e -+ 2, so
each (l, m, node, dps) is lifted once and summed once.  The checks still
sum every P~ directly, so they test the recurrence rather than restate
it.  The q-factorials are one prefix list per (q, dps).  clear_caches()
empties every cache of this module and of qarith.

The coefficient lists, the q-factorial prefix lists and the nodes'
Pochhammer lists are extended under one lock, qarith._QFACT_LOCK, which
re-reads the length inside it, so threads sharing a list never append an
entry twice.  Readers take no lock: an entry, once appended, never
changes.

The weight normalization is fixed so the lattice orthonormality sum equals
delta_{l,l'}; the l-independent constant comes from the degree-m lattice sum
in closed form (elementary-symmetric expansion).
"""

import math
from collections import namedtuple
from functools import lru_cache, partial

import mpmath as mp
import numpy as np

from .context import QContext
from .errors import DomainError, PrecisionError
from .qarith import _qnum, _qbin, _qfact_cached, _qfact_list, _QFACT_LOCK

__all__ = [
    "p_lm", "weight_w", "p_tilde", "p_tilde_table",
    "check_recurrence", "check_difference",
    "orthonormality_sum", "completeness_sum",
    "recurrence_coeff_up", "recurrence_coeff_down", "clear_caches",
]

_LOG_CAP = 250.0          # |log10| beyond which binary64 products are unsafe
_CANCEL_OK = 1e2          # direct-sum cancellation accepted in binary64
_CANCEL_RESOLVED = 1e15   # ~1/(4.5 eps): beyond it no binary64 digit is left
_EPS = 2.0**-52           # binary64 machine epsilon
_RAD_ULPS = 8             # rounding bound of a _rad factor, in epsilons


# ---------------------------------------------------------------------------
# generic kernels (operate on float or mpf alike)
# ---------------------------------------------------------------------------

def _p_sum(l, m, x, q):
    """Binary64 evaluation of the degree (l-m) polynomial sum at a
    transient point record.

    Returns (value, max_abs_term) so callers can judge cancellation.
    """
    return _p_sum_at(_Node(x, [1 + 0 * x]), tuple(_sum_factors(l, m, q, 0)))


def _sum_factors(l, m, q, dps):
    """The x-independent factors of each term k = 0..l-m of the direct sum:
    base**(k-1), the sign-power (-1)**k q**(-k(m+1)), the denominator
    Pochhammer and the three q-binomials, one tuple per term."""
    base = q**-2
    shift = q**(-2 * (m + 1))
    bk = pochd = 1 + 0 * q
    for k in range(l - m + 1):
        if k > 0:
            bk = base**(k - 1)
            pochd = pochd * (1 + shift * bk)
        yield (bk, (-1)**k * q**(-k * (m + 1)), pochd,
               _qbin(l - m, k, q, dps), _qbin(l + m + k, k, q, dps),
               _qbin(m + k, k, q, dps))


def _p_sum_at(point, terms):
    """The direct sum at the point record over the per-term factors terms
    of _sum_factors, with (x; q^-2)_k read from the point's Pochhammer list
    (_node_poch): (value, max_abs_term).  Call under mp.workdps(dps) for an
    mpf point."""
    s = 0 * point.x
    worst = abs(s)
    for pochx, (_, sign, pochd, a, b, c) in zip(_node_poch(point, terms),
                                                terms):
        t = sign * pochx / pochd
        t = t * a * b / c
        s = s + t
        worst = max(worst, abs(t))
    if s != s:          # max() above passes over a NaN term
        worst = s
    return s, worst


def _rad(m, x, q):
    """Radicand product attached to the weight, or DomainError where it is
    negative (off the support).  A factor 1 - x^2 q^(4(m-j)) within
    _RAD_ULPS machine epsilons of zero, its rounding bound, is a zero of the
    radicand and the product is 0; every other factor, and so the product,
    has its exact sign."""
    q4m, q4j = _rad_powers(m, q)
    bound = _RAD_ULPS * (mp.eps if isinstance(x, mp.mpf) else _EPS)
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


def _rad_powers(m, q):
    """q**(4m) and q**(-4j), j = 0..m-1: the x-independent factors of _rad.
    A binary64 q**(4m) beyond the range is a PrecisionError."""
    try:
        return q**(4 * m), tuple(q**(-4 * j) for j in range(m))
    except OverflowError:
        raise PrecisionError(
            f"q**(4m) leaves the binary64 range at m={m}, q={q}; set "
            f"QSPACE3_PRECISION=extended") from None


def _log_u2(l, m, q):
    """log10 of the positive l-dependent weight factor squared."""
    t = l * (l + 1) * math.log10(q) + math.log10(_qnum(2 * l + 1, q))
    for k in range(l - m + 1, l + m + 1):
        t += math.log10(_qnum(k, q))
    return t


@lru_cache(maxsize=4096)
def _log_norm(l: int, m: int, qkey: float):
    """The binary64 record of weight_w's x-independent factors: log10 of u^2
    at (l, m) and of the normalization constant of order m."""
    return (_log_u2(l, m, qkey),
            math.log10(_snorm_core(m, qkey)) + _log_u2(m, m, qkey))


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


def _u2_mp(l, m, q):
    """u^2 factor in ambient mpmath precision."""
    t = q**(l * (l + 1)) * (q**(2 * l + 1) - q**(-2 * l - 1)) / (q - 1 / q)
    for k in range(l - m + 1, l + m + 1):
        t = t * (q**k - q**(-k)) / (q - 1 / q)
    return t


@lru_cache(maxsize=256)
def _snorm_mp_cached(m: int, qkey: float, dps: int):
    """u^2 at l = m and the closed-form core _snorm_core of order m, at dps
    digits; the normalization constant is their product."""
    with mp.workdps(dps):
        q = mp.mpf(qkey)
        return _u2_mp(m, m, q), _snorm_core(m, q)


def _lattice_point(n, m, sigma, q):
    """The order-m lattice node sigma q^(2(n-m-1)); n <= 0 on the support.
    Generic over float and mpf q."""
    return sigma * q**(2 * (n - m - 1))


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


_PtildeFactors = namedtuple("_PtildeFactors", "u2 norm c_down c_up checks")


@lru_cache(maxsize=16)
def _ptilde_factors(l, m, qkey, dps):
    """The multiprecision record of everything in P~_l's weight and its
    identity checks that does not depend on x, at (l, m, q, dps): u^2, the
    normalization constant, the couplings to degrees l - 1 (c_down, 0 at
    l = m) and l + 1 (c_up), and the q-powers of the checks (q**(m+1) of
    check_recurrence, then the six of check_difference).  The direct sum's
    terms are the record _sum_terms.  Each value is the expression it
    replaces, at dps digits; u^2 at l = m is the one _snorm_mp_cached
    holds."""
    with mp.workdps(dps):
        q = mp.mpf(qkey)
        qn = partial(_qnum, q=q)
        u2_mm, core = _snorm_mp_cached(m, qkey, dps)
        return _PtildeFactors(
            u2_mm if l == m else _u2_mp(l, m, q), core * u2_mm,
            _recurrence_coeff(l - 1, m, qn) if l > m else mp.mpf(0),
            _recurrence_coeff(l, m, qn),
            (q**(m + 1),
             (q**(2 * l + 1) + q**(-2 * l - 1)) / q,
             (q * q + 1) * q**(-2 * (m + 2)),
             q**(4 * m), q**(-2 * (m + 1)), q**(-4 * (m + 1)), q**-4))


@lru_cache(maxsize=8)
def _sum_terms(l, m, qkey, dps):
    """The terms of _sum_factors(l, m, q, dps) at dps digits, as a tuple:
    the record p_lm's escalation and p_tilde's route both sum over."""
    with mp.workdps(dps):
        return tuple(_sum_factors(l, m, mp.mpf(qkey), dps))


_Node = namedtuple("_Node", "x poch")


@lru_cache(maxsize=1024)
def _node(e, sigma, qkey, dps):
    """The l-independent record of the lattice node sigma q^e at dps
    digits: the point and the prefix list of its Pochhammer products
    (x; q^-2)_k, which _node_poch extends."""
    with mp.workdps(dps):
        x = sigma * mp.mpf(qkey)**e
        return _Node(x, [1 + 0 * x])


def _node_poch(node, terms):
    """node.poch through the last index of terms, extended in place under
    _QFACT_LOCK as the q-factorial lists are (the length is re-read inside
    the lock).  The factor 1 - x b_k reads b_k = q**(-2(k-1)) from the
    terms, the same value in every (l, m) record of this (q, dps).  Call
    under mp.workdps(dps) for an mpf point."""
    poch = node.poch
    if len(poch) < len(terms):
        with _QFACT_LOCK:
            for k in range(len(poch), len(terms)):
                poch.append(poch[-1] * (1 - node.x * terms[k][0]))
    return poch


@lru_cache(maxsize=1024)
def _node_rad(m, e, qkey, dps):
    """The radicand _rad(m, x) at the nodes +-q^e, at dps digits.  It reads
    only x^2, so both signs share it."""
    with mp.workdps(dps):
        return _rad(m, _node(e, 1, qkey, dps).x, mp.mpf(qkey))


def _weight_at(l, m, rad, qkey, dps):
    """weight_w at dps digits from its radicand rad = _rad(m, x).  Call
    under mp.workdps(dps)."""
    f = _ptilde_factors(l, m, qkey, dps)
    return mp.sqrt(f.u2 * rad / f.norm)


def _ptilde_at(l, m, point, rad, qkey, dps):
    """P~_l of order m >= 0, l >= m, at the point record whose radicand
    _rad(m, point.x) is rad, at dps digits: the direct sum times the
    weight.  Call under mp.workdps(dps)."""
    w = _weight_at(l, m, rad, qkey, dps)
    if l == m:              # the one-term sum is exactly 1
        return w
    s, _ = _p_sum_at(point, _sum_terms(l, m, qkey, dps))
    return s * w


@lru_cache(maxsize=4096)
def _ptilde_node(l, m, e, sigma, qkey, dps):
    """P~_l of order m at the lattice node sigma q^e, at dps digits.  The
    identity checks reach each (l, m, node) from up to six calls (the
    degrees l -+ 1 and the nodes e -+ 2), so each is summed once."""
    with mp.workdps(dps):
        return _ptilde_at(l, m, _node(e, sigma, qkey, dps),
                          _node_rad(m, e, qkey, dps), qkey, dps)


def _reader(x, m, qkey, dps):
    """x lifted to dps digits, and a reader (l, step) -> P~_l(x q^(2 step)),
    step in {-1, 0, 1}, l >= m.  A near-lattice x is its node (e, sigma)
    (_snap_lattice), and the reader reads the records of the nodes
    e + 2 step; any other x is summed at the rounded x q^(2 step), a
    transient point.  Call under mp.workdps(dps)."""
    xx = mp.mpf(x)
    snap = _snap_lattice(xx, qkey)
    if snap is None:
        q = mp.mpf(qkey)

        def off_lattice(l, step=0):
            arg = xx if not step else xx * q**2 if step > 0 else xx / q**2
            return _ptilde_at(l, m, _Node(arg, [1 + 0 * arg]),
                              _rad(m, arg, q), qkey, dps)
        return xx, off_lattice
    e, sigma = snap

    def at_node(l, step=0):
        return _ptilde_node(l, m, e + 2 * step, sigma, qkey, dps)
    return _node(e, sigma, qkey, dps).x, at_node


def _log_weight(l, m, q, r):
    """log10 of the binary64 weight_w at the radicand value r > 0."""
    log_u2, log_norm = _log_norm(l, m, q)
    return 0.5 * (log_u2 + math.log10(r) - log_norm)


def _check_args(m, x):
    """DomainError unless the order m is >= 0 and the argument x finite."""
    if m < 0:
        raise DomainError(f"order m must be >= 0, got {m}")
    if not math.isfinite(float(x)):
        raise DomainError(f"argument must be finite, got {float(x)}")


def _zero(ctx):
    """0 in the context's output type.  ctx.out(0.0) would pass a float
    through in extended mode, where every value is an mpf."""
    return mp.mpf(0) if ctx.is_extended else 0.0


def _cancel_dps(l, m, q):
    """A priori decimal-digit estimate for the direct-sum cancellation."""
    return int(2.2 * l * l * math.log10(float(q))) + 40


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def p_lm(l: int, m: int, x, ctx: QContext):
    """Associated big q-Jacobi polynomial of degree l - m in x.

    Defined for m >= 0; identically 0 for l < m.  Evaluated by the explicit
    finite sum with transparent precision escalation under cancellation; an
    escalated sum at a near-lattice argument is taken at the exact node, the
    argument p_tilde uses.
    """
    _check_args(m, x)
    if l < m or (x == 0 and (l - m) % 2):
        return _zero(ctx)             # an odd polynomial vanishes at 0 exactly
    # degree 0: the one-term sum is exactly 1, also where its binary64
    # q-binomials overflow to inf / inf
    if l == m:
        return mp.mpf(1) if ctx.is_extended else 1.0
    qkey = float(ctx.q)
    if ctx.is_extended:
        return _p_lm_escalated(l, m, x, qkey, ctx.dps)
    s, worst = _p_sum(l, m, float(x), qkey)
    finite = math.isfinite(s) and math.isfinite(worst)
    if finite and (worst == 0 or (s != 0 and worst / abs(s) < _CANCEL_OK)):
        return s
    if finite and s != 0 and worst / abs(s) < _CANCEL_RESOLVED:
        dps = 30 + int(math.log10(worst / abs(s)))    # the measured loss
    else:       # no digit left to measure: the dps p_tilde uses here
        dps = _cancel_dps(l, m, qkey)
    v = float(_p_lm_escalated(l, m, x, qkey, dps))
    if not math.isfinite(v):
        raise PrecisionError(
            f"p_lm({l}, {m}, {float(x)}) at q={qkey} leaves the binary64 "
            f"range")
    return v


def _p_lm_escalated(l, m, x, qkey, dps):
    """The direct sum at dps digits, doubled until its cancellation leaves
    at least 18 digits; PrecisionError after 6 attempts.  A sum that cancels
    to exactly 0 is not converged unless all its terms vanish.  A near-lattice
    x is its node (_snap_lattice) and the sum reads the node record _node,
    the one p_tilde reads; any other x is a transient point."""
    snap = _snap_lattice(x, qkey)
    start = dps
    for _ in range(6):
        with mp.workdps(dps):
            if snap is None:
                xx = mp.mpf(x)
                point = _Node(xx, [1 + 0 * xx])
            else:
                point = _node(*snap, qkey, dps)
            s, worst = _p_sum_at(point, _sum_terms(l, m, qkey, dps))
            if worst == 0 or (s != 0
                              and worst / abs(s) < mp.mpf(10)**(dps - 18)):
                return s
        dps *= 2
    raise PrecisionError(
        f"p_lm({l}, {m}, {float(x)}) at q={qkey} did not converge between "
        f"{start} and {dps // 2} digits")


def weight_w(l: int, m: int, x, ctx: QContext):
    """Orthonormalizing weight for p_lm on the lattice +-q^(2(n-m-1)), n <= 0.

    The l-dependent scale is q^(l(l+1)/2) sqrt([l+m]! [2l+1] / [l-m]!) and the
    constant makes the degree-m member a unit vector on the lattice (closed
    form).  Raises DomainError off the support (negative
    radicand beyond rounding), and in binary64 PrecisionError where the
    weight, or the radicand product behind it, leaves the binary64 range; a
    weight below 1e-250 reads 0.
    """
    _check_args(m, x)
    if l < m:
        raise DomainError(f"weight defined for l >= m, got l={l}, m={m}")
    if ctx.is_extended:
        with mp.workdps(ctx.dps):
            rad = _rad(m, mp.mpf(x), mp.mpf(ctx.q))
            return _weight_at(l, m, rad, float(ctx.q), ctx.dps)
    q = float(ctx.q)
    r = float(_rad(m, float(x), q))
    if r == 0.0:
        return 0.0
    e = _log_weight(l, m, q, r)
    if e <= -_LOG_CAP:
        return 0.0
    try:
        w = 10.0**e
    except OverflowError:
        w = math.inf
    if not math.isfinite(w):        # NaN when the radicand product overflows
        raise PrecisionError(
            f"weight_w({l}, {m}, {float(x)}) at q={q} leaves the binary64 "
            f"range (log10 = {e:.1f})")
    return w


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
            e = _log_weight(l, m, q, r)
            p = p_lm(l, m, x, ctx)
            if p == 0.0:
                return 0.0
            if abs(e) < _LOG_CAP and abs(math.log10(abs(p)) + e) < _LOG_CAP:
                return 10.0**e * p
    # _cancel_dps is at least 40, the extended mode's own dps
    dps = _cancel_dps(l, m, q)
    with mp.workdps(dps):
        _, ptilde = _reader(x, m, q, dps)
        v = ctx.out(ptilde(l))
    if not (ctx.is_extended or math.isfinite(v)):
        raise PrecisionError(
            f"p_tilde({l}, {m}, {float(x)}) at q={q} leaves the binary64 "
            f"range")
    return v


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


def recurrence_coeff_up(l: int, m: int, ctx: QContext):
    """Coefficient of the degree-(l+1) member in the three-term recurrence."""
    _check_chain(l, m)
    return ctx.out(_recurrence_coeff(l, m, partial(_qnum, q=ctx.qval())))


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
    normalized at l = m (Gautschi 1967); in binary64 that pass rescales
    through an exponent ledger.  Everywhere else the recurrence runs upward:
    off the lattice P~ is the dominant solution.  Extended tables are
    computed at ctx.dps whatever the ambient mpmath precision.
    """
    _check_args(m, x)
    return list(_table_cached(l_max, m, x, ctx))


_MAX_DELTA = 2000         # overshoot cap of the downward pass


@lru_cache(maxsize=65536)
def _table_cached(l_max, m, x, ctx):
    if ctx.is_extended:
        with mp.workdps(ctx.dps):
            return _table(l_max, m, x, ctx)
    return _table(l_max, m, x, ctx)


def _table(l_max, m, x, ctx):
    vals = [_zero(ctx)] * (l_max + 1)
    if m > l_max or x == 0:
        return tuple(vals)
    seed = weight_w(m, m, x, ctx)
    if seed == 0:
        return tuple(vals)
    q = float(ctx.q)
    lx, lq = math.log10(abs(float(x))), math.log10(q)

    def step_log(l):
        return max(0.0, lx + (l + m + 2) * lq)

    log_gain = sum(step_log(l) for l in range(m, l_max))
    if log_gain < 4.0 or _snap_lattice(x, q) is None:
        return tuple(_table_up(l_max, m, x, seed, ctx))
    # smallest even overshoot delta >= 4 whose steps gain 26 decades
    delta = 4
    gain = sum(step_log(l) for l in range(l_max, l_max + delta))
    while gain < 26.0:
        if delta >= _MAX_DELTA:
            raise PrecisionError(
                f"downward recurrence at x={float(x)}, m={m}, l_max={l_max} "
                f"needs an overshoot beyond {_MAX_DELTA} degrees")
        for l in (l_max + delta, l_max + delta + 1):
            gain += step_log(l)
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
    themselves overflow later still; either is a PrecisionError, raised here
    as the list grows so the recurrence loops stay unchecked.
    """
    up = _coeff_lists(m, ctx)
    if len(up) > top:
        return up
    with _QFACT_LOCK:               # a racing extender would append twice
        for l in range(len(up), top + 1):
            try:
                cu = recurrence_coeff_up(l, m, ctx)
            except OverflowError:
                cu = math.inf
            if not 0 < cu < math.inf:
                raise PrecisionError(
                    f"recurrence coefficients at degree {l} (m={m}, "
                    f"q={float(ctx.q)}) leave the binary64 range")
            up.append(cu)
    return up


def _table_up(l_max, m, x, seed, ctx):
    vals = [_zero(ctx)] * (l_max + 1)
    vals[m] = seed
    up = _coeffs_through(l_max - 1, m, ctx)
    xq = x * ctx.qval()**(m + 1)
    if m + 1 <= l_max:
        vals[m + 1] = xq * seed / up[m]
    for l in range(m + 1, l_max):
        vals[l + 1] = (xq * vals[l] - up[l - 1] * vals[l - 1]) / up[l]
    # an inf or NaN carries upward, so the top entry shows any
    if not (ctx.is_extended or math.isfinite(vals[l_max])):
        raise PrecisionError(
            f"upward recurrence at x={float(x)}, m={m} leaves the binary64 "
            f"range below degree l_max={l_max}")
    return vals


def _table_down(l_max, m, x, seed, ctx, delta):
    vals = [_zero(ctx)] * (l_max + 1)
    L = l_max + delta
    up = _coeffs_through(L, m, ctx)
    v = [_zero(ctx)] * (L + 2)
    scale_cnt = [0] * (L + 2)
    v[L] = _zero(ctx) + 1
    xq = x * ctx.qval()**(m + 1)
    mp_mode = ctx.is_extended
    for l in range(L, m, -1):
        vl1 = v[l + 1]
        if not mp_mode and scale_cnt[l + 1] != scale_cnt[l]:
            vl1 = vl1 * 10.0**(200 * (scale_cnt[l + 1] - scale_cnt[l]))
        nxt = (xq * v[l] - up[l] * vl1) / up[l - 1]
        cnt = scale_cnt[l]
        if not mp_mode:
            while abs(nxt) > 1e200:
                nxt *= 1e-200
                cnt += 1
        v[l - 1] = nxt
        scale_cnt[l - 1] = cnt
    if v[m] == 0:
        return vals
    if mp_mode:
        ratio = seed / v[m]
        for l in range(m, l_max + 1):
            vals[l] = v[l] * ratio
        return vals
    base = math.log10(abs(seed)) - (math.log10(abs(v[m])) + 200 * scale_cnt[m])
    sgn = math.copysign(1.0, v[m]) * math.copysign(1.0, seed)
    for l in range(m, l_max + 1):
        if v[l] == 0.0:
            continue
        e = math.log10(abs(v[l])) + 200 * scale_cnt[l] + base
        if e < -300:
            continue
        vals[l] = sgn * math.copysign(10.0**e, v[l])
    return vals


# ---------------------------------------------------------------------------
# identity checks (evaluated end-to-end in multiprecision so the reported
# residual measures the identity, not binary64 input rounding)
# ---------------------------------------------------------------------------

def _check_dps(l, m, ctx):
    # banded to multiples of 40 so neighbouring degrees share cache entries
    raw = max(50, _cancel_dps(l + 1, m, float(ctx.q)), ctx.dps + 20)
    return 40 * ((raw + 39) // 40)


def check_recurrence(l: int, m: int, x, ctx: QContext):
    """Relative residual of the three-term recurrence in l at the point x."""
    _check_args(m, x)
    _check_chain(l, m)
    qkey = float(ctx.q)
    dps = _check_dps(l, m, ctx)
    with mp.workdps(dps):
        f = _ptilde_factors(l, m, qkey, dps)
        xx, ptilde = _reader(x, m, qkey, dps)
        lhs = xx * f.checks[0] * ptilde(l)
        rhs = f.c_up * ptilde(l + 1)
        if l > m:
            rhs += f.c_down * ptilde(l - 1)
        return float(abs(lhs - rhs) / max(1, abs(lhs)))


def check_difference(l: int, m: int, x, ctx: QContext):
    """Relative residual of the q-difference identity linking x, x q^2, x/q^2.

    On the support both square-root coefficients carry an overall minus sign
    (each radicand is a product of two negative factors).
    """
    _check_args(m, x)
    _check_chain(l, m)
    qkey = float(ctx.q)
    dps = _check_dps(l, m, ctx)
    with mp.workdps(dps):
        _, shell, centre, q4m, inner, outer, q4 = \
            _ptilde_factors(l, m, qkey, dps).checks
        xx, ptilde = _reader(x, m, qkey, dps)
        lhs = (shell * xx**2 - centre) * ptilde(l)
        rhs = mp.mpf(0)
        r_in = (1 - xx * xx) * (1 - xx * xx * q4m)
        if r_in > 0:
            rhs -= inner * mp.sqrt(r_in) * ptilde(l, -1)
        r_out = (outer - xx * xx) * (q4 - xx * xx)
        if r_out > 0:
            rhs -= mp.sqrt(r_out) * ptilde(l, 1)
        return float(abs(lhs - rhs) / max(1, abs(lhs)))


# ---------------------------------------------------------------------------
# lattice sums
# ---------------------------------------------------------------------------

def orthonormality_sum(l: int, lp: int, m: int, ctx: QContext, n_min: int = -60):
    """Truncated lattice orthonormality sum; tends to delta_{l,l'} as
    n_min -> -infinity (geometric tail with ratio q^-2).

    Terms are accumulated from n = 0 downward (largest magnitude first,
    smallest last).
    """
    if m < 0:
        raise DomainError(f"order m must be >= 0, got {m}")
    if n_min > 0:
        raise DomainError("n_min must be <= 0")
    q = ctx.qval()
    top = max(l, lp)
    s = 0 * q
    for sigma in (1, -1):
        for n in range(0, n_min - 1, -1):
            xn = _lattice_point(n, m, sigma, q)
            tab = p_tilde_table(top, m, xn, ctx)
            s += abs(xn) * tab[l] * tab[lp]
    return ctx.out((1 - q**-2) * s)


def completeness_sum(nu: int, nup: int, sigma: int, sigmap: int, m: int,
                     ctx: QContext, l_max: int = 40):
    """Truncated completeness sum over degrees l <= l_max.

    Tends to delta_{nu,nu'} delta_{sigma,sigma'} as l_max grows, for lattice
    labels nu, nu' <= min(m, 0).  The identity is numerically supported on
    nu <= -|m|; basistrans.completeness_check reports the observed
    convergence profile.
    """
    if sigma not in (1, -1) or sigmap not in (1, -1):
        raise DomainError("sigma labels must be +1 or -1")
    top = min(m, 0)
    if nu > top or nup > top:
        raise DomainError(f"nu labels must be <= min(m, 0) = {top}")
    am = abs(m)
    if l_max < am:
        raise DomainError(f"l_max must be >= |m| = {am}")
    q = ctx.qval()
    ta = p_tilde_table(l_max, am, _lattice_point(nu + am, am, sigma, q), ctx)
    tb = p_tilde_table(l_max, am, _lattice_point(nup + am, am, sigmap, q), ctx)
    s = 0 * q
    for l in range(am, l_max + 1):
        s += ta[l] * tb[l]
    return ctx.out((1 - q**-2) * q**(nu + nup - 2) * s)


# ---------------------------------------------------------------------------
# caches
# ---------------------------------------------------------------------------

def clear_caches():
    """Empty every cache of qarith and qspecial, the q-factorial prefix
    lists and the recurrence-coefficient lists included.  Values computed
    afterwards are bit-identical to cached ones; only the time differs."""
    for cache in (_qfact_cached, _qfact_list, _log_norm, _snorm_mp_cached,
                  _ptilde_factors, _sum_terms, _node, _node_rad,
                  _ptilde_node, _table_cached, _coeff_lists):
        cache.cache_clear()
