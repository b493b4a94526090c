"""Big q-Jacobi polynomials, the q-deformed associated Legendre functions,
and their recurrence, difference, orthonormality and completeness identities.

Evaluation strategy
-------------------
The polynomial sum alternates with terms up to ~q**(l*l - m*m) while the value
at a lattice point is exponentially small, so binary64 loses roughly
2*l*l*log10(q) digits to cancellation.  p_lm therefore escalates to multi-
precision transparently whenever a cancellation estimate demands it.  Whole
columns P~_l(x), l = 0..l_max, are produced by the three-term recurrence in l:
at lattice arguments where it is not contractive by a downward
(minimal-solution) pass with rescaling, otherwise upward.  The recurrence
coefficients are computed once per (m, ctx), up to the highest degree
needed so far.

The weight normalization is fixed so the lattice orthonormality sum equals
delta_{l,l'}; the l-independent constant comes from the degree-m lattice sum
in closed form (elementary-symmetric expansion) and is cached per (q, m).
"""

import math
from functools import lru_cache

import mpmath as mp

from .context import QContext
from .errors import DomainError, PrecisionError
from .qarith import basic_hypergeometric, _qnum, _qbin

__all__ = [
    "big_q_jacobi", "p_lm", "weight_w", "p_tilde", "p_tilde_table",
    "check_recurrence", "check_difference",
    "orthonormality_sum", "completeness_sum",
    "recurrence_coeff_up", "recurrence_coeff_down",
]

_LOG_CAP = 250.0          # |log10| beyond which binary64 products are unsafe
_CANCEL_OK = 1e2          # direct-sum cancellation accepted in binary64


# ---------------------------------------------------------------------------
# generic kernels (operate on float or mpf alike)
# ---------------------------------------------------------------------------

def _p_sum(l, m, x, q, dps=0):
    """Direct evaluation of the degree (l-m) polynomial sum.

    Returns (value, max_abs_term) so callers can judge cancellation.
    """
    base = q**-2
    shift = q**(-2 * (m + 1))
    s = 0 * x
    worst = abs(s)
    pochx = 1 + 0 * x
    pochd = 1 + 0 * x
    for k in range(l - m + 1):
        if k > 0:
            bk = base**(k - 1)
            pochx = pochx * (1 - x * bk)
            pochd = pochd * (1 + shift * bk)
        t = (-1)**k * q**(-k * (m + 1)) * pochx / pochd
        t = t * _qbin(l - m, k, q, dps) * _qbin(l + m + k, k, q, dps) \
            / _qbin(m + k, k, q, dps)
        s = s + t
        worst = max(worst, abs(t))
    return s, worst


def _rad(m, x, q):
    """Radicand product attached to the weight; clamps rounding-level
    negatives to zero, rejects genuinely negative values."""
    r = 1 + 0 * x
    scale = 1.0
    x2q = x * x * q**(4 * m)
    for j in range(m):
        f = 1 - x2q * q**(-4 * j)
        r = r * f
        scale = max(scale, abs(float(f)))
    if r < 0:
        if float(r) > -1e-12 * max(scale, 1.0) ** m:
            return 0 * x
        raise DomainError(
            f"argument {float(x)} outside the weight support for m={m}")
    return r


@lru_cache(maxsize=None)
def _log_u2(l: int, m: int, qkey: float):
    """log10 of the positive l-dependent weight factor squared."""
    t = l * (l + 1) * math.log10(qkey) + math.log10(_qnum(2 * l + 1, qkey))
    for k in range(l - m + 1, l + m + 1):
        t += math.log10(_qnum(k, qkey))
    return t


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


@lru_cache(maxsize=None)
def _snorm_log(m: int, qkey: float):
    """log10 of the normalization constant for the degree-m member."""
    return math.log10(_snorm_core(m, qkey)) + _log_u2(m, m, qkey)


def _u2_mp(l, m, q):
    """u^2 factor in ambient mpmath precision."""
    t = q**(l * (l + 1)) * (q**(2 * l + 1) - q**(-2 * l - 1)) / (q - 1 / q)
    for k in range(l - m + 1, l + m + 1):
        t = t * (q**k - q**(-k)) / (q - 1 / q)
    return t


@lru_cache(maxsize=4096)
def _u2_mp_cached(l: int, m: int, qkey: float, dps: int):
    with mp.workdps(dps):
        return _u2_mp(l, m, mp.mpf(qkey))


@lru_cache(maxsize=None)
def _snorm_mp_cached(m: int, qkey: float, dps: int):
    with mp.workdps(dps):
        q = mp.mpf(qkey)
        return _snorm_core(m, q) * _u2_mp(m, m, q)


def _snap_lattice(x, m, q):
    """Lattice index (n, sigma) when |x| is within 1e-12 of q^(2(n-m-1)).

    Binary64 lattice arguments are taken to *mean* the exact lattice point:
    at large degree the function value is astronomically sensitive to
    off-lattice perturbations of the argument, so the rounded input would
    otherwise poison the evaluation.
    """
    ax = abs(float(x))
    if ax == 0.0 or not math.isfinite(ax):
        return None
    qf = float(q)
    e = math.log(ax) / math.log(qf) / 2.0 + m + 1.0
    n = round(e)
    if abs(ax / qf**(2 * (n - m - 1)) - 1.0) < 1e-12:
        return n, (1 if float(x) > 0 else -1)
    return None


def _ptilde_mp(l, m, x, q, dps):
    """Weighted function at full working precision (x, q given as mpf);
    near-lattice arguments are snapped to the exact lattice point."""
    if l < m:
        return mp.mpf(0)
    snap = _snap_lattice(x, m, q)
    if snap is not None:
        n, sigma = snap
        x = sigma * q**(2 * (n - m - 1))
    s, _ = _p_sum(l, m, x, q, dps)
    r = _rad(m, x, q)
    if r == 0:
        return mp.mpf(0)
    return s * mp.sqrt(_u2_mp_cached(l, m, float(q), dps) * r
                       / _snorm_mp_cached(m, float(q), dps))


_PT_CACHE = {}


def _ptilde_mp_cached(l, m, x, q, dps):
    key = (l, m, x, float(q), dps)
    if key not in _PT_CACHE:
        if len(_PT_CACHE) > 200000:
            _PT_CACHE.clear()
        _PT_CACHE[key] = _ptilde_mp(l, m, x, q, dps)
    return _PT_CACHE[key]


def _cancel_dps(l, m, q):
    """A priori decimal-digit estimate for the direct-sum cancellation."""
    return int(2.2 * l * l * math.log10(float(q))) + 40


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def big_q_jacobi(l: int, x, a, b, c, ctx: QContext, base=None):
    """Big q-Jacobi polynomial P_l(x; a, b, c) on the base |base| < 1.

    The default base is 1/q.  Evaluated through the terminating basic
    hypergeometric series; pole and precision errors propagate.
    """
    if l < 0:
        raise DomainError(f"degree must be >= 0, got {l}")
    q = ctx.qval()
    if base is None:
        base = 1 / q
    upper = [base**(-l), a * b * base**(l + 1), x]
    lower = [a * base, c * base]
    return basic_hypergeometric(upper, lower, base, base, ctx)


def p_lm(l: int, m: int, x, ctx: QContext):
    """Associated big q-Jacobi polynomial of degree l - m in x.

    Defined for m >= 0; identically 0 for l < m.  Evaluated by the explicit
    finite sum with transparent precision escalation under cancellation.
    """
    if m < 0:
        raise DomainError(f"order m must be >= 0, got {m}")
    if l < m:
        return ctx.out(0.0)
    if ctx.is_extended:
        return _p_lm_escalated(l, m, x, ctx, start_dps=ctx.dps)
    s, worst = _p_sum(l, m, float(x), float(ctx.q))
    if math.isfinite(s) and math.isfinite(worst) and (
            worst == 0 or (s != 0 and worst / abs(s) < _CANCEL_OK)):
        return s
    return float(_p_lm_escalated(l, m, x, ctx, start_dps=None))


def _p_lm_escalated(l, m, x, ctx, start_dps):
    qkey = float(ctx.q)
    if start_dps is None:
        s, worst = _p_sum(l, m, float(x), qkey)
        if math.isfinite(s) and math.isfinite(worst) and s != 0:
            dps = 30 + int(math.log10(worst / abs(s)))
        else:
            dps = _cancel_dps(l, m, qkey)
    else:
        dps = start_dps
    for _ in range(6):
        with mp.workdps(dps):
            s, worst = _p_sum(l, m, mp.mpf(x), mp.mpf(qkey), dps)
            if s == 0 or worst == 0 or worst / abs(s) < mp.mpf(10)**(dps - 18):
                return s
        dps *= 2
    return s


def weight_w(l: int, m: int, x, ctx: QContext):
    """Orthonormalizing weight for p_lm on the lattice +-q^(2(n-m-1)), n <= 0.

    The l-dependent scale is q^(l(l+1)/2) sqrt([l+m]! [2l+1] / [l-m]!) and the
    constant makes the degree-m member a unit vector on the lattice (closed
    form, cached per (q, m)).  Raises DomainError off the support (negative
    radicand beyond rounding).
    """
    if m < 0:
        raise DomainError(f"order m must be >= 0, got {m}")
    if l < m:
        raise DomainError(f"weight defined for l >= m, got l={l}, m={m}")
    if ctx.is_extended:
        dps = ctx.dps
        with mp.workdps(dps):
            q = mp.mpf(ctx.q)
            r = _rad(m, mp.mpf(x), q)
            if r == 0:
                return mp.mpf(0)
            return mp.sqrt(_u2_mp_cached(l, m, float(q), dps) * r
                           / _snorm_mp_cached(m, float(q), dps))
    q = float(ctx.q)
    r = float(_rad(m, float(x), q))
    if r == 0.0:
        return 0.0
    e = 0.5 * (_log_u2(l, m, q) + math.log10(r) - _snorm_log(m, q))
    if abs(e) < _LOG_CAP:
        return 10.0**e
    return 0.0 if e < 0 else math.inf


def p_tilde(l: int, m: int, x, ctx: QContext):
    """Weighted function w * P; the q-deformed associated Legendre function.

    Returns 0 for l < m.  Arguments within 1e-12 of a lattice point are
    evaluated at the exact lattice point (the function's off-lattice
    continuation is exponentially steep at large degree, so the rounded
    argument is treated as naming the node).  Internally escalates to
    multiprecision whenever cancellation or binary64 range demands it.
    """
    if m < 0:
        raise DomainError(f"order m must be >= 0, got {m}")
    if l < m:
        return ctx.out(0.0)
    q = float(ctx.q)
    if ctx.is_extended:
        dps = max(ctx.dps, _cancel_dps(l, m, q))
        with mp.workdps(dps):
            return _ptilde_mp(l, m, mp.mpf(x), mp.mpf(ctx.q), dps)
    # validate support (and surface DomainError) in double first
    r = float(_rad(m, float(x), q))
    if r == 0.0:
        return 0.0
    snapped = _snap_lattice(x, m, q)
    amplification = 2.0 * l * l * math.log10(q)
    if snapped is None and amplification < 13.0:
        e = 0.5 * (_log_u2(l, m, q) + math.log10(r) - _snorm_log(m, q))
        p = p_lm(l, m, x, ctx)
        if p == 0.0:
            return 0.0
        if abs(e) < _LOG_CAP and abs(math.log10(abs(p)) + e) < _LOG_CAP:
            return 10.0**e * p
    dps = _cancel_dps(l, m, q)
    with mp.workdps(dps):
        return float(_ptilde_mp(l, m, mp.mpf(x), mp.mpf(q), dps))


def recurrence_coeff_up(l: int, m: int, ctx: QContext):
    """Coefficient of the degree-(l+1) member in the three-term recurrence."""
    q = ctx.qval()
    return ctx.out(_sqrt_any(
        _qnum(l - m + 1, q) * _qnum(l + m + 1, q)
        / (_qnum(2 * l + 1, q) * _qnum(2 * l + 3, q))))


def recurrence_coeff_down(l: int, m: int, ctx: QContext):
    """Coefficient of the degree-(l-1) member; zero at the bottom l = m."""
    if l <= m:
        return ctx.out(0.0)
    q = ctx.qval()
    return ctx.out(_sqrt_any(
        _qnum(l + m, q) * _qnum(l - m, q)
        / (_qnum(2 * l + 1, q) * _qnum(2 * l - 1, q))))


def _sqrt_any(v):
    return mp.sqrt(v) if isinstance(v, mp.mpf) else math.sqrt(v)


def p_tilde_table(l_max: int, m: int, x, ctx: QContext):
    """P~_l(x) for l = 0..l_max via the three-term recurrence in l.

    At lattice arguments where the upward recurrence is not contractive the
    wanted column is the minimal solution, so it comes from a downward pass
    normalized at l = m (Gautschi 1967); in binary64 that pass rescales
    through an exponent ledger.  Everywhere else the recurrence runs upward:
    off the lattice P~ is the dominant solution.  Extended tables are
    computed at ctx.dps whatever the ambient mpmath precision.
    """
    if m < 0:
        raise DomainError(f"order m must be >= 0, got {m}")
    if not math.isfinite(float(x)):
        raise DomainError(f"argument must be finite, got {float(x)}")
    return list(_table_cached(l_max, m, x, ctx))


_MAX_DELTA = 2000         # overshoot cap of the downward pass


@lru_cache(maxsize=65536)
def _table_cached(l_max, m, x, ctx):
    if ctx.is_extended:
        with mp.workdps(ctx.dps):
            return _table(l_max, m, x, ctx)
    return _table(l_max, m, x, ctx)


def _table(l_max, m, x, ctx):
    vals = [ctx.out(0.0)] * (l_max + 1)
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
    if log_gain < 4.0 or _snap_lattice(x, m, q) is None:
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
    """Lists of recurrence_coeff_up and recurrence_coeff_down by degree l
    (zero below m), shared by every table of this (m, ctx).

    _coeffs_through extends them in place, so they never run past the
    highest degree a table has asked for.
    """
    below = [ctx.out(0.0)] * m
    return below, list(below)


def _coeffs_through(top, m, ctx):
    """Coefficient lists covering at least the degrees m..top.

    Both tables divide by these coefficients.  In binary64 they underflow
    to 0 (or turn NaN) once the q-number products overflow, and the q-powers
    themselves overflow later still; either is a PrecisionError, raised here
    as the lists grow so the recurrence loops stay unchecked.
    """
    up, down = _coeff_lists(m, ctx)
    for l in range(len(up), top + 1):
        try:
            cu = recurrence_coeff_up(l, m, ctx)
            cd = recurrence_coeff_down(l, m, ctx)
        except OverflowError:
            cu = cd = math.inf
        if not (0 < cu < math.inf and (l <= m or 0 < cd < math.inf)):
            raise PrecisionError(
                f"recurrence coefficients at degree {l} (m={m}, "
                f"q={float(ctx.q)}) leave the binary64 range")
        up.append(cu)
        down.append(cd)
    return up, down


def _table_up(l_max, m, x, seed, ctx):
    vals = [ctx.out(0.0)] * (l_max + 1)
    vals[m] = seed
    up, down = _coeffs_through(l_max - 1, m, ctx)
    xq = x * ctx.qval()**(m + 1)
    if m + 1 <= l_max:
        vals[m + 1] = xq * seed / up[m]
    for l in range(m + 1, l_max):
        vals[l + 1] = (xq * vals[l] - down[l] * vals[l - 1]) / up[l]
    return vals


def _table_down(l_max, m, x, seed, ctx, delta):
    vals = [ctx.out(0.0)] * (l_max + 1)
    L = l_max + delta
    up, down = _coeffs_through(L, m, ctx)
    v = [ctx.out(0.0)] * (L + 2)
    scale_cnt = [0] * (L + 2)
    v[L] = ctx.out(1.0)
    xq = x * ctx.qval()**(m + 1)
    mp_mode = ctx.is_extended
    for l in range(L, m, -1):
        vl1 = v[l + 1]
        if not mp_mode and scale_cnt[l + 1] != scale_cnt[l]:
            vl1 = vl1 * 10.0**(200 * (scale_cnt[l + 1] - scale_cnt[l]))
        nxt = (xq * v[l] - up[l] * vl1) / down[l]
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


def _lift_arg(x, m, q):
    """Lift a binary64 argument into the ambient precision, snapping
    near-lattice values to the exact node so identity checks see mutually
    consistent arguments and coefficients."""
    xx = mp.mpf(x)
    snap = _snap_lattice(xx, m, q)
    if snap is not None:
        n, sigma = snap
        xx = sigma * q**(2 * (n - m - 1))
    return xx


def check_recurrence(l: int, m: int, x, ctx: QContext):
    """Relative residual of the three-term recurrence in l at the point x."""
    if m < 0:
        raise DomainError(f"order m must be >= 0, got {m}")
    qkey = float(ctx.q)
    dps = _check_dps(l, m, ctx)
    with mp.workdps(dps):
        q = mp.mpf(qkey)
        xx = _lift_arg(x, m, q)
        pt = _ptilde_mp_cached(l, m, xx, q, dps)
        lhs = xx * q**(m + 1) * pt
        up = mp.sqrt((_qnum(l - m + 1, q) * _qnum(l + m + 1, q))
                     / (_qnum(2 * l + 1, q) * _qnum(2 * l + 3, q)))
        rhs = up * _ptilde_mp_cached(l + 1, m, xx, q, dps)
        if l > m:
            dn = mp.sqrt((_qnum(l + m, q) * _qnum(l - m, q))
                         / (_qnum(2 * l + 1, q) * _qnum(2 * l - 1, q)))
            rhs += dn * _ptilde_mp_cached(l - 1, m, xx, q, dps)
        return float(abs(lhs - rhs) / max(1, abs(lhs)))


def check_difference(l: int, m: int, x, ctx: QContext):
    """Relative residual of the q-difference identity linking x, x q^2, x/q^2.

    On the support both square-root coefficients carry an overall minus sign
    (each radicand is a product of two negative factors).
    """
    if m < 0:
        raise DomainError(f"order m must be >= 0, got {m}")
    qkey = float(ctx.q)
    dps = _check_dps(l, m, ctx)
    with mp.workdps(dps):
        q = mp.mpf(qkey)
        xx = _lift_arg(x, m, q)
        pt = _ptilde_mp_cached(l, m, xx, q, dps)
        lhs = ((q**(2 * l + 1) + q**(-2 * l - 1)) / q * xx**2
               - (q * q + 1) * q**(-2 * (m + 2))) * pt
        rhs = mp.mpf(0)
        r_in = (1 - xx * xx) * (1 - xx * xx * q**(4 * m))
        if r_in > 0:
            rhs -= q**(-2 * (m + 1)) * mp.sqrt(r_in) \
                * _ptilde_mp_cached(l, m, xx / q**2, q, dps)
        r_out = (q**(-4 * (m + 1)) - xx * xx) * (q**-4 - xx * xx)
        if r_out > 0:
            rhs -= mp.sqrt(r_out) * _ptilde_mp_cached(l, m, xx * q**2, q, dps)
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
            xn = sigma * q**(2 * (n - m - 1))
            tab = p_tilde_table(top, m, xn, ctx)
            s += q**(2 * (n - m - 1)) * tab[l] * tab[lp]
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
    ta = p_tilde_table(l_max, am, sigma * q**(2 * (nu - 1)), ctx)
    tb = p_tilde_table(l_max, am, sigmap * q**(2 * (nup - 1)), ctx)
    s = 0 * q
    for l in range(am, l_max + 1):
        s += ta[l] * tb[l]
    return ctx.out((1 - q**-2) * q**(nu + nup - 2) * s)
