"""Operator representations as truncated band matrices.

Ladder operators annihilate states outside the window, so every relation is
exact on interior rows and columns.  All matrix elements are real; bases are
orthonormal, so conjugation is matrix transposition.

The builders work on label arrays: a band neighbour is an index offset under
a boolean mask, and each operator is assembled by diagonal from the
positions it gives.  Powers of q are Python float powers, one per exponent,
gathered into arrays (numpy's float ** int array can differ from them in
the last bit), so the matrix elements are the scalar formulas'.
"""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np

from .context import QContext
from .errors import DomainError, PrecisionError, WindowError
from .operators import Coords, LabeledOperator, RepFamily, RepWindow, _Band
from .qarith import _qnum
from .qspecial import _coeffs_through, _recurrence_coeff, _sqrt_any

__all__ = [
    "build_T_generic", "build_t_special", "build_X_over_R",
    "build_K_generic", "build_K_orbital", "build_T_orb",
    "build_X_T_R_joint", "build_L_basis", "build_L_operators",
    "casimir", "coproduct", "r0_from_z0",
    "t2_block", "t2_block_levels", "x3_block", "x3_block_levels",
    "casimir_eigenvalue",
]

_RAD_CLAMP = -1e-14


def _sqrt_clamped(v):
    """Elementwise square root; radicands in [_RAD_CLAMP, 0) are rounding
    noise and give 0, anything below (or NaN) raises WindowError."""
    v = np.asarray(v, dtype=float)
    bad = ~(v >= _RAD_CLAMP)
    if bad.any():
        raise WindowError(f"negative square-root radicand {v[bad].flat[0]}")
    return np.sqrt(np.where(v >= 0.0, v, 0.0))[()]


def _qpow(q, e):
    """q**e for each exponent of the array e, by Python's float pow once per
    exponent of [min e, max e] (integer e) or distinct exponent (other e).
    A power beyond binary64 is a DomainError."""
    e = np.asarray(e)
    if e.dtype.kind == "i" and e.size:
        lo = int(e.min())
        exps, pick = range(lo, int(e.max()) + 1), e - lo
    else:
        exps, pick = np.unique(e, return_inverse=True)
        exps = exps.tolist()
    try:
        table = np.array([q**k for k in exps], dtype=float)
    except OverflowError:
        raise DomainError(
            f"q**e overflows binary64 for exponents in [{exps[0]}, "
            f"{exps[-1]}] at q = {q}; the window is too large for this q"
        ) from None
    return table[pick].reshape(e.shape)


def _op(name, n, shift, *parts):
    """n x n LabeledOperator holding, for each part (d, k, vals), vals at
    the ascending positions k (np.diagonal's) of diagonal d, or on all of
    it if k is None.  Non-empty parts have distinct offsets."""
    diags = {}
    for d, k, vals in parts:
        size = n - abs(d)
        if not len(vals):
            continue
        if k is None or len(k) == size:
            diags[d] = (vals, None)
        else:
            v = np.zeros(size)
            v[k] = vals
            present = np.zeros(size, dtype=bool)
            present[k] = True
            diags[d] = (v, present)
    return LabeledOperator(name, _Band(n, diags), shift)


def _ladder_steps(m):
    """Positions of the ascending labels m whose m + 1 is also a label (the
    next position, up to rounding): the steps m -> m + 1 of a ladder."""
    return np.flatnonzero(np.abs(m[:-1] + 1 - m[1:]) < 1e-9)


def _mt_line(window):
    """Window, labels and ladder steps of a family on the line m_t <= 0."""
    lo, hi = window.range_map["m_t"]
    if hi > 0:
        raise DomainError("no state with positive m_t exists")
    m = np.arange(int(lo), int(hi) + 1)
    win = RepWindow.make({"m_t": (lo, hi)},
                         hard_hi=("m_t",) if hi == 0 else ())
    return win, m, _ladder_steps(m)


def casimir_eigenvalue(l, ctx: QContext) -> float:
    """q [l][l+1], the quadratic Casimir value on the spin-l ladder
    (l may be half-integer), binary64 in both modes and finite."""
    q = float(ctx.q)
    try:
        v = q * _qnum(l, q) * _qnum(l + 1, q)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise PrecisionError(f"q [{l}][{l + 1}] at q={q} leaves binary64, "
                             f"which both precision modes compute it in")
    return v


def r0_from_z0(z0: float, ctx: QContext) -> float:
    """Radial scale of the diagonal-Casimir basis matching a coordinate
    eigenvalue scale z0 (r0 = q z0)."""
    return float(ctx.q) * z0


# ---------------------------------------------------------------------------
# ladder families on a single lattice line
# ---------------------------------------------------------------------------

def _ladder(kind, label, m, d, rad, lower, window, ctx, params):
    """The ladder family with parameter d on the ascending labels m (named
    label): T3 = 1/lam - d q^(-4m), tau = lam d q^(-4m), T+ = sqrt(rad) on
    each step m -> m + 1 and T- = lower sqrt(rad) on the same step,
    transposed.  rad maps q^(-2m) to the radicand; it is evaluated and
    clamped at every label.  lower is q^2 for the compact form, -q^2 for K.
    """
    q = float(ctx.q)
    lam = ctx.lam
    n = len(m)
    up = _ladder_steps(m)
    p4 = _qpow(q, -4 * m)
    c = _sqrt_clamped(rad(_qpow(q, -2 * m)))[up]
    ops = {
        "T3": _op("T3", n, ({},), (0, None, 1.0 / lam - d * p4)),
        "T+": _op("T+", n, ({label: 1},), (-1, up, c)),
        "T-": _op("T-", n, ({label: -1},), (1, up, lower * c)),
        "tau": _op("tau", n, ({},), (0, None, d * lam * p4)),
    }
    return RepFamily(kind, params, ops, window, Coords({label: m}))


def build_T_generic(d: float, m_bar: float, window, ctx: QContext) -> RepFamily:
    """Ladder representation with highest weight m_bar and parameter d.

    Admissible regimes: d = 1/lam with 2*m_bar + 1 a positive integer (the
    finite-dimensional ladder m = -m_bar .. m_bar, window ignored); d = 0 or
    d < 0 with real m_bar (infinite-dimensional, bounded above by m_bar,
    truncated below by the window range "m").
    """
    q = float(ctx.q)
    lam = ctx.lam
    finite = abs(d - 1.0 / lam) <= 1e-12 / lam
    if d > 0 and not finite:
        raise DomainError(
            f"d > 0 requires d = 1/lam = {1.0 / lam!r}; got {d!r}")
    if finite:
        two = 2 * m_bar
        if abs(two - round(two)) > 1e-9 or m_bar < 0:
            raise DomainError(
                f"finite ladder needs m_bar a non-negative (half-)integer, got {m_bar}")
        d = 1.0 / lam
        m = -m_bar + np.arange(int(round(two)) + 1)
        win = RepWindow.make({"m": (-m_bar, m_bar)},
                             hard_lo=("m",), hard_hi=("m",))
    else:
        if window is None:
            raise DomainError("infinite-dimensional ladder needs a window")
        lo, hi = window.range_map["m"]
        if hi > m_bar + 1e-12:
            raise WindowError(
                f"window top {hi} exceeds the ladder head m_bar = {m_bar}")
        m = lo + np.arange(int(round(hi - lo)) + 1)
        hard_hi = ("m",) if abs(hi - m_bar) <= 1e-12 else ()
        if hard_hi:         # lo + k can miss the radicand's exact zero
            m = np.append(m[:-1], m_bar)
        win = RepWindow.make({"m": (lo, hi)}, hard_hi=hard_hi)

    def ccstar(p):
        return (p - q**(-2 * m_bar)) * (q**(2 * (m_bar + 1)) / lam - d * p) \
            / (lam * q**4)

    return _ladder("T_generic", "m", m, d, ccstar, q * q, win,
                   ctx, {"d": d, "m_bar": m_bar})


def build_t_special(window, ctx: QContext) -> RepFamily:
    """The unique ladder with head m_t = 0 solving the coordinate constraints
    (d = -q^2/lam); tau has strictly negative eigenvalues."""
    q = float(ctx.q)
    lam = ctx.lam
    win, m, up = _mt_line(window)
    p4 = _qpow(q, -4 * m)
    r = _sqrt_clamped(p4[up] - 1.0)
    ops = {
        "T3": _op("t3", m.size, ({},), (0, None, (1.0 + q * q * p4) / lam)),
        "T+": _op("t+", m.size, ({"m_t": 1},), (-1, up, r / (lam * q))),
        "T-": _op("t-", m.size, ({"m_t": -1},), (1, up, q / lam * r)),
        "tau": _op("tau_t", m.size, ({},), (0, None, -q * q * p4)),
    }
    params = {"d": -q * q / lam, "m_bar": 0.0}
    return RepFamily("t_special", params, ops, win, Coords({"m_t": m}))


def build_X_over_R(sign: int, window, ctx: QContext) -> RepFamily:
    """Homogeneous coordinates X R^-1 on the m_t ladder; the global sign
    labels the two inequivalent irreducible representations."""
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    q = float(ctx.q)
    win, m, up = _mt_line(window)
    s = float(sign)
    sq = math.sqrt(1.0 + q * q)
    r = _sqrt_clamped(1.0 - _qpow(q, 4 * m[up]))
    ops = {
        "X3R": _op("X3/R", m.size, ({},),
                   (0, None, s * _qpow(q, 2 * m - 1))),
        "X+R": _op("X+/R", m.size, ({"m_t": 1},), (-1, up, -s * q / sq * r)),
        "X-R": _op("X-/R", m.size, ({"m_t": -1},), (1, up, s / sq * r)),
    }
    return RepFamily("X_over_R", {"sign": sign}, ops, win,
                     Coords({"m_t": m}))


def build_K_generic(d_k: float, alpha: float, window, ctx: QContext) -> RepFamily:
    """Non-compact ladder family; admissible iff the quadratic kappa is
    non-negative on the whole window."""
    q = float(ctx.q)
    lam = ctx.lam
    lo, hi = window.range_map["m_k"]
    m = np.arange(int(lo), int(hi) + 1)

    def kappa(x):
        k = 1.0 / (q * q * lam * lam) - alpha * x + d_k / (lam * q**4) * x * x
        neg = np.flatnonzero(k < _RAD_CLAMP)
        if neg.size:
            raise WindowError(
                f"kappa < 0 at m_k = {m[neg[0]]}: window not admissible for "
                f"(d_k={d_k}, alpha={alpha})")
        return k

    return _ladder("K_generic", "m_k", m, d_k, kappa, -q * q, window, ctx,
                   {"d": d_k, "alpha": alpha})


def build_K_orbital(window, ctx: QContext) -> RepFamily:
    """The unique K family entering orbital angular momentum:
    d_k = -1/(lam q^2), alpha = 0, ladder bounded below at m_k = 0."""
    q = float(ctx.q)
    lo, hi = window.range_map["m_k"]
    if lo != 0:
        raise WindowError("orbital K ladder starts at m_k = 0")
    win = RepWindow.make({"m_k": (0, hi)}, hard_lo=("m_k",))
    fam = build_K_generic(-1.0 / (ctx.lam * q * q), 0.0, win, ctx)
    return RepFamily("K_orbital", fam.params, fam.operators, win,
                     fam.coords)


# ---------------------------------------------------------------------------
# tensor families
# ---------------------------------------------------------------------------

def _torb_window(window):
    """The tensor window (m_t <= 0, m_k >= 0), the labels of its basis
    |m_t, m_k> (m_t outer), the row length nk (the position offset of an m_t
    neighbour, so the m_t steps fill the diagonal -nk), and the positions
    whose m_k neighbour above lies in the window (the m_k steps)."""
    rm = window.range_map
    if "m_t" not in rm or "m_k" not in rm:
        raise WindowError("tensor window needs ranges for m_t and m_k")
    (tlo, thi), (klo, khi) = rm["m_t"], rm["m_k"]
    if thi > 0:
        raise DomainError("no state with positive m_t exists")
    if klo < 0:
        raise DomainError("m_k is bounded below by 0")
    win = RepWindow.make({"m_t": (tlo, thi), "m_k": (klo, khi)},
                         hard_lo=("m_k",) if klo == 0 else (),
                         hard_hi=("m_t",) if thi == 0 else ())
    tlo, thi, klo, khi = int(tlo), int(thi), int(klo), int(khi)
    nk = khi - klo + 1
    mt = np.repeat(np.arange(tlo, thi + 1), nk)
    mk = np.tile(np.arange(klo, khi + 1), thi - tlo + 1)
    return win, mt, mk, nk, np.flatnonzero(mk < khi)


def _orbital_ladder(mt, mk, nk, ku, q, lam):
    """T3, T+-, tau of the orbital angular momentum on the tensor grid
    |m_t, m_k> of _torb_window, written over q^(-4 m_t) (= q^(4(M - nu))
    in the joint labels) and q^(-4 m), m = m_t + m_k."""
    n, m = mt.size, mt + mk
    pt = _qpow(q, -4 * mt)
    p4 = _qpow(q, -4 * m)
    rt = _sqrt_clamped(pt[:-nk] - 1.0)
    rk = _sqrt_clamped(pt[ku] - _qpow(q, -4 * (m[ku] + 1)))
    return {
        "T3": _op("T3_orb", n, ({},), (0, None, (1.0 - p4) / lam)),
        "T+": _op("T+_orb", n, ({"m_t": 1}, {"m_k": 1}),
                  (-nk, None, rt / (q * lam)), (-1, ku, rk / lam)),
        "T-": _op("T-_orb", n, ({"m_t": -1}, {"m_k": -1}),
                  (nk, None, q * q / (q * lam) * rt),
                  (1, ku, q * q / lam * rk)),
        "tau": _op("tau_orb", n, ({},), (0, None, p4)),
    }


def build_T_orb(window, ctx: QContext) -> RepFamily:
    """Orbital angular momentum on the tensor basis |m_t, m_k>."""
    q = float(ctx.q)
    lam = ctx.lam
    win, mt, mk, nk, ku = _torb_window(window)
    ops = _orbital_ladder(mt, mk, nk, ku, q, lam)
    return RepFamily("T_orb_tensor", {"d": 1.0 / lam}, ops, win,
                     Coords({"m_t": mt, "m_k": mk}))


def build_X_T_R_joint(M: int, z0: float, sigma: int, window,
                      ctx: QContext) -> RepFamily:
    """Coordinates, radius and orbital angular momentum on |M, nu, m>.

    The family's labels are (m_t, m_k), m_t outer: the state |M, nu, m> has
    nu = m_t + M <= M and m = m_t + m_k >= nu - M.  The fused sign sigma
    fixes the coordinate branch (X3 = sigma |z0| q^(2 nu)).
    """
    if sigma not in (1, -1):
        raise DomainError("sigma must be +1 or -1")
    q = float(ctx.q)
    lam = ctx.lam
    rm = dict(window.range_map)
    if "nu" in rm:
        nlo, nhi = rm.pop("nu")
        if nhi > M:
            raise DomainError(f"nu must satisfy nu <= M = {M}")
        rm["m_t"] = (nlo - M, nhi - M)
    if "m_t" not in rm:
        raise WindowError("joint window needs a range for m_t or nu")
    if "m_k" not in rm:
        rm["m_k"] = (0, -rm["m_t"][0])
    win, mt, mk, nk, ku = _torb_window(RepWindow.make(rm))
    z = sigma * abs(z0)
    sq = math.sqrt(1.0 + q * q)
    nu, n = mt + M, mt.size
    r = _sqrt_clamped(_qpow(q, 4 * M) - _qpow(q, 4 * nu[:-nk]))
    try:
        r2 = q**(4 * M + 2) * z0 * z0
    except OverflowError:
        r2 = math.inf
    if not math.isfinite(r2):
        raise DomainError(f"the R2 level q^(4M+2) z0^2 leaves binary64 at "
                          f"M = {M}, z0 = {z0}, q = {q}")
    ops = {
        "X3": _op("X3", n, ({},), (0, None, z * _qpow(q, 2 * nu))),
        "X+": _op("X+", n, ({"m_t": 1},), (-nk, None, -q * q * z / sq * r)),
        "X-": _op("X-", n, ({"m_t": -1},), (nk, None, q * z / sq * r)),
        "R2": _op("R2", n, ({},), (0, None, np.full(n, r2))),
        **_orbital_ladder(mt, mk, nk, ku, q, lam),
    }
    params = {"M": M, "z0": abs(z0), "sigma": sigma, "d": 1.0 / lam}
    return RepFamily("X_T_R_joint", params, ops, win,
                     Coords({"m_t": mt, "m_k": mk}))


def build_L_basis(M: int, r0: float, l_max: int, ctx: QContext) -> RepFamily:
    """Coordinates on the basis |M, l, m> where the quadratic Casimir and
    T3_orb are diagonal; 0 <= l <= l_max, |m| <= l."""
    if l_max < 0:
        raise DomainError("l_max must be >= 0")
    q = float(ctx.q)
    a = np.arange(max(3, 2 * l_max + 2))
    qn = (_qpow(q, a) - _qpow(q, -a)) / (q - 1 / q)      # qn[a] = [a]
    # position i holds (l, m) with i = l^2 + l + m
    l = np.repeat(np.arange(l_max + 1), 2 * np.arange(l_max + 1) + 1)
    n = len(l)
    i = np.arange(n)
    m = i - l * l - l
    pref = r0 * _qpow(q, 2 * M + m)
    up = np.flatnonzero(l < l_max)
    lu, mu, pu = l[up], m[up], pref[up]
    x3 = pu * _recurrence_coeff(lu, mu, qn.__getitem__)
    # X+ towards (l-1, m+1) needs l - m - 1 >= 1, X- towards (l-1, m-1)
    # needs l + m - 1 >= 1
    xp = np.flatnonzero((l >= 1) & (m <= l - 2))
    lp, mp_ = l[xp], m[xp]
    xm = np.flatnonzero((l >= 1) & (m >= 2 - l))
    lm, mm = l[xm], m[xm]
    win = RepWindow.make({"l": (0, l_max), "m": (-l_max, l_max)},
                         hard_lo=("m",), hard_hi=("m",))

    def cg(a, b, l, s):
        """sqrt([a][b] / ([2][2l+1][2l+1+2s])) of the X+- elements."""
        return np.sqrt(qn[a] * qn[b]
                       / (qn[2] * qn[2 * l + 1] * qn[2 * l + 1 + 2 * s]))

    def parts(s, c, k, vals):
        """The parts of _op on the diagonals s (2l + c), l < l_max, of the
        2l + 1 entries at level l of up (l + 1 of xp, xm): (l + 1, m + s)
        sits 2l + 2 + s positions after (l, m)."""
        return [(s * (2 * j + c), k[j * j:(j + 1)**2], vals[j * j:(j + 1)**2])
                for j in range(l_max)]

    ops = {
        "T2": _op("T2_orb", n, ({},), (0, None, q * qn[l] * qn[l + 1])),
        "X3": _op("X3", n, ({"l": 1}, {"l": -1}),
                  *parts(-1, 2, up, x3), *parts(1, 2, up, x3)),
        "X+": _op("X+", n, ({"l": 1, "m": 1}, {"l": -1, "m": 1}),
                  *parts(-1, 3, up, pu * _qpow(q, -lu)
                         * cg(lu + mu + 1, lu + mu + 2, lu, 1)),
                  *parts(1, 1, xp - 2 * lp + 1, -pref[xp] * _qpow(q, lp + 1)
                         * cg(lp - mp_, lp - mp_ - 1, lp, -1))),
        "X-": _op("X-", n, ({"l": 1, "m": -1}, {"l": -1, "m": -1}),
                  *parts(-1, 1, up, pu * _qpow(q, lu)
                         * cg(lu - mu + 1, lu - mu + 2, lu, 1)),
                  *parts(1, 3, xm - 2 * lm - 1, -pref[xm] * _qpow(q, -lm - 1)
                         * cg(lm + mm, lm + mm - 1, lm, -1))),
    }
    return RepFamily("L_basis", {"M": M, "r0": r0}, ops, win,
                     Coords({"l": l, "m": m}))


# ---------------------------------------------------------------------------
# derived operators
# ---------------------------------------------------------------------------

def casimir(family: RepFamily, ctx: QContext) -> LabeledOperator:
    """Quadratic Casimir matrix from tau^(1/2) and the ladder product; its
    band and tau^(-1/2), which build_L_operators reads, are computed once
    per family and q.

    Requires strictly positive tau; on a family whose tau is negative (t and
    K, where the Casimir is the scalar -(1 + q^2)/lam^2) the square roots are
    not real, which is a DomainError.
    """
    q, lam, n = float(ctx.q), ctx.lam, family.n
    if ("T2", q) not in family.derived:
        tau_d = family["tau"].diagonal()
        if not np.all(tau_d > 0):
            raise DomainError("tau has non-positive eigenvalues: no real "
                              "roots")
        root = np.sqrt(tau_d)
        tmh = _Band._dropping_zeros(n, {0: 1.0 / root})    # 0 at tau = inf
        family.derived["T2", q] = (
            (q * q / lam**2) * _Band(n, {0: (root, None)}) + tmh / lam**2
            + tmh @ family["T+"].band @ family["T-"].band
            - (1 + q * q) / lam**2 * _Band.identity(n), tmh)
    return LabeledOperator("T2", family.derived["T2", q][0])


def build_L_operators(family: RepFamily, ctx: QContext) -> dict:
    """Rescaled angular momentum components L3, L+, L- on a tau > 0 family."""
    q = float(ctx.q)
    lam = ctx.lam
    sq = math.sqrt(1.0 + q * q)
    T2 = casimir(family, ctx).band
    tmh = family.derived["T2", q][1]
    Lp = tmh @ family["T+"].band / (q * q * sq)
    Lm = -tmh @ family["T-"].band / (q**3 * sq)
    L3 = (tmh - _Band.identity(family.n) - lam**2 / (1 + q * q) * T2) \
        / (q * q * (1 - q * q))
    return {"L3": LabeledOperator("L3", L3),
            "L+": LabeledOperator("L+", Lp, family["T+"].shift),
            "L-": LabeledOperator("L-", Lm, family["T-"].shift)}


def coproduct(rep1: RepFamily, rep2: RepFamily, variant: str,
              ctx: QContext) -> RepFamily:
    """Tensor-product family through the standard or the sign-twisted rule.

    standard: D(T3) = T3 x 1 + tau x T3, D(T+-) = T+- x 1 + tau^(1/2) x T+-
              (first tau positive);
    beta:     D(T+-) = T+- x 1 +- (-tau)^(1/2) x T+- (first tau negative).
    tau is group-like (product of diagonals), so d = lam d1 d2.  A label
    of the second factor that the first also has is primed (m -> m').
    """
    for which, rep in (("first", rep1), ("second", rep2)):
        missing = [k for k in ("T3", "T+", "T-", "tau") if k not in rep]
        if missing:
            raise DomainError(f"coproduct needs T3, T+, T- and tau; the "
                              f"{which} factor ({rep.kind}) has no "
                              f"{', '.join(missing)}")
    tau1 = rep1["tau"].diagonal()
    if variant == "standard":
        if not np.all(tau1 > 0):
            raise DomainError("standard coproduct needs positive tau in the "
                              "first factor; no definite conjugation otherwise")
        root = np.sqrt(tau1)
        sign_minus = 1.0
    elif variant == "beta":
        if not np.all(tau1 < 0):
            raise DomainError("beta coproduct needs negative tau in the "
                              "first factor; no definite conjugation otherwise")
        root = np.sqrt(-tau1)
        sign_minus = -1.0
    else:
        raise DomainError(f"unknown coproduct variant {variant!r}")

    n1, n2 = rep1.n, rep2.n
    one = _Band.identity(n2)

    def delta(key, diag1):
        """op x 1 + diag1 x op"""
        return rep1[key].band.kron(one) \
            + _Band(n1, {0: (diag1, None)}).kron(rep2[key].band)

    # the second factor's labels, primed until they are new
    taken = set(rep1.coords.arrays) | set(rep1.window.range_map)
    rename = {}
    for k in sorted(set(rep2.coords.arrays) | set(rep2.window.range_map)):
        rename[k] = k
        while rename[k] in taken:
            rename[k] += "'"
        taken.add(rename[k])

    def merge_shift(key):
        allowed = [dict(s) for s in rep1[key].shift or ()] \
            + [{rename[k]: v for k, v in s.items()}
               for s in rep2[key].shift or ()]
        return tuple({tuple(sorted(d.items())): d for d in allowed}.values()) \
            or None

    tau_out = np.kron(tau1, rep2["tau"].diagonal())
    ops = {
        "T3": LabeledOperator("T3", delta("T3", tau1), shift=({},)),
        "T+": LabeledOperator("T+", delta("T+", root), merge_shift("T+")),
        "T-": LabeledOperator("T-", delta("T-", sign_minus * root),
                              merge_shift("T-")),
        "tau": _op("tau", n1 * n2, ({},), (0, None, tau_out)),
    }

    labels = {k: np.repeat(v, n2) for k, v in rep1.coords.arrays.items()}
    labels.update({rename[k]: np.tile(v, n1)
                   for k, v in rep2.coords.arrays.items()})
    win1, win2 = rep1.window, rep2.window
    win = RepWindow.make(
        {**win1.range_map, **{rename[k]: v for k, v in win2.ranges}},
        hard_lo=win1.hard_lo | {rename[k] for k in win2.hard_lo},
        hard_hi=win1.hard_hi | {rename[k] for k in win2.hard_hi})

    d1 = rep1.params.get("d")
    d2 = rep2.params.get("d")
    d_out = None if d1 is None or d2 is None else ctx.lam * d1 * d2
    params = {"d": d_out, "variant": variant}
    # group-like check: the product tau diagonal must equal lam*d*q^(-4m_tot),
    # m_tot the sum of every label, primed ones included (m_t + m_k on T_orb)
    if d_out is not None:
        m_tot = sum(labels.values())
        pred = ctx.lam * d_out * _qpow(float(ctx.q), -4 * m_tot)
        params["group_like_defect"] = float(np.max(
            np.abs(tau_out - pred) / np.maximum(1.0, np.abs(pred)),
            initial=0.0))
    return RepFamily("coproduct", params, ops, win, Coords(labels))


# ---------------------------------------------------------------------------
# fixed-m spectral blocks
# ---------------------------------------------------------------------------

def chain_entries(m: int, m_t: int, q):
    """lam^2 times the order-m Casimir chain's diagonal at m_t and its
    coupling of m_t to m_t + 1 (zero from the chain top min(0, m) up), for
    float or mpf q; a binary64 entry out of range is a DomainError."""
    s = q * q + 1
    try:
        diag = s * q**(2 * (m + 1) - 4 * m_t) - s
        off = 0 * q
        if m_t < min(0, m):
            p = q**(-4 * m_t)
            off = q**(2 * m + 1) * _sqrt_any((p - 1) * (p - q**(-4 * m)))
    except OverflowError:
        diag = off = math.inf
    if mp.isinf(diag) or mp.isinf(off):
        raise DomainError(
            f"Casimir chain entry at m = {m}, m_t = {m_t} overflows "
            f"binary64 at q = {q}")
    return diag, off


def _casimir_chain(m: int, depth: int, q):
    """The order-m Casimir chain on m_t = top - depth .. top, top = min(0,
    m), ascending, in the type of q (float or mpf): the diagonal at each
    m_t and the coupling of each m_t below the top to m_t + 1, both
    chain_entries divided by lam^2."""
    lam2 = (q - 1 / q)**2
    top = min(0, m)
    entries = [chain_entries(m, mt, q) for mt in range(top - depth, top + 1)]
    return [d / lam2 for d, _ in entries], [e / lam2 for _, e in entries[:-1]]


def t2_block(m: int, depth: int, ctx: QContext):
    """Symmetric tridiagonal fixed-m block of the orbital Casimir in the m_t
    chain (couplings to dropped sites absent).  Returns (diag, offdiag, m_t
    labels descending)."""
    if depth < 0:
        raise DomainError(f"chain depth must be >= 0, got {depth}")
    diag, off = _casimir_chain(m, depth, float(ctx.q))
    D, E = np.array(diag[::-1]), np.array(off[::-1])
    if not (np.isfinite(D).all() and np.isfinite(E).all()):
        raise DomainError(f"Casimir chain block at m = {m}, depth {depth} "
                          f"overflows binary64 at q = {ctx.q} once divided "
                          f"by lam^2")
    top = min(0, m)
    return D, E, list(range(top, top - depth - 1, -1))


def t2_block_levels(m: int, depth: int, ctx: QContext, n_levels: int = None):
    """Eigenvalues of the fixed-m Casimir block matched to q[l][l+1].

    The truncated single-sign chain carries the parity class l - |m| odd;
    returns [(l, eigenvalue, rel_err)] for the lowest levels.
    """
    # scipy.linalg is imported by its two readers only: it adds about 0.1 s
    # to the start of every command, and no verify or transform reads it
    from scipy.linalg import eigvalsh_tridiagonal
    D, E, _ = t2_block(m, depth, ctx)
    evs = np.sort(eigvalsh_tridiagonal(D, E))
    if n_levels is None:
        n_levels = len(evs)
    out = []
    am = abs(m)
    for k, v in enumerate(evs[:n_levels]):
        l = am + 1 + 2 * k
        target = casimir_eigenvalue(l, ctx)
        out.append((l, float(v), abs(v - target) / max(1.0, target)))
    return out


def x3_block(M: int, m: int, l_max: int, r0: float, ctx: QContext):
    """Tridiagonal fixed-m block of X3 on the diagonal-Casimir basis: the
    binary64 recurrence coefficients of p_tilde_table (symmetric in m)
    times r0 q^(2M+m).

    Zero diagonal; returns (offdiag, l labels from |m| up to l_max >= |m|)."""
    am = abs(m)
    if l_max < am:
        raise DomainError(f"l_max={l_max} holds no degree of |m|={am}")
    c = _coeffs_through(l_max - 1, am, replace(ctx, precision="double"))
    E = r0 * float(ctx.q)**(2 * M + m) * np.array(c[am:l_max])
    return E, list(range(am, l_max + 1))


def x3_block_levels(M: int, m: int, l_max: int, r0: float, ctx: QContext):
    """Positive X3 eigenvalues of the truncated block matched against the
    geometric lattice r0 q^(2 nu - 1), nu <= M + min(0, m).

    Only the largest levels are lattice-exact; the 5 levels nearest zero
    are dropped as truncation-distorted.  Returns [(nu, eigenvalue, rel_err)].
    """
    from scipy.linalg import eigvalsh_tridiagonal
    E, ls = x3_block(M, m, l_max, r0, ctx)
    evs = np.sort(eigvalsh_tridiagonal(np.zeros(len(ls)), E))[::-1]
    n_pos = len(ls) // 2
    q = float(ctx.q)
    nu_top = M + min(0, m)
    out = []
    for k in range(max(0, n_pos - 5)):
        nu = nu_top - k
        target = r0 * q**(2 * nu - 1)
        out.append((nu, float(evs[k]), abs(evs[k] - target) / target))
    return out
