"""Operator representations as truncated band matrices.

Ladder operators annihilate states outside the window, so every relation is
exact on interior rows and columns.  All matrix elements are real; bases are
orthonormal, so conjugation is matrix transposition.

The builders work on label arrays: a band neighbour is an index offset under
a boolean mask, and each operator is assembled once from (rows, cols,
values) arrays.  Powers of q are Python float powers, one per distinct
exponent, gathered into arrays (numpy's float ** int array can differ from
them in the last bit), so the matrix elements are the scalar formulas'.
"""

import math

import numpy as np
import scipy.sparse as sp
import scipy.linalg as sla

from .context import QContext
from .errors import DomainError, WindowError
from .operators import Coords, LabeledOperator, RepFamily, RepWindow
from .qarith import _qnum

__all__ = [
    "build_T_generic", "build_t_special", "build_X_over_R",
    "build_K_generic", "build_K_orbital", "build_T_orb",
    "build_X_T_R_joint", "build_L_basis", "build_L_operators",
    "casimir", "coproduct", "add_spin", "r0_from_z0",
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
    distinct exponent.  A power beyond binary64 is a DomainError."""
    e = np.asarray(e)
    uniq, inv = np.unique(e, return_inverse=True)
    try:
        table = np.array([q**k for k in uniq.tolist()], dtype=float)
    except OverflowError:
        raise DomainError(
            f"q**e overflows binary64 for exponents in [{uniq[0]}, "
            f"{uniq[-1]}] at q = {q}; the window is too large for this q"
        ) from None
    return table[inv].reshape(e.shape)


def _op(name, basis, shift, *parts):
    """LabeledOperator assembled from (rows, cols, values) parts."""
    n = len(basis)
    rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    return LabeledOperator(
        name, basis, sp.csr_matrix((vals, (rows, cols)), shape=(n, n)), shift)


def _diag(vals):
    i = np.arange(len(vals))
    return i, i, vals


def _ladder_steps(m):
    """Positions of the ascending labels m whose m + 1, respectively m - 1,
    is also a label (the next, respectively previous, position)."""
    up = np.flatnonzero(m[:-1] + 1 == m[1:])
    dn = np.flatnonzero(m[1:] - 1 == m[:-1]) + 1
    return up, dn


def casimir_eigenvalue(l, ctx: QContext) -> float:
    """q [l][l+1], the quadratic Casimir value on the spin-l ladder
    (l may be half-integer)."""
    q = float(ctx.q)
    return q * _qnum(l, q) * _qnum(l + 1, q)


def r0_from_z0(z0: float, ctx: QContext) -> float:
    """Radial scale of the diagonal-Casimir basis matching a coordinate
    eigenvalue scale z0 (r0 = q z0)."""
    return float(ctx.q) * z0


# ---------------------------------------------------------------------------
# ladder families on a single lattice line
# ---------------------------------------------------------------------------

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
        ms = [(-m_bar) + k for k in range(int(round(two)) + 1)]
        win = RepWindow.make({"m": (-m_bar, m_bar)},
                             hard_lo=("m",), hard_hi=("m",))
    else:
        if window is None:
            raise DomainError("infinite-dimensional ladder needs a window")
        lo, hi = window.range_map["m"]
        if hi > m_bar + 1e-12:
            raise WindowError(
                f"window top {hi} exceeds the ladder head m_bar = {m_bar}")
        ms = [lo + k for k in range(int(round(hi - lo)) + 1)]
        hard_hi = ("m",) if abs(hi - m_bar) <= 1e-12 else ()
        win = RepWindow.make({"m": (lo, hi)}, hard_hi=hard_hi)

    def ccstar(m):
        p = _qpow(q, -2 * m)
        return (p - q**(-2 * m_bar)) * (q**(2 * (m_bar + 1)) / lam - d * p) \
            / (lam * q**4)

    m = np.array(ms)
    up, dn = _ladder_steps(m)
    p4 = _qpow(q, -4 * m)
    tau = d * lam * p4
    c = _sqrt_clamped(ccstar(m))
    ops = {
        "T3": _op("T3", ms, ({},), _diag(1.0 / lam - d * p4)),
        "T+": _op("T+", ms, ({"m": 1},), (up + 1, up, c[up])),
        "T-": _op("T-", ms, ({"m": -1},),
                  (dn - 1, dn, q * q * _sqrt_clamped(ccstar(m[dn] - 1)))),
        "tau": _op("tau", ms, ({},), _diag(tau)),
    }
    if np.all(tau > 0):
        ops["tau^1/2"] = _op("tau^1/2", ms, ({},), _diag(np.sqrt(tau)))
        ops["tau^-1/2"] = _op("tau^-1/2", ms, ({},),
                              _diag(1.0 / np.sqrt(tau)))
    params = {"d": d, "m_bar": m_bar, "m_name": "m"}
    if finite:
        params["casimir_scalar"] = casimir_eigenvalue(m_bar, ctx)
    return RepFamily("T_generic", params, ops, win, ctx, Coords({"m": m}))


def build_t_special(window, ctx: QContext) -> RepFamily:
    """The unique ladder with head m_t = 0 solving the coordinate constraints
    (d = -q^2/lam); tau has strictly negative eigenvalues."""
    q = float(ctx.q)
    lam = ctx.lam
    lo, hi = window.range_map["m_t"]
    if hi > 0:
        raise DomainError("no state with positive m_t exists")
    m = np.arange(int(lo), int(hi) + 1)
    ms = m.tolist()
    up, dn = _ladder_steps(m)
    p4 = _qpow(q, -4 * m)
    win = RepWindow.make({"m_t": (lo, hi)},
                         hard_hi=("m_t",) if hi == 0 else ())
    ops = {
        "T3": _op("t3", ms, ({},), _diag((1.0 + q * q * p4) / lam)),
        "T+": _op("t+", ms, ({"m_t": 1},),
                  (up + 1, up, _sqrt_clamped(p4[up] - 1.0) / (lam * q))),
        "T-": _op("t-", ms, ({"m_t": -1},),
                  (dn - 1, dn, q / lam * _sqrt_clamped(
                      _qpow(q, -4 * (m[dn] - 1)) - 1.0))),
        "tau": _op("tau_t", ms, ({},), _diag(-q * q * p4)),
    }
    params = {"d": -q * q / lam, "m_bar": 0.0, "m_name": "m_t",
              "casimir_scalar": -(1 + q * q) / lam**2}
    return RepFamily("t_special", params, ops, win, ctx, Coords({"m_t": m}))


def build_X_over_R(sign: int, window, ctx: QContext) -> RepFamily:
    """Homogeneous coordinates X R^-1 on the m_t ladder; the global sign
    labels the two inequivalent irreducible representations."""
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    q = float(ctx.q)
    lo, hi = window.range_map["m_t"]
    if hi > 0:
        raise DomainError("no state with positive m_t exists")
    m = np.arange(int(lo), int(hi) + 1)
    ms = m.tolist()
    up, dn = _ladder_steps(m)
    s = float(sign)
    sq = math.sqrt(1.0 + q * q)
    win = RepWindow.make({"m_t": (lo, hi)},
                         hard_hi=("m_t",) if hi == 0 else ())
    ops = {
        "X3R": _op("X3/R", ms, ({},), _diag(s * _qpow(q, 2 * m - 1))),
        "X+R": _op("X+/R", ms, ({"m_t": 1},),
                   (up + 1, up, -s * q / sq * _sqrt_clamped(
                       1.0 - _qpow(q, 4 * m[up])))),
        "X-R": _op("X-/R", ms, ({"m_t": -1},),
                   (dn - 1, dn, s / sq * _sqrt_clamped(
                       1.0 - _qpow(q, 4 * (m[dn] - 1))))),
    }
    return RepFamily("X_over_R", {"sign": sign, "m_name": "m_t"},
                     ops, win, ctx, Coords({"m_t": m}))


def build_K_generic(d_k: float, alpha: float, window, ctx: QContext) -> RepFamily:
    """Non-compact ladder family; admissible iff the quadratic kappa is
    non-negative on the whole window."""
    q = float(ctx.q)
    lam = ctx.lam
    lo, hi = window.range_map["m_k"]
    m = np.arange(int(lo), int(hi) + 1)
    ms = m.tolist()
    up, dn = _ladder_steps(m)

    def kappa(x):
        return 1.0 / (q * q * lam * lam) - alpha * x + d_k / (lam * q**4) * x * x

    p4 = _qpow(q, -4 * m)
    kv = kappa(_qpow(q, -2 * m))
    neg = np.flatnonzero(kv < _RAD_CLAMP)
    if neg.size:
        raise WindowError(
            f"kappa < 0 at m_k = {ms[neg[0]]}: window not admissible for "
            f"(d_k={d_k}, alpha={alpha})")
    ops = {
        "T3": _op("K3", ms, ({},), _diag(1.0 / lam - d_k * p4)),
        "T+": _op("K+", ms, ({"m_k": 1},),
                  (up + 1, up, _sqrt_clamped(kv[up]))),
        "T-": _op("K-", ms, ({"m_k": -1},),
                  (dn - 1, dn, -q * q * _sqrt_clamped(
                      kappa(_qpow(q, -2 * (m[dn] - 1)))))),
        "tau": _op("tau_k", ms, ({},), _diag(d_k * lam * p4)),
    }
    return RepFamily("K_generic", {"d": d_k, "alpha": alpha, "m_name": "m_k"},
                     ops, window, ctx, Coords({"m_k": m}))


def build_K_orbital(window, ctx: QContext) -> RepFamily:
    """The unique K family entering orbital angular momentum:
    d_k = -1/(lam q^2), alpha = 0, ladder bounded below at m_k = 0."""
    q = float(ctx.q)
    lam = ctx.lam
    lo, hi = window.range_map["m_k"]
    if lo != 0:
        raise WindowError("orbital K ladder starts at m_k = 0")
    win = RepWindow.make({"m_k": (0, hi)}, hard_lo=("m_k",))
    fam = build_K_generic(-1.0 / (lam * q * q), 0.0, win, ctx)
    params = dict(fam.params)
    params.update({"m_under": -1, "casimir_scalar": -(1 + q * q) / lam**2})
    return RepFamily("K_orbital", params, fam.operators, win, ctx, fam.coords)


# ---------------------------------------------------------------------------
# tensor families
# ---------------------------------------------------------------------------

def _torb_window(window):
    rm = window.range_map
    if "m_t" not in rm or "m_k" not in rm:
        raise WindowError("tensor window needs ranges for m_t and m_k")
    (tlo, thi), (klo, khi) = rm["m_t"], rm["m_k"]
    if thi > 0:
        raise DomainError("no state with positive m_t exists")
    if klo < 0:
        raise DomainError("m_k is bounded below by 0")
    hard_hi = ("m_t",) if thi == 0 else ()
    hard_lo = ("m_k",) if klo == 0 else ()
    return RepWindow.make({"m_t": (tlo, thi), "m_k": (klo, khi)},
                          hard_lo=hard_lo, hard_hi=hard_hi), \
        (int(tlo), int(thi)), (int(klo), int(khi))


def _tensor_grid(tlo, thi, klo, khi):
    """Labels of the tensor basis |m_t, m_k> (m_t outer), the row length nk
    (the position offset of an m_t neighbour), and the positions whose m_t
    or m_k neighbour above or below lies in the window."""
    nk = khi - klo + 1
    mt = np.repeat(np.arange(tlo, thi + 1), nk)
    mk = np.tile(np.arange(klo, khi + 1), thi - tlo + 1)
    steps = {"t+": np.flatnonzero(mt < thi), "k+": np.flatnonzero(mk < khi),
             "t-": np.flatnonzero(mt > tlo), "k-": np.flatnonzero(mk > klo)}
    return mt, mk, nk, steps


def build_T_orb(window, ctx: QContext) -> RepFamily:
    """Orbital angular momentum on the tensor basis |m_t, m_k>."""
    q = float(ctx.q)
    lam = ctx.lam
    win, (tlo, thi), (klo, khi) = _torb_window(window)
    mt, mk, nk, st = _tensor_grid(tlo, thi, klo, khi)
    basis = list(zip(mt.tolist(), mk.tolist()))
    p4 = _qpow(q, -4 * (mt + mk))
    tu, ku, td, kd = st["t+"], st["k+"], st["t-"], st["k-"]
    ops = {
        "T3": _op("T3_orb", basis, ({},), _diag((1.0 - p4) / lam)),
        "T+": _op("T+_orb", basis, ({"m_t": 1}, {"m_k": 1}),
                  (tu + nk, tu, _sqrt_clamped(
                      _qpow(q, -4 * mt[tu]) - 1.0) / (lam * q)),
                  (ku + 1, ku, _qpow(q, -2 * mt[ku]) * _sqrt_clamped(
                      1.0 - _qpow(q, -4 * (mk[ku] + 1))) / lam)),
        "T-": _op("T-_orb", basis, ({"m_t": -1}, {"m_k": -1}),
                  (td - nk, td, q / lam * _sqrt_clamped(
                      _qpow(q, -4 * (mt[td] - 1)) - 1.0)),
                  (kd - 1, kd, q * q / lam * _qpow(q, -2 * mt[kd])
                   * _sqrt_clamped(1.0 - _qpow(q, -4 * mk[kd])))),
        "tau": _op("tau_orb", basis, ({},), _diag(p4)),
    }
    return RepFamily("T_orb_tensor", {"d": 1.0 / lam, "m_name": None},
                     ops, win, ctx, Coords({"m_t": mt, "m_k": mk}))


def build_X_T_R_joint(M: int, z0: float, sigma: int, window,
                      ctx: QContext) -> RepFamily:
    """Coordinates, radius and orbital angular momentum on |M, nu, m>.

    nu = m_t + M <= M and m = m_t + m_k >= nu - M label the states; the
    fused sign sigma fixes the coordinate branch (X3 = sigma |z0| q^(2 nu)).
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
    win, (tlo, thi), (klo, khi) = _torb_window(RepWindow.make(rm))
    z = sigma * abs(z0)
    sq = math.sqrt(1.0 + q * q)
    mt, mk, nk, st = _tensor_grid(tlo, thi, klo, khi)
    nu, m = mt + M, mt + mk
    basis = list(zip(nu.tolist(), m.tolist()))
    p4 = _qpow(q, -4 * m)
    pM = _qpow(q, 4 * M)
    tu, ku, td, kd = st["t+"], st["k+"], st["t-"], st["k-"]
    ops = {
        "X3": _op("X3", basis, ({},), _diag(z * _qpow(q, 2 * nu))),
        "X+": _op("X+", basis, ({"m_t": 1},),
                  (tu + nk, tu, -q * q * z / sq * _sqrt_clamped(
                      pM - _qpow(q, 4 * nu[tu])))),
        "X-": _op("X-", basis, ({"m_t": -1},),
                  (td - nk, td, q * z / sq * _sqrt_clamped(
                      pM - _qpow(q, 4 * (nu[td] - 1))))),
        "R2": _op("R2", basis, ({},),
                  _diag(np.full(len(basis), q**(4 * M + 2) * z0 * z0))),
        "T3": _op("T3_orb", basis, ({},), _diag((1.0 - p4) / lam)),
        "T+": _op("T+_orb", basis, ({"m_t": 1}, {"m_k": 1}),
                  (tu + nk, tu, _sqrt_clamped(
                      _qpow(q, 4 * (M - nu[tu])) - 1.0) / (q * lam)),
                  (ku + 1, ku, _sqrt_clamped(
                      _qpow(q, 4 * (M - nu[ku]))
                      - _qpow(q, -4 * (m[ku] + 1))) / lam)),
        "T-": _op("T-_orb", basis, ({"m_t": -1}, {"m_k": -1}),
                  (td - nk, td, q * q / (q * lam) * _sqrt_clamped(
                      _qpow(q, 4 * (M - nu[td] + 1)) - 1.0)),
                  (kd - 1, kd, q * q / lam * _sqrt_clamped(
                      _qpow(q, 4 * (M - nu[kd])) - p4[kd]))),
        "tau": _op("tau_orb", basis, ({},), _diag(p4)),
    }
    params = {"M": M, "z0": abs(z0), "sigma": sigma, "d": 1.0 / lam,
              "m_name": None}
    return RepFamily("X_T_R_joint", params, ops, win, ctx,
                     Coords({"m_t": mt, "m_k": mk}))


def build_L_basis(M: int, r0: float, l_max: int, ctx: QContext) -> RepFamily:
    """Coordinates on the basis |M, l, m> where the quadratic Casimir and
    T3_orb are diagonal; 0 <= l <= l_max, |m| <= l."""
    if l_max < 0:
        raise DomainError("l_max must be >= 0")
    q = float(ctx.q)
    a = np.arange(max(3, 2 * l_max + 2))
    qn = (_qpow(q, a) - _qpow(q, -a)) / (q - 1 / q)      # qn[a] = [a]
    two = qn[2]
    # position i holds (l, m) with i = l^2 + l + m
    l = np.repeat(np.arange(l_max + 1), 2 * np.arange(l_max + 1) + 1)
    i = np.arange(len(l))
    m = i - l * l - l
    basis = list(zip(l.tolist(), m.tolist()))
    pref = r0 * _qpow(q, 2 * M + m)
    up = np.flatnonzero(l < l_max)
    lu, mu, pu = l[up], m[up], pref[up]
    den_u = qn[2 * lu + 1] * qn[2 * lu + 3]
    dn = np.flatnonzero((l >= 1) & (np.abs(m) <= l - 1))
    ld, md = l[dn], m[dn]
    # X+ towards (l-1, m+1) needs l - m - 1 >= 1, X- towards (l-1, m-1)
    # needs l + m - 1 >= 1
    xp = np.flatnonzero((l >= 1) & (m <= l - 2))
    lp, mp_ = l[xp], m[xp]
    xm = np.flatnonzero((l >= 1) & (m >= 2 - l))
    lm, mm = l[xm], m[xm]
    win = RepWindow.make({"l": (0, l_max), "m": (-l_max, l_max)},
                         hard_lo=("m",), hard_hi=("m",))
    ops = {
        "T2": _op("T2_orb", basis, ({},), _diag(q * qn[l] * qn[l + 1])),
        "X3": _op("X3", basis, ({"l": 1}, {"l": -1}),
                  (up + 2 * lu + 2, up, pu * np.sqrt(
                      qn[lu + mu + 1] * qn[lu - mu + 1] / den_u)),
                  (dn - 2 * ld, dn, pref[dn] * np.sqrt(
                      qn[ld + md] * qn[ld - md]
                      / (qn[2 * ld + 1] * qn[2 * ld - 1])))),
        "X+": _op("X+", basis, ({"l": 1, "m": 1}, {"l": -1, "m": 1}),
                  (up + 2 * lu + 3, up, pu * _qpow(q, -lu) * np.sqrt(
                      qn[lu + mu + 1] * qn[lu + mu + 2]
                      / (two * qn[2 * lu + 1] * qn[2 * lu + 3]))),
                  (xp - 2 * lp + 1, xp, -pref[xp] * _qpow(q, lp + 1) * np.sqrt(
                      qn[lp - mp_] * qn[lp - mp_ - 1]
                      / (two * qn[2 * lp + 1] * qn[2 * lp - 1])))),
        "X-": _op("X-", basis, ({"l": 1, "m": -1}, {"l": -1, "m": -1}),
                  (up + 2 * lu + 1, up, pu * _qpow(q, lu) * np.sqrt(
                      qn[lu - mu + 1] * qn[lu - mu + 2]
                      / (two * qn[2 * lu + 1] * qn[2 * lu + 3]))),
                  (xm - 2 * lm - 1, xm, -pref[xm] * _qpow(q, -lm - 1)
                   * np.sqrt(qn[lm + mm] * qn[lm + mm - 1]
                             / (two * qn[2 * lm + 1] * qn[2 * lm - 1])))),
    }
    return RepFamily("L_basis", {"M": M, "r0": r0, "m_name": None},
                     ops, win, ctx, Coords({"l": l, "m": m}))


# ---------------------------------------------------------------------------
# derived operators
# ---------------------------------------------------------------------------

def casimir(family: RepFamily, ctx: QContext,
            scalar_if_negative: bool = False) -> LabeledOperator:
    """Quadratic Casimir matrix from tau^(1/2) and the ladder product.

    Requires strictly positive tau.  Families whose tau is negative carry a
    fixed scalar value; pass scalar_if_negative=True to receive it as a
    multiple of the identity instead of a DomainError.
    """
    q = float(ctx.q)
    lam = ctx.lam
    tau_d = family["tau"].diagonal()
    n = family.n
    if np.all(tau_d > 0):
        th = sp.diags(np.sqrt(tau_d))
        tmh = sp.diags(1.0 / np.sqrt(tau_d))
        mat = (q * q / lam**2) * th + tmh / lam**2 \
            + tmh @ family.op_csr("T+") @ family.op_csr("T-") \
            - (1 + q * q) / lam**2 * sp.identity(n)
        return LabeledOperator("T2", family.basis, mat)
    if scalar_if_negative and "casimir_scalar" in family.params:
        c = family.params["casimir_scalar"]
        return _op("T2", family.basis, ({},), _diag(np.full(n, c)))
    raise DomainError(
        "tau has non-positive eigenvalues; the Casimir square roots are not "
        "real (request the family's scalar value with scalar_if_negative=True)")


def build_L_operators(family: RepFamily, ctx: QContext) -> dict:
    """Rescaled angular momentum components L3, L+, L- on a tau > 0 family."""
    q = float(ctx.q)
    lam = ctx.lam
    tau_d = family["tau"].diagonal()
    if not np.all(tau_d > 0):
        raise DomainError("L operators need positive tau (tau^(-1/2) real)")
    tmh = sp.diags(1.0 / np.sqrt(tau_d))
    sq = math.sqrt(1.0 + q * q)
    n = family.n
    T2 = family.op_csr("T2") if "T2" in family else \
        casimir(family, ctx).to_csr()
    Lp = tmh @ family.op_csr("T+") / (q * q * sq)
    Lm = -tmh @ family.op_csr("T-") / (q**3 * sq)
    L3 = (tmh - sp.identity(n) - lam**2 / (1 + q * q) * T2) / (q * q * (1 - q * q))
    return {"L3": LabeledOperator("L3", family.basis, L3),
            "L+": LabeledOperator("L+", family.basis, Lp, family["T+"].shift),
            "L-": LabeledOperator("L-", family.basis, Lm, family["T-"].shift)}


def coproduct(rep1: RepFamily, rep2: RepFamily, variant: str,
              ctx: QContext) -> RepFamily:
    """Tensor-product family through the standard or the sign-twisted rule.

    standard: D(T3) = T3 x 1 + tau x T3, D(T+-) = T+- x 1 + tau^(1/2) x T+-
              (first tau positive);
    beta:     D(T+-) = T+- x 1 +- (-tau)^(1/2) x T+- (first tau negative).
    tau is group-like (product of diagonals), so d = lam d1 d2.
    """
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
    basis = [(a, b) for a in rep1.basis for b in rep2.basis]
    one = sp.identity(n2, format="csr")

    def delta(key, diag1):
        """op x 1 + diag1 x op"""
        return sp.kron(rep1.op_csr(key), one, format="csr") \
            + sp.kron(sp.diags(diag1), rep2.op_csr(key), format="csr")

    def merge_shift(s1, s2):
        allowed = [dict(s) for s in (s1 or ()) + (s2 or ())]
        return tuple({tuple(sorted(d.items())): d for d in allowed}.values()) \
            or None

    tau_out = np.kron(tau1, rep2["tau"].diagonal())
    ops = {
        "T3": LabeledOperator("T3", basis, delta("T3", tau1), shift=({},)),
        "T+": LabeledOperator("T+", basis, delta("T+", root),
                              shift=merge_shift(rep1["T+"].shift,
                                                rep2["T+"].shift)),
        "T-": LabeledOperator("T-", basis, delta("T-", sign_minus * root),
                              shift=merge_shift(rep1["T-"].shift,
                                                rep2["T-"].shift)),
        "tau": _op("tau", basis, ({},), _diag(tau_out)),
    }

    labels = {k: np.repeat(v, n2) for k, v in rep1.coords.arrays.items()}
    for k, v in rep2.coords.arrays.items():
        labels[k if k not in labels else k + "'"] = np.tile(v, n1)
    ranges = dict(rep1.window.ranges)
    hard_lo = set(rep1.window.hard_lo)
    hard_hi = set(rep1.window.hard_hi)
    for k, v in rep2.window.ranges:
        kk = k if k not in ranges else k + "'"
        ranges[kk] = v
        if k in rep2.window.hard_lo:
            hard_lo.add(kk)
        if k in rep2.window.hard_hi:
            hard_hi.add(kk)
    win = RepWindow.make(ranges, hard_lo=hard_lo, hard_hi=hard_hi)

    d1 = rep1.params.get("d")
    d2 = rep2.params.get("d")
    d_out = None if d1 is None or d2 is None else ctx.lam * d1 * d2
    params = {"d": d_out, "variant": variant, "m_name": None}
    # group-like check: the product tau diagonal must equal lam*d*q^(-4m_tot)
    n1_name = rep1.params.get("m_name")
    n2_name = rep2.params.get("m_name")
    if d_out is not None and n1_name and n2_name:
        m_tot = np.repeat(rep1.coords.arrays[n1_name], n2) \
            + np.tile(rep2.coords.arrays[n2_name], n1)
        pred = ctx.lam * d_out * _qpow(float(ctx.q), -4 * m_tot)
        params["group_like_defect"] = float(np.max(
            np.abs(tau_out - pred) / np.maximum(1.0, np.abs(pred)),
            initial=0.0))
    return RepFamily("coproduct", params, ops, win, ctx, Coords(labels))


def add_spin(orb: RepFamily, spin: RepFamily, ctx: QContext) -> RepFamily:
    """Couple a finite-dimensional spin ladder to an orbital family through
    the standard rule (orbital tau must be positive)."""
    d_spin = spin.params.get("d")
    if d_spin is None or abs(d_spin - 1.0 / ctx.lam) > 1e-9 / ctx.lam:
        raise DomainError("spin factor must be a finite ladder (d = 1/lam)")
    out = coproduct(orb, spin, "standard", ctx)
    return RepFamily("spin_added", out.params, out.operators, out.window,
                     ctx, out.coords)


# ---------------------------------------------------------------------------
# fixed-m spectral blocks
# ---------------------------------------------------------------------------

def t2_block(m: int, depth: int, ctx: QContext):
    """Symmetric tridiagonal fixed-m block of the orbital Casimir in the m_t
    chain (entries straight from the three-term structure; couplings to
    dropped sites absent).  Returns (diag, offdiag, m_t labels descending)."""
    q = float(ctx.q)
    lam = ctx.lam
    top = min(0, m)
    mts = list(range(top, top - depth - 1, -1))
    n = len(mts)
    D = np.zeros(n)
    E = np.zeros(n - 1)
    for j, mt in enumerate(mts):
        D[j] = ((q * q + 1) * q**(2 * (m + 1) - 4 * mt) - (q * q + 1)) / lam**2
        if j + 1 < n:
            E[j] = q**(2 * m + 1) * _sqrt_clamped(
                (q**(4 - 4 * mt) - 1.0) * (q**(4 - 4 * mt) - q**(-4 * m))) / lam**2
    return D, E, mts


def t2_block_levels(m: int, depth: int, ctx: QContext, n_levels: int = None):
    """Eigenvalues of the fixed-m Casimir block matched to q[l][l+1].

    The truncated single-sign chain carries the parity class l - |m| odd;
    returns [(l, eigenvalue, rel_err)] for the lowest levels.
    """
    D, E, _ = t2_block(m, depth, ctx)
    evs = np.sort(sla.eigvalsh_tridiagonal(D, E))
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
    """Tridiagonal fixed-m block of X3 on the diagonal-Casimir basis.

    Zero diagonal; returns (offdiag, l labels ascending from |m|)."""
    q = float(ctx.q)

    def qn(a):
        return _qnum(a, q)

    ls = list(range(abs(m), l_max + 1))
    E = np.array([r0 * q**(2 * M + m) * math.sqrt(
        qn(l + m + 1) * qn(l - m + 1) / (qn(2 * l + 1) * qn(2 * l + 3)))
        for l in ls[:-1]])
    return E, ls


def x3_block_levels(M: int, m: int, l_max: int, r0: float, ctx: QContext,
                    margin: int = 5):
    """Positive X3 eigenvalues of the truncated block matched against the
    geometric lattice r0 q^(2 nu - 1), nu <= M + min(0, m).

    Only the largest levels are lattice-exact; `margin` levels nearest zero
    are dropped as truncation-distorted.  Returns [(nu, eigenvalue, rel_err)].
    """
    E, ls = x3_block(M, m, l_max, r0, ctx)
    evs = np.sort(sla.eigvalsh_tridiagonal(np.zeros(len(ls)), E))[::-1]
    n_pos = len(ls) // 2
    q = float(ctx.q)
    nu_top = M + min(0, m)
    out = []
    for k in range(max(0, n_pos - margin)):
        nu = nu_top - k
        target = r0 * q**(2 * nu - 1)
        out.append((nu, float(evs[k]), abs(evs[k] - target) / target))
    return out
