"""Machine verification of the algebraic, conjugation and constraint
relations on truncated representations.

Every relation is expressed as a list of band-matrix terms that must sum to
zero.  The reported figure is the maximum entry of the sum restricted to
interior rows and columns, relative to the largest interior entry among the
constituent terms (so exponentially large matrix elements do not masquerade
as failures, and genuinely zero relations are normalized by their parts).

Every term is evaluated on the _Band each LabeledOperator stores, one
vector per diagonal offset, with scipy.sparse's arithmetic value for value.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .context import QContext
from .errors import DomainError, WindowError
from .operators import RepFamily, RepWindow, _Band
from .repspace import (build_K_orbital, build_L_operators,
                       build_X_T_R_joint, build_X_over_R, build_t_special,
                       casimir)

__all__ = ["VerificationReport", "verify_relations", "default_families",
           "RELATION_GROUPS", "commutator_magnitude"]

RELATION_GROUPS = ("x", "t", "k", "torb", "conj", "orbital-constraint")


@dataclass
class VerificationReport:
    q: float
    tol: float
    records: list = field(default_factory=list)

    def add(self, relation, family, window, max_residual, interior_states):
        self.records.append({
            "relation": relation,
            "family": family,
            "window": window,
            "q": self.q,
            "max_residual": max_residual,
            "interior_states": interior_states,
            "pass": bool(max_residual < self.tol),
        })

    @property
    def passed(self) -> bool:
        return all(r["pass"] for r in self.records)

    @property
    def max_residual(self) -> float:
        """Largest residual over the records; NaN if any record is NaN."""
        vals = [r["max_residual"] for r in self.records]
        if any(math.isnan(v) for v in vals):
            return math.nan
        return max(vals, default=0.0)

    def to_dict(self):
        return {
            "schema": "qspace3/1",
            "q": self.q,
            "tol": self.tol,
            "pass": self.passed,
            "max_residual": self.max_residual,
            "relations": self.records,
        }

    def to_json(self, **kw):
        kw.setdefault("sort_keys", True)
        kw.setdefault("indent", 2)
        return json.dumps(self.to_dict(), **kw)


def _interior_abs_max(band, interior):
    """max |entry| over the entries whose row and column are both interior
    (NaN if any of them is NaN); None when there are none."""
    n = band.n
    best = []
    for d, (v, present) in band.diags.items():
        lo, hi = max(0, -d), min(n, n - d)
        keep = interior[lo:hi] & interior[lo + d:hi + d]
        if present is not None:
            keep &= present
        if keep.any():
            best.append(np.abs(v[keep]).max())
    return np.max(best) if best else None


def _interior_residual(terms, interior):
    """max interior |sum(terms)| / max(1, max interior |term|)."""
    total = None
    scale = 0.0
    for t in terms:
        total = t if total is None else total + t
        a = _interior_abs_max(t, interior)
        if a is not None:
            scale = max(scale, a)
    worst = _interior_abs_max(total, interior)
    return float((0.0 if worst is None else worst) / max(1.0, scale))


def _interior(fam: RepFamily, family):
    """The family's interior mask; an empty interior is a WindowError,
    since every relation would then pass without being measured."""
    if not fam.interior.any():
        raise WindowError(
            f"the {family} family has no interior state in the window "
            f"{_window_dict(fam)}; widen the window")
    return fam.interior


def _window_dict(fam: RepFamily):
    return {name: [lo, hi] for name, (lo, hi) in fam.window.ranges}


class _Suite:
    """Caches the verification families for one configuration."""

    def __init__(self, ctx: QContext, n_depth=40, k_width=40):
        self.ctx = ctx
        self.n_depth = n_depth
        self.k_width = k_width
        self._cache = {}

    def joint(self):
        if "joint" not in self._cache:
            win = RepWindow.make({"m_t": (-self.n_depth, 0),
                                  "m_k": (0, self.k_width)})
            self._cache["joint"] = build_X_T_R_joint(0, 1.0, 1, win, self.ctx)
        return self._cache["joint"]

    def t_special(self):
        if "t" not in self._cache:
            win = RepWindow.make({"m_t": (-self.n_depth, 0)})
            self._cache["t"] = build_t_special(win, self.ctx)
        return self._cache["t"]

    def x_over_r(self):
        if "xr" not in self._cache:
            win = RepWindow.make({"m_t": (-self.n_depth, 0)})
            self._cache["xr"] = build_X_over_R(1, win, self.ctx)
        return self._cache["xr"]

    def k_orbital(self):
        if "k" not in self._cache:
            win = RepWindow.make({"m_k": (0, self.k_width)}, hard_lo=("m_k",))
            self._cache["k"] = build_K_orbital(win, self.ctx)
        return self._cache["k"]


def default_families(ctx: QContext, n_depth=40, k_width=40) -> _Suite:
    """The verification families at M = 0, z0 = 1, sigma = +1."""
    return _Suite(ctx, n_depth, k_width)


def _su2_relations(F3, Fp, Fm, q):
    """The deformed commutation relations shared by all ladder triples."""
    return [
        ("ladder commutator", [Fp @ Fm / q, -q * Fm @ Fp, -F3]),
        ("weight raising", [q * q * F3 @ Fp, -Fp @ F3 / (q * q),
                            -(q + 1 / q) * Fp]),
        ("weight lowering", [q * q * Fm @ F3, -F3 @ Fm / (q * q),
                             -(q + 1 / q) * Fm]),
    ]


def verify_relations(suite, groups, ctx: QContext) -> VerificationReport:
    """Run the requested relation groups and collect residuals.

    `suite` comes from default_families; `groups` is an iterable drawn from
    RELATION_GROUPS or the string "all".
    """
    if groups == "all" or "all" in groups:
        groups = RELATION_GROUPS
    unknown = set(groups) - set(RELATION_GROUPS)
    if unknown:
        raise DomainError(f"unknown relation groups: {sorted(unknown)}")
    q = float(ctx.q)
    lam = ctx.lam
    rep = VerificationReport(q=q, tol=ctx.tol_rel)

    def rec(name, family, fam, terms):
        interior = _interior(fam, family)
        rep.add(name, family, _window_dict(fam),
                _interior_residual(terms, interior), int(interior.sum()))

    if "x" in groups:
        J = suite.joint()
        X3, Xp, Xm = J["X3"].band, J["X+"].band, J["X-"].band
        R2, tau = J["R2"].band, J["tau"].band
        rec("X3 X+ twist", "joint", J, [X3 @ Xp, -q * q * Xp @ X3])
        rec("X3 X- twist", "joint", J, [X3 @ Xm, -Xm @ X3 / (q * q)])
        rec("coordinate commutator", "joint", J,
            [Xm @ Xp, -Xp @ Xm, -lam * X3 @ X3])
        rec("radius definition", "joint", J,
            [R2, -X3 @ X3, q * Xp @ Xm, Xm @ Xp / q])
        rec("radius positive form", "joint", J,
            [R2, -q * q * X3.T @ X3, -(1 + q**-2) * Xp.T @ Xp])
        for (nm, O) in (("X+", Xp), ("X-", Xm), ("T+", J["T+"].band),
                        ("T-", J["T-"].band)):
            rec(f"radius central [R2, {nm}]", "joint", J, [R2 @ O, -O @ R2])
        rec("tau X+ twist", "joint", J, [tau @ Xp, -Xp @ tau / q**4])
        rec("tau X- twist", "joint", J, [tau @ Xm, -q**4 * Xm @ tau])
        rec("tau from T3", "joint", J,
            [tau, -_Band.identity(J.n), lam * J["T3"].band])

    if "t" in groups:
        T = suite.t_special()
        XR = suite.x_over_r()
        a, b = T.coords.arrays, XR.coords.arrays
        if a.keys() != b.keys() \
                or not all(np.array_equal(a[k], b[k]) for k in a):
            raise WindowError("t and X/R families must share one basis")
        t3, tp, tm = T["T3"].band, T["T+"].band, T["T-"].band
        taut = T["tau"].band
        for name, terms in _su2_relations(t3, tp, tm, q):
            rec(f"t algebra: {name}", "t_special", T, terms)
        rec("tau_t from t3", "t_special", T,
            [taut, -_Band.identity(T.n), lam * t3])
        rec("t ladder product (upper)", "t_special", T,
            [tp @ tm, (_Band.identity(T.n) + q * q * taut) / lam**2])
        rec("t ladder product (lower)", "t_special", T,
            [tm @ tp, (_Band.identity(T.n) + taut / (q * q)) / lam**2])
        X3R = XR["X3R"].band
        rec("tau_t vs homogeneous coordinate", "t_special", T,
            [taut @ X3R @ X3R, _Band.identity(T.n)])
        XpR, XmR = XR["X+R"].band, XR["X-R"].band
        rec("homogeneous radius normalization", "X_over_R", XR,
            [q * q * X3R @ X3R, (1 + q**-2) * XpR.T @ XpR,
             -_Band.identity(XR.n)])

    if "k" in groups:
        K = suite.k_orbital()
        k3, kp, km = K["T3"].band, K["T+"].band, K["T-"].band
        for name, terms in _su2_relations(k3, kp, km, q):
            rec(f"K algebra: {name}", "K_orbital", K, terms)
        rec("tau_k from K3", "K_orbital", K,
            [K["tau"].band, -_Band.identity(K.n), lam * k3])

    if "torb" in groups:
        J = suite.joint()
        T3, Tp, Tm = J["T3"].band, J["T+"].band, J["T-"].band
        X3, Xp, Xm = J["X3"].band, J["X+"].band, J["X-"].band
        tau = J["tau"].band
        for name, terms in _su2_relations(T3, Tp, Tm, q):
            rec(f"T_orb algebra: {name}", "joint", J, terms)
        sq = math.sqrt(1.0 + q * q)
        rec("module T3 X3", "joint", J, [T3 @ X3, -X3 @ T3])
        rec("module T3 X+", "joint", J,
            [T3 @ Xp, -Xp @ T3 / q**4, -(1 + q**-2) / q * Xp])
        rec("module T3 X-", "joint", J,
            [T3 @ Xm, -q**4 * Xm @ T3, q * (1 + q * q) * Xm])
        rec("module T+ X3", "joint", J,
            [Tp @ X3, -X3 @ Tp, -sq / (q * q) * Xp])
        rec("module T+ X+", "joint", J, [Tp @ Xp, -Xp @ Tp / (q * q)])
        rec("module T+ X-", "joint", J,
            [Tp @ Xm, -q * q * Xm @ Tp, -sq / q * X3])
        rec("module T- X3", "joint", J, [Tm @ X3, -X3 @ Tm, -q * sq * Xm])
        rec("module T- X+", "joint", J,
            [Tm @ Xp, -Xp @ Tm / (q * q), -sq * X3])
        rec("module T- X-", "joint", J, [Tm @ Xm, -q * q * Xm @ Tm])
        rec("tau T+ twist", "joint", J, [tau @ Tp, -Tp @ tau / q**4])
        rec("tau T- twist", "joint", J, [tau @ Tm, -q**4 * Tm @ tau])
        T2 = casimir(J, ctx).band
        rec("Casimir central [T2, T+]", "joint", J, [T2 @ Tp, -Tp @ T2])
        rec("Casimir central [T2, T-]", "joint", J, [T2 @ Tm, -Tm @ T2])

    if "conj" in groups:
        J = suite.joint()
        rec("conjugation X- = -q^-1 (X+)^T", "joint", J,
            [J["X-"].band, J["X+"].band.T / q])
        rec("conjugation T- = q^2 (T+)^T", "joint", J,
            [J["T-"].band, -q * q * J["T+"].band.T])
        rec("symmetry (X3)^T = X3", "joint", J,
            [J["X3"].band, -J["X3"].band.T])
        rec("symmetry (T3)^T = T3", "joint", J,
            [J["T3"].band, -J["T3"].band.T])
        K = suite.k_orbital()
        rec("conjugation K- = -q^2 (K+)^T", "K_orbital", K,
            [K["T-"].band, q * q * K["T+"].band.T])
        T = suite.t_special()
        rec("conjugation t- = q^2 (t+)^T", "t_special", T,
            [T["T-"].band, -q * q * T["T+"].band.T])

    if "orbital-constraint" in groups:
        J = suite.joint()
        L = build_L_operators(J, ctx)
        rec("transversality L.X = 0", "joint", J,
            [L["L3"].band @ J["X3"].band, -q * L["L+"].band @ J["X-"].band,
             -L["L-"].band @ J["X+"].band / q])

    return rep


def commutator_magnitude(ctx: QContext, n_depth=25, k_width=25):
    """Largest interior entry of [X-, X+] on the joint representation.

    Equal to lam * max interior (X3)^2, so it scales linearly in lam; used
    by the classical-limit probes.
    """
    suite = default_families(ctx, n_depth=n_depth, k_width=k_width)
    J = suite.joint()
    Xp, Xm = J["X+"].band, J["X-"].band
    worst = _interior_abs_max(Xm @ Xp - Xp @ Xm, _interior(J, "joint"))
    return 0.0 if worst is None else float(worst)
