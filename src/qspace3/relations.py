"""Machine verification of the algebraic, conjugation and constraint
relations on truncated representations.

Every relation is expressed as a list of band-matrix terms that must sum to
zero.  The reported figure is the maximum entry of the sum restricted to
interior rows and columns, relative to the largest interior entry among the
constituent terms (so exponentially large matrix elements do not masquerade
as failures, and genuinely zero relations are normalized by their parts).

Each operator is read as the CSR of its LabeledOperator and converted at
once into a _Band, one vector per diagonal offset; the terms are then
shifted elementwise products and sums of those vectors.  The arithmetic is
scipy.sparse's, value for value: a product entry sums its terms in
ascending intermediate index, exact zeros of sums and products are dropped,
stored zeros of an operator are kept, and A / s is A * (1 / s).
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .context import QContext
from .errors import DomainError, WindowError
from .operators import RepFamily, RepWindow
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


class _Band:
    """An n x n band matrix as {offset d: (v, present)}.

    v holds the diagonal entries (i, i + d) for the rows i from max(0, -d),
    as np.diagonal does, so a transpose only negates d.  present is None
    when every entry of the diagonal is stored, else a boolean mask; an
    absent entry holds 0 in v.  Vectors are never changed in place.
    """

    __slots__ = ("n", "diags")
    __array_ufunc__ = None          # numpy scalars defer to __rmul__

    def __init__(self, n, diags):
        self.n = n
        self.diags = diags

    @classmethod
    def from_csr(cls, mat):
        """The band of a canonical CSR, its stored zeros kept."""
        n = mat.shape[0]
        rows = np.repeat(np.arange(n), np.diff(mat.indptr))
        d = mat.indices - rows
        data = np.asarray(mat.data, dtype=float)
        offsets = []
        if d.size:
            low, high = int(d.min()), int(d.max())
            offsets = [low] if low == high else \
                (np.flatnonzero(np.bincount(d - low)) + low).tolist()
        diags = {}
        for off in offsets:
            if len(offsets) == 1:
                r, vals = rows, data
            else:
                pick = np.flatnonzero(d == off)
                r, vals = rows[pick], data[pick]
            size = n - abs(off)
            if r.size == size:          # the whole diagonal, in row order
                diags[off] = (vals, None)
                continue
            k = r - max(0, -off)
            v = np.zeros(size)
            v[k] = vals
            present = np.zeros(size, dtype=bool)
            present[k] = True
            diags[off] = (v, present)
        return cls(n, diags)

    @classmethod
    def identity(cls, n):
        return cls(n, {0: (np.ones(n), None)})

    @classmethod
    def _dropping_zeros(cls, n, vectors):
        """The band of computed diagonals, exact zeros dropped."""
        diags = {}
        for d, v in vectors.items():
            nz = v != 0
            if nz.all():
                diags[d] = (v, None)
            elif nz.any():
                diags[d] = (v, nz)
        return cls(n, diags)

    @property
    def T(self):
        return _Band(self.n, {-d: e for d, e in self.diags.items()})

    def __neg__(self):
        return _Band(self.n, {d: (-v, m) for d, (v, m) in self.diags.items()})

    def __mul__(self, s):
        # x * inf is NaN on a stored zero, but an absent entry stays absent
        return _Band(self.n, {
            d: (v * s if m is None else np.where(m, v * s, 0.0), m)
            for d, (v, m) in self.diags.items()})

    __rmul__ = __mul__

    def __truediv__(self, s):
        return self * (1 / s)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    @np.errstate(over="ignore", invalid="ignore")   # as scipy's C++ loops
    def _combine(self, other, op):
        """op entrywise, an entry absent on one side read as 0."""
        a, b, zero = self.diags, other.diags, (0.0, None)
        return _Band._dropping_zeros(self.n, {
            d: op(a.get(d, zero)[0], b.get(d, zero)[0])
            for d in a.keys() | b.keys()})

    @np.errstate(over="ignore", invalid="ignore")
    def __matmul__(self, other):
        n = self.n
        out = {}
        for da in sorted(self.diags):   # ascending intermediate index
            a, ma = self.diags[da]
            la = max(0, -da)
            for db, (b, mb) in other.diags.items():
                d = da + db
                lo, hi = max(0, -da, -d), min(n, n - da, n - d)
                if lo >= hi:
                    continue
                lb, lc = max(0, -db), max(0, -d)
                sa, sb = slice(lo - la, hi - la), slice(lo + da - lb,
                                                        hi + da - lb)
                t = a[sa] * b[sb]
                if ma is not None or mb is not None:
                    both = (True if ma is None else ma[sa]) \
                        & (True if mb is None else mb[sb])
                    t = np.where(both, t, 0.0)
                if d not in out:
                    out[d] = np.zeros(n - abs(d))
                out[d][lo - lc:hi - lc] += t
        return _Band._dropping_zeros(n, out)


def _read(fam: RepFamily, key):
    """The family's operator key as a _Band."""
    return _Band.from_csr(fam.op_csr(key))


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


def _interior(fam: RepFamily, fam_name):
    """The family's interior mask; an empty interior is a WindowError,
    since every relation would then pass without being measured."""
    if not fam.interior.any():
        raise WindowError(
            f"the {fam_name} family has no interior state in the window "
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

    def rec(name, fam_name, fam, terms):
        interior = _interior(fam, fam_name)
        rep.add(name, fam_name, _window_dict(fam),
                _interior_residual(terms, interior), int(interior.sum()))

    if "x" in groups:
        J = suite.joint()
        X3, Xp, Xm = _read(J, "X3"), _read(J, "X+"), _read(J, "X-")
        R2, tau = _read(J, "R2"), _read(J, "tau")
        rec("X3 X+ twist", "joint", J, [X3 @ Xp, -q * q * Xp @ X3])
        rec("X3 X- twist", "joint", J, [X3 @ Xm, -Xm @ X3 / (q * q)])
        rec("coordinate commutator", "joint", J,
            [Xm @ Xp, -Xp @ Xm, -lam * X3 @ X3])
        rec("radius definition", "joint", J,
            [R2, -X3 @ X3, q * Xp @ Xm, Xm @ Xp / q])
        rec("radius positive form", "joint", J,
            [R2, -q * q * X3.T @ X3, -(1 + q**-2) * Xp.T @ Xp])
        for (nm, O) in (("X+", Xp), ("X-", Xm), ("T+", _read(J, "T+")),
                        ("T-", _read(J, "T-"))):
            rec(f"radius central [R2, {nm}]", "joint", J, [R2 @ O, -O @ R2])
        rec("tau X+ twist", "joint", J, [tau @ Xp, -Xp @ tau / q**4])
        rec("tau X- twist", "joint", J, [tau @ Xm, -q**4 * Xm @ tau])
        rec("tau from T3", "joint", J,
            [tau, -_Band.identity(J.n), lam * _read(J, "T3")])

    if "t" in groups:
        T = suite.t_special()
        XR = suite.x_over_r()
        if T.basis != XR.basis:
            raise WindowError("t and X/R families must share one basis")
        t3, tp, tm = _read(T, "T3"), _read(T, "T+"), _read(T, "T-")
        taut = _read(T, "tau")
        for name, terms in _su2_relations(t3, tp, tm, q):
            rec(f"t algebra: {name}", "t_special", T, terms)
        rec("tau_t from t3", "t_special", T,
            [taut, -_Band.identity(T.n), lam * t3])
        rec("t ladder product (upper)", "t_special", T,
            [tp @ tm, (_Band.identity(T.n) + q * q * taut) / lam**2])
        rec("t ladder product (lower)", "t_special", T,
            [tm @ tp, (_Band.identity(T.n) + taut / (q * q)) / lam**2])
        X3R = _read(XR, "X3R")
        rec("tau_t vs homogeneous coordinate", "t_special", T,
            [taut @ X3R @ X3R, _Band.identity(T.n)])
        XpR, XmR = _read(XR, "X+R"), _read(XR, "X-R")
        rec("homogeneous radius normalization", "X_over_R", XR,
            [q * q * X3R @ X3R, (1 + q**-2) * XpR.T @ XpR,
             -_Band.identity(XR.n)])

    if "k" in groups:
        K = suite.k_orbital()
        k3, kp, km = _read(K, "T3"), _read(K, "T+"), _read(K, "T-")
        for name, terms in _su2_relations(k3, kp, km, q):
            rec(f"K algebra: {name}", "K_orbital", K, terms)
        rec("tau_k from K3", "K_orbital", K,
            [_read(K, "tau"), -_Band.identity(K.n), lam * k3])

    if "torb" in groups:
        J = suite.joint()
        T3, Tp, Tm = _read(J, "T3"), _read(J, "T+"), _read(J, "T-")
        X3, Xp, Xm = _read(J, "X3"), _read(J, "X+"), _read(J, "X-")
        tau = _read(J, "tau")
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
        T2 = _Band.from_csr(casimir(J, ctx).to_csr())
        rec("Casimir central [T2, T+]", "joint", J, [T2 @ Tp, -Tp @ T2])
        rec("Casimir central [T2, T-]", "joint", J, [T2 @ Tm, -Tm @ T2])

    if "conj" in groups:
        J = suite.joint()
        rec("conjugation X- = -q^-1 (X+)^T", "joint", J,
            [_read(J, "X-"), _read(J, "X+").T / q])
        rec("conjugation T- = q^2 (T+)^T", "joint", J,
            [_read(J, "T-"), -q * q * _read(J, "T+").T])
        rec("symmetry (X3)^T = X3", "joint", J,
            [_read(J, "X3"), -_read(J, "X3").T])
        rec("symmetry (T3)^T = T3", "joint", J,
            [_read(J, "T3"), -_read(J, "T3").T])
        K = suite.k_orbital()
        rec("conjugation K- = -q^2 (K+)^T", "K_orbital", K,
            [_read(K, "T-"), q * q * _read(K, "T+").T])
        T = suite.t_special()
        rec("conjugation t- = q^2 (t+)^T", "t_special", T,
            [_read(T, "T-"), -q * q * _read(T, "T+").T])

    if "orbital-constraint" in groups:
        J = suite.joint()
        L = build_L_operators(J, ctx)
        rec("transversality L.X = 0", "joint", J,
            [_Band.from_csr(L["L3"].to_csr()) @ _read(J, "X3"),
             -q * _Band.from_csr(L["L+"].to_csr()) @ _read(J, "X-"),
             -_Band.from_csr(L["L-"].to_csr()) @ _read(J, "X+") / q])

    return rep


def commutator_magnitude(ctx: QContext, n_depth=25, k_width=25):
    """Largest interior entry of [X-, X+] on the joint representation.

    Equal to lam * max interior (X3)^2, so it scales linearly in lam; used
    by the classical-limit probes.
    """
    suite = default_families(ctx, n_depth=n_depth, k_width=k_width)
    J = suite.joint()
    Xp, Xm = _read(J, "X+"), _read(J, "X-")
    worst = _interior_abs_max(Xm @ Xp - Xp @ Xm, _interior(J, "joint"))
    return 0.0 if worst is None else float(worst)
