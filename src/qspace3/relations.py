"""Machine verification of the algebraic, conjugation and constraint
relations on truncated representations.

Every relation is expressed as a list of band-matrix terms that must sum to
zero.  The reported figure is the maximum entry of the sum restricted to
interior rows and columns, relative to the largest interior entry among the
constituent terms (so exponentially large matrix elements do not masquerade
as failures, and genuinely zero relations are normalized by their parts).

Every term is evaluated on the _Band each LabeledOperator stores, one
vector per diagonal offset, with scipy.sparse's arithmetic value for value.
A relation's terms are written as band algebra on _Term leaves, so each is
an expression that is evaluated when called: the residual makes one term at
a time, folds it into one sum per offset and into the scale, and drops it
before making the next.
"""

import json
import math
import operator
from dataclasses import dataclass, field
from functools import partial

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


class _Term:
    """The band op(*args), made each time it is called; an argument that is
    a _Term is made first.  Arithmetic on terms builds terms."""

    __array_ufunc__ = None          # numpy scalars defer to __rmul__

    def __init__(self, op, *args):
        self.op, self.args = op, args

    def __call__(self):
        return self.op(*(a() if isinstance(a, _Term) else a
                         for a in self.args))

    def __matmul__(self, other):
        return _Term(operator.matmul, self, other)

    def __mul__(self, s):
        return _Term(operator.mul, self, s)

    __rmul__ = __mul__

    def __truediv__(self, s):
        return _Term(operator.truediv, self, s)

    def __neg__(self):
        return _Term(operator.neg, self)

    def __add__(self, other):
        return _Term(operator.add, self, other)

    @property
    def T(self):
        return _Term(operator.attrgetter("T"), self)


def _interior_abs_max(vectors, interior):
    """max |entry| of the diagonals {offset d: vector} over the entries
    whose row and column are both interior; NaN if any is NaN, else 0.0
    when there are none.  An absent band entry holds 0, so needs no mask."""
    n, best = len(interior), 0.0
    for d, v in vectors.items():
        lo, hi = max(0, -d), min(n, n - d)
        keep = interior[lo:hi] & interior[lo + d:hi + d]
        best = np.maximum(best, np.max(np.abs(v), where=keep, initial=0.0))
    return best


@np.errstate(over="ignore", invalid="ignore")   # as _Band's sums
def _fold(terms, interior):
    """(max interior |sum|, max interior |term| over the terms).

    Each offset sums the vectors in order, as the _Band sum t1 + t2 + ...
    does; the exact zeros that sum drops add nothing to a max.  A term with
    a NaN in the interior adds nothing to the scale: Python's max skips it.
    """
    sums, scale = {}, 0.0
    for make in terms:
        t = {d: v for d, (v, _) in make().diags.items()}
        for d in t:
            sums[d] = sums[d] + t[d] if d in sums else t[d]
        scale = max(scale, _interior_abs_max(t, interior))
        del t
    return _interior_abs_max(sums, interior), scale


def _interior_residual(terms, interior):
    """max interior |sum(terms)| / max(1, max interior |term|), each term a
    callable that makes it."""
    worst, scale = _fold(terms, interior)
    return float(worst / max(1.0, scale))


def _interior(fam: RepFamily):
    """The family's interior mask; an empty interior is a WindowError,
    since every relation would then pass without being measured."""
    if not fam.interior.any():
        raise WindowError(
            f"the {_label(fam)} family has no interior state in the window "
            f"{_window_dict(fam)}; widen the window")
    return fam.interior


def _label(fam: RepFamily):
    return "joint" if fam.kind == "X_T_R_joint" else fam.kind


def _window_dict(fam: RepFamily):
    return {name: [lo, hi] for name, (lo, hi) in fam.window.ranges}


class _Suite:
    """Caches the verification families for one configuration."""

    def __init__(self, ctx: QContext, n_depth=40, k_width=40):
        self.ctx = ctx
        self.n_depth = n_depth
        self.k_width = k_width
        self._cache = {}

    def _family(self, key, build, ranges, **hard):
        if key not in self._cache:
            self._cache[key] = build(RepWindow.make(ranges, **hard), self.ctx)
        return self._cache[key]

    def joint(self):
        return self._family("joint", partial(build_X_T_R_joint, 0, 1.0, 1),
                            {"m_t": (-self.n_depth, 0),
                             "m_k": (0, self.k_width)})

    def t_special(self):
        return self._family("t", build_t_special, {"m_t": (-self.n_depth, 0)})

    def x_over_r(self):
        return self._family("xr", partial(build_X_over_R, 1),
                            {"m_t": (-self.n_depth, 0)})

    def k_orbital(self):
        return self._family("k", build_K_orbital, {"m_k": (0, self.k_width)},
                            hard_lo=("m_k",))


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


def _bands(fam: RepFamily, keys):
    """The terms that make the bands of the named operators of fam."""
    return [_Term(getattr, fam[k], "band") for k in keys.split()]


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

    def rec(name, fam, terms):
        interior = _interior(fam)
        rep.add(name, _label(fam), _window_dict(fam),
                _interior_residual(terms, interior), int(interior.sum()))

    if set(groups) - {"t", "k"}:
        J = suite.joint()
        X3, Xp, Xm, R2, tau, T3, Tp, Tm = _bands(
            J, "X3 X+ X- R2 tau T3 T+ T-")
        I = _Term(_Band.identity, J.n)

    if "x" in groups:
        rec("X3 X+ twist", J, [X3 @ Xp, -q * q * Xp @ X3])
        rec("X3 X- twist", J, [X3 @ Xm, -Xm @ X3 / (q * q)])
        rec("coordinate commutator", J, [Xm @ Xp, -Xp @ Xm, -lam * X3 @ X3])
        rec("radius definition", J, [R2, -X3 @ X3, q * Xp @ Xm, Xm @ Xp / q])
        rec("radius positive form", J,
            [R2, -q * q * X3.T @ X3, -(1 + q**-2) * Xp.T @ Xp])
        for nm, O in (("X+", Xp), ("X-", Xm), ("T+", Tp), ("T-", Tm)):
            rec(f"radius central [R2, {nm}]", J, [R2 @ O, -O @ R2])
        rec("tau X+ twist", J, [tau @ Xp, -Xp @ tau / q**4])
        rec("tau X- twist", J, [tau @ Xm, -q**4 * Xm @ tau])
        rec("tau from T3", J, [tau, -I, lam * T3])

    if "t" in groups:
        T = suite.t_special()
        XR = suite.x_over_r()
        a, b = T.coords.arrays, XR.coords.arrays
        if a.keys() != b.keys() \
                or not all(np.array_equal(a[k], b[k]) for k in a):
            raise WindowError("t and X/R families must share one basis")
        t3, tp, tm, taut = _bands(T, "T3 T+ T- tau")
        It = _Term(_Band.identity, T.n)
        for name, terms in _su2_relations(t3, tp, tm, q):
            rec(f"t algebra: {name}", T, terms)
        rec("tau_t from t3", T, [taut, -It, lam * t3])
        rec("t ladder product (upper)", T,
            [tp @ tm, (It + q * q * taut) / lam**2])
        rec("t ladder product (lower)", T,
            [tm @ tp, (It + taut / (q * q)) / lam**2])
        X3R, XpR = _bands(XR, "X3R X+R")
        rec("tau_t vs homogeneous coordinate", T, [taut @ X3R @ X3R, It])
        rec("homogeneous radius normalization", XR,
            [q * q * X3R @ X3R, (1 + q**-2) * XpR.T @ XpR,
             -_Term(_Band.identity, XR.n)])

    if "k" in groups:
        K = suite.k_orbital()
        k3, kp, km, tauk = _bands(K, "T3 T+ T- tau")
        for name, terms in _su2_relations(k3, kp, km, q):
            rec(f"K algebra: {name}", K, terms)
        rec("tau_k from K3", K,
            [tauk, -_Term(_Band.identity, K.n), lam * k3])

    if "torb" in groups:
        for name, terms in _su2_relations(T3, Tp, Tm, q):
            rec(f"T_orb algebra: {name}", J, terms)
        sq = math.sqrt(1.0 + q * q)
        rec("module T3 X3", J, [T3 @ X3, -X3 @ T3])
        rec("module T3 X+", J,
            [T3 @ Xp, -Xp @ T3 / q**4, -(1 + q**-2) / q * Xp])
        rec("module T3 X-", J,
            [T3 @ Xm, -q**4 * Xm @ T3, q * (1 + q * q) * Xm])
        rec("module T+ X3", J, [Tp @ X3, -X3 @ Tp, -sq / (q * q) * Xp])
        rec("module T+ X+", J, [Tp @ Xp, -Xp @ Tp / (q * q)])
        rec("module T+ X-", J, [Tp @ Xm, -q * q * Xm @ Tp, -sq / q * X3])
        rec("module T- X3", J, [Tm @ X3, -X3 @ Tm, -q * sq * Xm])
        rec("module T- X+", J, [Tm @ Xp, -Xp @ Tm / (q * q), -sq * X3])
        rec("module T- X-", J, [Tm @ Xm, -q * q * Xm @ Tm])
        rec("tau T+ twist", J, [tau @ Tp, -Tp @ tau / q**4])
        rec("tau T- twist", J, [tau @ Tm, -q**4 * Tm @ tau])
        T2 = _Term(getattr, casimir(J, ctx), "band")
        rec("Casimir central [T2, T+]", J, [T2 @ Tp, -Tp @ T2])
        rec("Casimir central [T2, T-]", J, [T2 @ Tm, -Tm @ T2])

    if "conj" in groups:
        rec("conjugation X- = -q^-1 (X+)^T", J, [Xm, Xp.T / q])
        rec("conjugation T- = q^2 (T+)^T", J, [Tm, -q * q * Tp.T])
        rec("symmetry (X3)^T = X3", J, [X3, -X3.T])
        rec("symmetry (T3)^T = T3", J, [T3, -T3.T])
        K = suite.k_orbital()
        km, kp = _bands(K, "T- T+")
        rec("conjugation K- = -q^2 (K+)^T", K, [km, q * q * kp.T])
        T = suite.t_special()
        tm, tp = _bands(T, "T- T+")
        rec("conjugation t- = q^2 (t+)^T", T, [tm, -q * q * tp.T])

    if "orbital-constraint" in groups:
        L3, Lp, Lm = (_Term(getattr, L, "band")
                      for L in build_L_operators(J, ctx).values())
        rec("transversality L.X = 0", J,
            [L3 @ X3, -q * Lp @ Xm, -Lm @ Xp / q])

    return rep


def commutator_magnitude(ctx: QContext, n_depth=25, k_width=25):
    """Largest interior entry of [X-, X+] on the joint representation.

    Equal to lam * max interior (X3)^2, so it scales linearly in lam; used
    by the classical-limit probes.
    """
    suite = default_families(ctx, n_depth=n_depth, k_width=k_width)
    J = suite.joint()
    Xp, Xm = _bands(J, "X+ X-")
    worst, _ = _fold((Xm @ Xp, -Xp @ Xm), _interior(J))
    return float(worst)
