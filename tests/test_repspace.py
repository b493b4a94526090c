import math
import re
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qspace3 import DomainError, PrecisionError, QContext, WindowError
from qspace3.operators import LabeledOperator, RepFamily, RepWindow
from qspace3 import repspace as rs
from qspace3.relations import (_Band, _bands, _interior_residual,
                               _su2_relations)

CTX = QContext(q=1.5)
Q = 1.5
LAM = Q - 1 / Q


def win_t(depth=20):
    return RepWindow.make({"m_t": (-depth, 0)})


def win_k(width=20):
    return RepWindow.make({"m_k": (0, width)}, hard_lo=("m_k",))


def win_tk(depth=20, width=20):
    return RepWindow.make({"m_t": (-depth, 0), "m_k": (0, width)})


def _pos(fam, **labels):
    """The position of the one state of fam with the given labels."""
    hit = np.ones(fam.n, dtype=bool)
    for k, v in labels.items():
        hit &= fam.coords.arrays[k] == v
    (i,) = np.flatnonzero(hit)
    return int(i)


class TestTSpecial:
    def test_head_state(self):
        fam = rs.build_t_special(win_t(), CTX)
        i = _pos(fam, m_t=0)
        assert fam["T3"].entries[(i, i)] == pytest.approx(
            (1 + Q * Q) / LAM, rel=1e-15)
        # ladder annihilates the head
        assert all(c != i for (r, c) in fam["T+"].entries)

    def test_positive_m_rejected(self):
        with pytest.raises(DomainError):
            rs.build_t_special(RepWindow.make({"m_t": (-5, 1)}), CTX)

    def test_ladder_product_identity(self):
        fam = rs.build_t_special(win_t(), CTX)
        tp, tm = fam["T+"].to_csr(), fam["T-"].to_csr()
        tau = fam["tau"].to_csr()
        lhs = (tp @ tm).toarray()
        rhs = (-(sp.identity(fam.n) + Q * Q * tau) / LAM**2).toarray()
        inner = fam.interior
        assert np.abs((lhs - rhs)[np.ix_(inner, inner)]).max() \
            < 1e-10 * np.abs(rhs).max()

    def test_tau_negative(self):
        fam = rs.build_t_special(win_t(), CTX)
        assert (fam["tau"].diagonal() < 0).all()


class TestTGeneric:
    def test_spin_half_against_two_by_two_oracle(self):
        fam = rs.build_T_generic(1 / LAM, 0.5, None, CTX)
        assert fam.n == 2
        # independent 2x2 assembly: diagonal 1/lam - d q^(-4m), m = -+1/2
        d = 1 / LAM
        t3 = np.array([1 / LAM - d * Q**2, 1 / LAM - d * Q**-2])
        assert fam["T3"].diagonal() == pytest.approx(t3, rel=1e-14)
        # Casimir value q [1/2][3/2]
        expect = Q * ((Q**0.5 - Q**-0.5) / LAM) * ((Q**1.5 - Q**-1.5) / LAM)
        assert rs.casimir_eigenvalue(0.5, CTX) == pytest.approx(expect,
                                                                rel=1e-13)
        # matrix Casimir agrees with the scalar on the 2-dim ladder
        T2 = rs.casimir(fam, CTX).to_dense()
        assert np.allclose(T2, expect * np.eye(2), rtol=1e-12)

    def test_top_annihilated(self):
        fam = rs.build_T_generic(1 / LAM, 1.0, None, CTX)
        assert fam.n == 3
        top = _pos(fam, m=1.0)
        assert all(c != top for (r, c) in fam["T+"].entries)

    def test_negative_d_tau_negative(self):
        fam = rs.build_T_generic(-2.0, 0.0, RepWindow.make({"m": (-15, 0)}),
                                 CTX)
        assert (fam["tau"].diagonal() < 0).all()

    def test_inadmissible_positive_d(self):
        with pytest.raises(DomainError):
            rs.build_T_generic(2.0, 1.0, None, CTX)

    def test_window_above_head_rejected(self):
        with pytest.raises(WindowError):
            rs.build_T_generic(-1.0, 0.0, RepWindow.make({"m": (-5, 2)}), CTX)

    def test_real_head_is_the_top_label(self):
        # lo + 7 = -2.6999999999999993 misses the head, where the radicand
        # vanishes; the head label is m_bar itself and keeps its step
        win = RepWindow.make({"m": (-9.7, -2.7)})
        fam = rs.build_T_generic(-2.0, -2.7, win, QContext(q=1.5))
        m = fam.coords.arrays["m"]
        assert m[-1] == -2.7
        assert fam["T+"].to_csr()[len(m) - 1, len(m) - 2] > 0

    def test_d_zero_builds_and_closes_algebra(self):
        fam = rs.build_T_generic(0.0, 0.7, RepWindow.make({"m": (-14.3, 0.7)}),
                                 CTX)
        t3, tp, tm = (fam[k].to_csr() for k in ("T3", "T+", "T-"))
        inner = fam.interior
        r = (tp @ tm / Q - Q * tm @ tp - t3).toarray()
        scale = max(1.0, np.abs((tp @ tm).toarray()).max())
        assert np.abs(r[np.ix_(inner, inner)]).max() / scale < 1e-12
        assert np.allclose(fam["tau"].diagonal(), 0.0)


class TestXOverR:
    def test_head_eigenvalue(self):
        for sign in (1, -1):
            fam = rs.build_X_over_R(sign, win_t(), CTX)
            i = _pos(fam, m_t=0)
            assert fam["X3R"].entries[(i, i)] == pytest.approx(
                sign / Q, rel=1e-15)

    def test_unit_radius_combination(self):
        fam = rs.build_X_over_R(1, win_t(), CTX)
        x3, xp = fam["X3R"].to_csr(), fam["X+R"].to_csr()
        comb = (Q * Q * x3 @ x3 + (1 + Q**-2) * xp.T @ xp).toarray()
        inner = fam.interior
        assert np.abs((comb - np.eye(fam.n))[np.ix_(inner, inner)]).max() \
            < 1e-13


class TestKFamilies:
    def test_orbital_kappa_closed_form(self):
        fam = rs.build_K_orbital(win_k(), CTX)
        # K+ coefficient = sqrt((1 - q^-4(m+1)) / (lam^2 q^2))
        for mk in range(0, 5):
            i, j = _pos(fam, m_k=mk), _pos(fam, m_k=mk + 1)
            expect = math.sqrt((1 - Q**(-4 * (mk + 1))) / (LAM**2 * Q**2))
            assert fam["T+"].entries[(j, i)] == pytest.approx(expect, rel=1e-13)

    def test_bottom_annihilated(self):
        fam = rs.build_K_orbital(win_k(), CTX)
        zero = _pos(fam, m_k=0)
        assert all(c != zero for (r, c) in fam["T-"].entries)

    def test_positive_d_small_alpha_bilateral(self):
        alpha0 = 2 * Q**-3 * math.sqrt(0.5 / LAM**3)
        win = RepWindow.make({"m_k": (-8, 8)})
        fam = rs.build_K_generic(0.5, 0.5 * alpha0, win, CTX)
        assert fam.n == 17

    def test_kappa_negative_window_rejected(self):
        alpha0 = 2 * Q**-3 * math.sqrt(0.5 / LAM**3)
        win = RepWindow.make({"m_k": (-8, 8)})
        with pytest.raises(WindowError):
            rs.build_K_generic(0.5, 3.0 * alpha0, win, CTX)


@st.composite
def ladder_families(draw):
    """(family, q, lower) for a finite spin 2 m_bar <= 10, a d < 0 head, or
    an admissible K window; T- = lower (T+)^T.  The T3 entries cancel to
    O(1/lam), so q is kept where 1/lam leaves the residuals below 1e-13."""
    q = draw(st.floats(1.01, 3.0))
    ctx = QContext(q=q)
    lam = ctx.lam
    kind = draw(st.sampled_from(["spin", "head", "K"]))
    if kind == "spin":
        m_bar = draw(st.integers(0, 10)) / 2
        return rs.build_T_generic(1 / lam, m_bar, None, ctx), q, q * q
    if kind == "head":
        d = -draw(st.floats(0.01, 5.0))
        m_bar = draw(st.floats(-3.0, 3.0))
        win = RepWindow.make({"m": (m_bar - draw(st.integers(4, 20)), m_bar)})
        return rs.build_T_generic(d, m_bar, win, ctx), q, q * q
    d_k = draw(st.sampled_from([-1.0, 0.0, 1.0])) * draw(st.floats(0.01, 3.0))
    alpha = draw(st.floats(-3.0, 3.0))
    lo = draw(st.integers(-10, 5))
    if d_k >= 0:
        alpha = -abs(alpha)             # kappa > 0 at every label
    else:                               # kappa >= 0 up to its positive root
        c0, c2 = 1 / (q * q * lam * lam), d_k / (lam * q**4)
        root = 2 * c0 / (alpha + math.sqrt(alpha * alpha - 4 * c2 * c0))
        lo = max(lo, math.ceil(0.5 - math.log(root) / (2 * math.log(q))))
    win = RepWindow.make({"m_k": (lo, lo + draw(st.integers(4, 20)))})
    return rs.build_K_generic(d_k, alpha, win, ctx), q, -q * q


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ladder_families())
def test_ladder_families_close_the_algebra(case):
    fam, q, lower = case
    Tp, Tm = (fam[k].to_csr() for k in ("T+", "T-"))
    for name, terms in _su2_relations(*_bands(fam, "T3 T+ T-"), q):
        assert _interior_residual(terms, fam.interior) < 1e-12, name
    assert np.array_equal(Tm.toarray(), lower * Tp.toarray().T)


class TestTensorFamilies:
    def test_torb_diagonals(self):
        fam = rs.build_T_orb(win_tk(8, 8), CTX)
        for (mt, mk) in ((0, 0), (-3, 2), (-5, 7)):
            i = _pos(fam, m_t=mt, m_k=mk)
            mm = mt + mk
            assert fam["T3"].entries[(i, i)] == pytest.approx(
                (1 - Q**(-4 * mm)) / LAM, rel=1e-13)
            assert fam["tau"].entries[(i, i)] == pytest.approx(
                Q**(-4 * mm), rel=1e-13)

    def test_joint_diagonals_and_top(self):
        win = RepWindow.make({"nu": (-10, 0), "m_k": (0, 10)})
        fam = rs.build_X_T_R_joint(0, 1.0, 1, win, CTX)
        i = _pos(fam, m_t=0, m_k=0)             # nu = m = 0
        assert fam["X3"].entries[(i, i)] == pytest.approx(1.0)
        # X+ annihilates nu = M, i.e. m_t = 0
        mt = fam.coords.arrays["m_t"]
        assert all(mt[c] != 0 for (r, c) in fam["X+"].entries)
        # R2 is a scalar block: commutes with everything exactly
        R2 = fam["R2"].to_csr()
        for key in ("X+", "X-", "T+", "T-"):
            O = fam[key].to_csr()
            assert abs(R2 @ O - O @ R2).max() == 0.0

    def test_joint_nu_above_M_rejected(self):
        win = RepWindow.make({"nu": (-5, 1), "m_k": (0, 5)})
        with pytest.raises(DomainError):
            rs.build_X_T_R_joint(0, 1.0, 1, win, CTX)

    def test_sigma_flips_x3_only(self):
        win = RepWindow.make({"m_t": (-6, 0), "m_k": (0, 6)})
        a = rs.build_X_T_R_joint(0, 1.0, 1, win, CTX)
        b = rs.build_X_T_R_joint(0, 1.0, -1, win, CTX)
        assert np.allclose(a["X3"].diagonal(), -b["X3"].diagonal())
        assert abs(a["T+"].to_csr() - b["T+"].to_csr()).max() == 0.0
        assert np.allclose(a["R2"].diagonal(), b["R2"].diagonal())

    def test_joint_family_retains_only_its_arrays(self):
        # the family keeps its band vectors and masks, its label arrays and
        # its interior mask, and little else: a Python label tuple per state
        # would more than double the retained bytes
        rs.build_X_T_R_joint(0, 1.0, 1, win_tk(4, 4), CTX)     # warm-up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fam = rs.build_X_T_R_joint(0, 1.0, 1, win_tk(120, 120), CTX)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        arrays = fam.interior.nbytes + sum(
            a.nbytes for a in fam.coords.arrays.values())
        for op in fam.operators.values():
            arrays += sum(v.nbytes + (0 if m is None else m.nbytes)
                          for v, m in op.band.diags.values())
        assert fam.n == 121 * 121
        assert retained <= 1.5 * arrays, retained / arrays

    def test_band_discipline(self):
        win = RepWindow.make({"m_t": (-8, 0), "m_k": (0, 8)})
        fam = rs.build_X_T_R_joint(0, 1.0, 1, win, CTX)
        for key, op in fam.operators.items():
            assert op.shift_violations(fam.coords) == [], key


class TestLBasis:
    def test_casimir_diagonal(self):
        fam = rs.build_L_basis(0, Q, 6, CTX)
        for l in range(7):
            i = _pos(fam, l=l, m=0)
            assert fam["T2"].entries[(i, i)] == pytest.approx(
                rs.casimir_eigenvalue(l, CTX), rel=1e-13)

    def test_origin_has_single_branch(self):
        fam = rs.build_L_basis(0, Q, 6, CTX)
        col = _pos(fam, l=0, m=0)
        rows = [r for (r, c) in fam["X3"].entries if c == col]
        assert rows == [_pos(fam, l=1, m=0)]

    def test_block_levels_match_lattice(self):
        r0 = rs.r0_from_z0(1.0, CTX)
        for m in (0, 1, -2):
            levels = rs.x3_block_levels(0, m, 40, r0, CTX)
            assert levels, m
            assert max(rel for (_, _, rel) in levels) < 1e-6

    @pytest.mark.parametrize("m", [5, -5])
    def test_block_below_the_order_rejected(self, m):
        # l_max = 3 < |m| holds no degree: no block and no levels
        for f in (rs.x3_block, rs.x3_block_levels):
            with pytest.raises(DomainError):
                f(0, m, 3, 1.0, CTX)

    @pytest.mark.parametrize("precision", ["double", "extended"])
    @pytest.mark.parametrize("l", [1000, 2000])
    def test_casimir_value_beyond_binary64_raises(self, l, precision):
        # q [l][l+1] is binary64 in both modes: at l = 1000 the product
        # overflows to inf, at l = 2000 the power q**l itself
        with pytest.raises(PrecisionError):
            rs.casimir_eigenvalue(l, QContext(q=1.5, precision=precision))


class TestCasimirAndL:
    def test_negative_tau_has_no_casimir_matrix(self):
        t = rs.build_t_special(win_t(8), CTX)
        k = rs.build_K_orbital(win_k(8), CTX)
        for fam in (t, k):
            with pytest.raises(DomainError):
                rs.casimir(fam, CTX)

    def test_casimir_commutes_on_torb(self):
        fam = rs.build_T_orb(win_tk(14, 14), CTX)
        T2 = rs.casimir(fam, CTX).to_csr()
        inner = fam.interior
        for key in ("T+", "T-", "T3"):
            O = fam[key].to_csr()
            r = (T2 @ O - O @ T2).toarray()
            scale = max(1.0, np.abs((T2 @ O).toarray()).max())
            assert np.abs(r[np.ix_(inner, inner)]).max() / scale < 1e-12

    def test_t2_block_dual_route(self):
        # chain entries from the recursion formulas equal the interior of the
        # Casimir-matrix fiber
        fam = rs.build_T_orb(win_tk(12, 12), CTX)
        T2 = rs.casimir(fam, CTX).to_dense()
        m_fix = -1
        states = [i for i, c in enumerate(fam.coords)
                  if c["m_t"] + c["m_k"] == m_fix]
        mts = [fam.coords[i]["m_t"] for i in states]
        B = T2[np.ix_(states, states)]
        D, E, mts_chain = rs.t2_block(m_fix, len(mts) - 1, CTX)
        order = np.argsort(-np.array(mts))       # chain labels descend
        Bo = B[np.ix_(order, order)]
        assert np.allclose(np.diag(Bo)[:-2], D[:-2], rtol=1e-12)
        assert np.allclose(np.diag(Bo, 1)[:-2], E[:-2], rtol=1e-12)

    def test_t2_block_levels(self):
        for m in (0, 2, -3):
            levels = rs.t2_block_levels(m, 60, CTX, n_levels=8)
            assert all(rel < 1e-8 for (_, _, rel) in levels)
            ls = [l for (l, _, _) in levels]
            assert ls == [abs(m) + 1 + 2 * k for k in range(8)]

    def test_L_operators_on_finite_spin(self):
        spin = rs.build_T_generic(1 / LAM, 1.0, None, CTX)
        spin.operators["T2"] = rs.casimir(spin, CTX)
        L = rs.build_L_operators(spin, CTX)
        assert all(np.isfinite(v) for v in L["L3"].entries.values())

    def test_L_rejects_negative_tau(self):
        t = rs.build_t_special(win_t(6), CTX)
        with pytest.raises(DomainError):
            rs.build_L_operators(t, CTX)

    def test_L3_classical_limit(self):
        # at q -> 1+ the rescaled component tends to -T3/2 on a finite ladder
        for eps in (1e-4, 2e-4):
            ctx = QContext(q=1 + eps)
            spin = rs.build_T_generic(1 / ctx.lam, 1.0, None, ctx)
            L = rs.build_L_operators(spin, ctx)
            L3 = L["L3"].to_dense()
            T3 = spin["T3"].to_dense()
            dev = np.abs(L3 + T3 / 2).max()
            assert dev < 10 * ctx.lam


class TestCoproduct:
    def test_beta_reproduces_tensor_family(self):
        t = rs.build_t_special(win_t(16), CTX)
        k = rs.build_K_orbital(win_k(16), CTX)
        cp = rs.coproduct(t, k, "beta", CTX)
        direct = rs.build_T_orb(win_tk(16, 16), CTX)
        for key in ("T3", "T+", "T-", "tau"):
            dev = abs(cp[key].to_csr() - direct[key].to_csr()).max()
            assert dev <= 1e-12 * max(1.0, abs(direct[key].to_csr()).max()), \
                key

    def test_group_like_tau(self):
        t = rs.build_t_special(win_t(10), CTX)
        k = rs.build_K_orbital(win_k(10), CTX)
        cp = rs.coproduct(t, k, "beta", CTX)
        prod = np.kron(t["tau"].diagonal(), k["tau"].diagonal())
        assert np.array_equal(cp["tau"].diagonal(), prod)

    def test_d_multiplicativity(self):
        t = rs.build_t_special(win_t(6), CTX)
        k = rs.build_K_orbital(win_k(6), CTX)
        cp = rs.coproduct(t, k, "beta", CTX)
        assert cp.params["d"] == pytest.approx(1 / LAM, rel=1e-13)
        assert t.params["d"] * k.params["d"] == pytest.approx(
            1 / LAM**2, rel=1e-13)
        assert cp.params["group_like_defect"] < 1e-12

    def test_variant_sign_preconditions(self):
        t = rs.build_t_special(win_t(6), CTX)
        k = rs.build_K_orbital(win_k(6), CTX)
        torb = rs.build_T_orb(win_tk(4, 4), CTX)
        with pytest.raises(DomainError):
            rs.coproduct(t, k, "standard", CTX)
        with pytest.raises(DomainError):
            rs.coproduct(torb, k, "beta", CTX)
        # a factor without tau or without a ladder is named, in either place
        xr = rs.build_X_over_R(1, win_t(6), CTX)
        lb = rs.build_L_basis(0, 1.0, 3, CTX)
        for a, b, variant, which, bad in (
                (xr, k, "beta", "first", xr), (t, xr, "beta", "second", xr),
                (lb, torb, "standard", "first", lb),
                (torb, lb, "standard", "second", lb)):
            msg = f"the {which} factor ({bad.kind}) has no T3, T+, T-, tau"
            with pytest.raises(DomainError, match=re.escape(msg)):
                rs.coproduct(a, b, variant, CTX)

    def test_labels_carry_the_shifts(self):
        # every entry of a coproduct moves its labels by a declared shift,
        # the primed label of a second factor that shares the first's
        # included
        spin1, half = (rs.build_T_generic(1 / LAM, s, None, CTX)
                       for s in (1.0, 0.5))
        cases = [
            (rs.build_t_special(win_t(5), CTX),
             rs.build_K_orbital(win_k(5), CTX), "beta"),
            (spin1, half, "standard"),
            (rs.build_T_orb(win_tk(3, 3), CTX), spin1, "standard")]
        for a, b, variant in cases:
            cp = rs.coproduct(a, b, variant, CTX)
            for key, op in cp.operators.items():
                assert op.shift_violations(cp.coords) == [], (variant, key)
        cp = rs.coproduct(spin1, half, "standard", CTX)
        assert cp["T+"].shift == ({"m": 1}, {"m'": 1})

    def test_nested_coproduct_keeps_every_label(self):
        spin1, half = (rs.build_T_generic(1 / LAM, s, None, CTX)
                       for s in (1.0, 0.5))
        inner = rs.coproduct(spin1, half, "standard", CTX)
        cp = rs.coproduct(inner, half, "standard", CTX)
        assert sorted(cp.coords.arrays) == ["m", "m'", "m''"]
        assert sorted(cp.window.range_map) == ["m", "m'", "m''"]
        assert np.array_equal(cp.coords.arrays["m''"], np.tile([-0.5, 0.5], 6))
        for op in cp.operators.values():
            assert op.shift_violations(cp.coords) == []


class TestAddSpin:
    def test_trivial_spin_is_identity_tensor(self):
        orb = rs.build_T_orb(win_tk(5, 5), CTX)
        spin0 = rs.build_T_generic(1 / LAM, 0.0, None, CTX)
        out = rs.coproduct(orb, spin0, "standard", CTX)
        for key in ("T3", "T+", "T-", "tau"):
            assert abs(out[key].to_csr() - orb[key].to_csr()).max() \
                < 1e-14, key

    def test_spin_half_closes_algebra(self):
        orb = rs.build_T_orb(win_tk(10, 10), CTX)
        spin = rs.build_T_generic(1 / LAM, 0.5, None, CTX)
        out = rs.coproduct(orb, spin, "standard", CTX)
        T3, Tp, Tm = (out[k].to_csr() for k in ("T3", "T+", "T-"))
        inner = out.interior
        r = (Tp @ Tm / Q - Q * Tm @ Tp - T3).toarray()
        scale = max(1.0, np.abs((Tp @ Tm).toarray()).max())
        assert np.abs(r[np.ix_(inner, inner)]).max() / scale < 1e-12

    @pytest.mark.parametrize("q", [1.5, 2.0])
    def test_spin_half_tau_is_group_like(self, q):
        # the total label m_t + m_k + m of T_orb x spin-1/2 reads the
        # group-like check; a 1 % error in T_orb's tau fails it
        ctx = QContext(q=q)
        orb = rs.build_T_orb(win_tk(8, 8), ctx)
        spin = rs.build_T_generic(1 / ctx.lam, 0.5, None, ctx)
        out = rs.coproduct(orb, spin, "standard", ctx)
        assert out.params["group_like_defect"] < 1e-15
        tau = orb["tau"]
        bad = RepFamily(orb.kind, orb.params, {
            **orb.operators,
            "tau": LabeledOperator("tau", 1.01 * tau.band, tau.shift)},
            orb.window, orb.coords)
        assert rs.coproduct(bad, spin, "standard", ctx) \
            .params["group_like_defect"] > 1e-3

    def test_tau_product_structure(self):
        orb = rs.build_T_orb(win_tk(4, 4), CTX)
        spin = rs.build_T_generic(1 / LAM, 0.5, None, CTX)
        out = rs.coproduct(orb, spin, "standard", CTX)
        prod = np.kron(orb["tau"].diagonal(), spin["tau"].diagonal())
        assert np.array_equal(out["tau"].diagonal(), prod)


class TestWindowPlumbing:
    def test_empty_range(self):
        with pytest.raises(WindowError):
            RepWindow.make({"m": (3, 1)})

    def test_interior_excludes_soft_edges_only(self):
        win = RepWindow.make({"a": (0, 10), "b": (0, 10)},
                             hard_lo=("a",), hard_hi=("b",))
        assert win.is_interior({"a": 0, "b": 10})
        assert not win.is_interior({"a": 9, "b": 5})
        assert not win.is_interior({"a": 5, "b": 1})

    def test_family_rejects_an_operator_of_another_size(self):
        # the family's Coords fix its size; an operator built on another
        # window is named, not accepted
        fam = rs.build_t_special(win_t(6), CTX)
        other = rs.build_X_over_R(1, win_t(5), CTX)["X3R"]
        with pytest.raises(WindowError, match="operator X3R is 6 x 6"):
            RepFamily("t_special", fam.params, {**fam.operators, "X3R": other},
                      fam.window, fam.coords)

    def test_sqrt_clamp(self):
        assert rs._sqrt_clamped(-1e-15) == 0.0
        with pytest.raises(WindowError):
            rs._sqrt_clamped(-1e-12)


# ---------------------------------------------------------------------------
# reference: the joint family, its Casimir and its L operators built entry by
# entry in Python dicts with scalar arithmetic, then converted to CSR
# ---------------------------------------------------------------------------

def _ref_sqrt(v):
    if v >= 0.0:
        return math.sqrt(v)
    if v >= -1e-14:
        return 0.0
    raise WindowError(f"negative square-root radicand {v}")


def _ref_csr(entries, n):
    if not entries:
        return sp.csr_matrix((n, n))
    rows, cols, vals = zip(*((i, j, v) for (i, j), v in entries.items()))
    return sp.csr_matrix((np.asarray(vals, dtype=float), (rows, cols)),
                         shape=(n, n))


def _ref_wrap(mat, n):
    return _ref_csr({(int(i), int(j)): float(v)
                     for (i, j), v in mat.todok().items()}, n)


def _ref_joint(M, z0, sigma, depth, width, q):
    lam = q - 1 / q
    z = sigma * abs(z0)
    sq = math.sqrt(1.0 + q * q)
    basis = [(mt + M, mt + mk) for mt in range(-depth, 1)
             for mk in range(0, width + 1)]
    idx = {s: i for i, s in enumerate(basis)}
    X3, Xp, Xm, R2 = {}, {}, {}, {}
    T3, Tp, Tm, tau = {}, {}, {}, {}
    for i, (nu, m) in enumerate(basis):
        X3[(i, i)] = z * q**(2 * nu)
        R2[(i, i)] = q**(4 * M + 2) * z0 * z0
        T3[(i, i)] = (1.0 - q**(-4 * m)) / lam
        tau[(i, i)] = q**(-4 * m)
        if (nu + 1, m + 1) in idx:
            j = idx[(nu + 1, m + 1)]
            Xp[(j, i)] = -q * q * z / sq * _ref_sqrt(q**(4 * M) - q**(4 * nu))
            Tp[(j, i)] = _ref_sqrt(q**(4 * (M - nu)) - 1.0) / (q * lam)
        if (nu, m + 1) in idx:
            j = idx[(nu, m + 1)]
            Tp[(j, i)] = Tp.get((j, i), 0.0) + \
                _ref_sqrt(q**(4 * (M - nu)) - q**(-4 * (m + 1))) / lam
        if (nu - 1, m - 1) in idx:
            j = idx[(nu - 1, m - 1)]
            Xm[(j, i)] = q * z / sq * _ref_sqrt(q**(4 * M) - q**(4 * (nu - 1)))
            Tm[(j, i)] = q * q / (q * lam) * \
                _ref_sqrt(q**(4 * (M - nu + 1)) - 1.0)
        if (nu, m - 1) in idx:
            j = idx[(nu, m - 1)]
            Tm[(j, i)] = Tm.get((j, i), 0.0) + \
                q * q / lam * _ref_sqrt(q**(4 * (M - nu)) - q**(-4 * m))
    n = len(basis)
    return basis, {k: _ref_csr(v, n) for k, v in (
        ("X3", X3), ("X+", Xp), ("X-", Xm), ("R2", R2),
        ("T3", T3), ("T+", Tp), ("T-", Tm), ("tau", tau))}


def _ref_casimir_and_L(ops, q):
    lam = q - 1 / q
    tau_d = ops["tau"].diagonal()
    n = len(tau_d)
    th = sp.diags(np.sqrt(tau_d))
    tmh = sp.diags(1.0 / np.sqrt(tau_d))
    T2 = _ref_wrap((q * q / lam**2) * th + tmh / lam**2
                   + tmh @ ops["T+"] @ ops["T-"]
                   - (1 + q * q) / lam**2 * sp.identity(n), n)
    sq = math.sqrt(1.0 + q * q)
    L3 = (tmh - sp.identity(n) - lam**2 / (1 + q * q) * T2) \
        / (q * q * (1 - q * q))
    return T2, {"L3": _ref_wrap(L3, n),
                "L+": _ref_wrap(tmh @ ops["T+"] / (q * q * sq), n),
                "L-": _ref_wrap(-tmh @ ops["T-"] / (q**3 * sq), n)}


def assert_same_csr(a, b, what):
    assert a.shape == b.shape, what
    assert np.array_equal(a.indptr, b.indptr), what
    assert np.array_equal(a.indices, b.indices), what
    assert np.array_equal(a.data, b.data, equal_nan=True), what


class TestAgainstDictReference:
    @pytest.mark.parametrize("q", [1.2, 2.0, 3.0])
    @pytest.mark.parametrize("depth,width", [(6, 6), (20, 13)])
    def test_joint_family_casimir_and_L(self, q, depth, width):
        ctx = QContext(q=q)
        win = RepWindow.make({"m_t": (-depth, 0), "m_k": (0, width)})
        for M, z0, sigma in ((0, 1.0, 1), (2, 0.7, -1)):
            fam = rs.build_X_T_R_joint(M, z0, sigma, win, ctx)
            basis, ref = _ref_joint(M, z0, sigma, depth, width, q)
            mt, mk = fam.coords.arrays["m_t"], fam.coords.arrays["m_k"]
            assert list(zip((mt + M).tolist(), (mt + mk).tolist())) == basis
            assert set(fam.operators) == set(ref)
            for key, mat in ref.items():
                assert_same_csr(fam[key].to_csr(), mat, (key, M))
            T2, L = _ref_casimir_and_L(ref, q)
            assert_same_csr(rs.casimir(fam, ctx).to_csr(), T2, ("T2", M))
            for key, op in rs.build_L_operators(fam, ctx).items():
                assert_same_csr(op.to_csr(), L[key], (key, M))

    def test_label_views(self):
        win = RepWindow.make({"m_t": (-5, 0), "m_k": (0, 4)})
        fam = rs.build_X_T_R_joint(0, 1.0, 1, win, CTX)
        _, ref = _ref_joint(0, 1.0, 1, 5, 4, Q)
        for key, mat in ref.items():
            op = fam[key]
            assert len(op.entries) == mat.nnz
            coo = mat.tocoo()
            expect = dict(zip(zip(coo.row.tolist(), coo.col.tolist()),
                              coo.data.tolist()))
            assert dict(op.entries.items()) == expect
        assert (0, 0) in fam["X3"].entries
        assert (0, 1) not in fam["X3"].entries


class TestShiftViolations:
    def test_forbidden_entry_is_reported(self):
        win = RepWindow.make({"m_t": (-4, 0), "m_k": (0, 4)})
        fam = rs.build_X_T_R_joint(0, 1.0, 1, win, CTX)
        nk, i = 5, 6                  # state i = (m_t, m_k) = (-3, 1)
        # a legal m_t step, a forbidden diagonal step, and a forbidden step
        # that stores an explicit zero (not a violation)
        rows, cols = np.array([i + nk, i + nk + 1, i + 2]), np.full(3, i)
        band = _Band.from_entries(fam.n, rows, cols, np.array([1.0, 2.0, 0.0]))
        op = LabeledOperator("X+?", band, shift=({"m_t": 1},))
        assert len(op.entries) == 3
        assert op.entries[(i + 2, i)] == 0.0
        assert op.shift_violations(fam.coords) == [
            ((i + nk + 1, i), {"m_t": 1, "m_k": 1})]
        assert LabeledOperator("free", band).shift_violations(
            fam.coords) == []

    def test_transposed_ladder_violates(self):
        win = RepWindow.make({"m_t": (-4, 0), "m_k": (0, 4)})
        fam = rs.build_X_T_R_joint(0, 1.0, 1, win, CTX)
        Tp = fam["T+"]
        wrong = LabeledOperator("T+^T", Tp.band.T, shift=Tp.shift)
        bad = wrong.shift_violations(fam.coords)
        assert len(bad) == np.count_nonzero(Tp.to_csr().data)
        assert {tuple(sorted(d.items())) for _, d in bad} == {
            (("m_t", -1),), (("m_k", -1),)}


# ---------------------------------------------------------------------------
# reference: the scalar Casimir-chain and X3 blocks, entry by entry
# ---------------------------------------------------------------------------

def _ref_t2_block(m, depth, q):
    lam = q - 1 / q
    top = min(0, m)
    mts = list(range(top, top - depth - 1, -1))
    n = len(mts)
    D = np.zeros(n)
    E = np.zeros(n - 1)
    for j, mt in enumerate(mts):
        D[j] = ((q * q + 1) * q**(2 * (m + 1) - 4 * mt) - (q * q + 1)) / lam**2
        if j + 1 < n:
            E[j] = q**(2 * m + 1) * _ref_sqrt(
                (q**(4 - 4 * mt) - 1.0) * (q**(4 - 4 * mt) - q**(-4 * m))) \
                / lam**2
    return D, E, mts


def _ref_chain_mp(m, mts, q):
    """The 40-digit chain diagonal and couplings of the congruence defect."""
    qm = mp.mpf(q)
    lam = qm - 1 / qm
    diag = [((qm * qm + 1) * qm**(2 * (m + 1) - 4 * mt) - (qm * qm + 1))
            / lam**2 for mt in mts]
    off = [qm**(2 * m + 1) * mp.sqrt(
        (qm**(-4 * mt) - 1) * (qm**(-4 * mt) - qm**(-4 * m))) / lam**2
        for mt in mts[:-1]]
    return diag, off


def _ref_x3_block(M, m, l_max, r0, q):
    def qn(a):
        return (q**a - q**(-a)) / (q - 1 / q)

    ls = list(range(abs(m), l_max + 1))
    E = np.array([r0 * q**(2 * M + m) * math.sqrt(
        qn(l + m + 1) * qn(l - m + 1) / (qn(2 * l + 1) * qn(2 * l + 3)))
        for l in ls[:-1]])
    return E, ls


class TestAgainstScalarBlocks:
    @pytest.mark.parametrize("q", [1.1, 1.5, 2.0, 3.0])
    def test_t2_and_x3_blocks(self, q):
        ctx = QContext(q=q)
        r0 = rs.r0_from_z0(1.0, ctx)
        for m in range(-4, 5):
            D, E, mts = rs.t2_block(m, 40, ctx)
            rD, rE, rmts = _ref_t2_block(m, 40, q)
            assert mts == rmts
            assert np.array_equal(D, rD) and np.array_equal(E, rE), m
            for M in (0, 2):
                E, ls = rs.x3_block(M, m, 30, r0, ctx)
                rE, rls = _ref_x3_block(M, m, 30, r0, q)
                assert ls == rls
                assert np.array_equal(E, rE), (m, M)

    @pytest.mark.parametrize("q", [1.1, 1.5, 2.0, 3.0])
    def test_mpf_chain(self, q):
        with mp.workdps(40):
            qm = mp.mpf(q)
            lam2 = (qm - 1 / qm)**2
            for m in range(-4, 5):
                mts = list(range(min(0, m) - 30, min(0, m) + 1))
                entries = [rs.chain_entries(m, mt, qm) for mt in mts]
                diag, off = _ref_chain_mp(m, mts, q)
                assert [d / lam2 for d, _ in entries] == diag, m
                assert [e / lam2 for _, e in entries[:-1]] == off, m

    # depth 600: the power q^2400 raises; depth 200: q^800 is finite but
    # the coupling's radicand (~q^1600) overflows to inf
    @pytest.mark.parametrize("depth", [200, 600])
    def test_deep_chain_overflow_is_domain_error(self, depth):
        with pytest.raises(DomainError):
            rs.t2_block(0, depth, QContext(q=2.0))
        with pytest.raises(DomainError):
            rs.chain_entries(0, -depth, 2.0)

    @pytest.mark.parametrize("q", [1.1, 1.5, 2.0, 3.0])
    def test_orbital_ladder_shared_with_joint_family(self, q):
        ctx = QContext(q=q)
        win = RepWindow.make({"m_t": (-12, 0), "m_k": (0, 9)})
        torb = rs.build_T_orb(win, ctx)
        joint = rs.build_X_T_R_joint(0, 1.0, 1, win, ctx)
        for key in ("T3", "T+", "T-", "tau"):
            assert_same_csr(torb[key].to_csr(), joint[key].to_csr(), key)
