import contextlib
import cProfile
import importlib.util
import itertools
import json
import math
import pstats
import random
import sys
import threading
from fractions import Fraction
from functools import partial
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import finf, fone, fzero, libmpf, mpf_gt

import exact as ex
from qspace3 import DomainError, PrecisionError, QContext, cli
from qspace3 import basistrans as bt
from qspace3 import qarith as qa
from qspace3 import qspecial as qs

CTX15 = QContext(q=1.5)
CTX12 = QContext(q=1.2)


def qn(a, q):
    return (q**a - q**(-a)) / (q - 1.0 / q)


def closed_forms(q):
    """Degree <= 3 table, written out independently of the package."""
    return {
        (0, 0): lambda x: 1.0,
        (1, 0): lambda x: x,
        (2, 0): lambda x: (qn(3, q) * x * x - q**-2) / (q * qn(2, q)),
        (3, 0): lambda x: x * (qn(5, q) * q * q * x * x - qn(3, q))
        / (q**5 * qn(2, q)),
        (1, 1): lambda x: 1.0,
        (2, 1): lambda x: x,
        (3, 1): lambda x: (q**4 * qn(5, q) * x * x - 1.0) / (q**5 * qn(4, q)),
    }


class TestPolynomial:
    @pytest.mark.parametrize("q", [1.1, 1.5, 2.0])
    def test_closed_forms(self, q):
        ctx = QContext(q=q)
        xs = [-0.93, -0.37, 0.0, 0.11, 0.52, 1.0]
        for (l, m), f in closed_forms(q).items():
            for x in xs:
                assert qs.p_lm(l, m, x, ctx) == pytest.approx(
                    f(x), rel=1e-12, abs=1e-13)

    def test_degree_zero_and_vanishing(self):
        assert qs.p_lm(1, 1, 0.3, CTX15) == 1.0
        assert qs.p_lm(4, 4, -0.7, CTX15) == 1.0
        assert qs.p_lm(1, 3, 0.5, CTX15) == 0.0

    @pytest.mark.parametrize("precision", ["double", "extended"])
    @pytest.mark.parametrize("q", [1.5, 2.0])
    def test_degree_zero_is_one_without_a_sum(self, q, precision):
        # P_mm = 1 needs no sum: at l = m = 120, q = 2 the binary64
        # q-binomials of its one-term sum are inf/inf, and an escalated sum
        # would start at thousands of digits
        ctx = QContext(q=q, precision=precision)
        kind = mp.mpf if precision == "extended" else float
        for l in (0, 5, 50, 120, 260):
            for x in (2.0**-522, 0.001, -0.7):
                v = qs.p_lm(l, l, x, ctx)
                assert type(v) is kind and v == 1, (l, x)

    def test_sum_terminates_after_degree_terms(self):
        # terms beyond index l - m carry a vanishing q-binomial, so padding
        # the summation range cannot change the value
        from qspace3.qarith import qbinomial_sym
        l, m = 4, 1
        assert all(qbinomial_sym(l - m, k, CTX15) == 0.0
                   for k in range(l - m + 1, l - m + 6))
        s, _ = qs._p_sum(l, m, 0.37, 1.5)
        assert qs.p_lm(l, m, 0.37, CTX15) == pytest.approx(s, rel=1e-15)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            qs.p_lm(3, -1, 0.5, CTX15)

    def test_unit_normalization(self):
        # hand value: ( [3] - q^-2 ) / (q [2]) = 1 at q = 2
        ctx = QContext(q=2.0)
        assert qs.p_lm(2, 0, 1.0, ctx) == pytest.approx(1.0, rel=1e-13)

    def test_classical_limit_at_one(self):
        ctx = QContext(q=1.0 + 1e-4)
        for l in range(5):
            for m in range(l + 1):
                assert qs.p_lm(l, m, 1.0, ctx) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("l,m", [(2, 0), (3, 1), (4, 2), (5, 0)])
    def test_matches_general_big_q_jacobi(self, l, m):
        # the order-m family is the degree-(l-m) general polynomial at the
        # squared base with parameters (q^-2m, q^-2m, -q^-2m): the exact
        # terminating 3phi2 equals the exact direct sum, and extended p_lm
        # rounds it to within 2 ulp
        q = 1.5
        qf = Fraction(q)
        ctx = QContext(q=q, precision="extended")
        for x in (-0.4, 0.2, 0.77):
            general = ex.p_3phi2(l, m, Fraction(x), qf)
            assert general == ex.p_direct(l, m, Fraction(x), qf)
            assert abs(float(qs.p_lm(l, m, x, ctx)) - float(general)) \
                <= 2 * math.ulp(float(general))

    def test_big_q_jacobi_degree_one(self):
        # with the squared base and order 0 the degree-1 member is x itself
        x = Fraction(0.37)
        assert ex.jacobi_3phi2(1, x, 1, 1, -1, Fraction(1.5)**-2) == x

    def test_big_q_jacobi_degree_zero(self):
        # series terminates at the constant term
        am = Fraction(1.5)**-4
        assert ex.jacobi_3phi2(0, Fraction(-0.6), am, am, -am,
                               Fraction(1.5)**-2) == 1


class TestEscalation:
    @staticmethod
    def _spy_sums(monkeypatch):
        """Patch _p_sum and _p_sum_at to log each sum: None for a binary64
        one, the working dps for a multiprecision one."""
        sums = []
        p_sum, p_sum_at = qs._p_sum, qs._p_sum_at

        def binary64(*args):
            sums.append(None)
            return p_sum(*args)

        def multiprecision(point, terms):
            sums.append(mp.mp.dps)
            return p_sum_at(point, terms)

        monkeypatch.setattr(qs, "_p_sum", binary64)
        monkeypatch.setattr(qs, "_p_sum_at", multiprecision)
        return sums

    def test_escalation_starts_at_the_rule_dps(self, monkeypatch):
        sums = self._spy_sums(monkeypatch)
        qs.p_lm(20, 0, 1.5**-18, CTX15)
        # one binary64 sum, which has lost every digit (its largest term is
        # 3e15 times the sum), then one mpf sum at the rule's dps: 2.2 l^2
        # log10 q = 154.8 digits and 40 guard digits, in steps of 40
        assert sums == [None, qs._sum_dps(20, 0, -18, 1.5)] == [None, 200]
        sums.clear()
        qs.p_lm(5, 2, 2.0**-30, QContext(q=2.0))
        assert sums == [None, qs._sum_dps(5, 2, -30, 2.0)] == [None, 80]
        # an odd degree adds the log10(1/|x|) digits P ~ x cancels, 27.1 at
        # 2**-90, where an even degree adds none
        assert qs._sum_dps(5, 2, 0, 2.0) == 80
        assert qs._sum_dps(5, 2, -90, 2.0) == 120
        assert qs._sum_dps(4, 2, -90, 2.0) == qs._sum_dps(4, 2, 0, 2.0) == 80

    def test_sum_cancelling_to_zero_is_not_accepted(self, monkeypatch):
        # the terms do not vanish, so a sum that cancels to exactly 0 is
        # summed again: started at 89 digits, where it does, the rule goes
        # on to 178
        got = qs.p_lm(20, 0, 1.5**-18, CTX15)
        ext = qs.p_lm(20, 0, 1.5**-18, QContext(q=1.5, precision="extended"))
        assert got == pytest.approx(9.0057775933823e-41, rel=1e-12)
        assert got == float(ext)
        with mp.workdps(89):
            s, worst = qs._p_sum_at(qs._node(-18, 1, 1.5, 89),
                                    qs._sum_terms(20, 0, 1.5, 89))
        assert s == fzero and mpf_gt(worst, fzero)
        monkeypatch.setattr(qs, "_sum_dps", lambda *args: 89)
        sums = self._spy_sums(monkeypatch)
        p = qs._p_value(20, 0, partial(qs._node, -18, 1, 1.5), -18, 1.5)
        assert sums == [89, 178] and p.dps == 178
        assert float(mp.make_mpf(p.v)) == got

    def test_p_lm_and_p_tilde_share_the_node_record(self, monkeypatch):
        # binary64 p_lm (after its float sum), extended p_lm and p_tilde in
        # both modes read one P record at a node: one mpf sum, at the dps
        # of the rule, and one terms record at that dps.  The radicand reads
        # the node record of sigma = +1, shared by both signs.
        sums = self._spy_sums(monkeypatch)
        modes = (QContext(q=1.2), QContext(q=1.2, precision="extended"))
        for n, sigma in ((-12, 1), (-3, -1)):
            x = qs._lattice_point(n, 3, sigma, 1.2)
            e, _ = qs._snap_lattice(x, 1.2)
            qs.clear_caches()
            sums.clear()
            for ctx in modes:
                qs.p_lm(40, 3, x, ctx)
                qs.p_tilde(40, 3, x, ctx)
            dps = qs._sum_dps(40, 3, e, 1.2)
            assert sums == [None, dps], n
            assert qs._p_node(40, 3, e, sigma, 1.2).dps \
                == qs._ptilde_node(40, 3, e, sigma, 1.2).dps == dps
            for cache, k in ((qs._sum_terms, 1), (qs._node, 1 + (sigma < 0)),
                             (qs._p_node, 1), (qs._ptilde_node, 1)):
                info = cache.cache_info()
                assert (info.misses, info.currsize) == (k, k), cache.__name__

    def test_nan_sum_has_a_nan_largest_term(self):
        # the binary64 terms overflow; a largest term of 0 would read as
        # "every term vanished", which the accept rule takes as exact
        s, worst = qs._p_sum(29, 8, 3.186635545324935e-11, 3.0)
        assert math.isnan(s) and math.isnan(worst)

    @staticmethod
    def _never_converges(monkeypatch):
        # binary64 and multiprecision sums whose largest term dwarfs them at
        # every precision
        monkeypatch.setattr(qs, "_p_sum", lambda *args: (1.0, math.inf))
        monkeypatch.setattr(qs, "_p_sum_at", lambda *args: (fone, finf))

    @pytest.mark.parametrize("precision", ["double", "extended"])
    def test_non_convergence_raises(self, monkeypatch, precision):
        self._never_converges(monkeypatch)
        with pytest.raises(PrecisionError):
            qs.p_lm(5, 0, 0.3, QContext(q=1.5, precision=precision))

    def test_non_convergence_exits_4(self, monkeypatch):
        from qspace3.cli import main
        self._never_converges(monkeypatch)
        assert main(["poly", "--l", "5", "--m", "0", "--x", "0.3"]) == 4

    @pytest.mark.parametrize("l, m, x, q", [(3, 1, 1e300, 1.1),
                                            (2, 0, 1e160, 1.5)])
    def test_polynomial_beyond_binary64_raises(self, l, m, x, q):
        # the escalated sum converges to a value beyond binary64: no inf
        with pytest.raises(PrecisionError):
            qs.p_lm(l, m, x, QContext(q=q))
        assert float(qs.p_lm(l, m, x, QContext(q=q, precision="extended"))) \
            == math.inf


class TestWeight:
    def test_order_zero_is_flat(self):
        w1 = qs.weight_w(3, 0, 0.1, CTX15)
        w2 = qs.weight_w(3, 0, -0.62, CTX15)
        assert w1 == pytest.approx(w2, rel=1e-13)

    def test_argument_scaling(self):
        # w(x/q^2) = w(x) sqrt((1-x^2)/(1-x^2 q^(4m)))
        q = 1.5
        for (l, m, n) in [(2, 0, -1), (3, 1, -2), (5, 3, -1)]:
            x = q**(2 * (n - m - 1))
            lhs = qs.weight_w(l, m, x / q**2, CTX15)
            rhs = qs.weight_w(l, m, x, CTX15) * math.sqrt(
                (1 - x * x) / (1 - x * x * q**(4 * m)))
            assert lhs == pytest.approx(rhs, rel=CTX15.tol_rel)

    def test_degree_shift_scaling(self):
        # w_(l-1)(x) = w_l(x) q^-l sqrt([l-m][2l-1]/([l+m][2l+1]));
        # the inverse of this ratio breaks lattice orthonormality, so the
        # normalized weight satisfies this orientation of the shift identity
        q = 1.5
        for (l, m, n) in [(2, 0, -1), (4, 1, -2), (5, 2, -3)]:
            x = q**(2 * (n - m - 1))
            lhs = qs.weight_w(l - 1, m, x, CTX15)
            rhs = qs.weight_w(l, m, x, CTX15) * q**(-l) * math.sqrt(
                qn(l - m, q) * qn(2 * l - 1, q)
                / (qn(l + m, q) * qn(2 * l + 1, q)))
            assert lhs == pytest.approx(rhs, rel=CTX15.tol_rel)

    def test_off_support_rejected(self):
        with pytest.raises(DomainError):
            qs.weight_w(2, 1, 1.0, CTX15)

    def test_below_order_rejected(self):
        with pytest.raises(DomainError):
            qs.weight_w(1, 2, 0.1, CTX15)

    def test_weight_above_1e250_is_finite(self):
        # 10**290.7: beyond the 1e250 cap of the binary64 products, inside
        # the binary64 range
        w = qs.weight_w(40, 3, 2.0**-8, QContext(q=2.0))
        ref = qs.weight_w(40, 3, 2.0**-8,
                          QContext(q=2.0, precision="extended"))
        assert w == pytest.approx(float(ref), rel=1e-12)
        assert w == pytest.approx(5.2704471e290, rel=1e-7)

    @pytest.mark.parametrize("l, m, x", [(200, 0, 0.5),
                                         (30, 30, 2.0**-8 * (1 - 1e-7))],
                             ids=["weight", "radicand"])
    def test_weight_beyond_binary64_raises(self, l, m, x):
        # 10**(6e3); and a radicand product that overflows to inf
        with pytest.raises(PrecisionError):
            qs.weight_w(l, m, x, QContext(q=2.0))

    @pytest.mark.parametrize("m, x, q", [(260, 2.0**-522, 2.0),
                                         (3, 1e30**-8, 1e30)],
                             ids=["q=2", "q=1e30"])
    def test_radicand_power_beyond_binary64_raises(self, m, x, q):
        # q**(4m) (2**1040, 1e360) leaves binary64 before any radicand
        # factor is formed, at the node n = 0; the extended mode has it
        ctx = QContext(q=q)
        with pytest.raises(PrecisionError, match="QSPACE3_PRECISION=extended"):
            qs.weight_w(m, m, x, ctx)
        with pytest.raises(PrecisionError, match="QSPACE3_PRECISION=extended"):
            qs.p_tilde_table(m + 2, m, x, ctx)
        if m == 3:
            w = qs.weight_w(m, m, x, QContext(q=q, precision="extended"))
            assert mp.isfinite(w) and w > 0

    def test_exact_zero_radicand_factor(self):
        # at x = 2**-8, q = 2, m = 30 the factor j = 26 is exactly 0, after
        # 26 factors whose running product overflows binary64
        x = 2.0**-8
        ctxe = QContext(q=2.0, precision="extended")
        for ctx in (QContext(q=2.0), ctxe):
            assert qs.weight_w(30, 30, x, ctx) == 0
            assert qs.p_tilde(30, 30, x, ctx) == 0
            assert set(qs.p_tilde_table(40, 30, x, ctx)) == {0}

    @pytest.mark.parametrize("precision", ["double", "extended"])
    def test_radicand_bound_beyond_binary64_is_off_support(self, precision):
        # at x = 2**-8 (1 + 1e-7), q = 2, m = 30 the factor j = 26 is -2e-7,
        # far beyond its rounding bound
        ctx = QContext(q=2.0, precision=precision)
        x = 2.0**-8 * (1 + 1e-7)
        for f in (qs.weight_w, qs.p_tilde):
            with pytest.raises(DomainError):
                f(30, 30, x, ctx)

    @pytest.mark.parametrize("precision", ["double", "extended"])
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_rejected(self, x, precision):
        ctx = QContext(q=3.0, precision=precision)
        for f in (qs.p_lm, qs.p_tilde, qs.weight_w):
            with pytest.raises(DomainError, match="finite"):
                f(40, 30, x, ctx)


class TestWeightedFunction:
    def test_vanishes_below_order(self):
        assert qs.p_tilde(1, 3, 0.2, CTX15) == 0.0

    @pytest.mark.parametrize("l,m", [(1, 0), (3, 1), (4, 1), (6, 2), (8, 5)])
    def test_parity(self, l, m):
        ctx = QContext(q=1.3)
        q = 1.3
        for n in (0, -2, -5):
            x = q**(2 * (n - m - 1))
            a = qs.p_tilde(l, m, x, ctx)
            b = qs.p_tilde(l, m, -x, ctx)
            assert b == pytest.approx((-1)**(l - m) * a, rel=1e-11, abs=1e-13)

    def test_table_matches_pointwise(self):
        # two routes: recurrence column vs direct weighted evaluation
        for q, m in ((1.5, 0), (1.5, 2), (2.0, 1)):
            ctx = QContext(q=q)
            for n in (0, -3, -7):
                for sig in (1, -1):
                    x = sig * q**(2 * (n - m - 1))
                    tab = qs.p_tilde_table(12, m, x, ctx)
                    for l in range(m, 13):
                        direct = qs.p_tilde(l, m, x, ctx)
                        assert tab[l] == pytest.approx(
                            direct, rel=1e-9, abs=1e-11)

    def test_snapped_lattice_consistency(self):
        # a binary64 lattice argument names the exact node even at degrees
        # where the off-lattice continuation is exponentially steep
        v = qs.p_tilde(40, 0, 1.5**-2, CTX15)
        assert abs(v) < 1e-100

    def test_extended_matches_double(self):
        ctxe = QContext(q=1.5, precision="extended")
        for (l, m, n) in [(3, 0, -1), (8, 2, -4)]:
            x = 1.5**(2 * (n - m - 1))
            a = qs.p_tilde(l, m, x, CTX15)
            b = float(qs.p_tilde(l, m, x, ctxe))
            assert b == pytest.approx(a, rel=1e-12)

    def test_value_beyond_binary64_raises(self):
        # P~_90(0.5) at q = 1.3 is about -10**380
        ctx = QContext(q=1.3)
        with pytest.raises(PrecisionError):
            qs.p_tilde(90, 0, 0.5, ctx)
        v = qs.p_tilde(90, 0, 0.5, QContext(q=1.3, precision="extended"))
        assert mp.isfinite(v) and abs(v) > 1e308

    def test_radicand_power_beyond_binary64_is_multiprecision(self):
        # q**(4m) = 1e360 leaves binary64 at m = 3, q = 1e30: p_tilde takes
        # the multiprecision route of the extended mode and rounds it once
        x = 1e30**-8                    # the node n = 0 of order 3
        for l, xx in ((3, x), (4, -x)):
            a = qs.p_tilde(l, 3, xx, QContext(q=1e30))
            b = qs.p_tilde(l, 3, xx, QContext(q=1e30, precision="extended"))
            assert math.isfinite(a) and a == float(b)

    @pytest.mark.parametrize("precision", ["double", "extended"])
    def test_degree_zero_is_the_weight_without_a_sum(self, monkeypatch,
                                                     precision):
        # at l = m the direct sum is one term whose q-binomials are each
        # x/x, exactly 1: the multiprecision route returns the weight, at
        # the rule's guard digits alone, and builds no terms, bit for bit
        # the summed value at those digits (at l = m = 60, q = 2 a sum
        # would take 2,424)
        cases = [(60, 2.0, 2.0**-122), (3, 1.5, 1.5**-8),
                 (3, 1.5, -(1.5**-14)), (0, 2.0, 0.25),
                 (12, 1.5, 0.3 * 1.5**-24)]     # the last off the lattice
        qs.clear_caches()
        # spy on both builders of the terms, binary64 and multiprecision
        built = []
        for name in ("_sum_factors", "_sum_terms"):
            monkeypatch.setattr(qs, name, partial(
                lambda f, *a: built.append(a) or f(*a), getattr(qs, name)))
        got = [qs.p_tilde(l, l, x, QContext(q=q, precision=precision))
               for l, q, x in cases]
        assert built == [], "a degree-0 p_tilde built the direct sum's terms"
        # the spies see the terms of degree 1 on the same route, which
        # sums at the node 1.5**-8 in both modes
        qs.p_tilde(4, 3, 1.5**-8, QContext(q=1.5, precision=precision))
        assert (4, 3, 1.5, 80) in built
        monkeypatch.undo()
        for (l, q, x), v in zip(cases, got):
            dps = qs._sum_dps(l, l, 0, q)
            assert dps == 40
            with mp.workdps(dps):
                ref = _ref_ptilde(l, l, mp.mpf(x), mp.mpf(q), dps)
            if precision == "extended":
                assert v._mpf_ == ref._mpf_, (l, q, x)
            else:
                assert float.hex(v) == float.hex(float(ref)), (l, q, x)

    @pytest.mark.parametrize("q", [1.1, 2.0, 3.0])
    def test_transient_point_at_a_node_is_the_node(self, q):
        # one kernel sums at cached nodes and at transient points: at the
        # node's exact point a transient record gives the node's Pochhammer
        # list and P~ bit for bit, at the dps the rule gives the node value,
        # while lower degrees have extended the node's list before
        m, e = 2, -12                   # the node n = -3 of order 2
        qs.clear_caches()
        for l in range(m, 41):
            for sigma in (1, -1):
                ref = qs._ptilde_node(l, m, e, sigma, q)

                def transient(dps):     # called under mp.workdps(dps)
                    return qs._Node(sigma * mp.mpf(q)**e, [fone])

                with mp.workdps(ref.dps):
                    node = qs._node(e, sigma, q, ref.dps)
                    point = transient(ref.dps)
                    assert node.x._mpf_ == point.x._mpf_
                    terms = qs._sum_terms(l, m, q, ref.dps)
                    got = qs._node_poch(point, terms)
                    want = qs._node_poch(node, terms)[:len(terms)]
                    assert all(type(v) is tuple for v in got) and got == want
                    p = qs._p_value(l, m, transient, e, q)
                    rad = qs._rad_at(m, point.x._mpf_, q, p.dps)
                    v = mp.make_mpf(p.v) \
                        * mp.make_mpf(qs._weight_at(l, m, rad, q, p.dps))
                assert p.dps == ref.dps and v._mpf_ == ref.v, (l, sigma)

    def test_deep_degree_beyond_binary64_range(self):
        # at q = 2, l = 46 the weight and polynomial factors individually
        # leave binary64; the product must still come out finite
        ctx = QContext(q=2.0)
        x = 2.0**-2
        v = qs.p_tilde(46, 0, x, ctx)
        assert math.isfinite(v)


class TestTableLayer:
    def test_off_lattice_edge_point(self):
        # off the lattice P~ is the dominant solution, which a downward
        # (minimal-solution) pass cannot produce
        ctx = QContext(q=2.0)
        tab = qs.p_tilde_table(4, 0, -0.9166, ctx)
        assert tab[4] == pytest.approx(qs.p_tilde(4, 0, -0.9166, ctx),
                                       rel=1e-9)
        assert abs(tab[4]) > 1e4

    def test_off_lattice_seeded_grid(self):
        rng = random.Random(2)
        for _ in range(8):
            q = rng.choice((1.2, 1.5, 2.0))
            m = rng.randint(0, 3)
            l = rng.randint(m, 40)
            x = rng.uniform(-1.0, 1.0) * q**(-2 * m)
            ctx = QContext(q=q)
            tab = qs.p_tilde_table(l, m, x, ctx)
            assert all(math.isfinite(v) for v in tab)
            assert tab[l] == pytest.approx(qs.p_tilde(l, m, x, ctx),
                                           rel=1e-6, abs=0)

    def test_extended_table_ignores_ambient_precision(self):
        ctxe = QContext(q=1.5, precision="extended")
        x = 1.5**-42
        values = []
        for dps in (15, 40):
            qs.clear_caches()
            with mp.workdps(dps):
                values.append(qs.p_tilde_table(30, 0, x, ctxe))
        assert values[0] == values[1]

    def test_table_computes_no_coefficient_past_its_degree(self):
        # binary64 q-numbers overflow once q**(2l+3) > 1.8e308, at l = 63
        # for q = 250; a degree-10 table must not reach them
        qs.clear_caches()
        ctx = QContext(q=250.0)
        tab = qs.p_tilde_table(10, 0, 250.0**-2, ctx)
        assert len(tab) == 11
        assert all(math.isfinite(v) for v in tab)
        assert len(qs._coeff_lists(0, ctx)) < 64

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_rejected(self, x):
        with pytest.raises(DomainError):
            qs.p_tilde_table(5, 0, x, CTX15)

    def test_underflowing_coefficients_raise_precision_error(self):
        # at q = 2 the q-number products of the degree-256 coefficients
        # overflow binary64, so the coefficients would be 0 and the
        # recurrence would divide by them
        ctx = QContext(q=2.0)
        with pytest.raises(PrecisionError):
            qs.p_tilde_table(300, 0, 2.0**-2, ctx)
        with pytest.raises(PrecisionError):
            qs.p_tilde_table(300, 0, 0.3, ctx)
        tab = qs.p_tilde_table(300, 0, 2.0**-2,
                               QContext(q=2.0, precision="extended"))
        assert all(mp.isfinite(v) for v in tab)

    def test_coefficient_list_stops_at_its_first_degree_out_of_range(self):
        # at q = 50 the denominator [2l+1][2l+3] of degree 45 overflows, so
        # its coefficient reads 0; at m = 100 the first degree's q**201
        # raises OverflowError, read as an infinite q-number.  The list
        # keeps every degree below, each recurrence_coeff_up's value.
        ctx = QContext(q=50.0)
        for m, first in ((0, 45), (3, 45), (100, 100)):
            qs.clear_caches()
            with pytest.raises(PrecisionError, match=f"at degree {first} "):
                qs._coeffs_through(400, m, ctx)
            up = qs._coeff_lists(m, ctx)
            assert len(up) == first
            assert up[m:] == [qs.recurrence_coeff_up(l, m, ctx)
                              for l in range(m, first)]
        with pytest.raises(OverflowError):
            qa._qnum(201, 50.0)

    def test_route_and_overshoot_are_the_step_log_decision(self, monkeypatch):
        # every table of tests/golden/table_values.json, in both modes, and
        # every binary64 table of the direction-1 transform sites takes the
        # route and overshoot delta of the decision written with one
        # step_log call per degree
        from golden import make_special_values as special
        from golden import make_table_values as tables

        def ref_route(l_max, m, x, q):
            if x == 0:
                return "_table_up", None
            lx, lq = math.log10(abs(float(x))), math.log10(q)

            def step_log(l):
                return max(0.0, lx + (l + m + 2) * lq)

            log_gain = sum(step_log(l) for l in range(m, l_max))
            if log_gain < 4.0 or qs._snap_lattice(x, q) is None:
                return "_table_up", None
            delta = 4
            gain = sum(step_log(l) for l in range(l_max, l_max + delta))
            while gain < 26.0:
                for l in (l_max + delta, l_max + delta + 1):
                    gain += step_log(l)
                delta += 2
            return "_table_down", delta

        calls = []
        for name in ("_table_up", "_table_down"):
            def spy(l_max, m, x, seed, ctx, *delta, _name=name,
                    _orig=getattr(qs, name)):
                calls.append(((_name, delta[0] if delta else None),
                              ref_route(l_max, m, x, float(ctx.q))))
                return _orig(l_max, m, x, seed, ctx, *delta)
            monkeypatch.setattr(qs, name, spy)
        for q in special.QS:
            qs.clear_caches()
            tables.tables(q)
        assert len(calls) == 240 and all(got == ref for got, ref in calls)
        assert {got for got, _ in calls} == {("_table_up", None)} | {
            ("_table_down", delta) for delta in (4, 6, 14, 16, 18)}
        # at the sites a route can turn on the last degree of the gain's sum
        calls.clear()
        for q in (1.1, 1.5, 2.0, 3.0):
            ctx = QContext(q=q)
            qs.clear_caches()
            for m, mt, l_max in itertools.product(range(4), range(-60, 1),
                                                  (20, 40, 60)):
                with contextlib.suppress(PrecisionError):
                    qs.p_tilde_table(l_max, m, qs._site(m, mt, 1, q)[0], ctx)
        assert len(calls) == 2928 and all(got == ref for got, ref in calls)

    def test_upward_table_beyond_binary64_raises(self):
        # the upward column overflows from l = 75 on and is NaN above
        ctx = QContext(q=1.3)
        with pytest.raises(PrecisionError):
            qs.p_tilde_table(90, 0, 0.5, ctx)
        assert all(math.isfinite(v) for v in qs.p_tilde_table(70, 0, 0.5, ctx))

    def test_concurrent_coefficient_list_extension(self):
        # threads that start together all extend the same empty list
        ctx = QContext(q=1.312)
        qs.clear_caches()
        reference = list(qs._coeffs_through(80, 0, ctx))
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(20):
                qs.clear_caches()
                start = threading.Barrier(4)

                def worker():
                    start.wait(timeout=60)
                    qs._coeffs_through(80, 0, ctx)

                threads = [threading.Thread(target=worker) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert qs._coeff_lists(0, ctx) == reference, trial
        finally:
            sys.setswitchinterval(old)

    def test_table_parity_is_bit_exact(self, monkeypatch):
        # P~_l(-x) = (-1)^(l-m) P~_l(x) bit for bit, on both routes and in
        # both modes: the transforms take their sigma = -1 rows from it.  A
        # binary64 zero is +0.0 at both signs, so a zero is not negated.
        routes = set()
        for name in ("_table_up", "_table_down"):
            def spy(*args, _name=name, _orig=getattr(qs, name)):
                routes.add(_name)
                return _orig(*args)
            monkeypatch.setattr(qs, name, spy)
        qs.clear_caches()
        for q, precision, l_max, m, n in itertools.product(
                (1.1, 2.0, 3.0), ("double", "extended"), (10, 60), (0, 1, 3),
                (0, -3, -12, -40)):
            ctx = QContext(q=q, precision=precision)
            # the lattice sites of the transforms, at 40 digits in extended
            with mp.workdps(40):
                qv = ctx.qval()
                x, y = (qs._lattice_point(n, m, s, qv) for s in (1, -1))
                plus = qs.p_tilde_table(l_max, m, x, ctx)
                minus = qs.p_tilde_table(l_max, m, y, ctx)
                flipped = [-v if (l - m) % 2 and v else v
                           for l, v in enumerate(plus)]
            if ctx.is_extended:
                assert [v._mpf_ for v in minus] \
                    == [v._mpf_ for v in flipped], (q, l_max, m, n)
                continue
            a, b = (np.array(t).view(np.uint64) for t in (minus, flipped))
            assert np.array_equal(a, b), (q, l_max, m, n)
            both = np.array(plus + minus)
            assert not np.signbit(both[both == 0]).any()
        assert routes == {"_table_up", "_table_down"}

    def test_extended_table_holds_only_mpf(self, monkeypatch):
        # the zeros below m, at x = 0 and at a zero seed (the radicand
        # vanishes at n = 1) are mpf like every other entry, on both routes
        routes = set()
        for name in ("_table_up", "_table_down"):
            def spy(*args, _name=name, _orig=getattr(qs, name)):
                routes.add(_name)
                return _orig(*args)
            monkeypatch.setattr(qs, name, spy)
        qs.clear_caches()
        ctx = QContext(q=2.0, precision="extended")
        for m in (0, 3):
            for x in (2.0**-14, -(2.0**-14), 2.0**(-2 * (m + 1)),
                      0.3**(m + 1), 0.0, 2.0**(-2 * m)):
                for l_max in (2, 10, 40):
                    tab = qs.p_tilde_table(l_max, m, x, ctx)
                    assert all(type(v) is mp.mpf for v in tab), (m, x, l_max)
        assert qs.p_tilde_table(10, 3, 2.0**-6, ctx) == [0] * 11
        assert routes == {"_table_up", "_table_down"}

    def test_extended_table_is_the_written_out_mpf_recurrence(
            self, monkeypatch):
        # bit for bit at the direction-1 transform sites, on both routes:
        # each table against the recurrence written out with mpf operators
        # from the seed, route and overshoot the table was built with
        calls = []
        for name in ("_table_up", "_table_down"):
            def spy(*args, _name=name, _orig=getattr(qs, name)):
                tab = _orig(*args)
                calls.append((_name, args, tab))
                return tab
            monkeypatch.setattr(qs, name, spy)

        coeffs = {}

        def written_out(l_max, m, x, seed, ctx, delta=0):
            L = l_max + delta
            c = coeffs.setdefault((ctx.q, m), [None] * m)
            c += [qs.recurrence_coeff_up(l, m, ctx)
                  for l in range(len(c), L + 1)]
            xq = x * ctx.qval()**(m + 1)
            vals = [mp.mpf(0)] * (l_max + 1)
            if not delta:               # upward from the seed
                vals[m] = seed
                vals[m + 1] = xq * seed / c[m]
                for l in range(m + 1, l_max):
                    vals[l + 1] = (xq * vals[l] - c[l - 1] * vals[l - 1]) \
                        / c[l]
                return vals
            v = [mp.mpf(0)] * (L + 2)   # downward from 1, scaled to the seed
            v[L] = mp.mpf(1)
            for l in range(L, m, -1):
                v[l - 1] = (xq * v[l] - c[l] * v[l + 1]) / c[l - 1]
            ratio = seed / v[m]
            return vals[:m] + [v[l] * ratio for l in range(m, l_max + 1)]

        qs.clear_caches()
        for q, m in itertools.product((1.1, 1.5, 2.0, 3.0), (0, 2)):
            ctx = QContext(q=q, precision="extended")
            with mp.workdps(ctx.dps):
                for mt in range(-60, 1):
                    x, _ = qs._site(m, mt, 1, mp.mpf(q))
                    qs.p_tilde_table(60, m, x, ctx)
        assert {name for name, _, _ in calls} == {"_table_up", "_table_down"}
        for _, args, tab in calls:
            with mp.workdps(args[4].dps):
                ref = written_out(*args)
            assert [v._mpf_ for v in tab] == [v._mpf_ for v in ref], args[:3]

    @pytest.mark.parametrize("precision", ["double", "extended"])
    def test_grown_coefficient_list_is_recurrence_coeff_up(self, precision):
        ctx = QContext(q=1.5, precision=precision)
        qs.clear_caches()
        for m in (0, 3):
            for top in (10, 40, 120):
                up = qs._coeffs_through(top, m, ctx)
                assert len(up) == top + 1
            ref = [qs.recurrence_coeff_up(l, m, ctx) for l in range(m, 121)]
            if ctx.is_extended:
                assert all(type(c) is mp.mpf for c in up[m:])
                up, ref = ([c._mpf_ for c in v] for v in (up[m:], ref))
            else:
                up = up[m:]
            assert up == ref, m

    def test_overshoot_cap_raises(self):
        # near q = 1 the downward pass would need more than 2000 extra
        # degrees to gain its 26 decades
        q = 1.000002
        with pytest.raises(PrecisionError):
            qs.p_tilde_table(3050, 0, q**-2, QContext(q=q))


class TestIdentities:
    def test_recurrence_spec_points(self):
        assert qs.check_recurrence(3, 1, 1.5**-4, CTX15) < CTX15.tol_rel
        assert qs.check_recurrence(2, 2, 1.5**-6, CTX15) < CTX15.tol_rel

    def test_difference_spec_points(self):
        assert qs.check_difference(2, 0, 1.5**-2, CTX15) < 1e-10
        ctx = QContext(q=1.2)
        assert qs.check_difference(4, 2, -(1.2**-6), ctx) < 1e-10

    @pytest.mark.parametrize("q", [1.1, 2.0])
    def test_small_grid(self, q):
        ctx = QContext(q=q)
        for l in range(0, 6):
            for m in range(0, l + 1):
                for n in (0, -1, -5):
                    for sig in (1, -1):
                        x = sig * q**(2 * (n - m - 1))
                        assert qs.check_recurrence(l, m, x, ctx) < 1e-10
                        assert qs.check_difference(l, m, x, ctx) < 1e-10

    def test_cached_recurrence_coefficient_is_the_inline_one(self):
        # the coupling record of degree l is the coupling to l + 1 and,
        # above the bottom l = m, the record of l - 1 the coupling to l - 1,
        # each computed as the inline one
        for q in (1.1, 1.5, 2.0):
            for l in range(9):
                for m in range(l + 1):
                    dps = qs._sum_dps(l + 1, m, 0, q)
                    with mp.workdps(dps):
                        qn_mp = partial(qa._qnum, q=mp.mpf(q))
                        up = qs._recurrence_coeff(l, m, qn_mp)
                        down = qs._recurrence_coeff(l - 1, m, qn_mp) \
                            if l > m else None
                    c_up = qs._coupling(l, m, q, dps)
                    assert type(c_up) is tuple and c_up == up._mpf_
                    if down is not None:
                        c_down = qs._coupling(l - 1, m, q, dps)
                        assert type(c_down) is tuple \
                            and c_down == down._mpf_

    @pytest.mark.parametrize("precision", ["double", "extended"])
    @pytest.mark.parametrize("fn,l,m", [
        (qs.recurrence_coeff_up, 0, 2), (qs.recurrence_coeff_down, 3, -5),
        (qs.recurrence_coeff_up, 1, -1), (qs.recurrence_coeff_down, 1, 2)])
    def test_recurrence_coefficient_off_the_chain_rejected(self, fn, l, m,
                                                           precision):
        # off the chain the q-number product under the root can go
        # negative: a math domain error in binary64, a complex value at 40
        # digits
        with pytest.raises(DomainError):
            fn(l, m, QContext(q=1.5, precision=precision))

    def test_down_coefficient_vanishes_at_the_bottom(self):
        assert qs.recurrence_coeff_down(2, 2, CTX15) == 0.0
        assert qs.recurrence_coeff_down(3, 2, CTX15) \
            == qs.recurrence_coeff_up(2, 2, CTX15)

    def test_check_recurrence_reads_the_coefficient_cache(self):
        # one weight-factors record and one terms record per degree (l,
        # then the neighbours l + 1 and l - 1), one coupling record per
        # coupling (l to l + 1 and l - 1 to l), one node record and one
        # radicand
        qs.clear_caches()
        qs.check_recurrence(3, 1, 1.5**-4, CTX15)
        for cache, n in ((qs._weight_factors, 3), (qs._coupling, 2),
                         (qs._sum_terms, 3), (qs._ptilde_node, 3),
                         (qs._node, 1), (qs._node_rad, 1)):
            info = cache.cache_info()
            assert (info.misses, info.currsize) == (n, n), cache.__name__
        # the next degree at the same node and dps sums only degree 5, and
        # computes only the coupling of degrees 4 and 5: the one of 3 and 4
        # was the first call's up coefficient
        qs.check_recurrence(4, 1, 1.5**-4, CTX15)
        info = qs._ptilde_node.cache_info()
        assert (info.hits, info.misses) == (2, 4)
        info = qs._coupling.cache_info()
        assert (info.hits, info.misses) == (1, 3)
        assert qs._weight_factors.cache_info().misses == 4

    def test_criterion_2_grid_sums_each_node_once(self, monkeypatch):
        # the criterion-2 grid at q = 1.5 asks for 1278 distinct
        # (l, m, e, sigma), the q-difference neighbours included, against
        # 1304 (l, m, node, dps) when the value was keyed by its dps.  Each
        # is summed once and at its first dps (none at l = m, whose sum is
        # 1), every sum reads a node record (none a transient point off the
        # lattice), and each node is lifted once per dps.
        requests, sums, lifted = [], [], {}
        ptilde_node, node, p_sum_at = qs._ptilde_node, qs._node, qs._p_sum_at

        def node_spy(*key):
            requests.append(key)
            return ptilde_node(*key)

        def lift_spy(e, sigma, qkey, dps):
            record = node(e, sigma, qkey, dps)
            lifted[id(record)] = (e, sigma, dps)
            return record

        def sum_spy(point, terms):
            sums.append(lifted.get(id(point)))
            return p_sum_at(point, terms)

        qs.clear_caches()
        monkeypatch.setattr(qs, "_ptilde_node", node_spy)
        monkeypatch.setattr(qs, "_node", lift_spy)
        monkeypatch.setattr(qs, "_p_sum_at", sum_spy)
        q = 1.5
        for l in range(9):
            for m in range(l + 1):
                for n in range(-10, 1):
                    for sig in (1, -1):
                        x = sig * q**(2 * (n - m - 1))
                        qs.check_recurrence(l, m, x, CTX15)
                        qs.check_difference(l, m, x, CTX15)
        distinct = set(requests)
        assert len(distinct) == 1278
        assert None not in sums
        summed = {k for k in distinct if k[0] > k[1]}
        assert len(sums) == len(summed)
        assert all(ptilde_node(*k).dps == qs._sum_dps(k[0], k[1], k[2], q)
                   for k in summed)
        info = node.cache_info()
        assert info.misses == info.currsize == len(set(lifted.values()))
        assert {(e, sigma) for e, sigma, _ in lifted.values()} \
            <= {(k[2], k[3]) for k in distinct}

    def test_criterion_2_grid_square_roots(self, monkeypatch):
        # the criterion-2 grid at q = 1.5 takes 890 multiprecision square
        # roots, against 3,168 when each check and each P~ took its own: 533
        # weights, one per (l, m, radicand, dps) that its 64-entry record
        # misses, which both signs of a node share, and check_difference's
        # two coefficients once per node and dps, 187 inner and 170 outer
        # (none at n = 0, where the outer radicand is 0), no evicted one
        # read again
        roots = []
        mpf_sqrt = qs.mpf_sqrt
        monkeypatch.setattr(qs, "mpf_sqrt", lambda *a, **k: roots.append(a)
                            or mpf_sqrt(*a, **k))
        qs.clear_caches()
        q = 1.5
        for l in range(9):
            for m in range(l + 1):
                for n in range(-10, 1):
                    for sig in (1, -1):
                        x = sig * q**(2 * (n - m - 1))
                        qs.check_recurrence(l, m, x, CTX15)
                        qs.check_difference(l, m, x, CTX15)
        assert len(roots) == 890
        assert qs._weight_at.cache_info().misses == 533
        assert qs._roots.cache_info().misses == 187

    def test_criterion_2_grid_couplings(self, monkeypatch):
        # the criterion-2 grid at q = 1.5 computes 45 couplings, one per
        # (l, m, dps), each once: check_recurrence at degree l + 1 reads
        # the coupling of l and l + 1 that degree l read as its up
        # coefficient (124 when each degree computed both of its own)
        calls = []
        coeff = qs._recurrence_coeff
        monkeypatch.setattr(qs, "_recurrence_coeff",
                            lambda *a: calls.append(a) or coeff(*a))
        qs.clear_caches()
        q = 1.5
        for l in range(9):
            for m in range(l + 1):
                for n in range(-10, 1):
                    for sig in (1, -1):
                        x = sig * q**(2 * (n - m - 1))
                        qs.check_recurrence(l, m, x, CTX15)
                        qs.check_difference(l, m, x, CTX15)
        info = qs._coupling.cache_info()
        assert (len(calls), info.misses, info.currsize) == (45, 45, 45)

    def test_p_tilde_at_a_node_computes_no_coupling(self, monkeypatch):
        # the multiprecision weight reads u^2 and the normalization alone
        calls = []
        coeff = qs._recurrence_coeff
        monkeypatch.setattr(qs, "_recurrence_coeff",
                            lambda *a: calls.append(a) or coeff(*a))
        qs.clear_caches()
        for precision in ("double", "extended"):
            qs.p_tilde(20, 1, 1.5**-8, QContext(q=1.5, precision=precision))
        info = qs._ptilde_node.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert qs._weight_factors.cache_info().misses == 1
        assert calls == []

    @pytest.mark.parametrize("precision", ["double", "extended"])
    def test_checks_at_zero_measure_or_refuse(self, precision):
        # at x = 0 the q-difference neighbours x q^(+-2) are x itself, and
        # with l - m even the recurrence reads 0 = 0: both would return a
        # vacuous 0.0; with l - m odd the recurrence still measures
        ctx = QContext(q=1.5, precision=precision)
        for l, m in ((0, 0), (2, 0), (3, 0), (3, 1), (4, 1), (6, 2)):
            with pytest.raises(DomainError):
                qs.check_difference(l, m, 0.0, ctx)
            if (l - m) % 2 == 0:
                with pytest.raises(DomainError):
                    qs.check_recurrence(l, m, 0.0, ctx)
            else:
                assert 0 < qs.check_recurrence(l, m, 0.0, ctx) < 1e-60

    @pytest.mark.parametrize("precision", ["double", "extended"])
    @pytest.mark.parametrize("l, m", [(1, 3), (0, 1), (-1, 0)])
    def test_checks_off_the_chain_rejected(self, l, m, precision):
        # below the chain every P~ reads 0, so a residual would be a
        # vacuous 0.0, and the coupling record would hold a complex value
        ctx = QContext(q=1.5, precision=precision)
        qs.clear_caches()
        for check in (qs.check_recurrence, qs.check_difference):
            for x in (1.5**-8, 0.3):
                with pytest.raises(DomainError):
                    check(l, m, x, ctx)
        for cache in (qs._weight_factors, qs._coupling, qs._shell):
            assert cache.cache_info().currsize == 0, cache.__name__


# The direct sum, radicand and identity checks as they were written inline,
# before their x-independent factors were computed once per (l, m, q, dps);
# kept as references for bit identity.

def _ref_p_sum(l, m, x, q, dps=0):
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
        t = t * _ref_qbin(l - m, k, q, dps) * _ref_qbin(l + m + k, k, q, dps) \
            / _ref_qbin(m + k, k, q, dps)
        s = s + t
        worst = max(worst, abs(t))
    if s != s:          # a NaN sum has a NaN largest term
        worst = s
    return s, worst


def _ref_qbin(n, k, q, dps):
    # binary64, the quotient itself (inf / inf = NaN past the range); at dps
    # digits, the mpf expression F[n] / (F[k] F[n-k]) over the prefix list
    if not dps:
        return qa._qbin(n, k, q)
    f = [mp.make_mpf(qa._qfact_cached(i, float(q), dps))
         for i in (n, k, n - k)]
    return f[0] / (f[1] * f[2])


def _ref_rad(m, x, q):
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
        raise DomainError("outside the support")
    return r


def _ref_lift(x, m, q):
    # x at the ambient precision, snapped to the node sigma q^(2(n-m-1))
    # when |x| is within 1e-12 of it
    xx = mp.mpf(x)
    ax, qf = abs(float(xx)), float(q)
    if ax != 0.0 and math.isfinite(ax):
        n = round(math.log(ax) / math.log(qf) / 2.0 + m + 1.0)
        if abs(ax / qf**(2 * (n - m - 1)) - 1.0) < 1e-12:
            xx = (1 if float(xx) > 0 else -1) * q**(2 * (n - m - 1))
    return xx


def _ref_ptilde(l, m, x, q, dps):
    if l < m:
        return mp.mpf(0)
    x = _ref_lift(x, m, q)
    s, _ = _ref_p_sum(l, m, x, q, dps)
    r = _ref_rad(m, x, q)
    if r == 0:
        return s * mp.mpf(0)
    norm = qs._snorm_core(m, q) * _ref_u2(m, m, q)
    return s * mp.sqrt(_ref_u2(l, m, q) * r / norm)


def _ref_u2(l, m, q):
    # the weight's u^2 at the ambient precision
    lam = q - 1 / q
    t = q**(l * (l + 1)) * (q**(2 * l + 1) - q**(-2 * l - 1)) / lam
    for k in range(l - m + 1, l + m + 1):
        t = t * (q**k - q**(-k)) / lam
    return t


def _ref_coupling(l, m, q):
    return qs._recurrence_coeff(l, m, partial(qa._qnum, q=q))


def _ref_exponent(x, m, q):
    # t with |x| = q**t: the node's exponent where x snaps, as in _ref_lift
    ax, qf = abs(float(x)), float(q)
    if ax != 0.0 and math.isfinite(ax):
        n = round(math.log(ax) / math.log(qf) / 2.0 + m + 1.0)
        if abs(ax / qf**(2 * (n - m - 1)) - 1.0) < 1e-12:
            return 2 * (n - m - 1)
    return qs._exponent(x, qf)


def _ref_read(l, m, x, qkey, step=0):
    # P~_l at x q^(2 step) at the dps the rule gives it: (dps, value)
    dps = qs._sum_dps(l, m, _ref_exponent(x, m, qkey) + 2 * step, qkey)
    with mp.workdps(dps):
        q = mp.mpf(qkey)
        xx = _ref_lift(x, m, q)
        arg = xx if not step else xx * q**2 if step > 0 else xx / q**2
        return dps, _ref_ptilde(l, m, arg, q, dps)


def _ref_check_recurrence(l, m, x, ctx):
    qkey = float(ctx.q)
    reads = [_ref_read(k, m, x, qkey) for k in (l, l + 1, l - 1) if k >= m]
    dps = max(d for d, _ in reads)
    with mp.workdps(dps):
        q = mp.mpf(qkey)
        xx = _ref_lift(x, m, q)
        lhs = xx * q**(m + 1) * reads[0][1]
        rhs = _ref_coupling(l, m, q) * reads[1][1]
        if l > m:
            rhs += _ref_coupling(l - 1, m, q) * reads[2][1]
        return float(abs(lhs - rhs) / max(1, abs(lhs)))


def _ref_check_difference(l, m, x, ctx):
    # a neighbour enters where its radicand is positive in exact arithmetic
    qkey = float(ctx.q)
    qf = Fraction(qkey)
    t = _ref_exponent(x, m, qkey)
    x2 = (qf**t if isinstance(t, int) else Fraction(float(x)))**2
    on = {-1: (1 - x2) * (1 - x2 * qf**(4 * m)) > 0,
          1: (qf**(-4 * (m + 1)) - x2) * (qf**-4 - x2) > 0}
    reads = {step: _ref_read(l, m, x, qkey, step)
             for step in (0, -1, 1) if not step or on[step]}
    dps = max(d for d, _ in reads.values())
    with mp.workdps(dps):
        q = mp.mpf(qkey)
        xx = _ref_lift(x, m, q)
        lhs = ((q**(2 * l + 1) + q**(-2 * l - 1)) / q * xx**2
               - (q * q + 1) * q**(-2 * (m + 2))) * reads[0][1]
        rhs = mp.mpf(0)
        if -1 in reads:
            r_in = (1 - xx * xx) * (1 - xx * xx * q**(4 * m))
            rhs -= q**(-2 * (m + 1)) * mp.sqrt(r_in) * reads[-1][1]
        if 1 in reads:
            r_out = (q**(-4 * (m + 1)) - xx * xx) * (q**-4 - xx * xx)
            rhs -= mp.sqrt(r_out) * reads[1][1]
        return float(abs(lhs - rhs) / max(1, abs(lhs)))


def _bits(v):
    """repr plus the exact binary form: (sign, mantissa, exponent, bitcount)
    of an mpf, the hex digits of a float."""
    return repr(v), (v._mpf_ if isinstance(v, mp.mpf) else float.hex(v))


def _points(m, q):
    """Two lattice nodes of each sign and two points between the nodes,
    inside |x| < q^(-2(m+1)) so that x q^2 stays on the support."""
    nodes = [sigma * q**(2 * (n - m - 1)) for n in (0, -3) for sigma in (1, -1)]
    return nodes + [u * q**(-2 * (m + 1)) for u in (0.37, -0.81)]


class TestAgainstInlineSums:
    LM = [(0, 0), (1, 0), (4, 0), (4, 2), (9, 1), (9, 5), (17, 3), (28, 0),
          (40, 2)]

    @pytest.mark.parametrize("q", [1.1, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("dps", [0, 50, 120, 400])
    def test_direct_sum(self, q, dps):
        for l, m in self.LM:
            for x in _points(m, q):
                with mp.workdps(dps or mp.mp.dps):
                    if dps:     # libmp tuples, the mpfs' exact forms
                        xq = (mp.mpf(x), mp.mpf(q))
                        got = list(qs._p_sum_at(qs._Node(xq[0], [fone]),
                                                qs._sum_terms(l, m, q, dps)))
                        ref = [v._mpf_ for v in _ref_p_sum(l, m, *xq, dps)]
                    else:
                        got = [_bits(v) for v in qs._p_sum(l, m, x, q)]
                        ref = [_bits(v) for v in _ref_p_sum(l, m, x, q)]
                assert got == ref, (l, m, x)

    @pytest.mark.parametrize("q", [1.1, 1.5, 2.0, 3.0])
    def test_identity_checks(self, q):
        ctx = QContext(q=q)
        for l in range(11):
            for m in {0, 1, min(3, l)}:
                for x in _points(m, q):
                    if l < m:           # the reference's vacuous 0.0
                        for check in (qs.check_recurrence,
                                      qs.check_difference):
                            with pytest.raises(DomainError):
                                check(l, m, x, ctx)
                        continue
                    assert _bits(qs.check_recurrence(l, m, x, ctx)) \
                        == _bits(_ref_check_recurrence(l, m, x, ctx)), (l, m, x)
                    assert _bits(qs.check_difference(l, m, x, ctx)) \
                        == _bits(_ref_check_difference(l, m, x, ctx)), (l, m, x)

    def test_independent_of_ambient_precision(self):
        ctx = QContext(q=1.5)
        ctxe = QContext(q=1.5, precision="extended")
        results = []
        for ambient in (8, 15, 300):
            qs.clear_caches()
            with mp.workdps(ambient):
                values = [
                    f(l, m, x, c)
                    for l, m in ((6, 1), (20, 0))
                    for x in _points(m, 1.5)
                    for f, c in ((qs.check_recurrence, ctx),
                                 (qs.check_difference, ctx),
                                 (qs.p_lm, ctx), (qs.p_tilde, ctx),
                                 (qs.p_lm, ctxe), (qs.p_tilde, ctxe))]
            results.append([_bits(v) for v in values])
        assert results[0] == results[1] == results[2]

    def test_escalation_stores_no_factors(self):
        # p_lm's escalation, in either mode, reads one terms record, at the
        # rule's dps (200 digits here), and none of the weight's factors;
        # p_tilde's multiprecision route, in either mode, reads the weight
        # record as the identity checks do, no coupling, and the terms
        # record that a p_lm summed at the same dps left (680 digits at the
        # node 2**-24 and at 3e-5, off the lattice)
        records = (qs._weight_factors, qs._coupling, qs._shell)
        qs.clear_caches()
        qs.p_lm(20, 0, 1.5**-18, CTX15)
        qs.p_lm(20, 0, 1.5**-18, QContext(q=1.5, precision="extended"))
        for cache in records:
            assert cache.cache_info().currsize == 0, cache.__name__
        info = qs._sum_terms.cache_info()
        assert (info.hits, info.misses) == (0, 1)
        qs.p_lm(30, 1, 2.0**-24, QContext(q=2.0))
        qs.p_tilde(30, 1, 2.0**-24, QContext(q=2.0))
        qs.p_tilde(30, 1, 3e-5, QContext(q=2.0, precision="extended"))
        info = qs._weight_factors.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        for cache in records[1:]:
            assert cache.cache_info().currsize == 0, cache.__name__
        info = qs._sum_terms.cache_info()
        assert (info.hits, info.misses) == (1, 2)
        # the two checks of degree 4 read one weight record and one shell,
        # both at one dps, and no coupling
        qs.check_difference(4, 1, 1.5**-6, CTX15)
        qs.check_difference(4, 1, 1.5**-8, CTX15)
        info = qs._weight_factors.cache_info()
        assert info.hits > 1 and info.misses == info.currsize == 2
        info = qs._shell.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert qs._coupling.cache_info().currsize == 0


class TestTupleRoute:
    """The multiprecision sums, the stopping test, the Pochhammer lists, the
    weighted-function body and the check residuals run on libmp tuples; each
    must be the mpf-operator expression it replaces, bit for bit."""

    @staticmethod
    def _mpf_sum(x, terms):
        # the mpf loop of _p_sum_at over the mpfs of the terms record, with
        # the Pochhammer products of _node_poch written out from x and the
        # terms' b_k
        s = 0 * x
        worst = abs(s)
        pochx = 1 + 0 * x
        for k, term in enumerate(terms):
            bk, sign, pochd, a, b, c = map(mp.make_mpf, term)
            if k:
                pochx = pochx * (1 - x * bk)
            t = sign * pochx / pochd
            t = t * a * b / c
            s = s + t
            worst = max(worst, abs(t))
        if s != s:
            worst = s
        return s, worst

    def _mpf_value(self, l, m, lift, t, q, dps=None):
        # the rule of _p_value with its stopping test written in mpf
        dps = dps or qs._sum_dps(l, m, t, q)
        if l == m or ((l - m) % 2 and t == -math.inf):
            return dps, mp.mpf(int(l == m))
        while True:
            with mp.workdps(dps):
                s, worst = self._mpf_sum(lift(dps).x,
                                         qs._sum_terms(l, m, q, dps))
                if worst == 0 or (s != 0 and
                                  worst < abs(s) * 10**(dps - qs._KEEP)):
                    return dps, s
            dps *= 2

    def _mpf_read(self, l, m, x, q, step):
        # (dps, P~_l) at x q^(2 step): the node records at a lattice x,
        # the transient point elsewhere, weighted by the mpf expression
        snap = qs._snap_lattice(x, q)
        if snap is None:
            t = qs._exponent(x, q) + 2 * step
            lift = qs._transient(x, q, step)
        else:
            t, sigma = snap[0] + 2 * step, snap[1]
            lift = partial(qs._node, t, sigma, q)
        dps, p = self._mpf_value(l, m, lift, t, q)
        with mp.workdps(dps):
            rad = self._mpf_rad(m, lift(dps).x, mp.mpf(q))
            u2, norm = map(mp.make_mpf, qs._weight_factors(l, m, q, dps))
            return dps, p * mp.sqrt(u2 * rad / norm)

    @staticmethod
    def _mpf_rad(m, x, q):
        # the radicand of _rad_at written in mpf: a factor within
        # _RAD_ULPS eps of zero makes it 0
        r = mp.mpf(1)
        for j in range(m):
            f = 1 - x * x * q**(4 * m) * q**(-4 * j)
            if abs(f) <= qs._RAD_ULPS * mp.eps:
                return mp.mpf(0)
            r = r * f
        assert r >= 0
        return r

    @staticmethod
    def _mpf_powers(l, m, q):
        # the q-powers of the checks: check_recurrence's q**(m+1), then
        # check_difference's shell, centre and four radicand powers
        return (q**(m + 1), (q**(2 * l + 1) + q**(-2 * l - 1)) / q,
                (q * q + 1) * q**(-2 * (m + 2)), q**(4 * m),
                q**(-2 * (m + 1)), q**(-4 * (m + 1)), q**-4)

    def _mpf_checks(self, l, m, x, q):
        # check_recurrence and check_difference written in mpf over the
        # reads above: the float residuals
        t, lift, _ = qs._reader(x, m, q)
        reads = {(k, 0): self._mpf_read(k, m, x, q, 0)
                 for k in (l - 1, l, l + 1) if k >= m}
        for step, on in ((-1, t < -2 * m or t > 0),
                         (1, t < -2 * (m + 1) or t > -2)):
            if on:
                reads[l, step] = self._mpf_read(l, m, x, q, step)
        dps = max(d for k, (d, _) in reads.items() if k[1] == 0)
        with mp.workdps(dps):
            c_up = mp.make_mpf(qs._coupling(l, m, q, dps))
            c_down = mp.make_mpf(qs._coupling(l - 1, m, q, dps)) \
                if l > m else None
            qm1 = self._mpf_powers(l, m, mp.mpf(q))[0]
            lhs = lift(dps).x * qm1 * reads[l, 0][1]
            rhs = c_up * reads[l + 1, 0][1]
            if l > m:
                rhs += c_down * reads[l - 1, 0][1]
            rec = float(abs(lhs - rhs) / max(1, abs(lhs)))
        dps = max(d for k, (d, _) in reads.items() if k[0] == l)
        with mp.workdps(dps):
            _, shell, centre, q4m, c_in, c_out, q4 = \
                self._mpf_powers(l, m, mp.mpf(q))
            xx = lift(dps).x
            lhs = (shell * xx**2 - centre) * reads[l, 0][1]
            rhs = mp.mpf(0)
            if (l, -1) in reads:
                rhs -= c_in * mp.sqrt((1 - xx * xx) * (1 - xx * xx * q4m)) \
                    * reads[l, -1][1]
            if (l, 1) in reads:
                rhs -= mp.sqrt((c_out - xx * xx) * (q4 - xx * xx)) \
                    * reads[l, 1][1]
            diff = float(abs(lhs - rhs) / max(1, abs(lhs)))
        return reads, rec, diff

    @pytest.mark.parametrize("q", [1.2, 1.5, 2.0, 3.0])
    def test_reads_and_residuals(self, q):
        # lattice nodes of both signs and off-lattice points of both signs
        # (_points): the sums, P~ (through _ptilde_node at a node, read's
        # transient body elsewhere) and both residuals
        ctx = QContext(q=q)
        qs.clear_caches()
        for l in range(10):
            for m in sorted({0, 2} & set(range(l + 1))):
                for x in _points(m, q):
                    reads, rec, diff = self._mpf_checks(l, m, x, q)
                    _, _, read = qs._reader(x, m, q)
                    for (k, step), (dps, v) in reads.items():
                        got = read(k, step)
                        assert (got.dps, got.v) == (dps, v._mpf_), \
                            (l, m, x, k, step)
                    assert float.hex(qs.check_recurrence(l, m, x, ctx)) \
                        == float.hex(rec), (l, m, x)
                    assert float.hex(qs.check_difference(l, m, x, ctx)) \
                        == float.hex(diff), (l, m, x)

    def test_sum_and_stopping_test_when_the_sum_doubles(self, monkeypatch):
        # started at 40 digits, the degree-9 sum at q = 3 keeps fewer than
        # _KEEP of them and doubles, at a node and off the lattice
        monkeypatch.setattr(qs, "_sum_dps", lambda *args: 40)
        off = 0.0123
        for lift, t in ((partial(qs._node, -8, -1, 3.0), -8),
                        (qs._transient(off, 3.0), qs._exponent(off, 3.0))):
            qs.clear_caches()
            p = qs._p_value(9, 0, lift, t, 3.0)
            dps, v = self._mpf_value(9, 0, lift, t, 3.0, 40)
            assert (p.dps, p.v) == (dps, v._mpf_) and dps == 80
            with mp.workdps(p.dps):
                point = lift(p.dps)
                terms = qs._sum_terms(9, 0, 3.0, p.dps)
                got = qs._p_sum_at(point, terms)
                assert [type(v) for v in got] == [tuple, tuple]
                assert list(got) \
                    == [v._mpf_ for v in self._mpf_sum(point.x, terms)]
            assert all(type(v) is tuple for v in point.poch)

    def test_stopping_test_at_its_boundary(self):
        # worst just below, at and just above |s| 10**(dps - _KEEP), and the
        # zeros, infinities and NaN the rule meets
        for dps in (40, 80, 320):
            with mp.workdps(dps):
                eps = mp.mpf(2)**(1 - mp.mp.prec)
                cases = [(mp.mpf(0), mp.mpf(0)), (mp.mpf(0), mp.mpf(1)),
                         (mp.mpf(1), mp.mpf(0)), (mp.mpf(1), mp.inf),
                         (mp.nan, mp.nan), (mp.mpf(1), mp.nan)]
                for s in (mp.mpf(3) / 7, -mp.mpf(10)**-30, mp.mpf(2)**900):
                    edge = abs(s) * 10**(dps - qs._KEEP)
                    cases += [(s, edge * (1 + k * eps)) for k in (-2, -1, 0,
                                                                  1, 2)]
                for s, worst in cases:
                    ref = worst == 0 or (
                        s != 0 and worst < abs(s) * 10**(dps - qs._KEEP))
                    assert qs._keeps(s._mpf_, worst._mpf_, dps,
                                     mp.mp.prec) == ref, (dps, s, worst)


def _bench_module(name):
    # a module of the benchmark, loaded read-only from its file
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pointwise_job_reads_the_power_memo():
    # the seed-1 pointwise job of the special benchmark at q = 1.2, its
    # median op: every integer power of the multiprecision routes reads
    # qarith._pow, so libmp's mpf_pow_int runs at most 2,444 times, the
    # calls of mpf ** and its own recursion included (5,198 when every
    # term and factorial extension computed its own powers)
    jobs, workloads = _bench_module("jobs"), _bench_module("workloads")
    job = next(op["job"] for session in workloads.make_ops("special", 1)
               for op in session["ops"]
               if op["job"]["job"] == "pointwise" and op["job"]["q"] == 1.2)
    qs.clear_caches()
    profile = cProfile.Profile()
    profile.runcall(jobs.pointwise, job)
    code = libmpf.mpf_pow_int.__code__
    calls = sum(stat[1] for (path, line, _), stat
                in pstats.Stats(profile).stats.items()
                if (path, line) == (code.co_filename, code.co_firstlineno))
    assert 0 < calls <= 2444
    info = qa._pow.cache_info()
    assert info.hits > 0 and info.misses > 0


def _all_caches():
    return [v for mod in (qa, qs) for v in vars(mod).values()
            if hasattr(v, "cache_info")]


def test_every_cache_is_bounded():
    # one record of x-independent factors per precision mode: _weight_scale
    # in binary64; in multiprecision the weight's _weight_factors, the
    # couplings _coupling, the shells _shell, the order's q-powers _order,
    # the terms _sum_terms and the integer powers _pow; one l-independent
    # record per lattice node and dps (_node, _node_rad, and _roots, keyed
    # by x^2), the weight per radicand (_weight_at), and one P and one P~
    # value per (l, m, node)
    bounds = {qa._qfact_cached: 4096, qa._qfact_list: 256, qa._pow: 256,
              qs._weight_scale: 4096, qs._snorm_mp_cached: 256,
              qs._table_cached: 65536, qs._coeff_lists: 256,
              qs._weight_factors: 16, qs._coupling: 64, qs._shell: 16,
              qs._order: 64, qs._sum_terms: 4,
              qs._node: 1024, qs._node_rad: 1024, qs._weight_at: 64,
              qs._roots: 128, qs._p_node: 64, qs._ptilde_node: 4096}
    for cache in _all_caches():
        assert cache in bounds, cache.__name__
    for cache, maxsize in bounds.items():
        assert cache.cache_info().maxsize == maxsize, cache.__name__


def test_clear_caches_empties_every_cache():
    # the values computed afterwards are the cached ones, bit for bit
    ctx = QContext(q=1.5)

    def values():
        return [_bits(v) for v in (
            qs.check_recurrence(3, 1, 1.5**-4, ctx),
            qs.check_difference(3, 1, 1.5**-4, ctx),
            qs.p_lm(20, 0, 1.5**-18, ctx),
            qs.p_tilde(20, 0, 1.5**-18, ctx),
            *qs.p_tilde_table(10, 1, 1.5**-6, ctx),
            qs.weight_w(2, 1, 0.1, QContext(q=1.5, precision="extended")))]

    qs.clear_caches()
    values()
    cached = values()
    caches = _all_caches()
    assert all(c.cache_info().currsize > 0 for c in caches), [
        c.__name__ for c in caches if c.cache_info().currsize == 0]
    qs.clear_caches()
    for cache in caches:
        assert cache.cache_info().currsize == 0, cache.__name__
    assert values() == cached


@pytest.mark.parametrize("precision", ["double", "extended"])
def test_public_values_have_the_mode_type(precision):
    # each public value is a float in binary64 and an mpf in extended
    # mode, at lattice nodes of both signs, between them, at x = 0, at
    # l = m and below the order; each residual is a float in both modes
    kind = mp.mpf if precision == "extended" else float
    wrong = []

    def expect(want, name, v):
        if type(v) is not want:
            wrong.append((name, type(v).__name__))

    for q in (1.5, 3.0):
        ctx = QContext(q=q, precision=precision)
        for m in (0, 2):
            for x in _points(m, q) + [0.0]:
                for v in qs.p_tilde_table(m + 3, m, x, ctx):
                    expect(kind, "p_tilde_table", v)
                for l in (m - 1, m, m + 1, m + 3):
                    args = (l, m, x, ctx)
                    expect(kind, "p_lm", qs.p_lm(*args))
                    expect(kind, "p_tilde", qs.p_tilde(*args))
                    if l < m:
                        continue
                    expect(kind, "weight_w", qs.weight_w(*args))
                    if x != 0:
                        expect(float, "check_difference",
                               qs.check_difference(*args))
                    if x != 0 or (l - m) % 2:
                        expect(float, "check_recurrence",
                               qs.check_recurrence(*args))
            for l in (m, m + 1):
                expect(kind, "recurrence_coeff_up",
                       qs.recurrence_coeff_up(l, m, ctx))
                expect(kind, "recurrence_coeff_down",
                       qs.recurrence_coeff_down(l, m, ctx))
            expect(kind, "orthonormality_sum",
                   qs.orthonormality_sum(m, m + 1, m, ctx, n_min=-8))
            expect(kind, "completeness_sum",
                   qs.completeness_sum(-m, -m - 1, 1, -1, m, ctx, l_max=8))
            for mm in (m, -m):
                for l in (abs(mm) - 1, abs(mm), abs(mm) + 2):
                    expect(kind, "c_coeff", bt.c_coeff(l, mm, -2, 1, ctx))
                    expect(kind, "d_coeff", bt.d_coeff(0, l, mm, -2, -1, ctx))
                expect(float, "check_t2", bt.check_t2(abs(mm) + 1, mm, -2,
                                                      1, ctx))
                expect(float, "check_x3_recursion",
                       bt.check_x3_recursion(0, abs(mm) + 1, mm, -2, 1, ctx))
    assert not wrong, sorted(set(wrong))


class TestLatticeSums:
    def test_orthonormality_parity_pair(self):
        assert abs(qs.orthonormality_sum(0, 1, 0, CTX15)) < CTX15.tol_rel

    def test_orthonormality_diagonal(self):
        assert qs.orthonormality_sum(0, 0, 0, CTX15, n_min=-60) \
            == pytest.approx(1.0, abs=1e-8)

    def test_orthonormality_off_diagonal(self):
        ctx = QContext(q=1.3)
        assert abs(qs.orthonormality_sum(2, 4, 1, ctx, n_min=-60)) < 1e-8

    def test_orthonormality_negative_degree(self):
        # (-1, 2) read the table's top entry, the (2, 2) sum 0.9999999999999993
        for l, lp in ((-1, 2), (2, -1), (-1, -1)):
            with pytest.raises(DomainError):
                qs.orthonormality_sum(l, lp, 0, CTX15)

    def test_completeness_diagonal(self):
        assert qs.completeness_sum(0, 0, 1, 1, 0, CTX15, l_max=40) \
            == pytest.approx(1.0, abs=1e-6)

    def test_completeness_off_diagonal(self):
        assert abs(qs.completeness_sum(0, -1, 1, 1, 0, CTX15, l_max=40)) < 1e-6
        assert abs(qs.completeness_sum(0, 0, 1, -1, 0, CTX15, l_max=40)) < 1e-6

    def test_completeness_label_range(self):
        with pytest.raises(DomainError):
            qs.completeness_sum(1, 0, 1, 1, 0, CTX15)
        with pytest.raises(DomainError):
            qs.completeness_sum(-1, -1, 1, 1, -3, CTX15)

    def test_extended_mode_sums(self):
        ctxe = QContext(q=1.5, precision="extended")
        assert float(qs.orthonormality_sum(2, 2, 1, ctxe, n_min=-50)) \
            == pytest.approx(1.0, abs=1e-8)
        assert float(qs.completeness_sum(-1, -1, 1, 1, 0, ctxe, l_max=25)) \
            == pytest.approx(1.0, abs=1e-6)

    def test_extended_values_carry_the_context_digits(self, monkeypatch,
                                                      capsys):
        # an extended value is computed at ctx.dps whatever the ambient
        # precision: at the ambient 15 digits these were 53-bit values, and
        # the extended completeness check measured binary64 noise (4.4e-16)
        ctxe = QContext(q=1.5, precision="extended")
        calls = [partial(qa.qnum_sym, 7, ctxe),
                 partial(qa.qbinomial_sym, 12, 5, ctxe),
                 partial(qs.recurrence_coeff_up, 3, 1, ctxe),
                 partial(qs.recurrence_coeff_down, 3, 1, ctxe),
                 partial(bt.c_coeff, 3, 1, -2, 1, ctxe),
                 partial(bt.d_coeff, 0, 3, 1, -2, 1, ctxe),
                 partial(qs.orthonormality_sum, 0, 1, 0, ctxe, n_min=-200),
                 partial(qs.orthonormality_sum, 2, 2, 1, ctxe, n_min=-50),
                 partial(qs.completeness_sum, -1, -2, 1, -1, 0, ctxe,
                         l_max=25)]
        for call in calls:
            v = call()
            with mp.workdps(80):
                ref = call()
            assert abs(v - ref) <= abs(ref) * 1e-35, call.func.__name__
        monkeypatch.setenv("QSPACE3_PRECISION", "extended")
        assert cli.main(["complete", "--m", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["max_defect"] < 1e-30

    def test_normalization_constant_closed_form(self):
        # quadrature referee for the elementary-symmetric closed form
        for m in (1, 2, 4):
            q = 1.5
            tot, n = 0.0, 0
            while True:
                xn = q**(2 * (n - m - 1))
                t = q**(2 * (n - m - 1)) * float(qs._rad(m, xn, q))
                tot += t
                if t < tot * 1e-18:
                    break
                n -= 1
            ref = 2 * (1 - q**-2) * tot
            assert qs._snorm_core(m, q) == pytest.approx(ref, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(l=st.integers(min_value=0, max_value=8),
       m=st.integers(min_value=0, max_value=8),
       n=st.integers(min_value=-8, max_value=0),
       sig=st.sampled_from([1, -1]),
       q=st.sampled_from([1.1, 1.3, 1.5, 2.0]))
def test_parity_property(l, m, n, sig, q):
    if m > l:
        return
    ctx = QContext(q=q)
    x = sig * q**(2 * (n - m - 1))
    a = qs.p_tilde(l, m, x, ctx)
    b = qs.p_tilde(l, m, -x, ctx)
    assert b == pytest.approx((-1)**(l - m) * a, rel=1e-10, abs=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(q=st.sampled_from([1.1, 1.3, 1.5, 2.0, 3.0]),
       lm=st.integers(min_value=0, max_value=4).flatmap(
           lambda m: st.tuples(st.integers(min_value=m, max_value=30),
                               st.just(m))),
       n=st.integers(min_value=-12, max_value=0),
       sig=st.sampled_from([1, -1]))
def test_binary64_p_tilde_against_extended_and_table(q, lm, n, sig):
    # three routes to P~_l at a lattice node: binary64 p_tilde, the extended
    # p_tilde rounded once, and the binary64 recurrence column
    l, m = lm
    x = qs._lattice_point(n, m, sig, q)
    v = qs.p_tilde(l, m, x, QContext(q=q))
    assert v == float(qs.p_tilde(l, m, x, QContext(q=q, precision="extended")))
    assert qs.p_tilde_table(l, m, x, QContext(q=q))[l] \
        == pytest.approx(v, rel=1e-8, abs=0)
