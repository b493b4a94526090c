import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspace3 import DomainError, PrecisionError, QContext
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
        # squared base with parameters (q^-2m, q^-2m, -q^-2m); compared in
        # extended precision where the general series route is also exact
        q = 1.5
        ctx = QContext(q=q, precision="extended")
        am = q**(-2 * m)
        for x in (-0.4, 0.2, 0.77):
            general = qs.big_q_jacobi(l - m, x, am, am, -am, ctx, base=q**-2)
            assert float(qs.p_lm(l, m, x, ctx)) == pytest.approx(
                float(general), rel=1e-11)

    def test_big_q_jacobi_degree_one(self):
        # with the squared base and order 0 the degree-1 member is x itself
        assert qs.big_q_jacobi(1, 0.37, 1.0, 1.0, -1.0, CTX15,
                               base=1.5**-2) == pytest.approx(0.37, rel=1e-13)

    def test_big_q_jacobi_degree_zero(self):
        # series terminates at the constant term
        am = 1.5**-4
        assert qs.big_q_jacobi(0, -0.6, am, am, -am, CTX15,
                               base=1.5**-2) == 1.0


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
            qs._table_cached.cache_clear()
            qs._coeff_lists.cache_clear()
            with mp.workdps(dps):
                values.append(qs.p_tilde_table(30, 0, x, ctxe))
        assert values[0] == values[1]

    def test_table_computes_no_coefficient_past_its_degree(self):
        # binary64 q-numbers overflow once q**(2l+3) > 1.8e308, at l = 63
        # for q = 250; a degree-10 table must not reach them
        qs._coeff_lists.cache_clear()
        ctx = QContext(q=250.0)
        tab = qs.p_tilde_table(10, 0, 250.0**-2, ctx)
        assert len(tab) == 11
        assert all(math.isfinite(v) for v in tab)
        up, down = qs._coeff_lists(0, ctx)
        assert len(up) == len(down) < 64

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


class TestLatticeSums:
    def test_orthonormality_parity_pair(self):
        assert abs(qs.orthonormality_sum(0, 1, 0, CTX15)) < CTX15.tol_rel

    def test_orthonormality_diagonal(self):
        assert qs.orthonormality_sum(0, 0, 0, CTX15, n_min=-60) \
            == pytest.approx(1.0, abs=1e-8)

    def test_orthonormality_off_diagonal(self):
        ctx = QContext(q=1.3)
        assert abs(qs.orthonormality_sum(2, 4, 1, ctx, n_min=-60)) < 1e-8

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
