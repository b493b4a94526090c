"""The package against the exact rational oracle of exact.py.

Each value is compared with the exact one at the argument it names:
Fraction(float(x)), or the exact lattice node where the package snaps a
near-lattice x to it.  The contracts checked are the ones README states
under "Numerical notes".
"""

import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from mpmath.libmp import from_float

import exact as ex
from qspace3 import DomainError, PrecisionError, QContext
from qspace3 import qarith as qa
from qspace3 import qspecial as qs

QS = (1.1, 1.5, 2.0, 3.0)
EPS = 2.0**-52
SUM_EPSILONS = 16         # accepted binary64 sum: |s - P| <= 16 eps max|t_k|


def _mpf_fraction(v):
    sign, man, exp, _ = v._mpf_
    return Fraction(-man if sign else man) * Fraction(2)**exp


def _ulps(v, exact):
    """|v - exact| in ulps of exact rounded to binary64."""
    e = float(exact)
    return abs(float(v) - e) / math.ulp(e)


def test_oracle_imports_without_the_package():
    # blocked modules raise ImportError on import, so the oracle can never
    # come to share code with the package it checks
    code = "\n".join([
        "import sys",
        "for name in ('mpmath', 'numpy', 'qspace3'):",
        "    sys.modules[name] = None",
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})",
        "from fractions import Fraction as F",
        "import exact",
        "assert exact.p_direct(3, 1, F(1, 3), F(2)) == "
        "exact.p_3phi2(3, 1, F(1, 3), F(2))",
        "assert exact.weight_squared(2, 1, F(1, 9), F(2)) > 0",
    ])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("q", QS)
def test_direct_sum_is_the_3phi2(q):
    # the paper's definition, a terminating basic hypergeometric series,
    # equals the direct sum the package evaluates: exactly, at a lattice
    # node and off the lattice
    qf = Fraction(q)
    for l in range(13):
        for m in range(l + 1):
            x = ex.lattice_node(-1, m, 1, qf) if (l + m) % 2 \
                else Fraction(-0.37)
            assert ex.p_direct(l, m, x, qf) == ex.p_3phi2(l, m, x, qf), \
                (l, m, x)


def _draws(n, seed=11):
    """(q, l, m, x, exact argument): half uniform x, half float lattice
    nodes, whose exact argument is the node itself."""
    rng = random.Random(seed)
    for _ in range(n):
        q = rng.choice(QS)
        l = rng.randint(0, 16 if q == 1.1 else 30)
        m = rng.randint(0, l)
        if rng.random() < 0.5:
            x = rng.uniform(-1, 1)
            yield q, l, m, x, Fraction(x)
        else:
            nu, sigma = rng.randint(-6, 0), rng.choice((1, -1))
            yield (q, l, m, qs._lattice_point(nu, m, sigma, q),
                   ex.lattice_node(nu, m, sigma, Fraction(q)))


DRAWS = list(_draws(120))


def test_extended_p_lm_within_2_ulp():
    # and the escalation's mpf keeps the 18 digits its stopping rule claims
    for q, l, m, x, xe in DRAWS:
        exact = ex.p_direct(l, m, xe, Fraction(q))
        v = qs.p_lm(l, m, x, QContext(q=q, precision="extended"))
        assert _ulps(v, exact) <= 2, (q, l, m, x)
        assert abs(_mpf_fraction(v) - exact) * 10**18 <= abs(exact), \
            (q, l, m, x)


def test_binary64_p_lm_within_the_stated_bound():
    bound = SUM_EPSILONS * EPS * qs._CANCEL_OK
    accepted = 0
    for q, l, m, x, xe in DRAWS:
        exact = ex.p_direct(l, m, xe, Fraction(q))
        v = qs.p_lm(l, m, x, QContext(q=q))
        s, worst = qs._p_sum(l, m, x, q)
        if s == v and worst:            # the binary64 sum was accepted
            accepted += 1
            assert abs(v - float(exact)) <= SUM_EPSILONS * EPS * worst, \
                (q, l, m, x)
            assert abs(v - float(exact)) <= bound * abs(float(exact)), \
                (q, l, m, x)
        else:
            assert _ulps(v, exact) <= 2, (q, l, m, x)
    assert accepted >= 20


# The multiprecision p_tilde (extended mode, and binary64 at lattice nodes)
# sums P at the rule's dps, _sum_dps(l, m, t, q) at |x| = q**t, or more
# where the sum keeps fewer than 18 digits.  Its relative error is at most
# 10**-dps times the cancellation max_k |t_k| / |P| of the direct sum's terms
# t_k, times the rounding counts: <= 21 terms, each a product of q-binomials
# of factorials with <= 40 factors, and the weight's <= 60 factors, which
# cost at most PTILDE_GUARD digits.  So p_tilde^2 carries
# dps - log10(max |t_k| / |P|) - PTILDE_GUARD correct digits; where these
# are at least 17, the binary64 value is the exact P~ rounded to nearest
# (within ulp/2 plus that error), inside README's 2 ulp.  The rule counts
# the log10(1 / |x|) digits an odd-degree P cancels near 0, so deep nodes
# keep their digits too (test_deep_node_p_tilde_within_2_ulp).
PTILDE_GUARD = 6


def _ptilde_digits(l, m, xe, e, q):
    """(P, the correct digits of the multiprecision p_tilde^2 at the exact
    node xe = +-q**e)."""
    terms = list(ex.direct_terms(l, m, xe, Fraction(q)))
    p = sum(terms, Fraction(0))
    cancel = max(abs(t) for t in terms) / abs(p)
    return p, qs._sum_dps(l, m, e, q) - math.log10(cancel) - PTILDE_GUARD


def _within_rounding(v, exact_sq, digits):
    """Whether the float v is within ulp/2 + 10**-digits |v| of the root of
    exact_sq, checked on squares."""
    r = abs(Fraction(float(v)))
    d = Fraction(math.ulp(float(v))) / 2 + r * Fraction(10)**-digits
    return (r - d)**2 <= exact_sq <= (r + d)**2


@pytest.mark.parametrize("q", QS)
def test_extended_p_tilde_squared_within_its_digits(q):
    # seeded lattice nodes, l <= 20, depth n >= -30 (p_tilde snaps a float
    # node to the exact one): the mpf p_tilde^2 against the exact
    # u^2 rad P^2 / norm, its sign against the sign of P
    qf = Fraction(q)
    ctx = QContext(q=q, precision="extended")
    rng = random.Random(int(q * 10))
    rounded = 0
    for _ in range(6):
        l = rng.randint(0, 20)
        m = rng.randint(0, l)
        nu, sigma = rng.randint(-30, 0), rng.choice((1, -1))
        xe = ex.lattice_node(nu, m, sigma, qf)
        p, digits = _ptilde_digits(l, m, xe, 2 * (nu - m - 1), q)
        exact = ex.weight_squared(l, m, xe, qf) * p * p
        v = qs.p_tilde(l, m, qs._lattice_point(nu, m, sigma, q), ctx)
        f = _mpf_fraction(v)
        if digits > 0:          # beyond, the error of P^2 grows as its square
            assert abs(f * f - exact) <= exact * Fraction(10)**-math.floor(
                digits), (l, m, nu, digits)
            assert (v > 0) == (p > 0), (l, m, nu)
        if digits >= 17:
            rounded += 1
            assert _within_rounding(v, exact, 17), (l, m, nu)
    assert rounded >= 3


@pytest.mark.parametrize("q, l, m, n", [(3.0, 2, 1, -45), (3.0, 2, 1, -60),
                                         (2.0, 5, 2, -90)])
def test_deep_node_p_tilde_within_2_ulp(q, l, m, n):
    # P ~ x at the deep node cancels log10(1/|x|) digits of its terms (44
    # at q = 3, n = -45, 59 at n = -60, 57 at q = 2, n = -90), which the
    # rule's dps counts; binary64 p_tilde is the exact value to 2 ulp, and
    # so is the extended one rounded
    qf = Fraction(q)
    xe = ex.lattice_node(n, m, 1, qf)
    exact = ex.weight_squared(l, m, xe, qf) * ex.p_direct(l, m, xe, qf)**2
    x = qs._lattice_point(n, m, 1, q)
    for ctx in (QContext(q=q), QContext(q=q, precision="extended")):
        v = qs.p_tilde(l, m, x, ctx)
        r, d = abs(Fraction(float(v))), 2 * Fraction(math.ulp(float(v)))
        assert (r - d)**2 <= exact <= (r + d)**2, ctx.precision


@pytest.mark.parametrize("q", QS)
def test_qfactorial_prefix_lists(q):
    # in the binary64 range the multiprecision lists (libmp tuples) round
    # to within 1 ulp of the exact [n]!, and the binary64 list is the
    # 40-digit one rounded once, so it is too
    qs.clear_caches()
    for n in range(0, 91, 3):
        exact = ex.qfactorial(n, Fraction(q))
        if exact > Fraction(sys.float_info.max):
            break
        for dps in (0, 40, 137):
            v = qa._qfact_cached(n, q, dps)
            assert type(v) is (tuple if dps else float)
            v = mp.make_mpf(v) if dps else v
            assert _ulps(v, exact) <= 1, (n, dps)
        assert qa._qfact_cached(n, q, 0) \
            == float(mp.make_mpf(qa._qfact_cached(n, q, 40)))


def _edge_points(m, q):
    """Arguments on and near the radicand zeros x = q^-2k, k = 1, m/2, m
    (the sign of x does not enter)."""
    for k in sorted({1, (m + 1) // 2, m}):
        edge = q**(-2 * k)
        yield from (edge, math.nextafter(edge, 0), math.nextafter(edge, 1),
                    edge * (1 - 1e-12), edge * (1 + 1e-12),
                    edge * (1 - 1e-7), edge * (1 + 1e-7))


def _rad_sign(m, x, q, dps):
    """The sign of qs._rad in binary64 (dps 0), or of qs._rad_at at dps
    digits: -1 for a DomainError."""
    try:
        if not dps:
            r = qs._rad(m, x, q)
        else:
            r = mp.make_mpf(qs._rad_at(m, from_float(x), q, dps))
    except DomainError:
        return -1
    return (r > 0) - (r < 0)


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_rad_sign_is_exact(q):
    # the sign is exact wherever every factor is beyond twice the rounding
    # bound; inside it a factor may read 0, never the wrong sign
    with mp.workdps(40):
        bounds = {0: qs._RAD_ULPS * EPS, 40: qs._RAD_ULPS * float(mp.eps)}
    qf = Fraction(q)
    for m in range(1, 31):
        for x in _edge_points(m, q):
            factors = ex.rad_factors(m, Fraction(x), qf)
            want = ex.sign_of_product(factors)
            for dps, bound in bounds.items():
                got = _rad_sign(m, x, q, dps)
                if all(abs(f) > 2 * bound for f in factors):
                    assert got == want, (m, x, dps)
                else:
                    assert got in (want, 0), (m, x, dps)


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("m", [10, 18, 20, 30])
def test_point_off_the_support_raises_whatever_m(m, precision):
    # x = 2**-8 (1 + 1e-7) at q = 2: factor j = m - 4 is -2e-7, after an
    # odd number of negative factors
    with pytest.raises(DomainError):
        qs.weight_w(m, m, 2.0**-8 * (1 + 1e-7),
                    QContext(q=2.0, precision=precision))


# The binary64 weight is ldexp(sqrt(f rad), k): f is the 40-digit u^2/norm
# rounded once, rad = prod_j (1 - a_j) with a_j = x^2 q^(4(m-j)).  At an
# order-m lattice node sigma q^(2(n-m-1)), n <= 0, a_j <= q^-4, so
# c = 1/(q^4 - 1) bounds a_j / (1 - a_j).  Counting u = 2^-53 for each
# rounding and 2u for each libm pow: a_j carries 7u, the factor 1 - a_j
# u (1 + 7c), the product m - 1 roundings more; f, f rad and the root one
# each, and the root halves what it is given.  To first order in u the
# weight is within 2 + m (1 + 3.5c) ulp (its ulp is above u |w|).
def weight_ulps(m, q):
    return 2 + m * (1 + 3.5 / (q**4 - 1))


# A binary64 table at a node above the neutral region l* = -log_q|x| - m - 2
# (item 11 of the ROADMAP) is seed * v_l / v_m, where the column v runs down
# from l_max + delta and is rescaled by powers of two, which is exact.  Each
# step v_{l-1} = (xq v_l - a_l v_{l+1}) / a_{l-1} grows the column there, so
# its rounding stays in the ratio v_{l-1} / v_l.  Per step: xq = x q^(m+1)
# 5u (the node x and the pow 2u each, the product u), the two products, the
# difference and the quotient u each, and the coupling a_{l-1}, the root of
# a ratio of four q-numbers [a] = (q^a - q^-a) / (q - 1/q), each within
# 3u coth(ln q) + 3u: 2 [a] + 2.5u.  The seed is weight_w at the float node,
# whose radicand moves by 2mc u from the exact node's; the ratio seed / v_m
# and its product with v_l round once each.  An entry of degree l is within
# 4 + m (1 + 5.5c) + (l - m) (18 + 6 coth(ln q)) ulp of the exact value.
def table_ulps(l, m, q):
    coth = (q * q + 1) / (q * q - 1)
    return 4 + m * (1 + 5.5 / (q**4 - 1)) + (l - m) * (18 + 6 * coth)


WEIGHT_MS = (0, 1, 3, 8)
WEIGHT_NODES = (0, -3, -10)


def _squares_within(v, ulps, exact_sq, scale):
    """Whether the nonzero float v is within ulps ulp of the root of
    exact_sq / scale, checked on squares times scale."""
    r, d = abs(Fraction(v)), Fraction(math.ulp(v)) * Fraction(ulps)
    return (r - d)**2 * scale <= exact_sq <= (r + d)**2 * scale


@pytest.mark.parametrize("q", QS)
def test_binary64_weight_within_the_stated_bound(q):
    # every degree l <= 60 (every third at q = 1.1, where the oracle's
    # fractions are long) at the nodes n = 0, -3, -10; a weight beyond the
    # binary64 range raises PrecisionError
    qf, ctx = Fraction(q), QContext(q=q)
    checked = 0
    for m in WEIGHT_MS:
        norm = ex.lattice_norm(m, qf)
        xs = [qs._lattice_point(n, m, 1, q) for n in WEIGHT_NODES]
        rads = [ex.radicand(m, Fraction(x), qf) for x in xs]
        for l in range(m, 61, 3 if q == 1.1 else 1):
            u2 = ex.u_squared(l, m, qf)
            for x, rad in zip(xs, rads):
                try:
                    w = qs.weight_w(l, m, x, ctx)
                except PrecisionError:
                    assert u2 * rad > Fraction(sys.float_info.max)**2 * norm
                    continue
                assert _squares_within(w, weight_ulps(m, q), u2 * rad,
                                       norm), (l, m, x)
                checked += 1
    assert checked >= 150


# l_max = 40 keeps the ids [q]; the shorter tables are ROADMAP item 11's
_SHORT_TABLES = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 11: a short table built upward at a "
                        "node with log_gain < 4 exceeds the bound")


@pytest.mark.parametrize("q, l_max", [
    *(pytest.param(q, 40, id=str(q)) for q in (1.5, 2.0, 3.0)),
    *(pytest.param(q, l_max, id=f"{q}-l_max={l_max}", marks=_SHORT_TABLES)
      for l_max in (10, 20) for q in (1.5, 2.0, 3.0))])
def test_binary64_table_within_the_stated_bound(q, l_max):
    # p_tilde_table(l_max, m, x) at the nodes n = 0, -3, -8, -10 (both
    # signs read the same magnitudes), every degree above l* = m - 2n, where
    # P~ of an odd degree is not a cancelled O(x); at q = 3 the top degrees
    # at n = 0 are below 1e-300
    qf, ctx = Fraction(q), QContext(q=q)
    checked = 0
    for m in WEIGHT_MS:
        norm = ex.lattice_norm(m, qf)
        for n in (0, -3, -8, -10):
            xe = ex.lattice_node(n, m, 1, qf)
            rad = ex.radicand(m, xe, qf)
            table = qs.p_tilde_table(l_max, m,
                                     qs._lattice_point(n, m, 1, q), ctx)
            for l in range(max(m, m - 2 * n + 1), l_max + 1):
                p = ex.p_direct(l, m, xe, qf)
                exact = ex.u_squared(l, m, qf) * rad * p * p
                if table[l] == 0:       # an entry below 1e-300 reads +0.0
                    assert exact < (2 * Fraction(qs._TABLE_MIN))**2 * norm
                    continue
                assert (table[l] > 0) == (p > 0), (l, m, n)
                assert _squares_within(table[l], table_ulps(l, m, q), exact,
                                       norm), (l, m, n)
                checked += 1
    assert checked >= {10: 30, 20: 100, 40: 300}[l_max]


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_table_at_zero(q):
    # the upward recurrence at x = 0: every odd degree is +0.0 (0 in
    # extended mode), every even degree the exact value, in binary64
    # within the table bound
    qf = Fraction(q)
    for m in (0, 1, 3):
        norm = ex.lattice_norm(m, qf)
        double = qs.p_tilde_table(40, m, 0.0, QContext(q=q))
        extended = qs.p_tilde_table(40, m, 0.0,
                                    QContext(q=q, precision="extended"))
        for l in range(m, 41):
            if (l - m) % 2:
                assert double[l] == 0 and math.copysign(1, double[l]) > 0
                assert extended[l] == 0
                continue
            p = ex.p_direct(l, m, Fraction(0), qf)
            exact = ex.u_squared(l, m, qf) * p * p
            assert _squares_within(double[l], table_ulps(l, m, q), exact,
                                   norm), (l, m)
            f = _mpf_fraction(extended[l])
            assert abs(f * f * norm - exact) <= exact * Fraction(10)**-35
            assert (double[l] > 0) == (p > 0) == (extended[l] > 0), (l, m)
