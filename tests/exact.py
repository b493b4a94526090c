"""Exact rational reference values for the q-special functions of qspace3.

Every binary64 number is a dyadic rational, so at q = Fraction(float(q)) and
x = Fraction(float(x)), or at an exact lattice node, the q-numbers, the
q-factorials and q-binomials, the direct sum of P_lm, its terminating 3phi2
(big q-Jacobi) form, the radicand product of the weight, and the weight's
scale u^2, normalization and square, and so P~_lm^2, are exact Fractions.
test_exact.py compares the package's floats and mpfs with them.

Standard library only: test_exact.py imports this module with mpmath, numpy
and qspace3 blocked, so it can never share code with what it checks.
"""

from fractions import Fraction
from functools import lru_cache

_FACTS = {}          # q -> prefix list [0]!, [1]!, ..., extended on demand


def qnum(a, q):
    """The symmetric q-number [a] = (q^a - q^-a) / (q - q^-1)."""
    return (q**a - q**-a) / (q - 1 / q)


def qfactorial(n, q):
    """[n]! = [1][2]...[n], read from the prefix list of q."""
    facts = _FACTS.setdefault(q, [Fraction(1)])
    while len(facts) <= n:
        facts.append(facts[-1] * qnum(len(facts), q))
    return facts[n]


@lru_cache(maxsize=4096)
def qbinomial(n, k, q):
    """[n]! / ([k]! [n-k]!); 0 when n < k or n < 0 or k < 0."""
    if k < 0 or n < 0 or n < k:
        return Fraction(0)
    return qfactorial(n, q) / (qfactorial(k, q) * qfactorial(n - k, q))


@lru_cache(maxsize=256)
def _direct_coeffs(l, m, q):
    """The x-independent factor of each term k of the direct sum:
    (-1)^k q^(-k(m+1)) / (-q^(-2(m+1)); q^-2)_k [l-m, k] [l+m+k, k] / [m+k, k].
    """
    coeffs = []
    c = Fraction(1)
    for k in range(l - m + 1):
        if k:
            c /= -q**(m + 1) * (1 + q**(-2 * (m + 1)) * q**(-2 * (k - 1)))
        coeffs.append(c * qbinomial(l - m, k, q) * qbinomial(l + m + k, k, q)
                      / qbinomial(m + k, k, q))
    return tuple(coeffs)


def direct_terms(l, m, x, q):
    """The terms of the direct sum of P_lm(x): the coefficients of
    _direct_coeffs times (x; q^-2)_k, k = 0..l-m."""
    pochx = Fraction(1)
    for k, c in enumerate(_direct_coeffs(l, m, q)):
        if k:
            pochx *= 1 - x * q**(-2 * (k - 1))
        yield c * pochx


def p_direct(l, m, x, q):
    """P_lm(x) by its direct sum."""
    return sum(direct_terms(l, m, x, q), Fraction(0))


def jacobi_3phi2(n, x, a, b, c, base):
    """The big q-Jacobi polynomial P_n(x; a, b, c; base), the terminating
    3phi2(base^-n, a b base^(n+1), x; a base, c base; base, base), summed
    term by term with the ratio of consecutive terms."""
    s = term = Fraction(1)
    for k in range(n):
        bk = base**k
        term *= (1 - base**(k - n)) * (1 - a * b * base**(n + 1) * bk) \
            * (1 - x * bk) * base \
            / ((1 - a * base * bk) * (1 - c * base * bk) * (1 - base * bk))
        s += term
    return s


def p_3phi2(l, m, x, q):
    """P_lm(x) as the degree-(l-m) big q-Jacobi polynomial on the base q^-2
    with a = b = q^-2m and c = -q^-2m."""
    am = q**(-2 * m)
    return jacobi_3phi2(l - m, x, am, am, -am, q**-2)


def rad_factors(m, x, q):
    """The factors 1 - x^2 q^(4(m-j)), j = 0..m-1, of the weight's radicand."""
    x2 = x * x
    return [1 - x2 * q**(4 * (m - j)) for j in range(m)]


def sign_of_product(factors):
    """The exact sign of a product from the signs of its factors: 1, 0 or
    -1; for rad_factors, the sign of the radicand."""
    s = 1
    for f in factors:
        s *= (f > 0) - (f < 0)
    return s


def lattice_node(n, m, sigma, q):
    """The exact order-m lattice node sigma q^(2(n-m-1))."""
    return sigma * q**(2 * (n - m - 1))


def u_squared(l, m, q):
    """q^(l(l+1)) [2l+1] [l+m]! / [l-m]!, the square of the weight's
    l-dependent scale.  The factorial ratio is the product of its 2m
    factors [l-m+1] ... [l+m], which costs far less than the ratio of two
    long factorials."""
    t = qnum(2 * l + 1, q)
    for k in range(l - m + 1, l + m + 1):
        t *= qnum(k, q)
    return q**(l * (l + 1)) * t


def lattice_norm(m, q):
    """The order-m normalization u_squared(m, m) * 2 (1 - q^-2) S, where
    S = sum_{n <= 0} |x_n| rad_m(x_n) over the nodes x_n = q^(2(n-m-1)).

    The radicand product is expanded in y = x^2 as sum_k c_k y^k, one factor
    1 - a y at a time; the monomial c_k x^(2k) contributes the geometric
    series sum_{n <= 0} q^(2(n-m-1)(2k+1)) = q^(-2(m+1)(2k+1)) /
    (1 - q^(-2(2k+1)))."""
    c = [Fraction(1)]
    for j in range(m):
        a = q**(4 * (m - j))
        c = [lo - a * hi for lo, hi in zip(c + [0], [0] + c)]
    s = sum(ck * q**(-2 * (m + 1) * (2 * k + 1)) / (1 - q**(-2 * (2 * k + 1)))
            for k, ck in enumerate(c))
    return u_squared(m, m, q) * 2 * (1 - q**-2) * s


def radicand(m, x, q):
    """rad_m(x), the product of rad_factors."""
    rad = Fraction(1)
    for f in rad_factors(m, x, q):
        rad *= f
    return rad


def weight_squared(l, m, x, q):
    """w_lm(x)^2 = u^2 rad_m(x) / norm_m; P~_lm(x)^2 is this times
    P_lm(x)^2."""
    return u_squared(l, m, q) * radicand(m, x, q) / lattice_norm(m, q)
