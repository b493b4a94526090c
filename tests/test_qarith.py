import math
import random
import sys
import threading

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath.libmp import (finf, fnan, fninf, fone, from_man_exp, fzero,
                          mpf_add, mpf_div, mpf_mul, mpf_neg, mpf_sub,
                          round_nearest)

from qspace3 import DomainError, PrecisionError, QContext
from qspace3 import qarith as qa
from qspace3 import qspecial as qs

CTX2 = QContext(q=2.0)
CTX15 = QContext(q=1.5)


class TestQContext:
    def test_rejects_q_not_above_one(self):
        with pytest.raises(DomainError):
            QContext(q=1.0)
        with pytest.raises(DomainError):
            QContext(q=0.5)

    def test_rejects_bad_tolerance_ordering(self):
        with pytest.raises(DomainError):
            QContext(q=1.5, tol_rel=2.0)
        with pytest.raises(DomainError):
            QContext(q=1.5, tol_rel=0.0)
        # no series threshold bounds the pass/fail tolerance from below
        assert QContext(q=1.5, tol_rel=1e-15).tol_rel == 1e-15

    @pytest.mark.parametrize("q", [math.inf, math.nan])
    def test_rejects_non_finite_q(self, q):
        with pytest.raises(DomainError):
            QContext(q=q)

    def test_lambda_matches_q(self):
        ctx = QContext(q=1.7)
        assert ctx.lam == 1.7 - 1.0 / 1.7


class TestQNum:
    def test_zero_and_one(self):
        assert qa.qnum_sym(0, CTX2) == 0.0
        assert qa.qnum_sym(1, CTX2) == pytest.approx(1.0, rel=1e-15)

    def test_q2_values(self):
        # (q^a - q^-a)/(q - 1/q) at q = 2
        assert qa.qnum_sym(2, CTX2) == pytest.approx(2.5, rel=1e-15)
        assert qa.qnum_sym(3, CTX2) == pytest.approx(5.25, rel=1e-15)

    @given(a=st.floats(min_value=-25, max_value=25),
           q=st.sampled_from([1.1, 1.5, 2.0]))
    def test_odd_in_a(self, a, q):
        ctx = QContext(q=q)
        assert qa.qnum_sym(-a, ctx) == pytest.approx(
            -qa.qnum_sym(a, ctx), rel=1e-12, abs=1e-12)

    def test_classical_limit(self):
        ctx = QContext(q=1.0 + 1e-6)
        for a in range(1, 21):
            assert abs(qa.qnum_sym(a, ctx) - a) <= 1e-4 * a


class TestQFactorial:
    def test_base_cases(self):
        assert qa.qfactorial_sym(0, CTX2) == 1.0
        assert qa.qfactorial_sym(1, CTX2) == pytest.approx(1.0, rel=1e-15)

    def test_q2_product(self):
        # [2][3] = 2.5 * 5.25
        assert qa.qfactorial_sym(3, CTX2) == pytest.approx(13.125, rel=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            qa.qfactorial_sym(-1, CTX2)


def _qfact_per_n(n, q, qnums):
    """[n]! as a fresh product from k = 1, in the order and at the precision
    of the prefix list but sharing none of its state."""
    r = 1 + 0 * q
    for k in range(1, n + 1):
        r *= qnums[k]
    return r


def _per_n_reference(qkey, dps, n_max=120):
    # the binary64 list is the 40-digit one rounded once
    with mp.workdps(dps or 40):
        q = mp.mpf(qkey)
        qnums = [None] + [(q**k - q**(-k)) / (q - 1 / q)
                          for k in range(1, n_max + 1)]
        ref = [_qfact_per_n(n, q, qnums) for n in range(n_max + 1)]
    # a multiprecision list holds the mpfs' libmp tuples
    return [v._mpf_ for v in ref] if dps else [float(v) for v in ref]


class TestQFactorialPrefixList:
    """The factorials are one prefix list per (q, dps), extended in place;
    every value must equal the per-n product exactly, whatever the order of
    the calls and the ambient mpmath precision."""

    QS = (1.1, 1.5, 2.0, 3.0)
    DPS = (0, 50, 137, 1100)

    @pytest.fixture(scope="class")
    def reference(self):
        return {(q, dps): _per_n_reference(q, dps)
                for q in self.QS for dps in self.DPS}

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled",
                                       "ambient-300", "ambient-8"])
    def test_exactly_the_per_n_product(self, reference, order):
        ns = list(range(121))
        if order == "descending":
            ns.reverse()
        elif order == "shuffled":
            random.Random(3).shuffle(ns)
        ambient = int(order.split("-")[1]) if "-" in order else mp.mp.dps
        qs.clear_caches()
        with mp.workdps(ambient):
            got = {(q, dps, n): qa._qfact_cached(n, q, dps)
                   for q in self.QS for dps in self.DPS for n in ns}
        for (q, dps, n), v in got.items():
            assert v == reference[q, dps][n], (q, dps, n)
            assert type(v) is (tuple if dps else float)

    def test_concurrent_extension(self, reference):
        qs.clear_caches()
        errors = []

        def worker(seed):
            ns = list(range(121))
            random.Random(seed).shuffle(ns)
            for n in ns:
                if qa._qfact_cached(n, 2.0, 137) != reference[2.0, 137][n]:
                    errors.append(n)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert qa._qfact_list(2.0, 137) == reference[2.0, 137]

    def test_public_entry_points_share_the_list(self):
        qs.clear_caches()
        ctxe = QContext(q=1.5, precision="extended")
        with mp.workdps(40):        # an extended value's digits
            f = [mp.make_mpf(qa._qfact_cached(n, 1.5, 40))
                 for n in (40, 7, 33)]
            ratio = f[0] / (f[1] * f[2])
        got = qa.qbinomial_sym(40, 7, ctxe)
        assert type(got) is mp.mpf and got._mpf_ == ratio._mpf_
        assert len(qa._qfact_list(1.5, 40)) == 41
        assert qa._qfact_list.cache_info().currsize == 1


class TestWrittenOutExpressions:
    """[a], the multiprecision q-binomials and the direct sum's terms are
    the mpf expressions (q**a - q**(-a)) / (q - 1/q), F[n] / (F[k] F[n-k])
    over the prefix list F and the terms of _sum_factors, bit for bit, with
    lambda = q - 1/q passed in or not; every tuple division is mpf_div's."""

    QS = (1.1, 1.2, 1.5, 2.0, 3.0)
    DPS = (40, 80, 520, 1120)

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("dps", DPS)
    def test_qnum_and_qbin(self, q, dps):
        qs.clear_caches()
        with mp.workdps(dps):
            qm = mp.mpf(q)
            lam = qa._lam(qm)
            for a in range(101):
                ref = (qm**a - qm**(-a)) / (qm - 1 / qm)
                assert qa._qnum(a, qm)._mpf_ == ref._mpf_, a
                assert qa._qnum(a, qm, lam)._mpf_ == ref._mpf_, a
            facts = [mp.make_mpf(qa._qfact_cached(n, q, dps))
                     for n in range(101)]
            for n in range(101):
                for k in {0, 1, n // 2, n - 1, n} & set(range(n + 1)):
                    ref = facts[n] / (facts[k] * facts[n - k])
                    got = qa._qbin(n, k, q, dps)
                    assert type(got) is tuple and got == ref._mpf_, (n, k)

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("dps", DPS)
    def test_sum_terms(self, q, dps):
        # the terms record of (l, m), l <= 40 and m <= 3, against the mpf
        # expressions written out at dps digits, the q-binomials over the
        # per-n products of the q-numbers (no prefix list, no tuple)
        qs.clear_caches()
        with mp.workdps(dps):
            qm = mp.mpf(q)
            qnums = [(qm**a - qm**(-a)) / (qm - 1 / qm) for a in range(81)]
            facts = [_qfact_per_n(n, qm, qnums) for n in range(81)]

            def qbin(n, k):
                return facts[n] / (facts[k] * facts[n - k])

            for l, m in [(l, m) for l in (0, 1, 2, 3, 5, 8, 12, 17, 23, 31, 40)
                         for m in (0, 1, 3) if m <= l]:
                base, shift = qm**-2, qm**(-2 * (m + 1))
                bk = pochd = 1 + 0 * qm
                ref = []
                for k in range(l - m + 1):
                    if k > 0:
                        bk = base**(k - 1)
                        pochd = pochd * (1 + shift * bk)
                    ref.append(tuple(v._mpf_ for v in (
                        bk, (-1)**k * qm**(-k * (m + 1)), pochd,
                        qbin(l - m, k), qbin(l + m + k, k), qbin(m + k, k))))
                got = qs._sum_terms(l, m, q, dps)
                assert type(got) is tuple and got == tuple(ref), (l, m)

    def test_div_is_mpf_div(self):
        # a seeded grid of quotients: inexact, exact, exact but rounded,
        # ties to even, both signs, a zero numerator, a divisor mantissa of
        # 1 and the special values, at 53 to 3,724 bits
        rng = random.Random(7)

        def odd(bits):
            return rng.getrandbits(bits) | 1 | (1 << (bits - 1))

        def tup(man, exp):
            return from_man_exp(rng.choice((1, -1)) * man, exp)

        cases = 0
        for prec in (53, 54, 113, 136, 333, 1000, 1733, 3724):
            for _ in range(40):
                t = tup(odd(rng.randint(2, prec)), rng.randint(-900, 900))
                # exact quotients: within prec bits, beyond them (rounded),
                # and halfway between two prec-bit values (a tie, to even)
                exact = (odd(rng.randint(1, prec)),
                         odd(prec + rng.randint(2, 40)), odd(prec + 1))
                e = rng.randint(-900, 900)
                for s in (tup(odd(rng.randint(1, 2 * prec)), e),  # inexact
                          *(tup(u * t[1], e) for u in exact), fzero):
                    for d in (t, tup(1, rng.randint(-60, 60))):
                        got, want = qa._div(s, d, prec), mpf_div(s, d, prec,
                                                                 round_nearest)
                        assert got == want, (s, d, prec)
                        cases += 1
        for s, d in ((finf, fone), (fnan, fone), (fone, finf), (fone, fzero)):
            try:
                want = mpf_div(s, d, 53, round_nearest)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    qa._div(s, d, 53)
            else:
                assert qa._div(s, d, 53) == want
        assert cases == 8 * 40 * 10

    def test_mul_add_sub_are_libmp(self):
        # a seeded grid of products, sums and differences at 53 to 3,724
        # bits: both signs, equal exponents (cancelling to an exact 0 at
        # t = -s and t = s), offsets up to 100 and beyond (mpf_add's nudge
        # where t lies below prec + 4 bits of s), an all-ones mantissa that
        # rounds up to a power of two, mantissa-1 operands and zeros; ties,
        # a prec + 1-bit mantissa ending in 1 times a power of two, plus a
        # nudged operand, and two prec-bit mantissas one bit apart; each
        # pair in both orders; then the special values
        rng = random.Random(29)
        kernels = ((qa._mul, mpf_mul), (qa._add, mpf_add),
                   (qa._sub, mpf_sub))

        def odd(bits):
            return rng.getrandbits(bits) | 1 | (1 << (bits - 1))

        def tup(man, exp):
            return from_man_exp(rng.choice((1, -1)) * man, exp)

        cases = zeros = powers = nudges = 0
        for prec in (53, 54, 113, 136, 333, 1000, 1733, 3724):
            for _ in range(10):
                s = tup(odd(rng.randint(1, 2 * prec)), rng.randint(-900, 900))
                e = s[2]
                far = rng.randint(101, 2 * prec + 200)
                ones = (1 << prec + rng.randint(1, 9)) - 1
                others = (tup(odd(rng.randint(1, 2 * prec)), e), s,
                          mpf_neg(s),
                          tup(odd(rng.randint(1, 2 * prec)),
                              e - rng.randint(1, 100)),
                          tup(odd(rng.randint(1, 2 * prec)), e - far),
                          tup(odd(rng.randint(1, 40)), e + far),
                          tup(ones, e - rng.randint(0, 3)),
                          tup(1, rng.randint(-60, 60)), fzero)
                tie = tup(((rng.getrandbits(prec - 1) | 1 << prec - 1) << 1)
                          | 1, e)
                pairs = [(s, t) for t in others] + [
                    (tie, tup(1, rng.randint(-60, 60))),
                    (tie, tup(odd(rng.randint(1, 40)), e - far)),
                    (tup(odd(prec), e), tup(odd(prec), e - 1))]
                for s_, t in pairs:
                    for a, b in ((s_, t), (t, s_)):
                        if a[1] > 0 and b[1] > 0 and abs(a[2] - b[2]) > 100 \
                                and abs(a[1].bit_length() + a[2]
                                        - b[1].bit_length() - b[2]) > prec + 4:
                            nudges += 1
                        for kernel, libmp in kernels:
                            got = kernel(a, b, prec)
                            want = libmp(a, b, prec, round_nearest)
                            assert got == want, (kernel.__name__, a, b, prec)
                            zeros += want == fzero and a[1] > 0 and b[1] > 0
                            powers += want[1] == 1 and a[1] > 1 and b[1] > 1
                            cases += 1
        specials = (finf, fninf, fnan, fzero, fone, mpf_neg(fone))
        for a in specials:
            for b in specials:
                for kernel, libmp in kernels:
                    assert kernel(a, b, 53) == libmp(a, b, 53, round_nearest)
        assert cases == 8 * 10 * 12 * 2 * 3
        assert zeros > 0 and powers > 0 and nudges > 0

    def test_exact_at_q2(self):
        # at q = 2 every [a] = (4**a - 1) / (3 2**(a-1)) is a dyadic
        # rational, exact at 1120 digits for a <= 100, while [100]! needs
        # about 9,900 bits and is rounded; the edges k = 0 and k = n are 1
        # at every precision
        with mp.workdps(1120):
            two = mp.mpf(2)
            for a in range(1, 101):
                exact = mp.mpf((4**a - 1) // 3) / 2**(a - 1)
                assert qa._qnum(a, two, qa._lam(two))._mpf_ == exact._mpf_
        for dps in (40, 80, 1120):
            with mp.workdps(dps):
                for n in range(101):
                    assert qa._qbin(n, 0, 2.0, dps) \
                        == qa._qbin(n, n, 2.0, dps) == mp.mpf(1)._mpf_

    def test_binary64_edges_keep_the_quotient(self):
        # a binary64 [n]! past the range gives inf / inf = NaN at k = 0 and
        # k = n, which p_lm's accept test reads; below it the edges are 1.0
        assert qa._qbin(5, 0, 1.5) == qa._qbin(5, 5, 1.5) == 1.0
        assert math.isnan(qa._qbin(60, 0, 50.0))
        assert math.isnan(qa._qbin(60, 60, 50.0))
        for a in range(60):
            assert qa._qnum(a, 1.5, qa._lam(1.5)) == qa._qnum(a, 1.5) \
                == (1.5**a - 1.5**(-a)) / (1.5 - 1 / 1.5)


class TestQBinomial:
    def test_edges(self):
        assert qa.qbinomial_sym(5, 0, CTX15) == 1.0
        assert qa.qbinomial_sym(1, 3, CTX15) == 0.0
        assert qa.qbinomial_sym(-2, 1, CTX15) == 0.0
        assert qa.qbinomial_sym(3, -1, CTX15) == 0.0

    def test_simple_value(self):
        assert qa.qbinomial_sym(2, 1, CTX2) == pytest.approx(2.5, rel=1e-14)

    @given(n=st.integers(min_value=0, max_value=20),
           k=st.integers(min_value=0, max_value=20))
    def test_symmetry(self, n, k):
        if k > n:
            return
        a = qa.qbinomial_sym(n, k, CTX15)
        b = qa.qbinomial_sym(n, n - k, CTX15)
        assert a == pytest.approx(b, rel=1e-13)

    def test_factorial_ratio_oracle(self):
        # independent oracle: explicit product of q-numbers
        q = 1.5
        for n in range(0, 31):
            for k in (0, 1, n // 2, n):
                num = 1.0
                for j in range(k):
                    num *= (q**(n - j) - q**(-(n - j))) / (q**(j + 1) - q**(-(j + 1)))
                assert qa.qbinomial_sym(n, k, CTX15) == pytest.approx(
                    num, rel=5e-14)


@pytest.mark.parametrize("call", [
    lambda ctx: qa.qnum_sym(2000, ctx),          # q**a overflows
    lambda ctx: qa.qfactorial_sym(3000, ctx),    # rounds to inf
    lambda ctx: qa.qbinomial_sym(3000, 1, ctx)],  # inf / inf
    ids=["qnum", "qfactorial", "qbinomial"])
def test_binary64_value_beyond_the_range_raises(call):
    # no OverflowError, inf or NaN: a PrecisionError that names the
    # extended mode, where the value is finite
    with pytest.raises(PrecisionError, match="QSPACE3_PRECISION=extended"):
        call(CTX15)
    v = call(QContext(q=1.5, precision="extended"))
    assert type(v) is mp.mpf and mp.isfinite(v) and v > 0


@pytest.mark.parametrize("n", [5, 2000, 3000])
def test_qbinomial_edges_are_one_beyond_the_range(n):
    # [n over 0] = [n over n] = 1 exactly, also where [n]! leaves binary64
    # and the quotient would be inf / inf
    ctxe = QContext(q=1.5, precision="extended")
    for k in (0, n):
        v = qa.qbinomial_sym(n, k, CTX15)
        assert type(v) is float and v == 1.0
        v = qa.qbinomial_sym(n, k, ctxe)
        assert type(v) is mp.mpf and v._mpf_ == mp.mpf(1)._mpf_


class TestExtendedMode:
    def test_matches_double(self):
        ctxe = QContext(q=1.5, precision="extended")
        v = qa.qnum_sym(7, ctxe)
        assert isinstance(v, mp.mpf)
        assert float(v) == pytest.approx(qa.qnum_sym(7, CTX15), rel=1e-15)

    def test_factorial_extended(self):
        ctxe = QContext(q=2.0, precision="extended")
        assert float(qa.qfactorial_sym(3, ctxe)) == pytest.approx(
            13.125, rel=1e-15)
