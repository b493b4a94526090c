"""Acceptance criteria, one test per criterion, each printing a pass line
and enforcing its stated tolerance and runtime budget."""

import random
import time

import numpy as np
import pytest

from qspace3 import QContext
from qspace3 import qarith as qa
from qspace3 import qspecial as qs
from qspace3 import repspace as rs
from qspace3 import basistrans as bt
from qspace3.operators import RepWindow
from qspace3.relations import (commutator_magnitude, default_families,
                               verify_relations)


def qn(a, q):
    return (q**a - q**(-a)) / (q - 1.0 / q)


def closed_forms(q):
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


def test_criterion_1_golden_table():
    t0 = time.perf_counter()
    rng = random.Random(20260810)
    xs = [rng.uniform(-1.0, 1.0) for _ in range(20)]
    worst = 0.0
    for q in (1.1, 1.5, 2.0):
        ctx = QContext(q=q)
        for (l, m), form in closed_forms(q).items():
            for x in xs:
                got = qs.p_lm(l, m, x, ctx)
                expect = form(x)
                worst = max(worst, abs(got - expect) / max(1.0, abs(expect)))
    dt = time.perf_counter() - t0
    assert worst < 1e-12
    assert dt < 1.0
    print(f"\ncriterion 1 PASS: golden table, 7 forms x 20 x x 3 q, "
          f"worst rel {worst:.2e} [{dt:.2f}s]")


def test_criterion_2_recurrence_and_difference():
    t0 = time.perf_counter()
    worst_r = worst_d = 0.0
    for q in (1.1, 1.5, 2.0):
        ctx = QContext(q=q)
        for l in range(0, 9):
            for m in range(0, l + 1):
                for n in range(-10, 1):
                    for sig in (1, -1):
                        x = sig * q**(2 * (n - m - 1))
                        worst_r = max(worst_r, qs.check_recurrence(l, m, x, ctx))
                        worst_d = max(worst_d, qs.check_difference(l, m, x, ctx))
    dt = time.perf_counter() - t0
    assert worst_r < 1e-10
    assert worst_d < 1e-10
    assert dt < 5.0
    print(f"criterion 2 PASS: recurrence {worst_r:.2e}, "
          f"difference {worst_d:.2e} over l<=8 grid [{dt:.2f}s]")


def test_criterion_3_orthonormality():
    t0 = time.perf_counter()
    ctx = QContext(q=1.5)
    worst = 0.0
    for m in range(0, 4):
        for l in range(m, 7):
            for lp in range(m, 7):
                s = qs.orthonormality_sum(l, lp, m, ctx, n_min=-60)
                worst = max(worst, abs(s - (1.0 if l == lp else 0.0)))
    dt = time.perf_counter() - t0
    assert worst < 1e-8
    assert dt < 5.0
    print(f"criterion 3 PASS: orthonormality l,l'<=6, m<=3, "
          f"worst defect {worst:.2e} [{dt:.2f}s]")


def test_criterion_4_completeness():
    t0 = time.perf_counter()
    ctx = QContext(q=1.5)
    worst = 0.0
    pairs = 0
    floor = 1e-12
    for m in (0, 2, -2):
        rep = bt.completeness_check(m, ctx, l_max=40)
        pairs += rep["n_pairs"]
        worst = max(worst, rep["max_defect"])
        stages = [s["max_defect"] for s in rep["stages"]]
        assert stages[0] >= stages[1] - floor
        assert stages[1] >= stages[2] - floor
    # degree-indexed form sampled directly as well
    for (nu, nup, sa, sb, m) in ((0, 0, 1, 1, 0), (0, -1, 1, 1, 0),
                                 (0, 0, 1, -1, 0), (-2, -3, -1, -1, -2)):
        v = qs.completeness_sum(nu, nup, sa, sb, m, ctx, l_max=40)
        target = 1.0 if (nu == nup and sa == sb) else 0.0
        worst = max(worst, abs(v - target))
        pairs += 1
    dt = time.perf_counter() - t0
    assert pairs >= 20
    assert worst < 1e-5
    assert dt < 10.0
    print(f"criterion 4 PASS: completeness over {pairs} pairs at l_max=40, "
          f"worst defect {worst:.2e}, staged decrease verified [{dt:.2f}s]")


def test_criterion_5_relation_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for q in (1.2, 1.5, 2.0):
        ctx = QContext(q=q)
        suite = default_families(ctx, n_depth=40, k_width=40)
        rep = verify_relations(suite, "all", ctx)
        assert rep.passed, f"relation failures at q={q}"
        worst = max(worst, rep.max_residual)
    dt = time.perf_counter() - t0
    assert worst < 1e-10
    assert dt < 30.0
    print(f"criterion 5 PASS: full relation suite at q in (1.2, 1.5, 2.0), "
          f"windows 40x40, worst interior residual {worst:.2e} [{dt:.2f}s]")


def test_criterion_6_spectral_reduction():
    t0 = time.perf_counter()
    ctx = QContext(q=1.5)
    l_max = 40
    # Casimir chain eigenvalues: the truncated single-sign chain carries the
    # parity class l - |m| odd; every member with l <= l_max - 10 must match.
    for m in range(0, 4):
        levels = rs.t2_block_levels(m, 60, ctx)
        for (l, ev, rel) in levels:
            if l <= l_max - 10:
                assert rel < 1e-6, (m, l, rel)
    # both parity classes certified through the sign-doubled congruence
    for m in range(0, 4):
        table = bt.build_transform(1, m, ctx, l_max=l_max - 10, depth=60)
        assert table.congruence_defect < 1e-6, m
        assert table.gram_defect < 1e-6, m
    # coordinate lattice in the diagonal-Casimir basis
    r0 = rs.r0_from_z0(1.0, ctx)
    for m in range(0, 4):
        levels = rs.x3_block_levels(0, m, l_max, r0, ctx)
        assert levels
        for (nu, ev, rel) in levels:
            assert rel < 1e-6, (m, nu, rel)
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(f"criterion 6 PASS: Casimir chain levels (parity class + doubled "
          f"congruence) and coordinate lattice at 1e-6 [{dt:.2f}s]")


def test_criterion_7_coproduct_consistency():
    t0 = time.perf_counter()
    ctx = QContext(q=1.5)
    lam = ctx.lam
    t = rs.build_t_special(RepWindow.make({"m_t": (-24, 0)}), ctx)
    k = rs.build_K_orbital(
        RepWindow.make({"m_k": (0, 24)}, hard_lo=("m_k",)), ctx)
    cp = rs.coproduct(t, k, "beta", ctx)
    direct = rs.build_T_orb(
        RepWindow.make({"m_t": (-24, 0), "m_k": (0, 24)}), ctx)
    worst = 0.0
    for key in ("T3", "T+", "T-", "tau"):
        dev = abs(cp[key].to_csr() - direct[key].to_csr()).max()
        worst = max(worst, dev / max(1.0, abs(direct[key].to_csr()).max()))
    assert worst < 1e-12
    # tau is group-like exactly
    prod = np.kron(t["tau"].diagonal(), k["tau"].diagonal())
    assert np.array_equal(cp["tau"].diagonal(), prod)
    # d = lam d1 d2 verified on the tau diagonal
    d_out = cp.params["d"]
    assert d_out == pytest.approx(lam * t.params["d"] * k.params["d"],
                                  rel=1e-13)
    q = ctx.q
    m_tot = np.array([c["m_t"] + c["m_k"] for c in cp.coords], dtype=float)
    predicted = lam * d_out * q**(-4.0 * m_tot)
    dev = np.abs(cp["tau"].diagonal() - predicted) \
        / np.maximum(1.0, np.abs(predicted))
    assert dev.max() < 1e-12
    dt = time.perf_counter() - t0
    print(f"criterion 7 PASS: twisted coproduct reproduces the tensor family "
          f"entrywise ({worst:.2e}); tau group-like exact; d multiplicative "
          f"[{dt:.2f}s]")


def test_criterion_8_classical_limit():
    t0 = time.perf_counter()
    ctx = QContext(q=1.0 + 1e-4)
    for a in range(1, 21):
        assert abs(qa.qnum_sym(a, ctx) - a) <= 1e-4 * a
    for l in range(0, 5):
        for m in range(0, l + 1):
            assert qs.p_lm(l, m, 1.0, ctx) == pytest.approx(1.0, abs=1e-3)
    mags = {}
    for eps in (1e-4, 2e-4):
        mags[eps] = commutator_magnitude(QContext(q=1 + eps), n_depth=12,
                                         k_width=12)
    lam = {eps: (1 + eps) - 1 / (1 + eps) for eps in mags}
    ratio = mags[2e-4] / mags[1e-4]
    expect = lam[2e-4] / lam[1e-4]
    assert abs(ratio - expect) <= 0.1 * expect
    dt = time.perf_counter() - t0
    print(f"criterion 8 PASS: classical limits of q-numbers and "
          f"normalization; commutator magnitude linear in lambda to "
          f"{abs(ratio / expect - 1):.1e} [{dt:.2f}s]")
