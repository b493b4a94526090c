from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspace3 import CoverageError, DomainError, QContext, cli
from qspace3 import basistrans as bt
from qspace3 import qarith as qa
from qspace3 import qspecial as qs
from qspace3.qspecial import p_tilde_table
from qspace3.repspace import casimir_eigenvalue, chain_entries

CTX = QContext(q=1.5)


class TestCoefficients:
    def test_support_zeros(self):
        assert bt.c_coeff(1, 3, -2, 1, CTX) == 0.0     # l < |m|
        assert bt.c_coeff(4, 0, 1, 1, CTX) == 0.0      # m_t above the head
        assert bt.c_coeff(4, -2, -1, 1, CTX) == 0.0    # m_t above min(0, m)

    def test_extended_valid_zeros_are_mpf(self):
        ctxe = QContext(q=1.5, precision="extended")
        for zero in (bt.c_coeff(0, 1, 0, 1, ctxe),
                     bt.d_coeff(0, 0, 1, 0, 1, ctxe),
                     qa.qbinomial_sym(1, 3, ctxe)):
            assert type(zero) is mp.mpf and zero == 0

    def test_t2_residual_spec_points(self):
        assert bt.check_t2(2, 1, -3, 1, QContext(q=1.4)) < 1e-10
        assert bt.check_t2(3, 0, -1, -1, CTX) < 1e-10
        assert bt.check_t2(4, -2, -3, 1, CTX) < 1e-10

    def test_t2_holds_at_ladder_head(self):
        # the coefficient of the above-head neighbour vanishes there
        assert bt.check_t2(3, 0, 0, 1, CTX) < 1e-10
        assert bt.check_t2(5, -2, -2, -1, CTX) < 1e-10

    def test_column_normalization(self):
        s = sum(bt.c_coeff(3, 0, mt, sg, CTX)**2
                for sg in (1, -1) for mt in range(-60, 1))
        assert s == pytest.approx(1.0, abs=1e-8)

    def test_x3_recursion_spec_points(self):
        assert bt.check_x3_recursion(0, 2, 0, -2, 1, CTX) < 1e-10
        assert bt.check_x3_recursion(1, 3, -1, -2, -1, QContext(q=1.3)) < 1e-10
        assert bt.check_x3_recursion(0, 4, 2, -3, 1, CTX) < 1e-10

    @pytest.mark.parametrize("l,m", [(0, 3), (2, 3), (1, -2)])
    def test_x3_recursion_below_the_chain_rejected(self, l, m):
        with pytest.raises(DomainError):
            bt.check_x3_recursion(0, l, m, -3, 1, CTX)

    def test_d_branch_continuity_at_zero_weight(self):
        # at m = 0 both branch formulas coincide
        q = 1.5
        from qspace3.qspecial import p_tilde
        import math
        for nu in (0, -2):
            d = bt.d_coeff(0, 3, 0, nu, 1, CTX)
            manual = math.sqrt(1 - q**-2) * q**(nu - 1) \
                * p_tilde(3, 0, q**(2 * (nu - 1)), CTX)
            assert d == pytest.approx(manual, rel=1e-13)

    def test_d_parity_flip(self):
        for (l, m) in ((4, 2), (5, 2), (3, -1)):
            a = bt.d_coeff(0, l, m, -3 + min(0, m), 1, CTX)
            b = bt.d_coeff(0, l, m, -3 + min(0, m), -1, CTX)
            assert b == pytest.approx((-1)**(l - abs(m)) * a,
                                      rel=1e-11, abs=1e-13)

    def test_d_label_range(self):
        with pytest.raises(DomainError):
            bt.d_coeff(0, 3, 0, 1, 1, CTX)      # nu > M
        with pytest.raises(DomainError):
            bt.d_coeff(0, 3, -4, -1, 1, CTX)    # m < nu - M


@settings(max_examples=40, deadline=None)
@given(l=st.integers(min_value=0, max_value=6),
       m=st.integers(min_value=-3, max_value=3),
       mt_off=st.integers(min_value=0, max_value=8),
       sig=st.sampled_from([1, -1]),
       q=st.sampled_from([1.2, 1.5]))
def test_t2_recursion_property(l, m, mt_off, sig, q):
    if l < abs(m):
        return
    ctx = QContext(q=q)
    m_t = min(0, m) - mt_off
    assert bt.check_t2(l, m, m_t, sig, ctx) < 1e-10


class TestTransforms:
    def test_direction1_isometry_and_congruence(self):
        t = bt.build_transform(1, 0, CTX, l_max=5, depth=60)
        assert t.gram_defect < 1e-7
        assert t.congruence_defect < 1e-6
        assert t.direction == "mtk_to_lm"

    def test_direction1_negative_m(self):
        t = bt.build_transform(1, -2, CTX, l_max=10, depth=60)
        assert t.gram_defect < 1e-7
        assert t.congruence_defect < 1e-6

    def test_sign_doubling_required(self):
        t = bt.build_transform(1, 0, CTX, l_max=5, depth=60)
        n = len(t.row_labels) // 2
        single = t.matrix[:n, :]
        defect = np.abs(single.T @ single - np.eye(single.shape[1])).max()
        assert defect > 0.1

    def test_direction2_isometry_and_congruence(self):
        t = bt.build_transform(2, 0, CTX, M=0, l_max=40)
        assert t.gram_defect < 1e-6
        assert t.congruence_defect < 1e-6
        assert t.direction == "lm_to_x3"

    def test_direction2_negative_m_nonzero_M(self):
        t = bt.build_transform(2, -1, CTX, M=1, l_max=40)
        assert t.gram_defect < 1e-6
        assert t.congruence_defect < 1e-6

    def test_coverage_error(self):
        with pytest.raises(CoverageError):
            bt.build_transform(1, 5, CTX, l_max=3)

    @pytest.mark.parametrize("direction, window", [
        (1, {"depth": 1}), (1, {"depth": 0}), (1, {"depth": -1}),
        (2, {"nu_depth": -1})])
    def test_window_with_nothing_to_measure_rejected(self, direction,
                                                     window):
        # direction 1 drops the two deepest chain sites from its congruence
        # window, so a depth below 2 keeps none; a negative nu_depth holds
        # no X3 level
        with pytest.raises(CoverageError):
            bt.build_transform(direction, 0, CTX, l_max=6, **window)

    def test_serialization_round_trip(self, tmp_path):
        import csv
        t = bt.build_transform(2, 1, CTX, M=0, l_max=12, nu_depth=3)
        doc = t.to_json_dict()
        assert doc["schema"] == "qspace3/1"
        assert doc["direction"] == "lm_to_x3"
        p = tmp_path / "table.csv"
        with open(p, "w", newline="") as fh:
            t.write_csv(fh)
        with open(p, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == len(t.row_labels) + 1
        assert len(rows[0]) == len(t.col_labels) + 1
        # full-precision round trip of a coefficient
        assert float(rows[1][1]) == t.matrix[0, 0]


def reference_rows(m, mts, l_max, ctx, alternate):
    """The coefficient table entry by entry: binary64 sites, tables in ctx's
    mode, each entry stored into a float64 array."""
    q = float(ctx.q)
    ls = list(range(abs(m), l_max + 1))
    U = np.zeros((2 * len(mts), len(ls)))
    for blk, sigma in enumerate((1, -1)):
        for j, mt in enumerate(mts):
            x, pref = bt._site(m, mt, sigma, q)
            tab = p_tilde_table(l_max, abs(m), x, ctx)
            sgn = (-1)**mt if alternate else 1
            for c, l in enumerate(ls):
                U[blk * len(mts) + j, c] = sgn * pref * tab[l]
    return U


@pytest.mark.parametrize("m", [0, -2, 1])
def test_extended_context_gives_binary64_table(m, tmp_path):
    ectx = QContext(q=1.5, precision="extended")
    top, M = min(0, m), 1
    t1 = bt.build_transform(1, m, ectx, l_max=8, depth=20)
    ref1 = reference_rows(m, list(range(top - 20, top + 1)), 8, ectx, True)
    t2 = bt.build_transform(2, m, ectx, M=M, l_max=8, nu_depth=3)
    ref2 = reference_rows(m, list(range(top - 3, top + 1)), 8, ectx, False)
    for t, ref in ((t1, ref1), (t2, ref2.T)):
        assert t.matrix.dtype == np.float64
        assert np.array_equal(t.matrix, ref)
        with open(tmp_path / "t.csv", "w", newline="") as fh:
            t.write_csv(fh)


def test_binary64_table_is_the_site_by_site_table_byte_for_byte():
    # tobytes sees the sign of a zero, which np.array_equal does not: the
    # q = 2 table stores -0.0 where the phase (-1)^m_t meets an underflowed
    # entry, and the sigma = -1 row must keep the sign of that zero
    ctx = QContext(q=2.0)
    t = bt.build_transform(1, 0, ctx, l_max=60)
    ref = reference_rows(0, list(range(-60, 1)), 60, ctx, True)
    assert np.signbit(t.matrix[t.matrix == 0]).any()
    assert t.matrix.tobytes() == ref.tobytes()


def reference_congruence_defect(m, l_max, q):
    """The Casimir congruence defect as the full quadratic form
    u_a^T K A u_b, every column, block entry and sum at 40 digits: O(L^2 n)
    multiprecision products."""
    ectx = QContext(q=q, precision="extended")
    am = abs(m)
    l_values = list(range(am, l_max + 1))
    cd = min(60, (l_max - am + 1) // 2 + bt._congruence_depth(q))  # depth 60
    top = min(0, m)
    mts = list(range(top - cd, top + 1))
    n = len(mts)
    with mp.workdps(40):
        qm = mp.mpf(q)
        lam = qm - 1 / qm
        norm = mp.sqrt(1 - qm**-2)
        colvecs = {l: [] for l in l_values}
        for sigma in (1, -1):
            for mt in mts:
                if m >= 0:
                    x = sigma * qm**(2 * (mt - m - 1))
                    pref = norm * qm**(mt - 1 - m)
                else:
                    x = sigma * qm**(2 * (mt - 1))
                    pref = norm * qm**(mt - 1)
                tab = p_tilde_table(l_max, am, x, ectx)
                for l in l_values:
                    colvecs[l].append((-1)**mt * pref * tab[l])
        diag = [((qm * qm + 1) * qm**(2 * (m + 1) - 4 * mt) - (qm * qm + 1))
                / lam**2 for mt in mts]
        off = [qm**(2 * m + 1) * mp.sqrt(
            (qm**(-4 * mt) - 1) * (qm**(-4 * mt) - qm**(-4 * m))) / lam**2
            for mt in mts[:-1]]

        def apply_block(vec):
            out = [mp.mpf(0)] * (2 * n)
            for o in (0, n):
                for j in range(n):
                    v = diag[j] * vec[o + j]
                    if j > 0:
                        v += off[j - 1] * vec[o + j - 1]
                    if j + 1 < n:
                        v += off[j] * vec[o + j + 1]
                    out[o + j] = v
            return out

        keep = [o + j for o in (0, n) for j in range(2, n)]
        lams = {l: casimir_eigenvalue(l, ectx) for l in l_values}
        applied = {l: apply_block(colvecs[l]) for l in l_values}
        worst = mp.mpf(0)
        for la in l_values:
            for lb in l_values:
                s = mp.fsum(colvecs[la][i] * applied[lb][i] for i in keep)
                target = lams[la] if la == lb else 0
                worst = max(worst, abs(s - target)
                            / max(lams[la], lams[lb], 1))
        return float(worst)


@pytest.mark.parametrize("q", [1.5, 2.0])
@pytest.mark.parametrize("m", [0, -2, 3])
def test_congruence_defect_matches_full_form(q, m):
    # the residual form reproduces the full quadratic form to (at least)
    # 3 significant digits
    t = bt.build_transform(1, m, QContext(q=q), l_max=12)
    ref = reference_congruence_defect(m, 12, q)
    assert t.congruence_defect == pytest.approx(ref, rel=1e-3)


def reference_residual_form(m, l_values, cd, ctx):
    """The residual-form congruence defect with the chain written out: the
    40-digit columns site by site at both signs, each from its own table,
    the chain lists and a hand-written block product on both sign blocks,
    column by column and entry by entry."""
    q = float(ctx.q)
    ectx = replace(ctx, precision="extended")
    top = min(0, m)
    mts = list(range(top - cd, top + 1))
    n = len(mts)
    lams = np.array([casimir_eigenvalue(l, ectx) for l in l_values])
    margin = 2
    keep = [blk * n + j for blk in range(2) for j in range(margin, n)]
    U_K = np.empty((len(keep), len(l_values)))
    R_K = np.empty_like(U_K)
    gram_diag = np.empty(len(l_values))
    with mp.workdps(ectx.dps):
        qm = mp.mpf(q)
        cols = [[] for _ in l_values]
        for sigma in (1, -1):
            for mt in mts:
                x, pref = bt._site(m, mt, sigma, qm)
                tab = p_tilde_table(l_values[-1], abs(m), x, ectx)
                for c, l in enumerate(l_values):
                    cols[c].append((-1)**mt * pref * tab[l])
        lam2 = (qm - 1 / qm)**2
        entries = [chain_entries(m, mt, qm) for mt in mts]
        diag = [d / lam2 for d, _ in entries]
        off = [e / lam2 for _, e in entries[:-1]]

        def apply_block(vec):
            out = [mp.mpf(0)] * (2 * n)
            for blk in range(2):
                o = blk * n
                for j in range(n):
                    v = diag[j] * vec[o + j]
                    if j > 0:
                        v += off[j - 1] * vec[o + j - 1]
                    if j + 1 < n:
                        v += off[j] * vec[o + j + 1]
                    out[o + j] = v
            return out

        for c, (col, lam_c) in enumerate(zip(cols, lams.tolist())):
            applied = apply_block(col)
            for r, i in enumerate(keep):
                U_K[r, c] = float(col[i])
                R_K[r, c] = float(applied[i] - lam_c * col[i])
            gram_diag[c] = float(mp.fsum(col[i]**2 for i in keep) - 1)
    gram_minus_eye = U_K.T @ U_K
    np.fill_diagonal(gram_minus_eye, gram_diag)
    dev = gram_minus_eye * lams[None, :] + U_K.T @ R_K
    scale = np.maximum(np.maximum.outer(lams, lams), 1.0)
    return float(np.abs(dev / scale).max())


@pytest.mark.parametrize("q", [1.1, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("l_max", [10, 20])
def test_congruence_defect_is_the_written_out_chain_product(q, l_max):
    # bit-identical: the chain block and the column products keep the
    # order of every 40-digit operation
    ctx = QContext(q=q)
    for m in range(-3, 4):
        l_values = list(range(abs(m), l_max + 1))
        cd = min(60, (l_max - abs(m) + 1) // 2 + bt._congruence_depth(q))
        assert bt._casimir_congruence_defect(m, l_values, cd, ctx) \
            == reference_residual_form(m, l_values, cd, ctx), m


def test_congruence_form_builds_no_row_for_the_deepest_site(monkeypatch):
    # the form keeps the sites from _MARGIN up and reads the one below them
    # only as a lower neighbour, so of the cd + 1 sites of its window it
    # builds the cd from the second-deepest up, one extended table each
    extended = []
    table = qs.p_tilde_table

    def spy(l_max, m, x, ctx):
        extended.append(ctx.is_extended)
        return table(l_max, m, x, ctx)

    monkeypatch.setattr(qs, "p_tilde_table", spy)
    for q, m, l_max in ((1.5, 0, 12), (2.0, -2, 20), (1.2, 3, 10)):
        l_values = list(range(abs(m), l_max + 1))
        cd = (l_max - abs(m) + 1) // 2 + bt._congruence_depth(q)
        extended.clear()
        bt._casimir_congruence_defect(m, l_values, cd, QContext(q=q))
        assert extended == [True] * cd, (q, m)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: at q = 3 the form cancels about q^(2 cd) ~ 1e42 at its "
    "fixed 40 digits and reads 0.126"))
def test_congruence_defect_at_q3_l_max_60():
    table = bt.build_transform(1, 0, QContext(q=3.0), l_max=60)
    assert table.congruence_defect < 1e-6


class TestCompleteness:
    def test_diagonal_and_off_diagonal_samples(self):
        rep = bt.completeness_check(0, CTX, l_max=40)
        assert rep["max_defect"] < 1e-5
        assert rep["n_pairs"] >= 10
        diag = [s for s in rep["samples"]
                if s["pair"][0] == s["pair"][1]]
        off = [s for s in rep["samples"]
               if s["pair"][0] != s["pair"][1]]
        assert all(abs(s["sum"] - 1) < 1e-5 for s in diag)
        assert all(abs(s["sum"]) < 1e-5 for s in off)

    def test_stages_decrease(self):
        rep = bt.completeness_check(0, CTX, l_max=40)
        d = [s["max_defect"] for s in rep["stages"]]
        assert d[0] >= d[1] - 1e-12
        assert d[1] >= d[2] - 1e-12

    def test_nonzero_m(self):
        for m in (2, -2):
            rep = bt.completeness_check(m, CTX, l_max=40)
            assert rep["max_defect"] < 1e-5

    def test_defects_at_rounding_level(self):
        # the tables' binary64 entries are within tens of ulp of the exact
        # values (test_exact.py), so the completeness and Gram defects they
        # give are a few ulp of 1 (1.1e-13 and 3.6e-13 when the tables
        # rebuilt each entry from a log10)
        assert bt.completeness_check(0, CTX)["max_defect"] < 1e-14
        t = bt.build_transform(1, 0, QContext(q=2.0), l_max=60)
        assert t.gram_defect < 1e-14


class TestLatticeMatrix:
    """ortho, complete and the transforms read one lattice matrix: a table
    per site m_t at the report's top degree, the sigma = -1 rows by
    parity."""

    @pytest.mark.parametrize("argv, tables", [
        (["ortho", "--m", "1", "--lspan", "5"], 61),
        (["ortho", "--m", "0"], 61),
        (["complete", "--m", "0"], 5)],
        ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_one_table_per_site(self, argv, tables, capsys):
        qs.clear_caches()
        assert cli.main(argv) == 0
        assert qs._table_cached.cache_info().currsize == tables

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_orthonormality_sum_is_the_transform_gram(self, m):
        # the columns of direction 1 carry the phase (-1)^m_t, which cancels
        # exactly in U^T U
        for top in range(m, m + 4):
            U = bt.build_transform(1, m, CTX, l_max=top, depth=20).matrix
            G = U.T @ U
            for l in range(m, top + 1):
                for a, b in ((l, top), (top, l)):
                    s = qs.orthonormality_sum(a, b, m, CTX, n_min=-20)
                    assert abs(s - G[a - m, b - m]) <= 1e-15, (a, b)

    @pytest.mark.parametrize("m", [0, 2, -2])
    def test_completeness_sum_is_the_transform_gram(self, m):
        # the columns (sigma, nu) of direction 2 (M = 0) are the sites
        # (sigma, m_t = nu), the completeness labels nu - max(m, 0)
        t = bt.build_transform(2, m, CTX, l_max=20, nu_depth=4)
        G = t.matrix.T @ t.matrix
        for i, (s, nu) in enumerate(t.col_labels):
            for j, (sp, nup) in enumerate(t.col_labels):
                v = qs.completeness_sum(nu - max(m, 0), nup - max(m, 0), s, sp,
                                        m, CTX, l_max=20)
                assert abs(v - G[i, j]) <= 1e-15, (s, nu, sp, nup)
