import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from qspace3 import DomainError, QContext, WindowError
from qspace3.operators import LabeledOperator, RepWindow
from qspace3.relations import (commutator_magnitude, default_families,
                               verify_relations, RELATION_GROUPS,
                               VerificationReport, _Band, _interior_abs_max)
from qspace3.repspace import build_X_over_R, casimir


def test_full_suite_passes_at_default_q():
    ctx = QContext(q=1.5)
    suite = default_families(ctx, n_depth=28, k_width=28)
    rep = verify_relations(suite, "all", ctx)
    assert rep.passed
    assert rep.max_residual < 1e-10
    names = {r["relation"] for r in rep.records}
    assert "coordinate commutator" in names
    assert "transversality L.X = 0" in names
    assert "conjugation K- = -q^2 (K+)^T" in names


def test_single_group_runs_alone():
    ctx = QContext(q=1.5)
    suite = default_families(ctx, n_depth=20, k_width=20)
    rep = verify_relations(suite, ("orbital-constraint",), ctx)
    assert len(rep.records) == 1
    assert rep.records[0]["pass"]


def test_unknown_group_rejected():
    ctx = QContext(q=1.5)
    suite = default_families(ctx, n_depth=8, k_width=8)
    with pytest.raises(DomainError):
        verify_relations(suite, ("bogus",), ctx)


def test_near_classical_q_passes():
    ctx = QContext(q=1.000001)
    suite = default_families(ctx, n_depth=16, k_width=16)
    rep = verify_relations(suite, ("x", "torb"), ctx)
    assert rep.passed


def test_commutator_scales_linearly_in_lam():
    c = {}
    for eps in (1e-4, 2e-4):
        c[eps] = commutator_magnitude(QContext(q=1 + eps), n_depth=12,
                                      k_width=12)
    lam = {eps: (1 + eps) - 1 / (1 + eps) for eps in c}
    ratio = c[2e-4] / c[1e-4]
    expect = lam[2e-4] / lam[1e-4]
    assert abs(ratio - expect) <= 0.1 * expect


def test_report_serialization_is_deterministic():
    ctx = QContext(q=1.5)
    suite = default_families(ctx, n_depth=10, k_width=10)
    rep = verify_relations(suite, ("conj",), ctx)
    a = rep.to_json()
    b = rep.to_json()
    assert a == b
    doc = json.loads(a)
    assert doc["schema"] == "qspace3/1"
    for rec in doc["relations"]:
        assert set(rec) == {"relation", "family", "window", "q",
                            "max_residual", "interior_states", "pass"}


def test_suite_peak_memory_per_state():
    # The traced peak of the whole suite at W = 120 (14,641 states), per
    # state, at the benchmark's q: 356 B when every relation built all its
    # terms before their sum and the bands came from entry lists, 264 B with
    # the terms made, folded and dropped one at a time and the bands built
    # by diagonal.  The bound keeps 10 % above the latter.
    for q in (1.2, 1.5, 2.0):
        ctx = QContext(q=q)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            verify_relations(default_families(ctx, 120, 120), "all", ctx)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak / 121**2 < 290, q


_FRESH = """
import sys
from qspace3 import QContext
from qspace3.relations import default_families, verify_relations
ctx, w = QContext(q=1.5), int(sys.argv[1])
print(verify_relations(default_families(ctx, w, w), "all", ctx).to_json())
"""


def test_reports_do_not_depend_on_earlier_suites():
    # anything a suite keeps (the Casimir, any mask) must die with its
    # families: a cache keyed by id() would hand a freed family's mask to
    # the next object allocated at the same address
    runs = {w: subprocess.Popen([sys.executable, "-c", _FRESH, str(w)],
                                stdout=subprocess.PIPE, text=True)
            for w in (12, 40)}
    fresh = {w: r.communicate(timeout=120)[0] for w, r in runs.items()}
    ctx = QContext(q=1.5)
    for w in (12, 40, 12):
        rep = verify_relations(default_families(ctx, w, w), "all", ctx)
        assert rep.to_json() + "\n" == fresh[w], w


def test_casimir_and_tau_roots_once_per_suite(monkeypatch):
    # torb and orbital-constraint share one Casimir band and one tau^(-1/2)
    seen = []
    diagonal = LabeledOperator.diagonal
    monkeypatch.setattr(LabeledOperator, "diagonal",
                        lambda op: seen.append(op.name) or diagonal(op))
    ctx = QContext(q=1.5)
    suite = default_families(ctx, n_depth=8, k_width=8)
    verify_relations(suite, "all", ctx)
    assert seen.count("tau_orb") == 1
    J = suite.joint()
    assert casimir(J, ctx).band is casimir(J, ctx).band


def test_groups_enumeration_is_stable():
    assert RELATION_GROUPS == ("x", "t", "k", "torb", "conj",
                               "orbital-constraint")


def test_empty_interior_refuses_to_verify():
    ctx = QContext(q=1.5)
    for depth, width in ((1, 1), (1, 20), (20, 1)):
        suite = default_families(ctx, n_depth=depth, k_width=width)
        with pytest.raises(WindowError):
            verify_relations(suite, ("x",), ctx)
    with pytest.raises(WindowError):
        commutator_magnitude(ctx, n_depth=1, k_width=1)


@pytest.mark.parametrize("m_t", [(-5, 0), (-7, -1)])
def test_t_and_x_over_r_must_share_their_labels(m_t):
    # X/R on fewer states, or on as many states with other labels, is
    # refused before any t relation is measured
    ctx = QContext(q=1.5)
    suite = default_families(ctx, n_depth=6, k_width=6)
    suite._cache["xr"] = build_X_over_R(1, RepWindow.make({"m_t": m_t}), ctx)
    with pytest.raises(WindowError, match="share one basis"):
        verify_relations(suite, ("t",), ctx)


def test_max_residual_propagates_nan():
    rep = VerificationReport(q=2.0, tol=1e-10)
    rep.add("a", "joint", {}, 1e-16, 4)
    rep.add("b", "joint", {}, math.nan, 4)
    rep.add("c", "joint", {}, 3e-16, 4)
    assert math.isnan(rep.max_residual)
    assert not rep.passed
    assert [r["pass"] for r in rep.records] == [True, False, True]
    assert VerificationReport(q=2.0, tol=1e-10).max_residual == 0.0


# ---------------------------------------------------------------------------
# the band arithmetic against scipy.sparse, value for value
# ---------------------------------------------------------------------------

def _random_operator(rng, n):
    """A canonical CSR on offsets drawn from {-7, -1, 0, 1, 7}, with gaps,
    stored zeros, magnitudes up to 2^+-600 and a few infinite entries."""
    offsets = rng.choice([d for d in (-7, -1, 0, 1, 7) if abs(d) < n],
                         size=rng.integers(1, 4), replace=False)
    rows, cols, vals = [], [], []
    for d in offsets.tolist():
        i = np.arange(max(0, -d), min(n, n - d))
        if rng.random() < 0.5:                  # a diagonal with gaps
            i = i[rng.random(i.size) < 0.7]
        v = rng.standard_normal(i.size) * np.ldexp(
            1.0, rng.integers(-600, 600, i.size))
        v[rng.random(i.size) < 0.15] = 0.0
        v[rng.random(i.size) < 0.04] = np.inf
        v[rng.random(i.size) < 0.04] = -np.inf
        rows.append(i)
        cols.append(i + d)
        vals.append(v)
    coo = sp.coo_matrix((np.concatenate(vals),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n, n))
    return LabeledOperator("A", _band_of(coo)).to_csr()


def _band_of(mat):
    """The band of a scipy sparse matrix, its stored zeros kept."""
    c = mat.tocoo()
    return _Band.from_entries(mat.shape[0], c.row, c.col, c.data)


def _sparse_entries(mat):
    """(rows, cols, values) of the stored entries, row-major."""
    c = mat.tocoo()
    order = np.lexsort((c.col, c.row))
    return c.row[order].astype(int), c.col[order].astype(int), c.data[order]


def _assert_same(band, mat):
    (br, bc, bv), (sr, sc, sv) = band.coo(), _sparse_entries(mat)
    assert np.array_equal(br, sr) and np.array_equal(bc, sc)
    # bit for bit, signed zeros included, and NaN in the same places (the
    # sign of a NaN depends on operand order and shows in no report)
    nan = np.isnan(sv)
    assert np.array_equal(np.isnan(bv), nan)
    assert np.array_equal(bv[~nan].view(np.uint64), sv[~nan].view(np.uint64))


def _reference_abs_max(mat, interior):
    """The interior max as computed on the CSR terms, 0.0 with no interior
    entry."""
    c = mat.tocoo()
    keep = interior[c.row] & interior[c.col]
    return np.abs(c.data[keep]).max() if keep.any() else 0.0


@pytest.mark.parametrize("seed", range(40))
def test_band_arithmetic_matches_scipy_sparse(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 30))
    pool = []
    for _ in range(3):
        mat = _random_operator(rng, n)
        pool.append((_band_of(mat), mat))
    scalars = (1.5, -0.75, 2.0**-40, -3e9, 0.0, math.inf)
    with np.errstate(all="ignore"):
        for _ in range(30):
            (a, A), (b, B) = (pool[i] for i in rng.integers(len(pool),
                                                            size=2))
            s = scalars[rng.integers(len(scalars))]
            op = rng.integers(7)
            if op == 0:
                pair = (a + b, A + B)
            elif op == 1:
                pair = (a - b, A - B)
            elif op == 2:
                # scipy sums a product entry in the stored order of its
                # operands; the relation terms keep them sorted
                pair = (a @ b, A.sorted_indices() @ B.sorted_indices())
            elif op == 3:
                pair = (s * a, s * A)
            elif op == 4:
                s = s or 7.0                    # 1 / 0 raises on both sides
                pair = (a / s, A / s)
            elif op == 5:
                pair = (a.T, A.T)
            else:
                pair = (-a, -A)
            _assert_same(*pair)
            pool.append(pair)
            interior = rng.random(n) < 0.7
            got = _interior_abs_max(
                {d: v for d, (v, _) in pair[0].diags.items()}, interior)
            want = _reference_abs_max(pair[1], interior)
            assert np.float64(got).view(np.uint64) \
                == np.float64(want).view(np.uint64)


@pytest.mark.parametrize("seed", range(20))
def test_band_kron_matches_scipy_sparse(seed):
    # stored zeros and infinite entries included, on factors of two sizes
    rng = np.random.default_rng(seed)
    A, B = (_random_operator(rng, int(rng.integers(2, 12))) for _ in "AB")
    with np.errstate(all="ignore"):
        _assert_same(_band_of(A).kron(_band_of(B)),
                     sp.kron(A, B, format="csr"))
        _assert_same(_band_of(A).kron(_Band.identity(3)),
                     sp.kron(A, sp.identity(3), format="csr"))


def test_band_identity_matches_scipy_sparse():
    _assert_same(_Band.identity(6), sp.identity(6))
    _assert_same(-_Band.identity(6), -sp.identity(6))
