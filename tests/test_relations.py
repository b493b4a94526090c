import json
import math

import pytest

from qspace3 import DomainError, QContext, WindowError
from qspace3.relations import (commutator_magnitude, default_families,
                               verify_relations, RELATION_GROUPS,
                               VerificationReport)


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


def test_max_residual_propagates_nan():
    rep = VerificationReport(q=2.0, tol=1e-10)
    rep.add("a", "joint", {}, 1e-16, 4)
    rep.add("b", "joint", {}, math.nan, 4)
    rep.add("c", "joint", {}, 3e-16, 4)
    assert math.isnan(rep.max_residual)
    assert not rep.passed
    assert [r["pass"] for r in rep.records] == [True, False, True]
    assert VerificationReport(q=2.0, tol=1e-10).max_residual == 0.0
