"""The golden ledgers of tests/golden/, recomputed and compared exactly."""

import json

import pytest

from golden import diff_ledger
from golden import make_escalation_values as escalation
from golden import make_identity_residuals as identities
from golden import make_operators
from golden import make_special_values as special
from golden import make_table_values as tables
from golden.make_verify_residuals import CELLS, LEDGER, cell_rows
from qspace3 import qspecial as qs

_DOC = json.loads(LEDGER.read_text(encoding="utf-8"))
_OPS = json.loads(make_operators.LEDGER.read_text(encoding="utf-8"))
_LABELS = json.loads(make_operators.LABELS.read_text(encoding="utf-8"))
_IDS = json.loads(identities.LEDGER.read_text(encoding="utf-8"))
_SPECIAL = json.loads(special.LEDGER.read_text(encoding="utf-8"))
_ESCALATION = json.loads(escalation.LEDGER.read_text(encoding="utf-8"))
_TABLES = json.loads(tables.LEDGER.read_text(encoding="utf-8"))


def test_verify_ledger_covers_its_grid():
    assert [(c["q"], c["W"]) for c in _DOC["cells"]] == CELLS
    assert _DOC["tol"] == 1e-10
    # the q = 50 cell keeps its NaN rows (ROADMAP item 1)
    nan_rows = [r for c in _DOC["cells"] for r in c["rows"]
                if r["max_residual"] == "nan"]
    assert nan_rows and all(not r["pass"] for r in nan_rows)


@pytest.mark.parametrize("cell", _DOC["cells"],
                         ids=lambda c: f"q={c['q']}-W={c['W']}")
def test_verify_residuals_match_the_ledger(cell):
    assert cell_rows(cell["q"], cell["W"]) == cell["rows"]


def test_operator_ledger_covers_its_grid():
    assert [(c["kind"], c["q"], c["W"]) for c in _OPS["cases"]] \
        == make_operators.CASES
    # stored zeros are part of the ledger (T3 is stored where m = 0)
    assert any("0x0.0p+0" in v[3] for c in _OPS["cases"]
               for v in c["operators"].values())


@pytest.mark.parametrize("case", _OPS["cases"],
                         ids=lambda c: f"{c['kind']}-q={c['q']}-W={c['W']}")
def test_operators_match_the_ledger(case):
    got = make_operators.case_entries(case["kind"], case["q"], case["W"])
    assert sorted(got) == sorted(case["operators"])
    for key, entries in case["operators"].items():
        assert got[key] == entries, key


def test_label_ledger_covers_its_grid():
    assert [(c["kind"], c["q"], c["W"]) for c in _LABELS["cases"]] \
        == make_operators.CASES
    # a coproduct of two ladders on one label primes the second factor's
    spin = _LABELS["cases"][-1]["families"]["spin_coproduct"]
    assert sorted(spin["coords"]) == ["m", "m'"]
    assert ["m'", "-0x1.0000000000000p-1", "0x1.0000000000000p-1"] \
        in spin["ranges"]


@pytest.mark.parametrize("case", _LABELS["cases"],
                         ids=lambda c: f"{c['kind']}-q={c['q']}-W={c['W']}")
def test_labels_match_the_ledger(case):
    got = make_operators.case_labels(case["kind"], case["q"], case["W"])
    assert sorted(got) == sorted(case["families"])
    for name, labels in case["families"].items():
        assert got[name] == labels, name


def test_identity_ledger_covers_its_grid():
    assert [c["q"] for c in _IDS["cells"]] == list(identities.QS)
    for cell in _IDS["cells"]:
        assert [tuple(p[:4]) for p in cell["points"]] == identities.GRID
    assert len(identities.GRID) * len(identities.QS) == 2970
    # exact zeros are part of the ledger
    assert any("0x0.0p+0" in p[4:] for c in _IDS["cells"]
               for p in c["points"])


@pytest.mark.parametrize("cell", _IDS["cells"], ids=lambda c: f"q={c['q']}")
def test_identity_residuals_match_the_ledger(cell):
    qs.clear_caches()       # the values must not depend on what ran before
    assert identities.residuals(cell["q"]) == [p[4:] for p in cell["points"]]


def test_special_ledger_covers_its_grid():
    assert [c["q"] for c in _SPECIAL["cells"]] == list(special.QS)
    for cell in _SPECIAL["cells"]:
        assert [tuple(p[:3]) for p in cell["points"]] \
            == [(l, m, float.hex(x)) for l, m, x, _ in special.grid(cell["q"])]
    records = [p[3] for c in _SPECIAL["cells"] for p in c["points"]]
    assert len(records) == 4 * 9 * 6 + 1
    assert sum("check_difference" in r for r in records) == 4 * 9 * 2
    # raised calls are part of the ledger
    assert any("PrecisionError" in v for r in records for v in r["p_tilde"])


@pytest.mark.parametrize("cell", _SPECIAL["cells"],
                         ids=lambda c: f"q={c['q']}")
def test_special_values_match_the_ledger(cell):
    qs.clear_caches()       # the values must not depend on what ran before
    assert special.values(cell["q"]) == cell["points"]


def test_escalation_ledger_covers_its_grid():
    assert [c["q"] for c in _ESCALATION["cells"]] == list(escalation.QS)
    for cell in _ESCALATION["cells"]:
        assert [tuple(p[:3]) for p in cell["points"]] \
            == [(l, m, float.hex(x)) for l, m, x in escalation.grid(cell["q"])]
    # the tie at q = 2: an escalation started at 56 digits in place of 44
    # rounds it to -0x1.f81f81f81f7ffp-43
    (tie,) = [p for c in _ESCALATION["cells"] for p in c["points"]
              if p[0] == 5]
    assert tie[3]["p_lm"] == "-0x1.f81f81f81f800p-43"


@pytest.mark.parametrize("cell", _ESCALATION["cells"],
                         ids=lambda c: f"q={c['q']}")
def test_escalation_values_match_the_ledger(cell):
    qs.clear_caches()       # the values must not depend on what ran before
    assert escalation.values(cell["q"]) == cell["points"]


def test_table_ledger_covers_its_grid():
    assert [c["q"] for c in _TABLES["cells"]] == list(special.QS)
    for cell in _TABLES["cells"]:
        assert [tuple(p[:2]) for p in cell["points"]] \
            == [(m, float.hex(x)) for m, x in tables.grid(cell["q"])]
        for point in cell["points"]:
            assert all(len(col) == 41 or col == "PrecisionError"
                       for col in point[2].values())
    # raised tables are part of the ledger: binary64 off the lattice at
    # q = 3, where the upward recurrence leaves the range
    assert sum("PrecisionError" in p[2].values() for c in _TABLES["cells"]
               for p in c["points"]) == 7
    assert [r[0] for r in _TABLES["reports"]] == tables.REPORTS
    # the benchmark's known transform failures are part of the ledger
    assert [r[1] for r in _TABLES["reports"]].count(2) == 2


@pytest.mark.parametrize("cell", _TABLES["cells"],
                         ids=lambda c: f"q={c['q']}")
def test_table_values_match_the_ledger(cell):
    qs.clear_caches()       # the values must not depend on what ran before
    assert tables.tables(cell["q"]) == cell["points"]


@pytest.mark.parametrize("entry", _TABLES["reports"],
                         ids=lambda r: " ".join(r[0]))
def test_reports_match_the_ledger(entry):
    argv, code, report = entry
    assert tables.report(argv) == [code, report]


def test_ledger_diff_without_a_name_diffs_every_ledger(monkeypatch, capsys):
    # one command covers every ledger, and any changed entry fails it
    changed = {"table_values": [(2.0, [3, 1], "P~_3 double", "0x1p+0",
                                 "0x1p+1")]}
    monkeypatch.setattr(diff_ledger, "changes",
                        lambda name: iter(changed.get(name, ())))
    assert diff_ledger.main([]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == ["table_values", 2.0, [3, 1], "P~_3 double",
                               "0x1p+0", "0x1p+1"]
    assert err.splitlines() == [f"{name}: {int(name in changed)} changed "
                                f"entries" for name in diff_ledger.LEDGERS]
    assert diff_ledger.main(["special_values"]) == 0
    changed.clear()
    assert diff_ledger.main([]) == 0
    with pytest.raises(SystemExit, match="usage"):
        diff_ledger.main(["operators"])


def test_ledger_diff_names_each_entry():
    # a point's value part flattens to one named entry per mode and check
    mpf = [0, "0x1", 0, 1]
    record = {"p_lm": ["0x1.0000000000000p+0", mpf],
              "p_tilde": ["PrecisionError", mpf],
              "check_recurrence": "0x1.0000000000000p-60"}
    assert diff_ledger.entries("special_values", [record]) == {
        "p_lm double": "0x1.0000000000000p+0", "p_lm extended": mpf,
        "p_tilde double": "PrecisionError", "p_tilde extended": mpf,
        "check_recurrence": "0x1.0000000000000p-60"}
    assert diff_ledger.entries("identity_residuals", ["0x1p-90", "0x0p+0"]) \
        == {"check_recurrence": "0x1p-90", "check_difference": "0x0p+0"}
    # a table flattens to one entry per degree and mode
    assert diff_ledger.entries(
        "table_values", [{"double": ["0x1p+0", "0x0p+0"],
                          "extended": "PrecisionError"}]) == {
        "P~_0 double": "0x1p+0", "P~_1 double": "0x0p+0",
        "extended": "PrecisionError"}
    assert diff_ledger._paths({"exit": 0, "report": {"rows": [
        {"defect": "0x1p-60"}]}}) == {"exit": 0,
                                      "report.rows[0].defect": "0x1p-60"}
