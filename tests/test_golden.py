"""The golden ledgers of tests/golden/, recomputed and compared exactly."""

import json

import pytest

from golden.make_verify_residuals import CELLS, LEDGER, cell_rows

_DOC = json.loads(LEDGER.read_text(encoding="utf-8"))


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
