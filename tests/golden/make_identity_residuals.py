"""Writes tests/golden/identity_residuals.json, the golden ledger of the
criterion-2 identity checks.

The grid is criterion 2's: q in {1.1, 1.5, 2}, every (l, m) with
m <= l <= 8, the lattice nodes n = -10..0 of both signs, visited in the
acceptance test's order.  Each point records `check_recurrence` and
`check_difference` as `float.hex`, so the last bit is kept.  The checks
run in multiprecision and go through no BLAS call.  `tests/test_golden.py`
recomputes every point and compares exactly.  Regenerate from the
repository root with

    PYTHONPATH=src python tests/golden/make_identity_residuals.py

Changing the ledger changes a check: list every changed value and its
reason where the change is recorded.
"""

import json
from pathlib import Path

from qspace3 import QContext
from qspace3 import qspecial as qs

LEDGER = Path(__file__).resolve().parent / "identity_residuals.json"

QS = (1.1, 1.5, 2.0)
GRID = [(l, m, n, sigma) for l in range(9) for m in range(l + 1)
        for n in range(-10, 1) for sigma in (1, -1)]


def residuals(q):
    """[recurrence, difference] as float.hex at every grid point of q."""
    ctx = QContext(q=q)
    rows = []
    for l, m, n, sigma in GRID:
        x = sigma * q**(2 * (n - m - 1))
        rows.append([float.hex(qs.check_recurrence(l, m, x, ctx)),
                     float.hex(qs.check_difference(l, m, x, ctx))])
    return rows


def points(q):
    """The ledger's points of q: [l, m, n, sigma, recurrence, difference]."""
    return [list(p) + r for p, r in zip(GRID, residuals(q))]


def main():
    # one grid point per line
    cells = []
    for q in QS:
        rows = ",\n".join(json.dumps(p) for p in points(q))
        cells.append(f'{{"q": {q!r}, "points": [\n{rows}]}}')
    LEDGER.write_text('{"cells": [\n' + ",\n".join(cells) + "]}\n",
                      encoding="utf-8")


if __name__ == "__main__":
    main()
