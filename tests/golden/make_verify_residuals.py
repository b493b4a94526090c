"""Writes tests/golden/verify_residuals.json, the golden ledger of the
relation suite.

Each cell runs every relation group on the default families at window W
(depth = kwidth = W) and deformation q, and records per row the relation,
the family, the interior state count, the pass flag and `max_residual` as
`float.hex` (so NaN rows and the last bit are kept).  The values go through
no BLAS call.  `tests/test_golden.py` recomputes every cell and compares
exactly.  Regenerate from the repository root with

    PYTHONPATH=src python tests/golden/make_verify_residuals.py

Changing the ledger changes a check: list every changed value and its
reason where the change is recorded.
"""

import json
from pathlib import Path

from qspace3 import QContext
from qspace3.relations import default_families, verify_relations

LEDGER = Path(__file__).resolve().parent / "verify_residuals.json"

# (q, W): the 3 x 2 grid, the q = 50 cell whose report holds NaN rows, a
# near-classical cell, and the benchmark's verify windows 120 and 240 (its
# q = 2, W = 240 report holds NaN rows too)
CELLS = ([(q, w) for w in (12, 40) for q in (1.2, 1.5, 2.0)]
         + [(50.0, 40), (1.000001, 16)]
         + [(q, w) for w in (120, 240) for q in (1.2, 1.5, 2.0)])


def cell_rows(q, w):
    """The ledger rows of one cell."""
    ctx = QContext(q=q)
    rep = verify_relations(default_families(ctx, n_depth=w, k_width=w),
                           "all", ctx)
    return [{"relation": r["relation"], "family": r["family"],
             "interior_states": r["interior_states"], "pass": r["pass"],
             "max_residual": float.hex(r["max_residual"])}
            for r in rep.records]


def main():
    doc = {"tol": QContext(q=2.0).tol_rel,
           "cells": [{"q": q, "W": w, "rows": cell_rows(q, w)}
                     for q, w in CELLS]}
    LEDGER.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
