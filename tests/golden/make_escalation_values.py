"""Writes tests/golden/escalation_values.json, the golden ledger of the
binary64 escalation at lattice nodes.

The grid is where binary64 `p_lm` loses every digit to cancellation and
escalates: q in {1.2, 1.5, 2, 3}, l in {20, 30, 40}, m in {0, 3} and the
nodes sigma q^(2(n-m-1)) with n in {0, -12} and both signs.  The q = 2
cell also holds (5, 2) at its node 2**-30 (n = -12), where the escalated
sum rounds to binary64 at a tie: the dps the escalation starts at decides
the last bit.  Each point records binary64 `p_lm` and `p_tilde` as
`float.hex`, or the class name of the exception a call raises.
`tests/test_golden.py` recomputes every point and compares exactly.
Regenerate from the repository root with

    PYTHONPATH=src python tests/golden/make_escalation_values.py

Changing the ledger changes a check: list every changed value and its
reason where the change is recorded.
"""

import json
from pathlib import Path

from qspace3 import DomainError, PrecisionError, QContext
from qspace3 import qspecial as qs

LEDGER = Path(__file__).resolve().parent / "escalation_values.json"

QS = (1.2, 1.5, 2.0, 3.0)
LS = (20, 30, 40)
MS = (0, 3)
NS = (0, -12)
FUNCTIONS = ("p_lm", "p_tilde")
TIE = (5, 2, 2.0**-30)      # at q = 2


def grid(q):
    """(l, m, x) at every point of the cell of q."""
    cell = [(l, m, qs._lattice_point(n, m, sigma, q))
            for l in LS for m in MS for n in NS for sigma in (1, -1)]
    if q == 2.0:
        cell.append(TIE)
    return cell


def encode(call):
    """call() as float.hex, or the class name of the exception it raises."""
    try:
        return float.hex(call())
    except (DomainError, PrecisionError) as exc:
        return type(exc).__name__


def values(q):
    """One record per grid point of q: [l, m, x hex, {name: value}]."""
    ctx = QContext(q=q)
    return [[l, m, float.hex(x),
             {name: encode(lambda: getattr(qs, name)(l, m, x, ctx))
              for name in FUNCTIONS}]
            for l, m, x in grid(q)]


def main():
    # one grid point per line
    cells = []
    for q in QS:
        rows = ",\n".join(json.dumps(r) for r in values(q))
        cells.append(f'{{"q": {q!r}, "points": [\n{rows}]}}')
    LEDGER.write_text('{"cells": [\n' + ",\n".join(cells) + "]}\n",
                      encoding="utf-8")


if __name__ == "__main__":
    main()
