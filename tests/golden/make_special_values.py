"""Writes tests/golden/special_values.json, the golden ledger of the
special functions at a point.

The grid is the one the inline-sum references of test_qspecial.py cover:
q in {1.1, 1.5, 2, 3} and nine (l, m) up to (40, 2), each at two lattice
nodes of each sign and two points between the nodes; the q = 2 cell also
holds (60, 60) at its node 2**-122.  Each point records `p_lm`, `p_tilde`
and `weight_w` in both precision modes, and each off-lattice point also
records `check_recurrence` and `check_difference`.  A binary64 value is
its `float.hex`, a multiprecision one its exact `_mpf_` (sign, mantissa in
hex, exponent, bit count), so the last bit is kept; a call that raises
records its exception class name.  Tables are left out.  Nothing here goes
through a BLAS call.  `tests/test_golden.py` recomputes every point and
compares exactly.  Regenerate from the repository root with

    PYTHONPATH=src python tests/golden/make_special_values.py

Changing the ledger changes a check: list every changed value and its
reason where the change is recorded.
"""

import json
from pathlib import Path

import mpmath as mp

from qspace3 import DomainError, PrecisionError, QContext
from qspace3 import qspecial as qs

LEDGER = Path(__file__).resolve().parent / "special_values.json"

QS = (1.1, 1.5, 2.0, 3.0)
LM = [(0, 0), (1, 0), (4, 0), (4, 2), (9, 1), (9, 5), (17, 3), (28, 0),
      (40, 2)]
FUNCTIONS = ("p_lm", "p_tilde", "weight_w")
CHECKS = ("check_recurrence", "check_difference")


def points(m, q):
    """Two lattice nodes of each sign, then two points between the nodes,
    inside |x| < q^(-2(m+1)) so that x q^2 stays on the support."""
    nodes = [sigma * q**(2 * (n - m - 1)) for n in (0, -3)
             for sigma in (1, -1)]
    return nodes + [u * q**(-2 * (m + 1)) for u in (0.37, -0.81)]


def grid(q):
    """(l, m, x, on the lattice) at every point of the cell of q."""
    cell = [(l, m, x, i < 4) for l, m in LM
            for i, x in enumerate(points(m, q))]
    if q == 2.0:
        cell.append((60, 60, 2.0**-122, True))
    return cell


def encode(call):
    """call() as float.hex, as [sign, mantissa hex, exponent, bit count]
    for an mpf, or as the class name of the exception it raises."""
    try:
        v = call()
    except (DomainError, PrecisionError) as exc:
        return type(exc).__name__
    if isinstance(v, mp.mpf):
        sign, man, exp, bc = v._mpf_
        return [sign, hex(man), exp, bc]
    return float.hex(v)


def values(q):
    """One record per grid point of q: [l, m, x hex, {name: value}]."""
    modes = (QContext(q=q), QContext(q=q, precision="extended"))
    rows = []
    for l, m, x, on_lattice in grid(q):
        rec = {name: [encode(lambda: getattr(qs, name)(l, m, x, ctx))
                      for ctx in modes] for name in FUNCTIONS}
        if not on_lattice:
            rec.update({name: encode(lambda: getattr(qs, name)(
                l, m, x, modes[0])) for name in CHECKS})
        rows.append([l, m, float.hex(x), rec])
    return rows


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
