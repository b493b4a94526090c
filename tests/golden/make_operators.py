"""Writes tests/golden/operators.json and tests/golden/labels.json, the
golden ledgers of the operator builders.

Each case builds one or more families.  operators.json records, per
operator (derived operators included), every stored entry as (row, column,
`float.hex` of the value), stored zeros included, in row-major order.
labels.json records, per family, its label arrays (`Coords`), its window
ranges and hard edges, and its interior mask.  The grid:

- the four default verification families (joint, t, X/R, K) at window
  W in {6, 12} and q in {1.2, 2.0}, with `casimir` and `build_L_operators`
  of the joint family;
- `build_L_basis(0, 1.5, 6)` at q in {1.2, 2.0};
- the finite `build_T_generic` ladder with m_bar = 1, `build_T_orb` on the
  (8, 8) window, and the beta coproduct of the t and K ladders with the
  standard coproduct of the spin-1 and spin-1/2 ladders (whose second
  label is primed, m'), at q = 1.5.

No value goes through BLAS.  `tests/test_golden.py` rebuilds every case and
compares exactly.  Regenerate from the repository root with

    PYTHONPATH=src python tests/golden/make_operators.py

Changing the ledger changes a check: list every changed value and its
reason where the change is recorded.
"""

import json
from pathlib import Path

from qspace3 import QContext
from qspace3.operators import RepWindow
from qspace3.relations import default_families
from qspace3 import repspace as rs

LEDGER = Path(__file__).resolve().parent / "operators.json"
LABELS = LEDGER.with_name("labels.json")

CASES = ([("families", q, w) for w in (6, 12) for q in (1.2, 2.0)]
         + [("L_basis", q, 6) for q in (1.2, 2.0)]
         + [("T_generic", 1.5, 1), ("T_orb", 1.5, 8), ("coproduct", 1.5, 6)])


def _families(kind, ctx, w):
    """{family name: RepFamily} of one case."""
    if kind == "families":
        suite = default_families(ctx, n_depth=w, k_width=w)
        return {"joint": suite.joint(), "t": suite.t_special(),
                "xr": suite.x_over_r(), "k": suite.k_orbital()}
    if kind == "L_basis":
        return {"L_basis": rs.build_L_basis(0, 1.5, w, ctx)}
    if kind == "T_generic":
        return {"T_generic": rs.build_T_generic(1 / ctx.lam, w, None, ctx)}
    if kind == "T_orb":
        win = RepWindow.make({"m_t": (-w, 0), "m_k": (0, w)})
        return {"T_orb": rs.build_T_orb(win, ctx)}
    t = rs.build_t_special(RepWindow.make({"m_t": (-w, 0)}), ctx)
    k = rs.build_K_orbital(RepWindow.make({"m_k": (0, w)}), ctx)
    one, half = (rs.build_T_generic(1 / ctx.lam, s, None, ctx)
                 for s in (1, 0.5))
    return {"coproduct": rs.coproduct(t, k, "beta", ctx),
            "spin_coproduct": rs.coproduct(one, half, "standard", ctx)}


def _operators(name, fam, ctx):
    """{operator key: LabeledOperator} of one family; the joint family's
    with its Casimir and L operators."""
    if name != "joint":
        return fam.operators
    return {**fam.operators, "T2": rs.casimir(fam, ctx),
            **rs.build_L_operators(fam, ctx)}


def case_entries(kind, q, w):
    """{"family/key": [n, rows, cols, hex values]} of one case."""
    ctx = QContext(q=q)
    out = {}
    for fam, family in _families(kind, ctx, w).items():
        for key, op in sorted(_operators(fam, family, ctx).items()):
            items = sorted(op.entries.items())
            out[f"{fam}/{key}"] = [op.n, [i for (i, _), _ in items],
                                   [j for (_, j), _ in items],
                                   [float.hex(v) for _, v in items]]
    return out


def _exact(v):
    """A JSON value that tells an int from a float, floats as float.hex."""
    return float.hex(v) if isinstance(v, float) else int(v)


def case_labels(kind, q, w):
    """{family: {"coords", "ranges", "hard_lo", "hard_hi", "interior"}} of
    one case: each label array as [dtype, exact values], the window ranges
    as [name, lo, hi], the hard edges sorted and the interior mask as a
    string of 0s and 1s."""
    ctx = QContext(q=q)
    out = {}
    for name, fam in _families(kind, ctx, w).items():
        win = fam.window
        out[name] = {
            "coords": {k: [str(a.dtype), [_exact(x) for x in a.tolist()]]
                       for k, a in sorted(fam.coords.arrays.items())},
            "ranges": [[k, _exact(lo), _exact(hi)]
                       for k, (lo, hi) in win.ranges],
            "hard_lo": sorted(win.hard_lo),
            "hard_hi": sorted(win.hard_hi),
            "interior": "".join("01"[b] for b in fam.interior.tolist())}
    return out


def main():
    for path, field, read in ((LEDGER, "operators", case_entries),
                              (LABELS, "families", case_labels)):
        doc = {"cases": [{"kind": kind, "q": q, "W": w,
                          field: read(kind, q, w)}
                         for kind, q, w in CASES]}
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    main()
