"""Writes tests/golden/operators.json, the golden ledger of the operator
builders.

Each case builds one family (or one derived operator set) and records, per
operator, every stored entry as (row, column, `float.hex` of the value),
stored zeros included, in row-major order.  The grid:

- the four default verification families (joint, t, X/R, K) at window
  W in {6, 12} and q in {1.2, 2.0}, with `casimir` and `build_L_operators`
  of the joint family;
- `build_L_basis(0, 1.5, 6)` at q in {1.2, 2.0};
- the finite `build_T_generic` ladder with m_bar = 1, `build_T_orb` on the
  (8, 8) window and the beta coproduct of the t and K ladders, at q = 1.5.

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

CASES = ([("families", q, w) for w in (6, 12) for q in (1.2, 2.0)]
         + [("L_basis", q, 6) for q in (1.2, 2.0)]
         + [("T_generic", 1.5, 1), ("T_orb", 1.5, 8), ("coproduct", 1.5, 6)])


def _families(ctx, w):
    suite = default_families(ctx, n_depth=w, k_width=w)
    joint = suite.joint()
    return {"joint": {**joint.operators, "T2": rs.casimir(joint, ctx),
                      **rs.build_L_operators(joint, ctx)},
            "t": suite.t_special().operators,
            "xr": suite.x_over_r().operators,
            "k": suite.k_orbital().operators}


def _build(kind, ctx, w):
    """{family name: {operator key: LabeledOperator}} of one case."""
    if kind == "families":
        return _families(ctx, w)
    if kind == "L_basis":
        return {"L_basis": rs.build_L_basis(0, 1.5, w, ctx).operators}
    if kind == "T_generic":
        return {"T_generic": rs.build_T_generic(1 / ctx.lam, w, None,
                                                ctx).operators}
    if kind == "T_orb":
        win = RepWindow.make({"m_t": (-w, 0), "m_k": (0, w)})
        return {"T_orb": rs.build_T_orb(win, ctx).operators}
    t = rs.build_t_special(RepWindow.make({"m_t": (-w, 0)}), ctx)
    k = rs.build_K_orbital(RepWindow.make({"m_k": (0, w)}), ctx)
    return {"coproduct": rs.coproduct(t, k, "beta", ctx).operators}


def case_entries(kind, q, w):
    """{"family/key": [n, rows, cols, hex values]} of one case."""
    out = {}
    for fam, ops in _build(kind, QContext(q=q), w).items():
        for key, op in sorted(ops.items()):
            items = sorted(op.entries.items())
            out[f"{fam}/{key}"] = [op.n, [i for (i, _), _ in items],
                                   [j for (_, j), _ in items],
                                   [float.hex(v) for _, v in items]]
    return out


def main():
    doc = {"cases": [{"kind": kind, "q": q, "W": w,
                      "operators": case_entries(kind, q, w)}
                     for kind, q, w in CASES]}
    LEDGER.write_text(json.dumps(doc, separators=(",", ":")) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    main()
