"""Writes tests/golden/table_values.json, the golden ledger of the
recurrence tables and of the reports that read them.

Tables: `p_tilde_table(40, m, x)` in both precision modes at every lattice
node and off-lattice point of the `special_values.json` grid (each order m
of that grid once; the q = 2 point of order 60 has no degree <= 40).  A
binary64 entry is its `float.hex`, a multiprecision one its exact `_mpf_`
(sign, mantissa in hex, exponent, bit count).

Reports: the `ortho`, `complete` and `transform` reports (both directions)
at their defaults, `ortho` at m = 1 (lspan 5) and m = 3, `complete` at
m = 2 and -2, `transform --direction 2` at q = 3, the six `transform`
configurations of the benchmark's seed-1 op list, and `ortho --lspan 3`
and `complete` at m = 0 in the extended mode, each run in-process from cold
caches.  A report's argv may start with NAME=value words, as on a shell
command line: the run sees those environment variables, and the
environment is restored after it.  A report is its exit code and its
parsed JSON with every float as `float.hex`.  The transform's Gram and congruence
defects go through numpy matmul; the BLAS build and the core count the
ledger was written with are recorded under "blas".

`tests/test_golden.py` recomputes every entry and compares exactly.
Regenerate from the repository root with

    PYTHONPATH=src python tests/golden/make_table_values.py

Changing the ledger changes a check: list every changed value and its
reason where the change is recorded.
"""

import contextlib
import io
import itertools
import json
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from golden import make_special_values as special  # noqa: E402
from qspace3 import DomainError, PrecisionError, QContext, cli  # noqa: E402
from qspace3 import qspecial as qs  # noqa: E402

LEDGER = Path(__file__).resolve().parent / "table_values.json"

L_MAX = 40
MS = sorted({m for _, m in special.LM})
EXTENDED = "QSPACE3_PRECISION=extended"
REPORTS = [
    ["ortho", "--m", "0"],
    ["ortho", "--m", "1", "--lspan", "5"],
    ["ortho", "--m", "3"],
    ["complete", "--m", "0"],
    ["complete", "--m", "2"],
    ["complete", "--m", "-2"],
    ["transform", "--direction", "1", "--m", "0"],
    ["transform", "--direction", "2", "--m", "0"],
    ["transform", "--direction", "2", "--q", "3", "--m", "0"],
    ["transform", "--direction", "1", "--q", "2.0", "--m", "3",
     "--lmax", "20"],
    ["transform", "--direction", "1", "--q", "1.2", "--m", "-2",
     "--lmax", "60"],
    ["transform", "--direction", "1", "--q", "1.2", "--m", "-1",
     "--lmax", "20"],
    ["transform", "--direction", "1", "--q", "1.5", "--m", "1",
     "--lmax", "40"],
    ["transform", "--direction", "1", "--q", "2.0", "--m", "0",
     "--lmax", "60"],
    ["transform", "--direction", "1", "--q", "1.1", "--m", "-2",
     "--lmax", "40"],
    [EXTENDED, "ortho", "--m", "0", "--lspan", "3"],
    [EXTENDED, "complete", "--m", "0"],
]


def grid(q):
    """(m, x) at every table point of the cell of q."""
    return [(m, x) for m in MS for x in special.points(m, q)]


def _entries(m, x, ctx):
    """The encoded entries of the table, or the class name of the
    exception it raises."""
    try:
        table = qs.p_tilde_table(L_MAX, m, x, ctx)
    except (DomainError, PrecisionError) as exc:
        return type(exc).__name__
    return [special.encode(lambda v=v: v) for v in table]


def tables(q):
    """One record per table point of q: [m, x hex, {mode: entries}]."""
    modes = {"double": QContext(q=q),
             "extended": QContext(q=q, precision="extended")}
    return [[m, float.hex(x),
             {mode: _entries(m, x, ctx) for mode, ctx in modes.items()}]
            for m, x in grid(q)]


def _hex_floats(v):
    """v with every float replaced by its float.hex."""
    if isinstance(v, float):
        return float.hex(v)
    if isinstance(v, dict):
        return {k: _hex_floats(w) for k, w in v.items()}
    if isinstance(v, list):
        return [_hex_floats(w) for w in v]
    return v


def report(argv):
    """[exit code, parsed report] of the CLI command argv, from cold
    caches; its leading NAME=value words set environment variables for the
    run."""
    env = dict(w.split("=", 1) for w in itertools.takewhile(
        lambda w: "=" in w, argv))
    qs.clear_caches()
    out = io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out):
        code = cli.main(argv[len(env):])
    return [code, _hex_floats(json.loads(out.getvalue()))]


def blas():
    """The BLAS build numpy links and the core count."""
    lib = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": lib["name"], "version": lib["version"],
            "cpu_count": os.cpu_count()}


def main():
    # one table point and one report per line
    cells = []
    for q in special.QS:
        rows = ",\n".join(json.dumps(r) for r in tables(q))
        cells.append(f'{{"q": {q!r}, "points": [\n{rows}]}}')
    reports = ",\n".join(json.dumps([argv, *report(argv)])
                         for argv in REPORTS)
    LEDGER.write_text(
        f'{{"blas": {json.dumps(blas())},\n"cells": [\n'
        + ",\n".join(cells) + f'],\n"reports": [\n{reports}]}}\n',
        encoding="utf-8")


if __name__ == "__main__":
    main()
