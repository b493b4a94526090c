"""Compares regenerated golden ledgers with the committed files and prints
each changed entry: the ledger, the grid point, the entry's name, the old
value and the new one, one per line, then a count per ledger.

    PYTHONPATH=src python tests/golden/diff_ledger.py
    PYTHONPATH=src python tests/golden/diff_ledger.py special_values

With no argument it diffs every ledger of LEDGERS (special_values,
escalation_values, identity_residuals, table_values), so one command shows
whether a change keeps them all bit for bit; with a name, that ledger only.
Each ledger is recomputed in memory by its make_*.py module; no file is
written.  Exit status 1 when an entry changed, 0 when none did.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from golden import make_escalation_values as escalation  # noqa: E402
from golden import make_identity_residuals as identities  # noqa: E402
from golden import make_special_values as special  # noqa: E402
from golden import make_table_values as tables  # noqa: E402

# name -> (maker, the points of the cell of q, width of a point's grid part)
LEDGERS = {
    "special_values": (special, special.values, 3),
    "escalation_values": (escalation, escalation.values, 3),
    "identity_residuals": (identities, identities.points, 4),
    "table_values": (tables, tables.tables, 2),
}
# the names of a point's values where the ledger stores them as a list
_LIST_NAMES = {"identity_residuals": ("check_recurrence", "check_difference")}
_MODES = ("double", "extended")


def entries(name, values):
    """{entry name: value} of one point's value part."""
    if name in _LIST_NAMES:
        return dict(zip(_LIST_NAMES[name], values))
    (record,) = values
    flat = {}
    if name == "table_values":      # {mode: entries, or an exception name}
        for mode, col in record.items():
            if isinstance(col, str):
                flat[mode] = col
            else:
                flat.update({f"P~_{l} {mode}": v for l, v in enumerate(col)})
        return flat
    for key, v in record.items():
        if isinstance(v, list) and len(v) == 2 and not isinstance(v[0], int):
            flat.update({f"{key} {mode}": w for mode, w in zip(_MODES, v)})
        else:
            flat[key] = v
    return flat


def changes(name):
    """(q, grid point, entry name, old, new) of every changed entry; for
    a report, ("report", its argv, the entry's path, old, new)."""
    maker, regenerate, width = LEDGERS[name]
    doc = json.loads(maker.LEDGER.read_text(encoding="utf-8"))
    for cell in doc["cells"]:
        q = cell["q"]
        for old, new in zip(cell["points"], regenerate(q), strict=True):
            assert old[:width] == new[:width], (old[:width], new[:width])
            was = entries(name, old[width:])
            now = entries(name, new[width:])
            for key in sorted(was.keys() | now.keys()):
                if was.get(key) != now.get(key):
                    yield q, old[:width], key, was.get(key), now.get(key)
    for argv, *old in doc.get("reports", ()):
        was, now = (_paths(dict(zip(("exit", "report"), r)))
                    for r in (old, maker.report(argv)))
        for key in sorted(was.keys() | now.keys()):
            if was.get(key) != now.get(key):
                yield "report", argv, key, was.get(key), now.get(key)


def _paths(v, prefix=""):
    """{path: leaf} of a parsed report, paths like report.rows[3].defect."""
    if isinstance(v, dict):
        items = ((f"{prefix}.{k}" if prefix else k, w) for k, w in v.items())
    elif isinstance(v, list):
        items = ((f"{prefix}[{i}]", w) for i, w in enumerate(v))
    else:
        return {prefix: v}
    return {p: leaf for k, w in items for p, leaf in _paths(w, k).items()}


def main(argv):
    if len(argv) > 1 or not set(argv) <= LEDGERS.keys():
        sys.exit(f"usage: diff_ledger.py [{{{','.join(LEDGERS)}}}]")
    total = 0
    for name in argv or LEDGERS:
        count = 0
        for q, point, key, old, new in changes(name):
            count += 1
            print(json.dumps([name, q, point, key, old, new]))
        print(f"{name}: {count} changed entries", file=sys.stderr)
        total += count
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
