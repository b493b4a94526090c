"""The traced memory of each `special` benchmark session.

    python3 tools/session_memory.py --seed 1 --top 8

Each session of the seeded `special` op list (one q, its three library jobs
in order) runs in a process forked from this one after qspace3 is imported,
so it starts with empty caches, as in `perfbench/run.py`.  The child traces
its allocations with tracemalloc and prints one JSON line: the session's q,
its traced peak and its traced size at the end, in MiB, and the qspace3
functions that hold the most of the end state, each allocation charged to
the innermost qspace3 frame of its traceback.  Standard library only, apart
from qspace3 and the benchmark's own modules.
"""

import argparse
import ast
import json
import os
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import jobs  # noqa: E402
import qspace3  # noqa: E402
import workloads  # noqa: E402

MIB = 1024.0 * 1024.0


def _function_lines():
    """{(file, line): "module.function"} over the qspace3 sources."""
    names = {}
    for path in Path(qspace3.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for line in range(node.lineno, node.end_lineno + 1):
                    # an inner function's lines overwrite its parent's
                    names[str(path), line] = f"{path.stem}.{node.name}"
    return names


def _holders(snapshot, names, top):
    """The top functions by bytes held in the snapshot, in MiB."""
    held = Counter()
    for stat in snapshot.statistics("traceback"):
        owner = "(outside qspace3)"
        for frame in reversed(stat.traceback):      # innermost first
            key = (frame.filename, frame.lineno)
            if key in names:
                owner = names[key]
                break
        held[owner] += stat.size
    return [[name, round(size / MIB, 3)] for name, size in
            held.most_common(top)]


def _session(session, names, top):
    """Run one session traced and print its JSON line."""
    tracemalloc.start(16)
    for op in session["ops"]:
        job = op["job"]
        jobs.JOBS[job["job"]](job)
    current, peak = tracemalloc.get_traced_memory()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    print(json.dumps({"q": session["ops"][0]["job"]["q"],
                      "peak_mib": round(peak / MIB, 3),
                      "end_mib": round(current / MIB, 3),
                      "held_at_end": _holders(snapshot, names, top)}),
          flush=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--top", type=int, default=8,
                   help="how many holding functions to print")
    args = p.parse_args(argv)
    names = _function_lines()
    for session in workloads.make_ops("special", args.seed):
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                _session(session, names, args.top)
                code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        if status:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
