"""qspace3 benchmark: cold `verify` and `transform` CLI runs and a warm
library `special` session, timed end to end or per layer.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

The program is imported from the `src` directory beside this one, so the
benchmark measures the checkout it sits in.  The seed fixes every input.  One
closed-loop client runs one op at a time; each session of ops runs in a
process forked from this one after it has imported qspace3 and computed
nothing.  Ops are repeated in order until --seconds have passed (the whole op
list at least once); the set-up probes run between sessions, spread over the
run.  `attempted` counts the ops of the seeded list once each, and `failed`
those with a failed execution, so both depend on the seed alone.

Standard output is a readable table followed, on its last line, by one JSON
object with the keys correct, attempted, failed and metrics.  --trace 0 gives
the end-to-end metrics; --trace 1 gives the per-layer metrics, from
alternating untraced and traced passes.  Each run also writes
perfbench/out/run-<workload>-<seed>-<trace>.json with the machine facts and
every op's outcome, report digest and key numbers (traced runs add a spans
file).  See perfbench/README.md.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

HARD_LIMIT_S = 165.0       # every run must end within 180 s
SETUP_PROBES = 5
E2E_METRICS = (("wall_s", "s"), ("op_p50_s", "s"), ("setup_s", "s"),
               ("peak_rss_mb", "MiB"))
# a fresh interpreter imports qspace3.cli and generates the inputs
SETUP_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; "
               "import qspace3.cli, workloads; "
               "workloads.make_ops(sys.argv[3], int(sys.argv[4]))")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count of every OpenBLAS the process has loaded."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                found[os.path.basename(path)] = fn()
                break
    return found


def _calibrate(reps=9):
    """A fixed pure-Python loop: how fast this host runs the interpreter
    right now."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        s = 0
        for i in range(200_000):
            s += i * i % 7
        times.append(time.perf_counter() - t0)
    q1, med, q3 = statistics.quantiles(times, n=4)
    return {"loop_s": med, "iqr_share": (q3 - q1) / med}


def machine_facts():
    import mpmath
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "loadavg": list(os.getloadavg()),
        "calibration": _calibrate(),
    }


def code_fingerprint():
    """Digest of the program and benchmark sources: the report digests of
    earlier runs are comparable only under the same fingerprint."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# set-up probes
# ---------------------------------------------------------------------------

def setup_probe(workload, seed, importtime):
    """Seconds for a fresh interpreter to import qspace3.cli and generate
    the inputs, and (with importtime) the import self time per package."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) \
        + ["-c", SETUP_PROBE, str(SRC), str(BENCH), workload, str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                          check=True)
    elapsed = time.perf_counter() - t0
    per_pkg = Counter()
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            try:
                self_us = int(parts[0].split(":")[1])
            except ValueError:
                continue           # the header line
            pkg = parts[2].strip().split(".")[0]
            if pkg in layers.IMPORT_PACKAGES:
                per_pkg[pkg] += self_us / 1e6
    return elapsed, per_pkg


class SetupProbes:
    """SETUP_PROBES set-up probes spread evenly over the run, between
    sessions, so that their median does not hang on the host's speed at one
    moment.  Probe k runs at the first session boundary after k/SETUP_PROBES
    of --seconds has passed; probes still owed at the end run then."""

    def __init__(self, workload, seed, importtime, seconds):
        self.args = (workload, seed, importtime)
        self.seconds = seconds
        self.t0 = time.monotonic()
        self.results = []

    def due(self):
        k = len(self.results)
        if k < SETUP_PROBES and \
                time.monotonic() - self.t0 >= k * self.seconds / SETUP_PROBES:
            self.results.append(setup_probe(*self.args))

    def finish(self):
        while len(self.results) < SETUP_PROBES:
            self.results.append(setup_probe(*self.args))
        return self.results


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

class Run:
    """Outcomes and timings of every op execution in one run."""

    def __init__(self, session_mod, stored_digests, deadline):
        self.session_mod = session_mod
        self.stored = stored_digests
        self.deadline = deadline
        self.ops = {}
        self.executions = 0
        self.correct = True
        self.problems = []
        self.peak_rss_mb = 0.0

    def run_session(self, session, traced):
        results, summary, peak = self.session_mod.run(session, traced,
                                                      self.deadline)
        if not traced:
            self.peak_rss_mb = max(self.peak_rss_mb, peak)
        for res in results:
            self._record(session["kind"], res, traced)
        return summary

    def _record(self, kind, res, traced):
        passed, reason, numbers, digest = self.session_mod.gate(kind, res)
        op = self.ops.setdefault(res["key"], {
            "kind": kind, "latency_s": {"untraced": [], "traced": []},
            "digest": digest, "outcomes": Counter(), "reason": "",
            "numbers": numbers})
        if not passed and kind == "cli" and res.get("code") == 0:
            # the program claimed success for output the gate rejects
            self.correct = False
            self.problems.append(f"{res['key']}: exit 0 but {reason}")
        if digest is not None:
            if op["digest"] is None:
                op["digest"] = digest
            expected = self.stored.get(res["key"], op["digest"])
            if digest != op["digest"] or digest != expected:
                passed, reason = False, "report differs between executions"
                self.correct = False
                self.problems.append(f"{res['key']}: {reason}")
        op["latency_s"]["traced" if traced else "untraced"].append(
            res["latency_s"])
        op["outcomes"]["pass" if passed else "fail"] += 1
        if not passed:
            op["reason"] = reason
        self.executions += 1

    @property
    def attempted(self):
        """Ops of the seeded list: an op repeated for timing is attempted
        once, so the count depends on the seed alone, not on the host's
        speed."""
        return len(self.ops)

    @property
    def failed(self):
        """Ops of the list with any failed execution."""
        return sum(bool(op["outcomes"]["fail"]) for op in self.ops.values())

    def op_medians(self, mode):
        """Each op's median latency, once per op of the list, so the ops that
        a partial last pass repeats weigh no more than the others."""
        return [statistics.median(op["latency_s"][mode])
                for op in self.ops.values() if op["latency_s"][mode]]

    def wall_s(self, mode):
        """Time to complete the op list once: the sum over its ops of each
        op's median latency."""
        return sum(self.op_medians(mode))

    def latencies(self, mode):
        return [t for op in self.ops.values() for t in op["latency_s"][mode]]


def measure_untraced(run, sessions, seconds, probes):
    """Cycle through the op list, whole at least once, while --seconds
    allow the next session by its last duration."""
    t0 = time.monotonic()
    last = {}
    i = 0
    while True:
        idx = i % len(sessions)
        probes.due()
        if i >= len(sessions) and time.monotonic() - t0 + last[idx] > seconds:
            return i // len(sessions)
        ts = time.monotonic()
        run.run_session(sessions[idx], traced=False)
        last[idx] = time.monotonic() - ts
        i += 1


def measure_traced(run, sessions, seconds, probes):
    """Alternate an untraced and a traced pass, at least one pair; return
    the merged layer summary of each traced pass."""
    t0 = time.monotonic()
    passes = []
    while True:
        ts = time.monotonic()
        for s in sessions:
            probes.due()
            run.run_session(s, traced=False)
        summaries = []
        for s in sessions:
            probes.due()
            summaries.append(run.run_session(s, traced=True))
        passes.append(summaries)
        now = time.monotonic()
        if now - t0 + (now - ts) > seconds:
            return [layers.merge(p) for p in passes], passes[0]


def layer_metrics(run, merged_passes, probes):
    per_pass = [layers.layer_values(m) for m in merged_passes]
    values = {}
    for name, unit, _ in layers.LAYER_METRICS:
        if name.startswith("import."):
            pkg = name.split(".")[1]
            values[name] = statistics.median(p[1][pkg] for p in probes)
        elif name == "trace.overhead_s":
            values[name] = run.wall_s("traced") - run.wall_s("untraced")
        elif unit == "s":
            values[name] = statistics.median(p[name] for p in per_pass)
        else:
            seen = {p[name] for p in per_pass}
            if len(seen) > 1:
                run.correct = False
                run.problems.append(f"{name} differs between traced passes: "
                                    f"{sorted(seen)}")
            values[name] = per_pass[0][name]
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in layers.LAYER_METRICS}


def e2e_metrics(run, probes):
    values = {"wall_s": run.wall_s("untraced"),
              "op_p50_s": statistics.median(run.op_medians("untraced")),
              "setup_s": statistics.median(p[0] for p in probes),
              "peak_rss_mb": run.peak_rss_mb}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in E2E_METRICS}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def print_table(args, facts, run, metrics, passes):
    print(f"qspace3 benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {args.seconds:g} s")
    cal = facts["calibration"]
    print(f"machine: Python {facts['python']}, numpy {facts['numpy']}, "
          f"scipy {facts['scipy']}, mpmath {facts['mpmath']} (backend "
          f"{facts['mpmath_backend']}), nproc {facts['nproc']}, BLAS threads "
          f"{facts['blas_threads']}, calibration loop {cal['loop_s']:.4f} s "
          f"(IQR {100 * cal['iqr_share']:.1f}% of median)")
    for key, op in run.ops.items():
        lat = op["latency_s"]["untraced"] or op["latency_s"]["traced"]
        outcome = "pass" if not op["outcomes"]["fail"] else \
            f"FAIL x{op['outcomes']['fail']} ({op['reason']})"
        nums = " ".join(f"{k}={_fmt(v)}" for k, v in op["numbers"].items())
        print(f"  {key}: x{len(lat)} median {statistics.median(lat):.3f} s, "
              f"{outcome}; {nums}")
    n_ops = len(run.latencies("untraced"))
    print(f"ops: {run.attempted} attempted, {run.failed} failed, fail_ratio "
          f"{run.failed / max(run.attempted, 1):.4f}; {run.executions} "
          f"executions ({n_ops} untraced) over {passes} passes")
    lat = sorted(run.latencies("untraced"))
    for p in (99, 90):
        if lat and len(lat) * (100 - p) / 100 >= 10:
            val = statistics.quantiles(lat, n=100)[p - 1]
            print(f"  op_p{p}_s {val:.4f} s ({len(lat)} ops)")
    for name, m in metrics.items():
        print(f"  {name} {_fmt(m['value'])} {m['unit']}")
    for problem in run.problems:
        print(f"problem: {problem}")


def _json_safe(node):
    if isinstance(node, float) and not math.isfinite(node):
        return repr(node)
    if isinstance(node, dict):
        return {k: _json_safe(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_json_safe(v) for v in node]
    return node


def _write_json(path, obj, indent=1):
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(_json_safe(obj), indent=indent, sort_keys=True))
    os.replace(tmp, path)


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "qspace3" / "__init__.py").is_file():
        print(f"qspace3 sources not found under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread in every process, fixed before numpy is imported
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import qspace3
    import session
    if SRC not in Path(qspace3.__file__).resolve().parents:
        print(f"qspace3 imported from {qspace3.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S

    facts = machine_facts()
    fingerprint = code_fingerprint()
    OUT.mkdir(exist_ok=True)
    digest_path = OUT / "digests.json"
    store = json.loads(digest_path.read_text()) if digest_path.exists() \
        else {}
    stored = store.get("digests", {}) if store.get("code") == fingerprint \
        else {}

    sessions = workloads.make_ops(args.workload, args.seed)
    probes = SetupProbes(args.workload, args.seed, bool(args.trace),
                         args.seconds)
    run = Run(session, stored, deadline)
    try:
        if args.trace:
            merged, first_pass = measure_traced(run, sessions, args.seconds,
                                                probes)
            passes = len(merged)
            metrics = layer_metrics(run, merged, probes.finish())
        else:
            passes = measure_untraced(run, sessions, args.seconds, probes)
            metrics = e2e_metrics(run, probes.finish())
    except session.Deadline as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    print_table(args, facts, run, metrics, passes)
    stem = f"{args.workload}-{args.seed}-{args.trace}"
    _write_json(OUT / f"run-{stem}.json", {
        "args": vars(args), "machine": facts, "code": fingerprint,
        "correct": run.correct, "attempted": run.attempted,
        "failed": run.failed, "problems": run.problems, "metrics": metrics,
        "ops": run.ops})
    if args.trace:
        # span rows: [op index in session, name, start, end, parent row]
        _write_json(OUT / f"spans-{stem}.json", [
            {"ops": [op["key"] for op in s["ops"]],
             "spans": summary["spans"] if summary else []}
            for s, summary in zip(sessions, first_pass)], indent=None)
    digests = {k: op["digest"] for k, op in run.ops.items()
               if op["digest"] is not None}
    # the first digest seen for an op stays the reference
    _write_json(digest_path, {"code": fingerprint,
                              "digests": {**digests, **stored}})
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
