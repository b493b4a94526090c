"""Running one session of ops in a process forked from a pristine parent,
and the per-op correctness gate.

The parent has imported qspace3 but computed nothing, so every session
starts with empty caches, which is what a fresh `qspace3` command sees after
its imports.  Clearing the caches the benchmark knows by name would miss
state it does not know of, so sessions are forked instead.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import select
import signal
import time
import traceback

import qspace3.cli

import jobs
import layers


class Deadline(Exception):
    """A session outlived the run's hard time limit and was killed."""


def run(session, traced, deadline):
    """Fork, run the session's ops in order and return (results, layers,
    peak RSS in MiB).  `deadline` is a time.monotonic() value."""
    r, w = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        code = 70
        try:
            _child(session, traced, w)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(w)
    chunks = []
    killed = False
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([r], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            chunk = os.read(r, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(r)
        _, status, usage = os.wait4(pid, 0)
    if killed:
        raise Deadline(f"session {session['ops'][0]['key']!r} killed at the "
                       f"run's time limit")
    peak_mb = usage.ru_maxrss / 1024.0
    try:
        payload = json.loads(b"".join(chunks))
    except ValueError:
        # no per-op times survive: share the session's time among its ops
        crash = f"session process died (status {status})"
        share = (time.perf_counter() - t0) / len(session["ops"])
        return ([{"key": op["key"], "raised": crash, "latency_s": share}
                 for op in session["ops"]], None, peak_mb)
    return payload["results"], payload["layers"], peak_mb


def _child(session, traced, wfd):
    tracer = None
    if traced:
        tracer = layers.Tracer()
        layers.install(tracer)
    results = []
    for i, op in enumerate(session["ops"]):
        res = {"key": op["key"]}
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            if session["kind"] == "cli":
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    res["code"] = qspace3.cli.main(op["argv"])
            else:
                report = jobs.JOBS[op["job"]["job"]](op["job"])
                res["code"] = 0
        except Exception as e:
            res["raised"] = f"{type(e).__name__}: {e}"
        res["latency_s"] = time.perf_counter() - t0
        if session["kind"] == "lib" and "raised" not in res:
            out.write(json.dumps(report, sort_keys=True))
        res["out"] = out.getvalue()
        res["err"] = err.getvalue()[-500:]
        results.append(res)
    summary = None
    if tracer:
        summary = tracer.summary()
        summary["spans"] = tracer.spans
    with os.fdopen(wfd, "wb") as fh:
        fh.write(json.dumps({"results": results, "layers": summary}).encode())


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------

def _numbers(node):
    """Every number in a parsed report (bools excluded)."""
    if isinstance(node, dict):
        for v in node.values():
            yield from _numbers(v)
    elif isinstance(node, list):
        for v in node:
            yield from _numbers(v)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


def _worst(values):
    """max that keeps a NaN (the built-in max can drop it)."""
    vals = list(values)
    if any(math.isnan(v) for v in vals):
        return math.nan
    return max(vals, default=0.0)


def key_numbers(kind, report):
    """The numbers a later change must reproduce to their stated digits."""
    if kind == "lib":
        out = {}
        for k, v in report.items():
            if k == "values" or isinstance(v, bool):
                continue
            out[k] = v if isinstance(v, (int, float)) \
                else _worst(_numbers(v))
        return out
    if report.get("verb") == "verify":
        rows = report["rows"]
        return {"max_residual": report.get("max_residual"),
                "worst_row_residual": _worst(r["max_residual"] for r in rows),
                "rows": len(rows),
                "failing_rows": sum(r.get("pass") is not True for r in rows)}
    return {"gram_defect": report.get("gram_defect"),
            "congruence_defect": report.get("congruence_defect")}


def gate(kind, res):
    """(passed, reason, key numbers, report digest) of one op result.

    An op passes when it neither raised nor was refused, exited 0, reports
    pass: true, has every row passing and every number finite.  The gate
    reads rows, not a summary maximum.
    """
    if "raised" in res:
        return False, res["raised"], {}, None
    digest = hashlib.sha256(res["out"].encode()).hexdigest()[:16]
    try:
        report = json.loads(res["out"])
    except ValueError:
        reason = f"exit {res['code']}" if res["code"] else "no JSON report"
        return False, reason, {}, digest
    numbers = key_numbers(kind, report)
    if res["code"] != 0:
        return False, f"exit {res['code']}", numbers, digest
    if report.get("pass") is not True:
        return False, "pass is not true", numbers, digest
    if report.get("verb") == "verify" and any(
            r.get("pass") is not True for r in report["rows"]):
        return False, "a row fails", numbers, digest
    if not all(math.isfinite(v) for v in _numbers(report)):
        return False, "non-finite number in report", numbers, digest
    return True, "", numbers, digest
