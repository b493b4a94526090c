"""Spans and counters for the traced run, recorded from outside qspace3.

`install` wraps public functions of each module and rebinds every name in a
qspace3 module namespace that refers to the original (`cli.build_transform`,
`relations.build_X_T_R_joint`, ...), so calls made through any import path
are seen.  It is called in a forked session process only; the parent stays
untouched.  A span's self time is its duration minus the durations of its
direct child spans.  Spans are kept in memory and written when the run ends.
"""

import sys
import time
from collections import Counter, defaultdict

# the metric names are fixed here; the traced split itself follows
# qspace3.relations.RELATION_GROUPS
RELATION_GROUPS = ("x", "t", "k", "torb", "conj", "orbital-constraint")

# (module, function) pairs wrapped in a span named "<module>.<function>"
SPANNED = (
    ("cli", "main"),
    ("repspace", "build_X_T_R_joint"),
    ("repspace", "casimir"),
    ("repspace", "build_L_operators"),
    ("basistrans", "build_transform"),
    ("basistrans", "completeness_check"),
    ("qspecial", "p_lm"),
    ("qspecial", "p_tilde"),
    ("qspecial", "weight_w"),
    ("qspecial", "check_recurrence"),
    ("qspecial", "check_difference"),
    ("qspecial", "orthonormality_sum"),
    ("qspecial", "completeness_sum"),
)
SPANNED_QSPECIAL = [f for m, f in SPANNED if m == "qspecial"]
IMPORT_PACKAGES = ("qspace3", "numpy", "scipy", "mpmath")

# per-layer metrics, in the order BENCHMARK.json lists them: (name, unit,
# better)
LAYER_METRICS = (
    [("relations.verify_relations.self_s", "s", "lower")]
    + [(f"relations.group.{g}.s", "s", "lower") for g in RELATION_GROUPS]
    + [(f"repspace.{f}.self_s", "s", "lower")
       for f in ("build_X_T_R_joint", "casimir", "build_L_operators")]
    + [("operators.LabeledOperator.to_csr.calls", "count", "lower"),
       ("operators.LabeledOperator.to_csr.self_s", "s", "lower"),
       ("operators.RepFamily.init.self_s", "s", "lower"),
       ("operators.entries", "count", "lower"),
       ("basistrans.build_transform.calls", "count", "lower"),
       ("basistrans.build_transform.self_s", "s", "lower")]
    + [(f"qspecial.p_tilde_table.{p}.{k}", u, "lower")
       for p in ("extended", "double") for k, u in (("calls", "count"),
                                                    ("self_s", "s"))]
    + [("qspecial.recurrence_coeff.calls", "count", "lower"),
       ("qspecial.table_cache.hit_ratio", "ratio", "higher")]
    + [(f"qspecial.{f}.{k}", u, "lower") for f in SPANNED_QSPECIAL
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("basistrans.completeness_check.self_s", "s", "lower"),
       ("qarith.qfact_cache.hits", "count", "higher"),
       ("qarith.qfact_cache.misses", "count", "lower"),
       ("qarith.qfact_cache.entries", "count", "lower"),
       ("cli.main.self_s", "s", "lower")]
    + [(f"import.{p}.s", "s", "lower") for p in IMPORT_PACKAGES]
    + [("trace.overhead_s", "s", "lower")]
)


class Tracer:
    """Spans and counters of one session process."""

    def __init__(self):
        self.op = 0
        self.spans = []        # [op, name, start, end, parent span index]
        self._stack = []       # [span index, seconds covered by children]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        rec = [self.op, name, time.perf_counter(), 0.0, parent]
        self._stack.append([len(self.spans), 0.0])
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            _, child = self._stack.pop()
            dur = rec[3] - rec[2]
            if self._stack:
                self._stack[-1][1] += dur
            self.calls[name] += 1
            self.self_s[name] += dur - child

    def summary(self):
        """Calls, self times and counters, plus the cache statistics the
        library keeps itself (the session started with empty caches)."""
        from qspace3 import qarith, qspecial
        counts = dict(self.counts)
        qf = qarith._qfact_cached.cache_info()
        tc = qspecial._table_cached.cache_info()
        counts.update({"qarith.qfact_cache.hits": qf.hits,
                       "qarith.qfact_cache.misses": qf.misses,
                       "qarith.qfact_cache.entries": qf.currsize,
                       "qspecial.table_cache.hits": tc.hits,
                       "qspecial.table_cache.misses": tc.misses})
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": counts}


def _rebind(orig, new):
    for name, mod in list(sys.modules.items()):
        if name == "qspace3" or name.startswith("qspace3."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)


def _spanned(tracer, name, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return wrapper


def _counted(tracer, name, fn):
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _p_tilde_table(tracer, fn):
    def p_tilde_table(l_max, m, x, ctx):
        mode = "extended" if ctx.is_extended else "double"
        return tracer.call(f"qspecial.p_tilde_table.{mode}", fn,
                           (l_max, m, x, ctx), {})
    return p_tilde_table


def _verify_by_group(tracer, fn, all_groups):
    """Runs "all" as one verify_relations call per group on the same suite:
    the same work and the same records, in the same order."""
    def verify_relations(suite, groups, ctx):
        if groups == "all" or "all" in groups:
            groups = all_groups
        if not groups or set(groups) - set(all_groups):
            return fn(suite, groups, ctx)
        report = None
        for g in all_groups:
            if g in groups:
                part = tracer.call(f"relations.group.{g}", fn,
                                   (suite, (g,), ctx), {})
                if report is None:
                    report = part
                else:
                    report.records.extend(part.records)
        return report
    return verify_relations


def install(tracer):
    """Wrap the traced layers of the imported qspace3 modules."""
    from qspace3 import operators, qspecial, relations
    mods = sys.modules
    for mod, fn_name in SPANNED:
        orig = getattr(mods[f"qspace3.{mod}"], fn_name)
        _rebind(orig, _spanned(tracer, f"{mod}.{fn_name}", orig))
    _rebind(relations.verify_relations,
            _verify_by_group(tracer, relations.verify_relations,
                             relations.RELATION_GROUPS))
    _rebind(qspecial.p_tilde_table,
            _p_tilde_table(tracer, qspecial.p_tilde_table))
    for fn_name in ("recurrence_coeff_up", "recurrence_coeff_down"):
        orig = getattr(qspecial, fn_name)
        _rebind(orig, _counted(tracer, "qspecial.recurrence_coeff.calls",
                               orig))

    op_cls, fam_cls = operators.LabeledOperator, operators.RepFamily
    to_csr, op_init = op_cls.to_csr, op_cls.__init__
    fam_init = fam_cls.__init__

    def op_init_counted(self, *args, **kwargs):
        op_init(self, *args, **kwargs)
        tracer.counts["operators.entries"] += len(self.entries)

    op_cls.to_csr = _spanned(tracer, "operators.LabeledOperator.to_csr",
                             to_csr)
    op_cls.__init__ = op_init_counted
    fam_cls.__init__ = _spanned(tracer, "operators.RepFamily.init", fam_init)


def merge(summaries):
    """Sum the summaries of the sessions of one pass."""
    total = {"calls": Counter(), "self_s": defaultdict(float),
             "counts": Counter()}
    for s in summaries:
        if s is None:           # the session process died
            continue
        for part in total:
            for k, v in s[part].items():
                total[part][k] += v
    return total


def layer_values(total):
    """Per-layer metric values of one traced pass (imports and tracing
    overhead are filled in by the caller)."""
    calls, self_s, counts = total["calls"], total["self_s"], total["counts"]
    out = {"relations.verify_relations.self_s": sum(
        self_s.get(f"relations.group.{g}", 0.0) for g in RELATION_GROUPS)}
    for g in RELATION_GROUPS:
        out[f"relations.group.{g}.s"] = self_s.get(f"relations.group.{g}",
                                                   0.0)
    hits = counts.get("qspecial.table_cache.hits", 0)
    base = hits + counts.get("qspecial.table_cache.misses", 0)
    for name, _, _ in LAYER_METRICS:
        if name in out or name.startswith(("import.", "trace.")):
            continue
        if name == "qspecial.table_cache.hit_ratio":
            out[name] = hits / base if base else 0.0
        elif name.endswith(".calls"):
            out[name] = calls.get(name[:-6], counts.get(name, 0))
        elif name.endswith(".self_s"):
            out[name] = self_s.get(name[:-7], 0.0)
        else:
            out[name] = counts.get(name, 0)
    return out
