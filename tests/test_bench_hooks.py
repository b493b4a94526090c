"""The names the benchmark's traced run binds must exist on the package.

perfbench/layers.py wraps or reads qspace3 names when `--trace 1` installs
its tracer; a refactor that renames one of them fails here instead of
crashing the traced run.  The module is loaded read-only from its file, and
`install` runs in a subprocess because it rebinds names package-wide.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from qspace3.relations import RELATION_GROUPS

_LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"

_PRELUDE = """
import importlib.util, json, sys
import qspace3.cli
from qspace3 import QContext, qspecial
spec = importlib.util.spec_from_file_location("layers", sys.argv[1])
layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layers)
tracer = layers.Tracer()
layers.install(tracer)
"""

_INSTALL = _PRELUDE + """
qspace3.cli.main(sys.argv[2:])
print(sorted(tracer.summary()["calls"]))
"""

# one call of each qspecial function the special workload traces, made
# through the module namespace that install() rebinds, and one CSR export
# (no CLI verb reaches LabeledOperator.to_csr)
_LIBRARY = _PRELUDE + """
from qspace3 import repspace
from qspace3.operators import RepWindow
ctx = QContext(q=1.5)
repspace.build_t_special(RepWindow.make({"m_t": (-4, 0)}), ctx)["T+"].to_csr()
qspecial.check_recurrence(3, 1, 1.5**-4, ctx)
qspecial.check_difference(3, 1, 1.5**-4, ctx)
qspecial.p_lm(3, 1, 0.3, ctx)
qspecial.p_tilde(3, 1, 0.3, ctx)
qspecial.weight_w(3, 1, 0.3, ctx)
qspecial.orthonormality_sum(1, 2, 1, ctx, n_min=-4)
qspecial.completeness_sum(0, 0, 1, 1, 0, ctx, l_max=6)
qspecial.p_tilde_table(6, 1, 1.5**-4, ctx)
print(json.dumps(tracer.summary()))
"""


def _run(script, *argv):
    r = subprocess.run([sys.executable, "-c", script, str(_LAYERS), *argv],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    return r.stdout


def _traced_spans(argv):
    return _run(_INSTALL, *argv)


def test_tracer_installs_and_summarizes():
    assert "cli.main" in _traced_spans(["spectrum", "t2", "--depth", "4"])


def test_traced_verify_sees_every_layer():
    # the spans of the benchmark's verify workload: a renamed repspace,
    # relations or operators name would drop its span
    spans = _traced_spans(["verify", "--depth", "4", "--kwidth", "4",
                           "--out", os.devnull])
    for name in ("repspace.build_X_T_R_joint", "repspace.casimir",
                 "repspace.build_L_operators",
                 "operators.RepFamily.init",
                 *(f"relations.group.{g}" for g in RELATION_GROUPS)):
        assert repr(name) in spans, name


def test_traced_transform_sees_the_congruence_path():
    # the spans of the benchmark's transform workload: the congruence
    # defect reads extended tables, the coefficient table binary64 ones
    spans = _traced_spans(["transform", "--direction", "1", "--m", "1",
                           "--lmax", "6", "--depth", "12",
                           "--out", os.devnull])
    for name in ("basistrans.build_transform",
                 "qspecial.p_tilde_table.double",
                 "qspecial.p_tilde_table.extended"):
        assert repr(name) in spans, name


def test_traced_special_session_sees_every_qspecial_span():
    # the spans and cache statistics of the benchmark's special workload: a
    # renamed qspecial function or cache fails here, not in the traced run
    summary = json.loads(_run(_LIBRARY))
    for name in ("check_recurrence", "check_difference", "p_lm", "p_tilde",
                 "weight_w", "orthonormality_sum", "completeness_sum",
                 "p_tilde_table.double"):
        assert f"qspecial.{name}" in summary["calls"], name
    # the operator layer's export span, which verify no longer reaches
    assert "operators.LabeledOperator.to_csr" in summary["calls"]
    counts = summary["counts"]
    assert counts["qarith.qfact_cache.misses"] > 0
    assert counts["qarith.qfact_cache.entries"] > 0
    assert counts["qspecial.table_cache.misses"] > 0
    assert counts["qspecial.table_cache.hits"] > 0
