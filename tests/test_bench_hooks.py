"""The names the benchmark's traced run binds must exist on the package.

perfbench/layers.py wraps or reads qspace3 names when `--trace 1` installs
its tracer; a refactor that renames one of them fails here instead of
crashing the traced run.  The module is loaded read-only from its file, and
`install` runs in a subprocess because it rebinds names package-wide.
"""

import subprocess
import sys
from pathlib import Path

_LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"

_INSTALL = """
import importlib.util, sys
import qspace3.cli
spec = importlib.util.spec_from_file_location("layers", sys.argv[1])
layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layers)
tracer = layers.Tracer()
layers.install(tracer)
qspace3.cli.main(["spectrum", "t2", "--depth", "4"])
print(sorted(tracer.summary()["calls"]))
"""


def test_tracer_installs_and_summarizes():
    r = subprocess.run([sys.executable, "-c", _INSTALL, str(_LAYERS)],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert "cli.main" in r.stdout
