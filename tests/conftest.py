"""Test-session set-up.

pyproject's `pythonpath` puts src/ on the test process's sys.path only; the
tests that start `python -m qspace3.cli` in a subprocess need it in
PYTHONPATH as well, so that a bare `python -m pytest` works uninstalled.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
