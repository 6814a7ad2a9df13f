"""The benchmark's traced mode binds every name it wraps.

perfbench/tracing.py wraps, from outside the library, the functions on the
conversion path in every module namespace that binds them, and credits the
five factors of each direction from the maps the bivariate chain calls
through its own namespace.  A refactor that renames or drops one of those
bindings leaves the tracer's per-layer metrics missing; install() lists
such bindings in Tracer.missing.  It rebinds module globals, so it runs in a
subprocess of its own.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracing import Tracer
tracer = Tracer()
tracer.install()
print(tracer.missing)
"""


def test_tracer_binds_every_target():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]", out.stdout + out.stderr
