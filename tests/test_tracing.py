"""The benchmark's traced mode binds every name it wraps, and its smallest
run passes.

perfbench/tracing.py wraps, from outside the library, the functions on the
conversion path in every module namespace that binds them, and credits the
five factors of each direction from the maps the bivariate chain calls
through its own namespace.  A refactor that renames or drops one of those
bindings leaves the tracer's per-layer metrics missing; install() lists
such bindings in Tracer.missing.  It rebinds module globals, so it runs in a
subprocess of its own.
"""

import json
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


def test_benchmark_smoke_run():
    # catalog_small at its tiny sizes checks spread against densemat's
    # conversion matrices (build_references) and every family against the
    # oracle; the last line of its output is the JSON result
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "catalog_small",
         "--seed", "1", "--seconds", "0.01", "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
