import ast
import os
import re
import subprocess
import sys
from pathlib import Path

from basisconv import DEFAULT_PRIME

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def test_readme_examples_print_what_they_state():
    # each ```python block of README.md runs as written, with src on the
    # path, and each print(...) prints the value its comment states before
    # any " = ", p standing for the prime the examples use
    assert len(BLOCKS) >= 2
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for block in BLOCKS:
        stated = [
            line.split("#", 1)[1].split(" = ")[0].strip()
            for line in block.splitlines()
            if line.startswith("print(") and "#" in line
        ]
        assert stated, block
        run = subprocess.run(
            [sys.executable, "-c", block],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert run.returncode == 0, run.stderr
        printed = run.stdout.splitlines()
        assert len(printed) == len(stated), run.stdout
        for line, want in zip(printed, stated):
            assert ast.literal_eval(line) == eval(want, {"p": DEFAULT_PRIME}), (line, want)
