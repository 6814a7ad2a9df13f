#!/usr/bin/env python3
"""Self-check of the benchmark at tiny sizes.  Run from the repository root:

    python3 perfbench/selfcheck.py

For every workload it runs run.py --tiny once untraced and twice traced with
the same seed, and checks that

- each run exits 0 and reports failed_ratio = 0;
- every end-to-end (untraced) or per-layer (traced) metric of BENCHMARK.json
  is in the JSON result with its unit, and printed as "name = value unit";
- the exact counts (*_calls, conv_len_sum, tree_builds) and the output digest
  are identical across the two traced runs.

Exits 1 after listing every problem found.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
SECONDS = "1"
COUNT_SUFFIXES = ("_calls", "conv_len_sum", "tree_builds")


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", SECONDS, "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc, lines, json.loads(lines[-1])


def check_run(label, proc, lines, result, specs, problems):
    if proc.returncode != 0:
        problems.append(f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
    if not any(re.match(r"failed_ratio = 0(\.0)? 1\b", line) for line in lines):
        problems.append(f"{label}: failed_ratio is not 0")
    if result["failed"] != 0 or not result["correct"]:
        problems.append(f"{label}: {result['failed']} failed conversions")
    metrics = result["metrics"]
    extra = set(metrics) - {s["name"] for s in specs}
    if extra:
        problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        got = metrics.get(name)
        if got is None or got["unit"] != unit:
            problems.append(f"{label}: {name} missing from the result or not in {unit}: {got}")
        pattern = re.compile(rf"{re.escape(name)} = \S+ {re.escape(unit)}(\s|$)")
        if not any(pattern.match(line) for line in lines):
            problems.append(f"{label}: no printed line '{name} = <value> {unit}'")


def digest(lines):
    return next((line for line in lines if line.startswith("digest ")), None)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        proc, lines, result = run(name, 0)
        check_run(f"{name} untraced", proc, lines, result, bench["end_to_end"], problems)
        traced = []
        for i in (1, 2):
            proc, lines, result = run(name, 1)
            check_run(f"{name} traced #{i}", proc, lines, result, bench["per_layer"], problems)
            traced.append((lines, result["metrics"]))
        (lines1, m1), (lines2, m2) = traced
        for metric in sorted(m1):
            if metric.endswith(COUNT_SUFFIXES) or ".conv_calls." in metric:
                if m1[metric]["value"] != m2.get(metric, {}).get("value"):
                    problems.append(f"{name}: count {metric} differs across traced runs: "
                                    f"{m1[metric]['value']} vs {m2.get(metric, {}).get('value')}")
        if digest(lines1) is None or digest(lines1) != digest(lines2):
            problems.append(f"{name}: output digest differs across runs with the same seed")
        print(f"{name}: checked", flush=True)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selfcheck:", "failed" if problems else "all checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
