#!/usr/bin/env python3
"""Record a baseline of every workload in perfbench/baseline.json.

    python3 perfbench/summarize.py [--seed 1]

Runs each workload of BENCHMARK.json once untraced and once traced, with one
seed and the benchmark's run_seconds, and writes for each workload:

- why it was chosen, the layers it stresses and the layers it bypasses;
- its end-to-end metrics;
- the self time per module per pass and each module's share of their sum,
  so that the dominant layer can be read off one file;
- the share of each of the five factors of to_monomial and of from_monomial;
- the tracing overhead: traced minus untraced time per conversion;
- the layer predictions of the workload, measured.

It also records the seed and the machine: processor count, Python and numpy
versions and the BLAS thread setting the benchmark pins.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from run import BLAS_THREAD_VARS
from tracing import FROM_FACTORS, MODULES, TO_FACTORS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"summarize.py: {' '.join(cmd)} failed:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    notes = [line for line in lines[:-1] if not line.startswith("MISSING")]
    return {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}, notes


def shares(values):
    total = sum(values.values())
    return {k: round(v / total, 4) if total else None for k, v in values.items()}


def summarize(name, seed, seconds):
    w = WORKLOADS[name]
    e2e, e2e_notes = run(name, seed, seconds, 0)
    layer, layer_notes = run(name, seed, seconds, 1)
    self_s = {m: layer[f"{m}.self_s"] for m in MODULES}
    per_pass = sum(self_s.values())
    untraced_ms = 1000.0 / e2e["conv_per_s"]
    traced_ms = 1000.0 / layer["trace.conv_per_s"]
    evalgrid_calls = ("multieval_s", "interp_s", "multieval_t_s", "interp_t_s", "self_s", "kernel_s")
    predictions = {
        "evalgrid_self_share": round(self_s["evalgrid"] / per_pass, 4),
        "evalgrid_self_plus_kernel_share":
            round((self_s["evalgrid"] + layer["evalgrid.kernel_s"]) / per_pass, 4),
        "evalgrid_inclusive_share": round((layer["compseq.exp_s"] + layer["compseq.log_s"]) / per_pass, 4),
        "evalgrid_no_work": all(layer[f"evalgrid.{m}"] == 0 for m in evalgrid_calls),
        "kernel_calls_ge16k": layer["modfield.conv_calls.ge16k"],
        "families_parse_s": layer["families.parse_s"],
    }
    return {
        "why": w.why,
        "stresses": w.stresses,
        "bypasses": w.bypasses,
        "families": list(w.families),
        "sizes": list(w.sizes),
        "end_to_end": e2e,
        "end_to_end_report": e2e_notes,
        "self_s_per_pass": self_s,
        "self_share": shares(self_s),
        "to_factor_share": shares({f: layer[f"bivariate.{f}_s"] for f in TO_FACTORS.values()}),
        "from_factor_share": shares({f: layer[f"bivariate.{f}_s"] for f in FROM_FACTORS}),
        "tracing_overhead": {
            "untraced_ms_per_conversion": untraced_ms,
            "traced_ms_per_conversion": traced_ms,
            "overhead_ms_per_conversion": traced_ms - untraced_ms,
        },
        "predictions": predictions,
        "per_layer": layer,
        "per_layer_report": layer_notes[:3],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {
        "seed": args.seed,
        "run_seconds": bench["run_seconds"],
        "machine": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        },
        "workloads": {},
    }
    for w in bench["workloads"]:
        out["workloads"][w["name"]] = summarize(w["name"], args.seed, bench["run_seconds"])
        print(f"{w['name']}: done", flush=True)
    path = HERE / "baseline.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
