#!/usr/bin/env python3
"""The basisconv benchmark: one workload, one process, one thread.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload sheffer_large --seed 1 --seconds 7 --trace 0

Workloads are defined in workloads.py.  A run

1. compares each (family, direction) of the workload at n = 32 with
   oracle.naive_convert, which uses none of the fast paths;
2. sets up three times, each time from a fresh Modulus to the first
   to_monomial and from_monomial result of every (family, n): setup_s is the
   median, checks excluded;
3. runs a closed loop with one client until --seconds have passed, in whole
   passes: a pass makes one request for every (family, n), in an order
   shuffled by the seed.  A request converts a uniform random vector over
   [0, p) with to_monomial, then the result with from_monomial, timing the two
   calls separately, and checks the round trip returns the input.  spread
   converts to the monomial basis only and is checked against the dense
   conversion matrix instead.

Metrics.  Times are in reference seconds (speed.py), which take the drift of
a shared machine's speed out of them; wall-clock figures are printed beside.
- conv_per_s: timed conversions per second of conversion time;
- to_p50_ms, from_p50_ms: median over the (family, n) pairs of each pair's
  median warm time;
- latency_tail_ms: over all timed conversions, the highest percentile with at
  least ten samples beyond it; the percentile and the count are printed;
- setup_s: median of the three set-ups;
- rss_peak_mb: peak resident memory of the process;
- failed_ratio: conversions that raised or failed a check over conversions
  attempted, printed, and in the JSON result as failed and attempted.

Inputs come from --seed alone.  One digest covers the outputs of the oracle
checks, the first set-up and the first pass, which do not depend on speed,
so two commits can be compared bit for bit.  With --trace 1 the run installs
the wrappers of tracing.py before the set-ups, reports per-layer metrics
instead of end-to-end ones and writes its spans to .perfbench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 if any conversion raised
or failed a check.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: the benchmark measures one thread.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from speed import SpeedClock  # noqa: E402
from workloads import TO_ONLY, WORKLOADS, family_name  # noqa: E402

perf = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
ORACLE_N = 32
SETUP_REPEATS = 3
TRACE_DIR = ".perfbench_out"


def load_library():
    """Import basisconv from the checkout's own src/, never from elsewhere."""
    src = (ROOT / "src").resolve()
    if not (src / "basisconv" / "__init__.py").is_file():
        sys.exit(f"run.py: no basisconv sources in {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import basisconv
    from basisconv import densemat, families, oracle

    if not Path(basisconv.__file__).resolve().is_relative_to(src):
        sys.exit(f"run.py: imported basisconv from {basisconv.__file__}, not from {src}")
    return basisconv, families, oracle, densemat


class Client:
    """The closed-loop client: converts, times, checks and counts failures."""

    def __init__(self, workload, tracer, clock):
        self.lib, self.families, self.oracle, self.densemat = load_library()
        self.workload = workload
        self.tracer = tracer
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.mod = None
        self.parsed = {}
        self.refs = {}           # (family, n) -> (modulus, matrix, prefactor inverses)
        self._request_id = 0

    def new_modulus(self):
        return self.lib.Modulus(self.lib.DEFAULT_PRIME)

    def _fail(self, what):
        self.failed += 1
        print(f"FAIL {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def _family(self, text):
        if self.workload.reparse:
            return self.families.parse_family(self.mod, text)
        return self.parsed[text]

    def _timed(self, convert):
        """(result, (start, end)) of one conversion, after a speed probe if due."""
        self.clock.maybe_probe()
        t0 = perf()
        out = convert()
        return out, (t0, perf())

    def _check(self, ok):
        """Keep a check's time out of every measured interval."""
        t0 = perf()
        result = ok()
        self.clock.excluded.append((t0, perf()))
        return result

    def request(self, text, n, a):
        """One request: (to interval, from interval or None, outputs), or None
        when a conversion raised or failed its check."""
        self._request_id += 1
        if self.tracer is not None:
            self.tracer.request = self._request_id
        fams = self.families
        self.attempted += 1
        try:
            A, to_iv = self._timed(lambda: fams.to_monomial(a, self._family(text), n, self.mod))
        except Exception:
            self._fail(f"{text} n={n} to_monomial")
            return None
        if family_name(text) in TO_ONLY:
            if not self._check(lambda: A.coeffs == self.reference(text, n, a)):
                self.failed += 1
                print(f"FAIL {text} n={n}: to_monomial differs from the dense matrix", file=sys.stderr)
                return None
            return to_iv, None, (A.coeffs,)
        self.attempted += 1
        try:
            back, from_iv = self._timed(lambda: fams.from_monomial(A, self._family(text), n, self.mod))
        except Exception:
            self._fail(f"{text} n={n} from_monomial")
            return None
        if not self._check(lambda: back == a):
            self.failed += 1
            print(f"FAIL {text} n={n}: round trip does not return the input", file=sys.stderr)
            return None
        return to_iv, from_iv, (A.coeffs, back)

    # -- checks outside the timed phases ----------------------------------------

    def oracle_checks(self, texts, rng, digest):
        """Every (family, direction) at n = 32 against the quadratic oracle."""
        mod = self.new_modulus()
        p = mod.p
        for text in texts:
            fam = self.families.parse_family(mod, text)
            directions = ("to-monomial",) if family_name(text) in TO_ONLY else ("to-monomial", "from-monomial")
            for direction in directions:
                x = random_vector(rng, ORACLE_N, p)
                self.attempted += 1
                try:
                    if direction == "to-monomial":
                        fast = self.families.to_monomial(x, fam, ORACLE_N, mod).coeffs
                    else:
                        poly = self.lib.Poly(mod, x, ORACLE_N)
                        fast = self.families.from_monomial(poly, fam, ORACLE_N, mod)
                    slow = self.oracle.naive_convert(x, fam, ORACLE_N, direction, mod)
                except Exception:
                    self._fail(f"{text} n={ORACLE_N} {direction} oracle check")
                    continue
                if fast != slow:
                    self.failed += 1
                    print(f"FAIL {text} n={ORACLE_N} {direction}: differs from the oracle", file=sys.stderr)
                update_digest(digest, fast)

    def build_references(self, configs):
        """Dense conversion matrices for the families converted one way only."""
        mod = self.new_modulus()
        for text, n in configs:
            if family_name(text) in TO_ONLY:
                fam = self.families.parse_family(mod, text)
                M = self.densemat.conversion_matrix(fam.spec, n, mod)
                cinv = mod.batch_inv(fam.prefactor(n))
                self.refs[(text, n)] = (mod, M, cinv)

    def reference(self, text, n, a):
        mod, M, cinv = self.refs[(text, n)]
        b = [x * c % mod.p for x, c in zip(a, cinv)]
        return self.oracle.matvec(mod, M, b)

    # -- set-up -------------------------------------------------------------------

    def setup(self, configs, inputs):
        """One cold set-up; returns (its wall interval, outputs)."""
        self.mod = None
        self.parsed = {}
        gc.collect()
        self.clock.probe()
        t0 = perf()
        self.mod = self.new_modulus()
        if not self.workload.reparse:
            self.parsed = {t: self.families.parse_family(self.mod, t) for t in self.workload.families}
        outputs = [self.request(text, n, inputs[i]) for i, (text, n) in enumerate(configs)]
        t1 = perf()
        self.clock.probe()
        return (t0, t1), outputs


def random_vector(rng, n, p):
    return rng.integers(0, p, n).tolist()


def update_digest(digest, coeffs):
    digest.update(np.asarray(coeffs, dtype=np.int64).tobytes())
    digest.update(b"|")


def digest_result(digest, result):
    if result is None:
        digest.update(b"FAILED|")
        return
    for coeffs in result[2]:
        update_digest(digest, coeffs)


def p50(intervals, seconds):
    """Median over the (family, n) pairs of each pair's median time.

    Every pair runs once per pass, so this weighs them equally; a median of
    the pooled samples of an even number of pairs would fall in the gap
    between two pairs' times and jump with the noise of their extremes."""
    return statistics.median(
        statistics.median(seconds(*iv) for iv in ivs) for ivs in intervals.values()
    )


def tail(samples):
    """(value, percentile): the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def run(args):
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    clock = SpeedClock()
    client = Client(workload, tracer, clock)
    p = client.lib.DEFAULT_PRIME
    sizes = workload.tiny_sizes if args.tiny else workload.sizes
    configs = [(text, n) for text in workload.families for n in sizes]
    rng = np.random.default_rng(args.seed)
    digest = hashlib.sha256()

    client.oracle_checks(workload.families, rng, digest)
    client.build_references(configs)

    if tracer is not None:
        tracer.install()
    inputs = [random_vector(rng, n, p) for _, n in configs]
    setups = []
    for rep in range(SETUP_REPEATS):
        interval, outputs = client.setup(configs, inputs)
        setups.append(interval)
        if rep == 0:
            for result in outputs:
                digest_result(digest, result)

    order = [configs[i] for i in rng.permutation(len(configs))]
    to_ivs, from_ivs = {}, {}       # (family, n) -> wall intervals
    passes = 0
    gc.collect()
    if tracer is not None:
        tracer.phase = "warm"
    start = perf()
    # Reference time decides when to stop, so that a drift in the machine's
    # speed does not change the number of passes.
    while passes == 0 or clock.scaled(start, perf()) < args.seconds:
        for text, n in order:
            result = client.request(text, n, random_vector(rng, n, p))
            if passes == 0:
                digest_result(digest, result)
            if result is not None:
                to_ivs.setdefault((text, n), []).append(result[0])
                if result[1] is not None:
                    from_ivs.setdefault((text, n), []).append(result[1])
        passes += 1
    clock.probe()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Every time below is in reference seconds (speed.py); wall-clock
    # figures are printed beside them.
    all_ivs = [iv for ivs in (*to_ivs.values(), *from_ivs.values()) for iv in ivs]
    conv_times = [clock.scaled(*iv) for iv in all_ivs]
    conv_wall = [b - a for a, b in all_ivs]
    setup_times = [clock.net(*iv) for iv in setups]
    setup_wall = [clock.net(*iv, scale=False) for iv in setups]
    failed_ratio = client.failed / client.attempted
    print(f"workload {workload.name} seed {args.seed} {'traced' if tracer else 'untraced'}: "
          f"{passes} passes, {len(conv_times)} timed conversions")
    print(f"digest {workload.name} seed {args.seed} sha256:{digest.hexdigest()}")
    print(f"failed_ratio = {failed_ratio} 1 ({client.failed} of {client.attempted} conversions)")

    metrics, notes = {}, {}
    if not (to_ivs and from_ivs):
        print("no timed conversion of one of the directions succeeded: no metrics", file=sys.stderr)
    elif tracer is None:
        tail_ms, tail_pct = tail(conv_times)
        metrics = {
            "conv_per_s": (len(conv_times) / sum(conv_times), "1/s"),
            "to_p50_ms": (1000.0 * p50(to_ivs, clock.scaled), "ms"),
            "from_p50_ms": (1000.0 * p50(from_ivs, clock.scaled), "ms"),
            "latency_tail_ms": (1000.0 * tail_ms, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "rss_peak_mb": (rss_mb, "MB"),
        }
        wall = lambda a, b: b - a  # noqa: E731
        notes = {
            "conv_per_s": f"(wall clock {len(conv_wall) / sum(conv_wall):.6g})",
            "to_p50_ms": f"(wall clock {1000.0 * p50(to_ivs, wall):.6g})",
            "from_p50_ms": f"(wall clock {1000.0 * p50(from_ivs, wall):.6g})",
            "latency_tail_ms": f"(p{tail_pct:.2f} of {len(conv_times)} conversions; "
                               f"wall clock {1000.0 * tail(conv_wall)[0]:.6g})",
            "setup_s": f"(median of {len(setup_times)} set-ups; "
                       f"wall clock {statistics.median(setup_wall):.6g})",
        }
    else:
        layer, missing = tracer.metrics(
            passes, SETUP_REPEATS,
            warm_scale=sum(conv_times) / sum(conv_wall),
            setup_scale=sum(setup_times) / sum(setup_wall),
        )
        metrics = {**layer, "trace.conv_per_s": (len(conv_times) / sum(conv_times), "1/s")}
        for name in missing:
            print(f"MISSING {name} (a wrapped name the program no longer has: {', '.join(tracer.missing)})")
        path = ROOT / TRACE_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.dump(path, {"workload": workload.name, "seed": args.seed, "passes": passes})
        print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit} {notes.get(name, '')}".rstrip())

    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if client.failed == 0 else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed loop; it always ends on a whole pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the benchmark's own self-check")
    return parser.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
