"""Command-line front end: convert, compose, matrix, bench, selftest.

Coefficient I/O uses a JSON object {"modulus": "<decimal>", "coeffs":
["<decimal>", ...]} with coefficients as decimal strings in [0, p); index i
is the coefficient of x^i (or of P_i on a family basis).  Input may give
JSON integers in place of the strings; any other value is a usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .bivariate import eval_bivariate
from .compseq import compute_g, eval_seq, eval_seq_inv, eval_seq_t, parse_integer, parse_sequence
from .densemat import conversion_matrix
from .errors import AlgebraError
from .families import MATRIX_MAX, family_names, from_monomial, parse_family, to_monomial
from .modfield import DEFAULT_PRIME, Modulus, Poly, _strict_row, mul_trunc
from .oracle import (
    constant_rows_agree,
    dense_product_agrees,
    float_kernel_agrees,
    horner_compose,
    matvec,
    naive_convert,
    stirling_matrices,
)
from .polyops import LEAF_SIZE
from .seriesops import series_root, unit_pow

USAGE_ERROR = 2
DOMAIN_ERROR = 1


class UsageError(Exception):
    pass


def _integer(value):
    """value as an int where it is a JSON integer (not a boolean) or a string
    of a decimal integer (compseq.parse_integer); a usage error otherwise, so
    that no number is silently rounded."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    try:
        return parse_integer(value)
    except (TypeError, ValueError):
        raise UsageError(f"malformed input JSON: {value!r} is not an integer") from None


def _read_vector(args, mod):
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input) as fh:
            text = fh.read()
    try:
        obj = json.loads(text)
        coeffs, declared = obj["coeffs"], obj.get("modulus")
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"malformed input JSON: {exc}") from None
    if not isinstance(coeffs, list):
        raise UsageError("malformed input JSON: coeffs is not a list")
    if declared is not None and _integer(declared) != mod.p:
        raise UsageError(
            f"input declares modulus {declared}, command uses {mod.p}"
        )
    return [_integer(c) for c in coeffs]


def _write_vector(args, mod, coeffs):
    obj = {"modulus": str(mod.p), "coeffs": [str(c % mod.p) for c in coeffs]}
    out = json.dumps(obj)
    if args.output == "-":
        print(out)
    else:
        with open(args.output, "w") as fh:
            fh.write(out + "\n")


def _modulus(args):
    p = args.modulus
    try:
        return Modulus(p)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_convert(args):
    mod = _modulus(args)
    fam = parse_family(mod, args.family)
    a = _read_vector(args, mod)
    n = args.n if args.n is not None else max(len(a), 1)
    if args.dir == "to-monomial":
        out = to_monomial(a, fam, n, mod).coeffs
    else:
        out = from_monomial(Poly.of(mod, _strict_row(mod, a, n)), fam, n, mod)
    _write_vector(args, mod, out)
    return 0


def cmd_compose(args):
    mod = _modulus(args)
    try:
        ops = parse_sequence(args.sequence, mod)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    a = _read_vector(args, mod)
    n = args.n if args.n is not None else max(len(a), 1)
    A = Poly.of(mod, _strict_row(mod, a, n))
    if args.transpose:
        out = eval_seq_t(A, ops, n)
    elif args.inverse:
        out = eval_seq_inv(A, ops, n)
    else:
        out = eval_seq(A, ops, n)
    _write_vector(args, mod, out.coeffs)
    return 0


def cmd_matrix(args):
    mod = _modulus(args)
    fam = parse_family(mod, args.family)
    n = mod.check_precision(args.n)    # n = 0 calls no conversion, and the rows come first
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        e = [0] * n
        e[j] = 1
        if args.dir == "to-monomial":
            col = to_monomial(e, fam, n, mod).coeffs
        else:
            col = from_monomial(Poly(mod, e, n), fam, n, mod)
        for i in range(n):
            rows[i][j] = col[i]
    lines = [",".join(str(x) for x in row) for row in rows]
    text = "\n".join(lines)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    return 0


# bench times the fast path as the best of this many warm calls: on a shared
# 2-core machine one call's time varied by up to 2x from run to run.
BENCH_RUNS = 3


def _timed(fn):
    """The seconds one call of fn takes."""
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def cmd_bench(args):
    mod = _modulus(args)
    fam = parse_family(mod, args.family)
    rng = random.Random(12345)
    lines = ["n,cold_s,fast_s,naive_s,naive_with_setup_s"]
    crossover = None
    n = 16
    while n <= args.n_max:
        # on a fresh modulus the first call builds every operand it reads
        mod = Modulus(mod.p)
        fam = parse_family(mod, args.family)
        a = [rng.randrange(mod.p) for _ in range(n)]
        cold_s = _timed(lambda: to_monomial(a, fam, n, mod))
        fast_s = min(_timed(lambda: to_monomial(a, fam, n, mod)) for _ in range(BENCH_RUNS))
        if n <= args.naive_max:
            t1 = time.perf_counter()
            M = conversion_matrix(fam.spec, n, mod)
            setup_s = time.perf_counter() - t1
            cs = fam.prefactor(n)
            b = [a[j] * mod.inv(cs[j]) % mod.p for j in range(n)]
            t2 = time.perf_counter()
            matvec(mod, M, b)
            naive_s = time.perf_counter() - t2
            lines.append(
                f"{n},{cold_s:.6f},{fast_s:.6f},{naive_s:.6f},{naive_s + setup_s:.6f}"
            )
            if crossover is None and fast_s < naive_s:
                crossover = n
        else:
            lines.append(f"{n},{cold_s:.6f},{fast_s:.6f},,")
        n *= 2
    text = "\n".join(lines)
    if args.csv == "-":
        print(text)
    else:
        with open(args.csv, "w") as fh:
            fh.write(text + "\n")
    if crossover is not None:
        print(f"# fast path first beats naive apply at n = {crossover}", file=sys.stderr)
    return 0


def _check_powers(mod, rng):
    """The failures, printed, of the square root of g^2 for a random g at
    n = 1000 (Newton steps), which must give g back, and of (c + t x^2)^5 in
    closed form at n = min(1000, p), which must equal five products."""
    p, n = mod.p, 1000
    g = Poly(mod, [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n - 1)], n)
    failures = 0
    if series_root(mul_trunc(g, g, n), 2, g.constant(), 0, n) != g:
        print("FAIL kernel: the square root of g^2 is not g")
        failures += 1
    n = min(n, p)
    b = Poly(mod, [rng.randrange(1, p), 0, rng.randrange(1, p)], n)
    acc = Poly(mod, [1], n)
    for _ in range(5):
        acc = mul_trunc(acc, b, n)
    if unit_pow(b, 5, n) != acc:
        print("FAIL kernel: a binomial power differs from repeated products")
        failures += 1
    return failures


def cmd_selftest(args):
    mod = _modulus(args)
    rng = random.Random(2024)
    # 37 is odd: its grid trees have a ragged last node on most levels; up to
    # MATRIX_MAX the conversions are kept matrices, past it the fast chain
    sizes = [8, 24, 37] if args.quick else [8, 24, 37, 48, MATRIX_MAX, MATRIX_MAX + 32]
    names = ["laguerre(alpha=3)", "hermite", "falling", "bell"]
    if not args.quick:
        names += ["jacobi(alpha=3,beta=5)", "fibonacci", "mott", "bessel",
                  "charlier(a=2)", "mittag_leffler"]
    failures = 0
    if not float_kernel_agrees(mod):
        print("FAIL kernel: float product differs from the exact product")
        failures += 1
    # past the sizes float_kernel_agrees takes: 2^18, where products that
    # never wrap take a square image for the default prime, and the first
    # size past 2^19, where kronecker_mul would take minutes
    if not args.quick:
        for k in (18, 20):
            if not constant_rows_agree(mod, 1 << k):
                print(f"FAIL kernel: float product at 2^{k} differs from the closed form")
                failures += 1
    if not dense_product_agrees(mod, LEAF_SIZE):
        print("FAIL kernel: dense leaf product differs from the integer product")
        failures += 1
    failures += _check_powers(mod, rng)
    for name in names:
        fam = parse_family(mod, name)
        for n in sizes:
            a = [rng.randrange(mod.p) for _ in range(n)]
            failures += _check_family(mod, fam, name, a, n)
    # Stirling ground truth for the falling-factorial entry
    n = 12
    s, S = stirling_matrices(mod, n)
    fam = parse_family(mod, "falling")
    for j in range(n):
        e = [0] * n
        e[j] = 1
        col = to_monomial(e, fam, n, mod).coeffs
        if col != [s[j][i] for i in range(n)]:
            print(f"FAIL stirling column {j}")
            failures += 1
    if failures:
        print(f"selftest: {failures} failure(s)")
        return 1
    print("selftest: all checks passed")
    return 0


def _check_family(mod, fam, name, a, n):
    """The failures of the checks of fam at n on the input a: the evaluation
    at the h-sequence against the oracle, the conversion against the fast
    chain and the round trip.  A check that raises an AlgebraError where
    oracle.naive_convert raises the same type, in that direction, prints SKIP
    and counts none."""
    failures, direction, given = 0, "to-monomial", a
    try:
        # oracle equivalence of the h-sequence evaluation
        h = fam.spec.h_ops
        g = compute_g(h, n, mod).g[-1] if h else Poly.x(mod, n)
        if eval_seq(Poly(mod, a, n), h, n) != horner_compose(Poly(mod, a, n), g, n):
            print(f"FAIL eval oracle {name} n={n}")
            failures += 1
        # the conversion against the fast chain, eval_bivariate, and the
        # round trip through the basis conversion
        A = to_monomial(a, fam, n, mod)
        cinv = mod.batch_inv(fam.prefactor(n))
        b = [x * c % mod.p for x, c in zip(a, cinv)]
        if A != eval_bivariate(b, fam.spec, n, mod):
            print(f"FAIL conversion differs from the chain {name} n={n}")
            failures += 1
        direction, given = "from-monomial", A.coeffs
        if from_monomial(A, fam, n, mod) != a:
            print(f"FAIL round-trip {name} n={n}")
            failures += 1
    except AlgebraError as exc:
        try:
            naive_convert(given, fam, n, direction, mod)
        except AlgebraError as oracle_exc:
            if type(oracle_exc) is type(exc):
                print(f"SKIP {direction} {name} n={n}: {exc}")
                return failures
        print(f"FAIL conversion {name} n={n}: {exc}")
        failures += 1
    return failures


def _flag_integer(text):
    """The value of an integer flag (compseq.parse_integer), or a usage error."""
    try:
        return parse_integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _dimension(text):
    """The value of --n: a non-negative integer (_flag_integer), or a usage error."""
    n = _flag_integer(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"dimension {n} is negative")
    return n


def build_parser():
    parser = argparse.ArgumentParser(
        prog="basisconv",
        description="Polynomial basis conversion over a prime field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n_required=False):
        p.add_argument("--modulus", type=_flag_integer, default=DEFAULT_PRIME)
        if n_required:
            p.add_argument("--n", type=_dimension, required=True)
        else:
            p.add_argument("--n", type=_dimension, default=None)

    pc = sub.add_parser("convert", help="convert between bases")
    pc.add_argument("--family", required=True,
                    help="e.g. hermite or jacobi(alpha=3,beta=5); known: "
                         + ", ".join(family_names()))
    pc.add_argument("--dir", choices=["to-monomial", "from-monomial"], required=True)
    common(pc)
    pc.add_argument("--input", default="-")
    pc.add_argument("--output", default="-")
    pc.set_defaults(func=cmd_convert)

    pk = sub.add_parser("compose", help="apply a composition-sequence map")
    pk.add_argument("--sequence", required=True,
                    help='semicolon tokens A:a M:l P:k R:k,alpha,r Inv E L')
    common(pk)
    grp = pk.add_mutually_exclusive_group()
    grp.add_argument("--transpose", action="store_true")
    grp.add_argument("--inverse", action="store_true")
    pk.add_argument("--input", default="-")
    pk.add_argument("--output", default="-")
    pk.set_defaults(func=cmd_compose)

    pm = sub.add_parser("matrix", help="dump a conversion matrix as CSV")
    pm.add_argument("--family", required=True)
    pm.add_argument("--dir", choices=["to-monomial", "from-monomial"],
                    default="to-monomial")
    common(pm, n_required=True)
    pm.add_argument("--output", default="-")
    pm.set_defaults(func=cmd_matrix)

    pb = sub.add_parser("bench", help="benchmark fast vs naive conversion")
    pb.add_argument("--family", required=True)
    pb.add_argument("--modulus", type=_flag_integer, default=DEFAULT_PRIME)
    pb.add_argument("--n-max", type=_flag_integer, default=4096)
    pb.add_argument("--naive-max", type=_flag_integer, default=4096,
                    help="largest n for the quadratic baseline columns")
    pb.add_argument("--csv", default="-")
    pb.set_defaults(func=cmd_bench)

    ps = sub.add_parser("selftest", help="run built-in oracle checks")
    ps.add_argument("--modulus", type=_flag_integer, default=DEFAULT_PRIME)
    ps.add_argument("--quick", action="store_true")
    ps.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except AlgebraError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
