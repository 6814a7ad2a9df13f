"""Acceptance suite: eight criteria, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the report lines.
"""

import math
import random
import time
from functools import partial

import pytest

from basisconv import (
    DEFAULT_PRIME,
    Modulus,
    NotInvertible,
    Poly,
    Pow,
    SingularDiagonal,
    compute_g,
    eval_seq,
    eval_seq_inv,
    eval_seq_t,
    exp_map,
    log_map,
)
from basisconv.densemat import conversion_matrix
from basisconv.families import from_monomial, parse_family, to_monomial
from basisconv.oracle import (
    _school_mul,
    bivariate_matrix,
    horner_compose,
    matvec,
    stirling_matrices,
)
from catalog_data import FAMILY_STRINGS, all_families, catalog_sequences

MOD = Modulus(DEFAULT_PRIME)


def _report(num, label, fn):
    try:
        fn()
    except BaseException:
        print(f"criterion {num} ({label}): FAIL")
        raise
    print(f"criterion {num} ({label}): PASS")


def _rand(n, rng):
    return [rng.randrange(MOD.p) for _ in range(n)]


def test_criterion_1_oracle_equivalence():
    def check():
        rng = random.Random(101)
        for ops in catalog_sequences(MOD):
            for n in (8, 16, 32, 64):
                g = compute_g(ops, n, MOD).g[-1]
                for _ in range(20):
                    A = Poly(MOD, _rand(n, rng), n)
                    assert eval_seq(A, ops, n).coeffs == horner_compose(A, g, n).coeffs

    _report(1, "evaluation matches Horner oracle", check)


def test_criterion_2_transposition():
    def check():
        rng = random.Random(102)
        n = 32
        for ops in catalog_sequences(MOD):
            for _ in range(50):
                A = Poly(MOD, _rand(n, rng), n)
                B = Poly(MOD, _rand(n, rng), n)
                lhs = sum(a * b for a, b in zip(eval_seq(A, ops, n).coeffs, B.coeffs)) % MOD.p
                rhs = sum(a * b for a, b in zip(A.coeffs, eval_seq_t(B, ops, n).coeffs)) % MOD.p
                assert lhs == rhs
        m = 16
        for ops in catalog_sequences(MOD):
            F, T = [], []
            for j in range(m):
                e = [0] * m
                e[j] = 1
                F.append(eval_seq(Poly(MOD, e, m), ops, m).coeffs)
                T.append(eval_seq_t(Poly(MOD, e, m), ops, m).coeffs)
            for i in range(m):
                for j in range(m):
                    assert T[i][j] == F[j][i]

    _report(2, "transposed evaluation", check)


def test_criterion_3_inversion():
    def check():
        rng = random.Random(103)
        n = 64
        for ops in catalog_sequences(MOD):
            for _ in range(20):
                A = Poly(MOD, _rand(n, rng), n)
                B = eval_seq(A, ops, n)
                assert eval_seq_inv(B, ops, n).coeffs == A.coeffs
        with pytest.raises(NotInvertible):
            eval_seq_inv(Poly(MOD, [1, 2, 3], 3), (Pow(2),), 3)

    _report(3, "inverse evaluation", check)


def test_criterion_4_exp_log_maps():
    def check():
        rng = random.Random(104)
        for n in (8, 32, 128):
            A = Poly(MOD, _rand(n, rng), n)
            assert log_map(exp_map(A, n), n).coeffs == A.coeffs
        n = 8
        base = [0] + list(MOD.inv_factorials(n))[1:]   # exp(x) - 1 mod x^8
        power = [1] + [0] * (n - 1)
        for j in range(n):
            e = [0] * n
            e[j] = 1
            col = exp_map(Poly(MOD, e, n), n).coeffs
            assert col == power, j
            power = _school_mul(MOD, power, base, n)

    _report(4, "exp/log evaluation maps", check)


def test_criterion_5_basis_conversions():
    def check():
        rng = random.Random(105)
        n = 24
        for fam in all_families(MOD):
            M = bivariate_matrix(fam.spec, n, MOD)
            cs = fam.prefactor(n)
            for j in range(n):
                e = [0] * n
                e[j] = 1
                col = to_monomial(e, fam, n, MOD).coeffs
                want = [M[i][j] * MOD.inv(cs[j]) % MOD.p for i in range(n)]
                assert col == want, (fam.name, j)
        n = 64
        for fam in all_families(MOD):
            a = _rand(n, rng)
            A = to_monomial(a, fam, n, MOD)
            if fam.name == "spread":
                with pytest.raises(SingularDiagonal):
                    from_monomial(A, fam, n, MOD)
                continue
            assert from_monomial(A, fam, n, MOD) == a, fam.name

    _report(5, "20-family conversions vs oracle", check)


def test_criterion_6_cross_family_ground_truth():
    def check():
        n = 20
        s, S = stirling_matrices(MOD, n)
        fam = parse_family(MOD, "falling")
        for j in range(n):
            e = [0] * n
            e[j] = 1
            assert to_monomial(e, fam, n, MOD).coeffs == [s[j][i] for i in range(n)]
            assert from_monomial(Poly(MOD, e, n), fam, n, MOD) == [
                S[j][i] for i in range(n)
            ]
        n = 16
        fam = parse_family(MOD, "hermite")
        cols = []
        for j in range(n):
            e = [0] * n
            e[j] = 1
            cols.append(to_monomial(e, fam, n, MOD).coeffs)
        for j in range(1, n - 1):
            want = [0] * n
            for i in range(n - 1):
                want[i + 1] = 2 * cols[j][i] % MOD.p
            for i in range(n):
                want[i] = (want[i] - 2 * j * cols[j - 1][i]) % MOD.p
            assert cols[j + 1] == want
        alpha = 3
        fam = parse_family(MOD, f"laguerre(alpha={alpha})")
        cols = []
        for j in range(n):
            e = [0] * n
            e[j] = 1
            cols.append(to_monomial(e, fam, n, MOD).coeffs)
        for j in range(1, n - 1):
            want = [(2 * j + 1 + alpha) * c % MOD.p for c in cols[j]]
            for i in range(n - 1):
                want[i + 1] = (want[i + 1] - cols[j][i]) % MOD.p
            for i in range(n):
                want[i] = (want[i] - (j + alpha) * cols[j - 1][i]) % MOD.p
            inv = MOD.inv(j + 1)
            assert cols[j + 1] == [w * inv % MOD.p for w in want]

    _report(6, "Stirling and three-term recurrences", check)


def _best_time(fn, repeats=3):
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def test_criterion_7_performance_shape():
    def check():
        rng = random.Random(107)
        for name, bound in [("jacobi(alpha=3,beta=5)", 3.0), ("mittag_leffler", 3.5)]:
            fam = parse_family(MOD, name)
            calls = []
            for e in (13, 14, 15, 16):
                n = 1 << e
                call = partial(to_monomial, _rand(n, rng), fam, n, MOD)
                call()   # warm caches for this size
                calls.append(call)
            # each size's best over interleaved rounds, one timing per size a
            # round: a load spike that lasts one size's timings skews no ratio
            times = [math.inf] * len(calls)
            for _ in range(3):
                times = [min(t, _best_time(call, repeats=1)) for t, call in zip(times, calls)]
            for lo, hi in zip(times, times[1:]):
                ratio = hi / lo
                assert ratio <= bound, (name, times, ratio)
        # fast vs the quadratic matrix-apply at n = 2048
        n = 2048
        for name in ("jacobi(alpha=3,beta=5)", "mittag_leffler"):
            fam = parse_family(MOD, name)
            a = _rand(n, rng)
            to_monomial(a, fam, n, MOD)
            fast = _best_time(lambda: to_monomial(a, fam, n, MOD))
            M = conversion_matrix(fam.spec, n, MOD)
            cs = fam.prefactor(n)
            b = [a[j] * MOD.inv(cs[j]) % MOD.p for j in range(n)]
            naive = _best_time(lambda: matvec(MOD, M, b), repeats=1)
            assert naive >= 5 * fast, (name, fast, naive)

    _report(7, "quasi-linear scaling and naive speedup", check)


def test_criterion_8_precision_schedule():
    def check():
        for name in ("fibonacci", "mott"):
            ops = parse_family(MOD, name).spec.h_ops
            t64 = compute_g(ops, 64, MOD)
            t256 = compute_g(ops, 256, MOD)
            for i in range(len(ops)):
                n_i = t64.schedule[i]
                assert t64.g[i].coeffs == t256.g[i].coeffs[:n_i], (name, i)

    _report(8, "root-aware precision schedule", check)
