import math
import random
import time

import numpy as np
import pytest

from basisconv import (
    CapacityExceeded,
    DEFAULT_PRIME,
    DivisionByZero,
    Modulus,
    Poly,
    PrecisionExceedsModulus,
    mul_trunc,
    mul_trunc_t,
    poly_mul,
)
from basisconv.modfield import (
    _convolve,
    _convolve_rows,
    _convolve_schoolbook,
    _image,
    _image_coeffs,
    _image_mul,
    _factorize,
    is_prime,
    PRIME_BOUND,
)

# 40-bit prime with 2-adicity 20: its NTT runs on rows of Python ints
P40 = 1099489607681


def _school(a, b, p):
    """The product of two lists by the Python-int schoolbook: the reference."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return [c % p for c in out]


def test_is_prime_basics():
    assert is_prime(2) and is_prime(3) and is_prime(101)
    assert is_prime(DEFAULT_PRIME)
    assert is_prime(P40)
    assert not is_prime(1) and not is_prime(0)
    assert not is_prime(2013265921 - 2)
    assert not is_prime(15 * (1 << 27))


def test_modulus_construction(mod, mod101):
    assert mod.max_ntt_len == 1 << 27
    assert mod101.max_ntt_len == 1 << 2
    # primitive root: order p-1 exactly
    g = mod101.primitive_root
    assert pow(g, 100, 101) == 1
    assert pow(g, 50, 101) != 1 and pow(g, 20, 101) != 1
    with pytest.raises(ValueError):
        Modulus(100)


def test_large_modulus_sets_up_fast():
    # a 61-bit safe prime: p - 1 = 2q with q prime, past any trial division
    p = 1152921504606849707
    t0 = time.perf_counter()
    mod = Modulus(p)
    assert time.perf_counter() - t0 < 1.0
    factors = _factorize(p - 1)
    assert factors == {2: 1, (p - 1) // 2: 1}
    g = mod.primitive_root
    assert all(pow(g, (p - 1) // q, p) != 1 for q in factors)
    # a cofactor of two 30-bit primes needs the rho split
    a, b = 536870923, 1073741827
    assert _factorize(12 * a * b) == {2: 2, 3: 1, a: 1, b: 1}
    assert _factorize(a * a) == {a: 2}


def test_modulus_rejects_primes_beyond_the_primality_bound():
    # 2^89 - 1 is prime, but Miller-Rabin with fixed bases is not proof there
    with pytest.raises(ValueError, match=str(PRIME_BOUND)):
        Modulus(2**89 - 1)
    assert Modulus(3317044064679887385961813).p < PRIME_BOUND


def test_scalar_arithmetic(mod101):
    p = 101
    assert mod101.add(70, 70) == 39
    assert mod101.sub(3, 5) == p - 2
    assert mod101.mul(51, 2) == 1
    assert mod101.inv(2) == 51
    assert mod101.pow(3, -1) == mod101.inv(3)
    assert mod101.pow(7, 0) == 1
    # huge exponent reduced via Fermat
    assert mod101.pow(5, 10**30) == pow(5, 10**30 % 100, 101)
    with pytest.raises(DivisionByZero):
        mod101.inv(0)
    with pytest.raises(DivisionByZero):
        mod101.pow(0, -3)


def test_factorial_tables(mod101):
    fact = mod101.factorials(12)
    for k in range(12):
        assert fact[k] == math.factorial(k) % 101
    invf = mod101.inv_factorials(12)
    for k in range(12):
        assert fact[k] * invf[k] % 101 == 1


def test_precision_guard(mod101):
    mod101.check_precision(100)
    with pytest.raises(PrecisionExceedsModulus):
        mod101.check_precision(101)


def test_convolve_matches_schoolbook(mod):
    rng = random.Random(1)
    # (2000, 100) transforms at size 4096 >= CORRECTION_MIN
    for la, lb in [(1, 1), (5, 9), (31, 2), (40, 40), (100, 3), (257, 255), (2000, 100)]:
        a = [rng.randrange(mod.p) for _ in range(la)]
        b = [rng.randrange(mod.p) for _ in range(lb)]
        assert _convolve(mod, a, b).tolist() == _school(a, b, mod.p)


@pytest.mark.parametrize("p", [DEFAULT_PRIME, P40])
def test_schoolbook_exact_on_largest_residues(p):
    # every product (p-1)^2 is the largest a residue pair gives; a column of
    # up to 31 of them must not overflow int64 on the way to its residue
    mod = Modulus(p)
    for la in range(1, 32):
        for lb in (1, la, 32 - la):
            a, b = [p - 1] * la, [p - 1] * lb
            want = _school(a, b, p)
            A, B = np.array(a, dtype=mod.dtype), np.array(b, dtype=mod.dtype)
            assert _convolve_schoolbook(A, B, p).tolist() == want, (la, lb)
            assert _convolve(mod, A, B).tolist() == want, (la, lb)


def test_convolve_scalar_ntt_path():
    mod = Modulus(P40)
    assert mod.dtype is object
    rng = random.Random(2)
    a = [rng.randrange(mod.p) for _ in range(70)]
    b = [rng.randrange(mod.p) for _ in range(65)]
    assert _convolve(mod, a, b).tolist() == _school(a, b, mod.p)


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 97, 101, P40])
def test_convolve_rows_matches_convolve(p):
    # product lengths that _convolve sends to the schoolbook (all of them for
    # la = 1) and to transforms (balanced, from about 390 on DEFAULT_PRIME and
    # 45 on P40), and for 97 = 3 * 2^5 + 1 and 101 = 25 * 2^2 + 1 lengths on
    # both sides of max_ntt_len; P40 transforms rows of Python ints
    mod = Modulus(p)
    dtype = mod.dtype
    rng = random.Random(5)
    edges = {mod.max_ntt_len, mod.max_ntt_len + 1} if mod.max_ntt_len <= 64 else {300, 600}
    for out_len in sorted(edges | {1, 2, 31, 32, 33, 100}):
        for la in (1, (out_len + 1) // 2, out_len):
            lb = out_len + 1 - la
            A = [[rng.randrange(p) for _ in range(la)] for _ in range(3)]
            B = [[rng.randrange(p) for _ in range(lb)] for _ in range(3)]
            rows = _convolve_rows(mod, np.array(A, dtype=dtype), np.array(B, dtype=dtype))
            want = [_school(a, b, p) for a, b in zip(A, B)]
            assert rows.tolist() == want == [_convolve(mod, a, b).tolist() for a, b in zip(A, B)]


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 101, P40])
def test_image_products_are_cyclic(p):
    # images multiply rows mod x^size - 1, with or without a transform
    mod = Modulus(p)
    dtype = mod.dtype
    rng = random.Random(6)
    size = 8
    A = [[rng.randrange(p) for _ in range(size)] for _ in range(2)]
    B = [[rng.randrange(p) for _ in range(size - 3)] for _ in range(2)]
    X = _image(mod, np.array(A, dtype=dtype), size)
    Y = _image(mod, np.array(B, dtype=dtype), size)
    got = _image_coeffs(mod, _image_mul(mod, X, Y), size).tolist()
    for row, a, b in zip(got, A, B):
        lin = _school(a, b, p) + [0] * (size + 3)
        assert row == [(lin[i] + lin[i + size]) % p for i in range(size)]


def test_bitrev_indices_reverse_the_bits(mod):
    for size in (1, 2, 8, 1024):
        bits = size.bit_length() - 1
        want = [int(f"{i:0{bits}b}"[::-1], 2) if bits else 0 for i in range(size)]
        assert mod._bitrev_indices(size).tolist() == want


def test_small_prime_fallback_and_capacity(mod101):
    rng = random.Random(3)
    # too few roots of unity: schoolbook still gives the exact product
    a = [rng.randrange(101) for _ in range(80)]
    b = [rng.randrange(101) for _ in range(80)]
    assert _convolve(mod101, a, b).tolist() == _school(a, b, 101)
    with pytest.raises(CapacityExceeded):
        _convolve(mod101, [1] * 1500, [1] * 1500)


def test_poly_invariants(mod101):
    A = Poly(mod101, [1, 2], 5)
    assert A.dim == 5 and A.coeffs == [1, 2, 0, 0, 0]
    assert A.degree() == 1 and A.valuation() == 0 and A.constant() == 1
    Z = Poly.zero(mod101, 3)
    assert Z.degree() == -1 and Z.valuation() is None
    X = Poly.x(mod101, 4)
    assert X.coeffs == [0, 1, 0, 0]
    assert Poly.x(mod101, 1).coeffs == [0]
    # coefficients normalized into [0, p)
    assert Poly(mod101, [-1, 102]).coeffs == [100, 1]


def test_poly_mul_dims(mod101):
    a = Poly(mod101, [1, 1], 2)
    b = Poly(mod101, [1, 2, 1], 3)
    c = poly_mul(a, b)
    assert c.dim == 4
    assert c.coeffs == [1, 3, 3, 1]


def test_mul_trunc(mod101):
    rng = random.Random(4)
    a = Poly(mod101, [rng.randrange(101) for _ in range(9)], 9)
    P = Poly(mod101, [rng.randrange(101) for _ in range(6)], 6)
    full = poly_mul(a, P)
    for n in (1, 4, 9, 14, 20):
        assert mul_trunc(a, P, n).coeffs == (full.coeffs + [0] * 20)[:n]


def test_mul_trunc_t_identity_and_2x2(mod101):
    a = Poly(mod101, [7, 9, 13], 3)
    assert mul_trunc_t(a, Poly(mod101, [1], 1), 3).coeffs == [7, 9, 13]
    # P = 1+x on K[x]_2: matrix [[1,0],[1,1]], transpose sends (b0,b1)
    # to (b0+b1, b1)
    b = Poly(mod101, [5, 8], 2)
    assert mul_trunc_t(b, Poly(mod101, [1, 1], 2), 2).coeffs == [13, 8]


def _matrix_of(fn, n_in, n_out, mod):
    cols = []
    for j in range(n_in):
        e = [0] * n_in
        e[j] = 1
        cols.append(fn(Poly(mod, e, n_in)).coeffs)
    return [[cols[j][i] for j in range(n_in)] for i in range(n_out)]


def test_mul_trunc_t_is_transpose(mod101):
    rng = random.Random(5)
    for n, m, dp in [(2, 2, 1), (5, 3, 4), (3, 7, 2), (8, 8, 8), (6, 1, 3)]:
        P = Poly(mod101, [rng.randrange(101) for _ in range(dp + 1)], dp + 1)
        fwd = _matrix_of(lambda A: mul_trunc(A, P, n), m, n, mod101)
        bwd = _matrix_of(lambda A: mul_trunc_t(A, P, m), n, m, mod101)
        for i in range(m):
            for j in range(n):
                assert bwd[i][j] == fwd[j][i]
