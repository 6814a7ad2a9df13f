import itertools
import math
import operator
import random
import time
import tracemalloc

import numpy as np
import pytest

from basisconv import (
    DEFAULT_PRIME,
    CapacityExceeded,
    DivisionByZero,
    DomainViolation,
    Modulus,
    Poly,
    PrecisionExceedsModulus,
    eval_bivariate,
    mul_trunc,
    mul_trunc_t,
    poly_mul,
)
from basisconv import evalgrid, families, modfield, oracle, polyops
from basisconv.evalgrid import LEAF_SIZE
from basisconv.modfield import (
    _convolve,
    _convolve_rows,
    _convolve_schoolbook,
    _fit,
    _image,
    _image_mul,
    _kept_limbs,
    _limb_coeffs,
    _limbs,
    _middle_products,
    _mul_fixed,
    _prefix_products,
    _residues,
    _width,
    fft_error_bound,
    is_prime,
    PRIME_BOUND,
)
from basisconv.oracle import kronecker_mul, worst_residue

# 40-bit prime: rows of Python ints, three 14-bit limbs up to size 2^13
# and four 11-bit limbs beyond
P40 = 1099489607681
# primes of 2-adicity 1: no roots of unity past order 2
NO_ROOTS_PRIME = 1000003
OBJECT_PRIME_NO_ROOTS = 2147483659


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
    # the limb layouts follow from p alone: the fewest limbs, of the
    # narrowest width that holds every residue, whose bound admits the size
    # of a float image or the inner dimension of a dense product; up to one
    # limb of a bit each, past which no layout is exact
    assert [mod.layout(1 << k) for k in (1, 10, 11, 19, 20, 24, 25, 35, 36)] == [
        (2, 16), (2, 16), (3, 11), (3, 11), (4, 8), (4, 8), (5, 7), (32, 1), None,
    ]
    assert [mod.layout(b, dense=True) for b in (1, 136, 137, 4369, 4370)] == [
        (2, 16), (2, 16), (3, 11), (3, 11), (4, 8),
    ]
    # at every size up to 2^19 as before narrower limbs joined the rule, for
    # DEFAULT_PRIME and P40
    assert [mod.layout(1 << k) for k in range(1, 20)] == [(2, 16)] * 10 + [(3, 11)] * 9
    p40 = Modulus(P40)
    want = [(2, 21)] * 2 + [(3, 14)] * 11 + [(4, 11)] * 6
    assert [p40.layout(1 << k) for k in range(1, 20)] == want
    # one limb of bits(p - 1) + 1 bits for p = 101
    assert [mod101.layout(1 << k) for k in (1, 26, 27, 37, 38)] == [
        (1, 8), (1, 8), (2, 4), (8, 1), None,
    ]
    with pytest.raises(ValueError):
        Modulus(100)


def test_large_modulus_sets_up_fast():
    # a 61-bit safe prime: p - 1 = 2q with q prime, past any trial division
    p = 1152921504606849707
    t0 = time.perf_counter()
    mod = Modulus(p)
    assert time.perf_counter() - t0 < 1.0
    assert [mod.layout(1 << k) for k in (18, 19, 34, 35)] == [(6, 11), (7, 9), (62, 1), None]


def test_square_roots_of_minus_one_are_pinned():
    # meixner_pollaczek's default i is c^((p - 1)/4) for the least quadratic
    # non-residue c; the catalog's outputs depend on it
    assert families._sqrt_minus_one(Modulus(DEFAULT_PRIME)) == 1728404513
    assert families._sqrt_minus_one(Modulus(P40)) == 874192144897


def test_modulus_rejects_primes_beyond_the_primality_bound():
    # 2^89 - 1 is prime, but Miller-Rabin with fixed bases is not proof there
    with pytest.raises(ValueError, match=str(PRIME_BOUND)):
        Modulus(2**89 - 1)
    assert Modulus(3317044064679887385961813).p < PRIME_BOUND


def test_scalar_arithmetic(mod101):
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


@pytest.mark.parametrize("p", [DEFAULT_PRIME, P40])
def test_blocked_prefix_products_equal_running_products(p):
    # arrays of more than PREFIX_SCAN_MAX = 1024 entries take the blocked
    # scan in blocks of PREFIX_BLOCK = 8: rows one short of, at and one past
    # a whole number of blocks, of one block (200 x 7 and 200 x 8) or more,
    # 1-D and each row of a 2-D array, on both sides of the cut
    assert (modfield.PREFIX_SCAN_MAX, modfield.PREFIX_BLOCK) == (1024, 8)
    mod = Modulus(p)
    rng = np.random.default_rng(35)
    lengths = (1, 2, 7, 8, 9, 511, 1023, 1024, 1025, 1031, 1032, 1033, (1 << 15) + 3)
    for n in lengths:
        for shape in [(n,), (3, n)] + ([(200, n)] if n < 1024 else []):
            values = rng.integers(0, 1 << 62, shape).astype(mod.dtype)
            got = _prefix_products(values, p)
            assert got.shape == shape and got.dtype == values.dtype, n
            want = [
                list(itertools.accumulate((int(v) for v in row), lambda a, b: a * b % p))
                for row in values.reshape(-1, n)
            ]
            want = np.array(want, dtype=object).reshape(shape) % p
            assert got.tolist() == want.tolist(), (n, shape)


@pytest.mark.parametrize("p", [DEFAULT_PRIME, P40, 101])
def test_residues_of_integer_lists(p):
    # integer lists read as one int64 array; values beyond int64, numpy
    # scalars among Python ints and object rows through Python ints: all
    # reduced mod p, as fresh arrays of mod.dtype (bools are refused:
    # test_every_entry_point_reads_inputs_by_one_rule)
    mod = Modulus(p)
    big = 1 << 70
    cases = [
        [3, -1, -p, p, p + 5, 2 * p - 1, -(1 << 62)],
        [(1 << 63) - 1, -(1 << 63)],
        [1 << 63, big, -big, 7],
        [np.int64(-5), np.int32(7), np.uint64((1 << 64) - 1), 3],
        [np.uint8(200), np.int16(-3)],
        np.array([5, -big, p], dtype=object),
        np.array([-7, 2**31 - 1], dtype=np.int32),
        np.array([(1 << 64) - 1, 2], dtype=np.uint64),
        [],
    ]
    for values in cases:
        got = _residues(mod, values)
        assert got.dtype == mod.dtype and got is not values, values
        assert got.tolist() == [operator.index(v) % p for v in values], values
        assert all(type(v) is int for v in got.tolist())


def test_precision_guard(mod101):
    mod101.check_precision(100)
    with pytest.raises(PrecisionExceedsModulus):
        mod101.check_precision(101)


def test_convolve_matches_schoolbook(mod):
    rng = random.Random(1)
    # (257, 255) and (2000, 100) transform, at sizes 512 and 4096
    for la, lb in [(1, 1), (5, 9), (31, 2), (40, 40), (100, 3), (257, 255), (2000, 100)]:
        a = [rng.randrange(mod.p) for _ in range(la)]
        b = [rng.randrange(mod.p) for _ in range(lb)]
        assert _convolve(mod, a, b).tolist() == _school(a, b, mod.p)


def test_schoolbook_rows_reuse_a_zeroed_work_array():
    # on int64 rows the schoolbook writes rows of SCHOOLBOOK_ROWS_KEPT entries
    # or more into the thread's work array; after a larger product has left
    # nonzero entries there, shorter ones still read zero pad columns, and
    # the array does not grow
    mod = Modulus(DEFAULT_PRIME)
    rng = random.Random(21)
    a, b = ([rng.randrange(1, mod.p) for _ in range(k)] for k in (16, 4096))
    _convolve_schoolbook(np.array(a), np.array(b), mod.p)
    held = modfield.work_bytes()
    assert 16 * (16 + 4096) >= modfield.SCHOOLBOOK_ROWS_KEPT > 10 * 3000
    for la, lb in ((3, 7), (10, 3300), (12, 2800), (16, 4096)):
        a, b = ([rng.randrange(mod.p) for _ in range(k)] for k in (la, lb))
        got = _convolve_schoolbook(np.array(a), np.array(b), mod.p)
        assert got.tolist() == _school(a, b, mod.p), (la, lb)
    assert modfield.work_bytes() == held


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


def test_convolve_on_object_rows():
    mod = Modulus(P40)
    assert mod.dtype is object
    rng = random.Random(2)
    a = [rng.randrange(mod.p) for _ in range(70)]
    b = [rng.randrange(mod.p) for _ in range(65)]
    assert _convolve(mod, a, b).tolist() == _school(a, b, mod.p)


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 97, 101, P40])
def test_convolve_rows_matches_convolve(p):
    # product lengths that _convolve sends to the schoolbook (all of them for
    # la = 1) and to transforms (balanced, from about 160 on DEFAULT_PRIME and
    # 45 on P40); 97 and 101 take one limb, P40 four on rows of Python ints
    mod = Modulus(p)
    dtype = mod.dtype
    rng = random.Random(5)
    for out_len in (1, 2, 31, 32, 33, 100, 300, 600):
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
    X = _image(mod, np.array(A, dtype=dtype), size, mod.layout(size))
    Y = _image(mod, np.array(B, dtype=dtype), size, mod.layout(size))
    charge = math.sqrt(size * (size - 3))
    got = _image_mul(mod, X, Y, charge, size).tolist()
    for row, a, b in zip(got, A, B):
        lin = _school(a, b, p) + [0] * (size + 3)
        assert row == [(lin[i] + lin[i + size]) % p for i in range(size)]


def test_small_prime_fallback_and_capacity(mod101):
    rng = random.Random(3)
    # short products take the schoolbook, longer ones the float kernel
    a = [rng.randrange(101) for _ in range(80)]
    b = [rng.randrange(101) for _ in range(80)]
    assert _convolve(mod101, a, b).tolist() == _school(a, b, 101)
    a = np.array([rng.randrange(101) for _ in range(1500)], dtype=np.int64)
    b = np.array([rng.randrange(101) for _ in range(1500)], dtype=np.int64)
    assert np.array_equal(_convolve(mod101, a, b), _convolve_schoolbook(a, b, 101))
    # products past size 2^19, at 2^21 in one 8-bit limb and at 2^20 in four:
    # coefficient k of the square of l ones is min(k + 1, 2 l - 1 - k)
    for mod, l in ((mod101, (1 << 19) + 1), (Modulus(DEFAULT_PRIME), (1 << 18) + 1)):
        ones = np.ones(l, dtype=np.int64)
        k = np.arange(2 * l - 1)
        assert np.array_equal(_convolve(mod, ones, ones), np.minimum(k + 1, 2 * l - 1 - k) % mod.p)
    # and every size on rows of Python ints
    mod = Modulus(OBJECT_PRIME_NO_ROOTS)
    a, b = ([rng.randrange(mod.p) for _ in range(1500)] for _ in range(2))
    assert _convolve(mod, a, b).tolist() == kronecker_mul(mod.p, [a], [b])[0]


def test_float_kernel_needs_no_roots(monkeypatch):
    # 1000003 = 2 * 500001 + 1 has no roots of unity of order 4, but every
    # float size
    mod = Modulus(NO_ROOTS_PRIME)
    assert all(mod.layout(1 << k) for k in range(1, 12))
    rng = np.random.default_rng(8)
    a, b = rng.integers(0, mod.p, (2, 1100))
    assert np.array_equal(_convolve(mod, a, b), _convolve_schoolbook(a, b, mod.p))
    # basisconv selftest checks the least float size, 2, and each layout of
    # the rows and of the image that some product takes up to 2^17, at the
    # largest size where one does, by the kind of product of the largest
    # charge there (oracle.KINDS): against the Kronecker product up to 2^14,
    # on constant rows beyond.  On int64 rows (1000003): plain products in
    # one 21-bit limb up to 8 and in two 11-bit ones to 2^17, summed in
    # pairs at both (a grid level's plain image), and rows of one 21-bit
    # limb by an image of two 11-bit ones to 2^13, a Newton step's.  On rows
    # of Python ints (P40): plain in two 21-bit limbs up to 4, three 14-bit
    # ones up to 2^13 and four 11-bit ones to 2^17; rows of two 21-bit limbs
    # by three 14-bit ones to 2^9 and of three 14-bit limbs by four 11-bit
    # ones to 2^17, a grid level's
    checked, agrees = [], oracle._float_agrees

    def recorded(mod, size, kind, constant=False):
        checked.append((mod.p, size, kind, constant))
        return agrees(mod, size, kind, constant)

    monkeypatch.setattr(oracle, "_float_agrees", recorded)
    for p in (NO_ROOTS_PRIME, P40):
        assert oracle.float_kernel_agrees(Modulus(p))
    big = 1 << 17
    assert checked == [
        (NO_ROOTS_PRIME, 2, "plain", False), (NO_ROOTS_PRIME, 8, "level", False),
        (NO_ROOTS_PRIME, 1 << 13, "newton", False), (NO_ROOTS_PRIME, big, "level", True),
        (P40, 2, "plain", False), (P40, 4, "level", False), (P40, 512, "level", False),
        (P40, 1 << 13, "level", False), (P40, big, "level", True), (P40, big, "plain", True),
    ]


@pytest.mark.parametrize(
    "p, values, want",
    [
        (DEFAULT_PRIME, [1, 2], [1, 2]),
        (DEFAULT_PRIME, [-1, 3 * DEFAULT_PRIME + 5], [DEFAULT_PRIME - 1, 5]),
        (DEFAULT_PRIME, [2**70, 1], [2**70 % DEFAULT_PRIME, 1]),
        (DEFAULT_PRIME, np.array([7, DEFAULT_PRIME]), [7, 0]),
        (DEFAULT_PRIME, [1.5, 2], "coefficient 0 = 1.5 "),
        (DEFAULT_PRIME, np.array([1.7, 2.2]), "coefficient 0 = np.float64"),
        (DEFAULT_PRIME, ["3", 2], "coefficient 0 = '3' "),
        (DEFAULT_PRIME, [2, 2**70, 0.0], "coefficient 2 = 0.0 "),
        (P40, np.array([3, P40 + 4, -1], dtype=object), [3, 4, P40 - 1]),
        (P40, np.array([7, 2**70], dtype=object), [7, 2**70 % P40]),
        (P40, np.array([1.5, 2], dtype=object), "coefficient 0 = 1.5 "),
        (P40, np.array([2, "3"], dtype=object), "coefficient 1 = '3' "),
    ],
)
def test_polys_read_integers_alone(p, values, want):
    # integer entries reduce mod p, beyond int64 too and in object rows; an
    # entry that is no integer (a float, even a whole one, or a string)
    # raises, where int() would have truncated or parsed it, and so do a
    # bivariate evaluation given such a row and a conversion
    mod = Modulus(p)
    if isinstance(want, str):
        fam = families.parse_family(mod, "laguerre(alpha=3)")
        with pytest.raises(DomainViolation, match=want):
            Poly(mod, values)
        with pytest.raises(DomainViolation, match=want):
            eval_bivariate(values, fam.spec, len(values), mod)
        with pytest.raises(DomainViolation, match=want):
            families.to_monomial(values, fam, len(values), mod)
    else:
        assert Poly(mod, values).coeffs == want


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


def test_mul_trunc_t_by_a_short_factor_transforms_nothing(mod, transforms):
    # the transpose reads P up to its degree e only: by (1 - t)^4 at n = 4096
    # it is a 4096 x 5 schoolbook product, given as a Poly or kept
    n = 4096
    rng = np.random.default_rng(60)
    a = Poly.of(mod, rng.integers(0, mod.p, n))
    binom = [1, -4, 6, -4, 1]
    P = Poly(mod, binom, n)
    # coefficient j of the transpose is sum_t a_(j+t) P_t
    want = np.zeros(n, dtype=np.int64)
    for t, c in enumerate(binom):
        want[: n - t] += a.arr[t:] * (c % mod.p) % mod.p
    want %= mod.p
    fixed = modfield._fixed_operand(mod, P.arr, n)
    assert isinstance(fixed, np.ndarray) and len(fixed) == 5
    transforms.clear()
    assert np.array_equal(mul_trunc_t(a, P, n).arr, want)
    assert np.array_equal(mul_trunc_t(a, fixed, n).arr, want)
    assert not transforms


@pytest.mark.parametrize("n", [300, 4096, 16384])
def test_fixed_operands_keep_their_image_at_every_size(mod, transforms, n):
    # a product by a kept operand, forward or transposed, makes one forward
    # and one inverse transform at every size, 768 KB of float image at 16384 too
    rng = np.random.default_rng(n)
    a = Poly.of(mod, rng.integers(0, mod.p, n))
    P = Poly.of(mod, rng.integers(0, mod.p, n))
    want = mul_trunc(a, P, n), mul_trunc_t(a, P, n)
    fixed = modfield._fixed_operand(mod, P.arr, n)
    assert fixed.image.ndim > 1
    for product, ref in zip((mul_trunc, mul_trunc_t), want):
        transforms.clear()
        assert product(a, fixed, n) == ref
        assert transforms.counts() == (1, 1)


def test_warm_products_by_a_kept_operand_stay_small(mod):
    # a warm product writes its transients into the thread's work arrays:
    # a transposed product of a length-16384 row by a kept operand peaks
    # below 4 n doubles (fresh transients took 3.7 MB)
    n = 16384
    rng = np.random.default_rng(61)
    a = Poly.of(mod, rng.integers(0, mod.p, n))
    fixed = modfield._fixed_operand(mod, rng.integers(0, mod.p, n), n)
    want = mul_trunc_t(a, fixed, n)
    tracemalloc.start()
    try:
        got = mul_trunc_t(a, fixed, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 4 * n * 8, peak


def test_kept_images_and_results_never_alias_the_work_arrays(mod):
    # after products at the same size by other operands, the kept images (a
    # fixed operand's and each grid-tree level's) and every returned row
    # array share no memory with the thread's work arrays, and hold what
    # they held
    n = 4096
    rng = np.random.default_rng(62)
    A, B, C = (Poly.of(mod, rng.integers(0, mod.p, n)) for _ in range(3))
    fixed = modfield._fixed_operand(mod, B.arr, n)
    tree = evalgrid._grid_tree(mod, n)
    kept = [fixed.image, tree.den_fixed.image] + tree.img[tree.leaf :]
    # float images; the fixed operand and 1/D at size 8192 and the levels at
    # 2048 and 4096 scaled
    assert [X.ndim for X in kept] == [4, 4, 3, 3, 4, 4]
    rows = [
        mul_trunc(A, fixed, n).arr,
        mul_trunc_t(A, fixed, n).arr,
        poly_mul(A, B).arr,
        evalgrid.multieval_grid(A),
        evalgrid.interp_grid(mod, A.arr).arr,
        evalgrid.multieval_grid_t(mod, A.arr).arr,
        evalgrid.interp_grid_t(A),
    ]
    saved = [X.copy() for X in kept + rows]
    other = modfield._fixed_operand(mod, C.arr, n)
    for P in (B, C):
        for args in ((A, other, n), (P, fixed, n), (A, P, n)):
            mul_trunc(*args), mul_trunc_t(*args)
        poly_mul(P, A), evalgrid.multieval_grid(P), evalgrid.interp_grid_t(P)
    work = list(modfield._work.buffers.values())
    assert work and modfield.work_bytes() == sum(w.nbytes for w in work)
    for X, was in zip(kept + rows, saved):
        assert not any(np.shares_memory(X, w) for w in work)
        assert np.array_equal(X, was)


FLOAT_SIZES = [1 << k for k in range(1, 18)]
# one prime of each limb count of 11-bit limbs and row dtype, up to
# PRIME_BOUND: L = 3 on int64 and on object rows, 4, 6 and 8; each takes
# fewer, wider limbs at smaller sizes
LIMB_PRIMES = [
    DEFAULT_PRIME,
    OBJECT_PRIME_NO_ROOTS,
    P40,
    1152921504606849707,
    3317044064679887385961813,
]


def _wide_limb_sizes(p):
    """(L, w, size) for every layout of p of limbs of at least 11 bits, at
    the largest size it serves: up to 2^18 or 2^19 for LIMB_PRIMES.  Past
    them the sizes grow to 2^33 and more."""
    return [(L, w, size) for L, w, size, _ in Modulus(p)._layouts if w >= 11 and size]


# the first size past 2^19, where DEFAULT_PRIME takes four 8-bit limbs and
# rows multiplied by a scaled image three 11-bit ones
PAST_2_19 = 1 << 20


def _rounding_error(c):
    """max |c - rint(c)| over the float array c, which it overwrites."""
    c -= np.rint(c)
    return np.abs(c, out=c).max()


def _with_rounding_error(monkeypatch, product):
    """(the rounding error of the class coefficients of the one float
    product that product() makes, as they enter the inverse transform
    (modfield._limb_coeffs), and what product() returns)."""
    errors, limb_coeffs = [], modfield._limb_coeffs

    def recorded(p, Z, size, *args):
        errors.append(_rounding_error(np.fft.irfft(Z, size, axis=-1)))
        return limb_coeffs(p, Z, size, *args)

    with monkeypatch.context() as patch:
        patch.setattr(modfield, "_limb_coeffs", recorded)
        out = product()
    [error] = errors
    return error, out


def _middle_product(mod, a, b, out_len):
    """The middle product of a by the one kept operand b."""
    return _middle_products(mod, a, (b,), out_len)[0]


@pytest.fixture
def fresh_work(monkeypatch):
    """Work arrays of this test only, so that those of products past 2^19,
    hundreds of MB, are freed after it."""
    monkeypatch.setattr(modfield, "_work", modfield._Work())


@pytest.mark.parametrize(
    "p, size",
    [pytest.param(DEFAULT_PRIME, size, id=str(size)) for size in FLOAT_SIZES]
    + [pytest.param(p, _wide_limb_sizes(p)[-1][2], id=f"{p}-largest") for p in LIMB_PRIMES]
    + [
        pytest.param(p, size, id=f"{p}-{L}x{w}")
        for p in LIMB_PRIMES
        for L, w, size in _wide_limb_sizes(p)[:-1]
    ]
    + [pytest.param(DEFAULT_PRIME, PAST_2_19, id=f"{DEFAULT_PRIME}-4x8")],
)
def test_float_kernel_exact_on_worst_operands(p, size, fresh_work, monkeypatch):
    # from the least size the float kernel takes on to the largest each limb
    # layout of at least 11 bits admits, and at 2^20 in four 8-bit limbs for
    # DEFAULT_PRIME, with the worst residue of the layout at that size (two
    # 16-bit limbs up to 2^10 for DEFAULT_PRIME, three 11-bit ones from 2^11;
    # three 14-bit limbs up to 2^13 for P40).
    # Constant rows have a closed form: coefficient k of the square of l ones
    # is min(k + 1, 2 l - 1 - k), and the cyclic square of `size` ones is
    # `size` everywhere.  It stands in for the Kronecker product, which takes
    # seconds on the largest rows
    mod = Modulus(p)
    L, w = mod.layout(size)
    values = np.array([[worst_residue(p, L, w)], [p - 1]], dtype=mod.dtype)
    half = np.repeat(values, size // 2, axis=1)
    full = np.repeat(values, size, axis=1)
    k = np.arange(size - 1)
    want = values * values % p * np.minimum(k + 1, size - 1 - k).astype(mod.dtype) % p
    # single and batched rows, and a product by a kept fixed operand
    assert np.array_equal(_convolve_rows(mod, half[:1], half[:1]), want[:1])
    assert np.array_equal(_convolve_rows(mod, half, half), want)
    fixed = modfield._Kept(_image(mod, half[1:], size, (L, w)), size // 2)
    assert fixed.image.shape[:2] == (1, L)
    assert np.array_equal(_mul_fixed(mod, half[1], fixed, size - 1), want[1])
    # a product of full rows and a summed pair of them: the largest norms,
    # of charge size and 2 size
    X = _image(mod, full, size, (L, w))
    for products in (1, 2):
        charge, pair = products * size, [X, X][: 2 * products - 2]
        error, got = _with_rounding_error(
            monkeypatch, lambda: _image_mul(mod, X, X, charge, size, *pair))
        assert (got == charge * values % p * values % p).all()
        assert error < fft_error_bound(size, charge, L, w)


def test_work_arrays_bound_the_thread_total(fresh_work):
    # a product at 2^19 keeps its work arrays (56 MiB), so that a second one
    # maps no new buffer; the products at 2^20 of oracle.constant_rows_agree,
    # plain and by a scaled image, leave the thread within WORK_KEEP_MAX in
    # all, where each used to keep its arrays up to that bound apiece
    mod = Modulus(DEFAULT_PRIME)
    rng = np.random.default_rng(36)
    a, b = rng.integers(0, mod.p, (2, 1 << 18))
    want = _convolve(mod, a, b)
    held = dict(modfield._work.buffers)
    assert modfield.work_bytes() == sum(buf.nbytes for buf in held.values()) >= 56 << 20
    assert np.array_equal(_convolve(mod, a, b), want)
    assert modfield._work.buffers.keys() == held.keys()
    assert all(modfield._work.buffers[k] is held[k] for k in held)
    assert oracle.constant_rows_agree(mod, PAST_2_19)
    assert 0 < modfield.work_bytes() <= modfield.WORK_KEEP_MAX


def test_work_arrays_past_the_keep_bound_are_not_kept(fresh_work):
    # a product at 2^20 takes its work arrays past WORK_KEEP_MAX fresh and
    # keeps none of them, so the thread holds at most that many bytes after
    # it; the product still equals the closed form of constant rows
    mod = Modulus(DEFAULT_PRIME)
    size = PAST_2_19
    x = worst_residue(mod.p, *mod.layout(size))
    row = np.full(size // 2, x, dtype=np.int64)
    k = np.arange(size - 1)
    want = x * x % mod.p * np.minimum(k + 1, size - 1 - k) % mod.p
    assert np.array_equal(_convolve(mod, row, row), want)
    assert 0 < modfield.work_bytes() <= modfield.WORK_KEEP_MAX


def _kept_layouts(p, charge):
    """{size: (L_x, L)} for each size 2^1 to 2^20 at which an image kept for
    products of charge(size) is scaled (_kept_limbs), L_x the limbs of the
    rows multiplied by it and L its own."""
    mod, out = Modulus(p), {}
    for size in (1 << k for k in range(1, 21)):
        L, w = mod.layout(size)
        Lx = _kept_limbs(p, size, charge(size), L, w)
        if Lx:
            out[size] = (Lx, L)
    return out


def _sizes(first, last, layout):
    return {1 << k: layout for k in range(first, last + 1)}


# The charges of the kept images of the library at size s: a fixed operand
# whose products never wrap, at most rows of s / 2 entries by s / 2 + 1; a
# Newton step's operand, rows of s entries by s / 2, wrapping; a grid level,
# two summed products of s / 2 by s / 2.
KEPT_CHARGES = {
    "fixed": lambda s: math.sqrt(s // 2 * (s // 2 + 1)),
    "newton": lambda s: math.sqrt(s * (s // 2)),
    "level": lambda s: s,
}


def _largest_scaled_sizes(p, charge):
    """The largest size up to 2^20 of each (L_x, L) of images kept for
    products of charge(size) (_kept_layouts)."""
    return sorted({v: s for s, v in _kept_layouts(p, charge).items()}.values())


def test_scaled_layouts_by_prime():
    # (L_x, L) of the rows multiplied by a kept image and of the image, for
    # the three charges of the library's kept images (KEPT_CHARGES), at every
    # size 2^1 to 2^20 where the image is scaled; elsewhere it is plain, in
    # the L limbs of mod.layout.  For DEFAULT_PRIME two 16-bit limbs against
    # three 11-bit ones from 2^11 to 2^16 (the bound of a grid level reads
    # 0.10 at 2^16, 0.21 at 2^17), to 2^17 for a fixed operand (0.107; 0.226
    # at 2^18), where it admits no fewer limbs than three at 2^18 (SQUARE),
    # so that the rows take as many as the image; no other size or layout
    # takes a square image.  None for p = 101, whose one limb takes every
    # size to 2^26
    want = {
        DEFAULT_PRIME: {
            "fixed": _sizes(11, 17, (2, 3)) | {1 << 18: (3, 3), 1 << 20: (3, 4)},
            "newton": _sizes(11, 16, (2, 3)) | {1 << 20: (3, 4)},
            "level": _sizes(11, 16, (2, 3)) | {1 << 20: (3, 4)},
        },
        P40: {
            "fixed": _sizes(3, 9, (2, 3)) | _sizes(14, 18, (3, 4)) | {1 << 20: (3, 5)},
            "newton": _sizes(3, 9, (2, 3)) | _sizes(14, 18, (3, 4)) | {1 << 20: (4, 5)},
            "level": _sizes(3, 9, (2, 3)) | _sizes(14, 17, (3, 4)) | {1 << 20: (4, 5)},
        },
        101: {"fixed": {}, "newton": {}, "level": {}},
        NO_ROOTS_PRIME: {
            "fixed": _sizes(4, 13, (1, 2)) | {1 << 20: (2, 3)},
            "newton": _sizes(4, 13, (1, 2)) | {1 << 20: (2, 3)},
            "level": _sizes(4, 12, (1, 2)) | {1 << 20: (2, 3)},
        },
    }
    # the most forward plus inverse transforms per product that each entry
    # may take: those of two earlier tables, one for images whose products
    # never wrap (rows of size / 2 entries by size / 2 + 1) and one, which
    # the Newton steps and the grid levels took, for a sum of two products
    # of rows of size entries, written out as their scaled entries; plain
    # elsewhere, L forward and 2 L - 1 inverse
    earlier = {
        DEFAULT_PRIME: (
            _sizes(11, 17, (2, 3)) | {1 << 18: (3, 3), 1 << 20: (3, 4)},
            _sizes(11, 15, (2, 3)) | {1 << 20: (3, 4)},
        ),
        P40: (
            _sizes(3, 9, (2, 3)) | _sizes(14, 18, (3, 4)) | {1 << 20: (3, 5)},
            _sizes(3, 8, (2, 3)) | _sizes(14, 16, (3, 4)) | {1 << 20: (4, 5)},
        ),
        101: ({}, {}),
        NO_ROOTS_PRIME: (
            _sizes(4, 13, (1, 2)) | {1 << 20: (2, 3)},
            _sizes(4, 11, (1, 2)) | {1 << 20: (2, 3)},
        ),
    }

    def transforms(table, size, L):
        Lx, L = table.get(size, (None, L))
        return 3 * L - 1 if Lx is None else Lx + L

    for p, tables in want.items():
        mod = Modulus(p)
        for kind, charge in KEPT_CHARGES.items():
            got = _kept_layouts(p, charge)
            assert got == tables[kind], (p, kind)
            before = earlier[p][kind != "fixed"]
            for size in (1 << k for k in range(1, 21)):
                L = mod.layout(size)[0]
                assert transforms(got, size, L) <= transforms(before, size, L), (p, kind, size)
    bound = fft_error_bound(1 << 18, KEPT_CHARGES["fixed"](1 << 18), 2, 16, 11)
    assert 0.22 < bound < 0.23


# Sizes at which fixed operands whose products never wrap keep a scaled image
# past 2^15 (P40: 2^8): each (size, layout) of fewer limbs, and the square
# image
NO_WRAP_SIZES = [(DEFAULT_PRIME, 1 << 16), (DEFAULT_PRIME, 1 << 17), (DEFAULT_PRIME, 1 << 18),
                 (P40, 1 << 9), (P40, 1 << 17), (P40, 1 << 18)]


@pytest.mark.parametrize("p, size", [pytest.param(p, s, id=f"{p}-{s}") for p, s in NO_WRAP_SIZES])
def test_linear_products_exact_on_worst_operands(p, size, fresh_work, monkeypatch):
    # a fixed operand of lb = size / 2 + 1 entries kept for products of
    # la = size / 2 entries, la + lb - 1 = size, keeps its image scaled for
    # their charge sqrt(la lb) (one variant per limb of the rows, as many as
    # the image's at 2^18 for DEFAULT_PRIME); products by it of rows of the
    # worst residue of that layout and of p - 1, by the worst residue of the
    # size's layout and p - 1, equal the closed form of constant rows:
    # coefficient k of la constants times lb constants counts
    # min(k + 1, la, size - k) terms, and coefficient j of their middle
    # product la - j; their rounding error stays within the bound
    mod = Modulus(p)
    la = size // 2
    charge = math.sqrt(la * (la + 1))
    L, w = mod.layout(size)
    Lx = _kept_limbs(p, size, charge, L, w)
    wx = _width(p, Lx)
    xs = [worst_residue(p, Lx, wx), p - 1]
    ys = [worst_residue(p, L, w), p - 1]
    k = np.arange(size)
    terms = np.minimum(np.minimum(k + 1, la), size - k).astype(mod.dtype)
    for x, y in zip(xs, ys):
        fixed = modfield._fixed_operand(mod, np.full(la + 1, y, dtype=mod.dtype), la)
        assert fixed.length == la + 1 and fixed.image.shape[:3] == (1, Lx, L)
        row = np.full(la, x, dtype=mod.dtype)
        xy = x * y % p
        error, got = _with_rounding_error(monkeypatch, lambda: _mul_fixed(mod, row, fixed, size))
        assert np.array_equal(got, terms * xy % p)
        assert error < fft_error_bound(size, charge, Lx, wx, w)
        mid = np.arange(la, 0, -1).astype(mod.dtype) * xy % p
        assert np.array_equal(_middle_product(mod, row, fixed, la), mid)


@pytest.mark.parametrize(
    "p, size, kind",
    [pytest.param(p, size, kind, id=f"{p}-{size}-{kind}") for p in (DEFAULT_PRIME, P40)
     for kind in ("newton", "level") for size in _largest_scaled_sizes(p, KEPT_CHARGES[kind])
     if size < 1 << 19],
)
def test_wrapping_and_summed_products_exact_on_worst_operands(p, size, kind, fresh_work,
                                                              monkeypatch):
    # at the largest size below 2^19 of each scaled layout of a Newton
    # step's operand and of a grid level (2^16 for DEFAULT_PRIME; P40: 2^9,
    # 2^18 and 2^9, 2^17): rows of the worst residue of the rows' layout and
    # of p - 1 times an image, kept for the charge of the product, of rows of
    # the worst residue of the size's layout and of p - 1, at that charge.
    # A Newton step's product wraps: size constants x by size / 2 constants y
    # are x y size / 2 in every coefficient mod x^size - 1.  A grid level's
    # sums two products of size / 2 constants each: 2 x y min(k + 1,
    # size - 1 - k).  The rounding error stays within the bound
    mod = Modulus(p)
    h = size // 2
    la, summed = (size, 1) if kind == "newton" else (h, 2)
    charge = summed * math.sqrt(la * h)
    L, w = mod.layout(size)
    ys = np.array([[worst_residue(p, L, w)], [p - 1]], dtype=mod.dtype)
    Y = modfield._kept_image(mod, np.repeat(ys, h, axis=1), size, charge)
    Lx = Y.shape[1]
    assert Y.ndim == 4 and Lx < L
    wx = _width(p, Lx)
    xs = np.array([[worst_residue(p, Lx, wx)], [p - 1]], dtype=mod.dtype)
    X = modfield._image_by(mod, np.repeat(xs, la, axis=1), Y)
    pair = [X, Y][: 2 * summed - 2]
    out_len = min(la + h - 1, size)
    error, got = _with_rounding_error(
        monkeypatch, lambda: _image_mul(mod, X, Y, charge, out_len, *pair))
    k = np.arange(out_len)
    terms = np.full(out_len, h) if kind == "newton" else 2 * np.minimum(k + 1, size - 1 - k)
    assert np.array_equal(got, xs * ys % p * terms.astype(mod.dtype) % p)
    assert error < fft_error_bound(size, charge, Lx, wx, w)


def test_products_that_wrap_are_charged_by_their_norms(mod):
    # an operand kept at an explicit size below its products' own (a Newton
    # step's: rows of size entries by size / 2) and a grid level's image,
    # kept for their charges size / sqrt 2 and size, are scaled at 2^16 and
    # plain at 2^17, where the bound of two 16-bit limbs reads 0.15 and 0.21;
    # a product by the first equals the linear product, at twice the size,
    # folded
    rng = np.random.default_rng(64)
    for size, ndim in ((1 << 16, 4), (1 << 17, 3)):
        b = rng.integers(0, mod.p, size // 2)
        assert modfield._kept_image(mod, b[None], size, size).ndim == ndim
        wrapped = modfield._fixed_operand(mod, b, size, size)
        assert wrapped.image.ndim == ndim
        a = rng.integers(0, mod.p, size)
        want = _convolve(mod, a, b)
        # mod x^size - 1, coefficient k gathers k and k + size
        cyclic = (want[:size] + _fit(want[size:], size)) % mod.p
        assert np.array_equal(_mul_fixed(mod, a, wrapped, size), cyclic)


def test_products_past_their_lengths_bound_fail_the_assertion(mod, monkeypatch):
    # _image_mul asserts the bound at the charge it is handed: a row longer
    # than those the operand was kept for fails it at 2^17 (sqrt(la lb) =
    # 0.71 size, bound 0.15); under a limit set to the bound of lengths 8
    # and 9 at size 16, lengths 9 and 9 fail it
    size = 1 << 17
    fixed = modfield._fixed_operand(mod, np.ones(size // 2 + 1, dtype=np.int64), size // 2)
    assert fixed.image.ndim == 4
    with pytest.raises(AssertionError):
        _mul_fixed(mod, np.ones(size, dtype=np.int64), fixed, size)
    X = _image(mod, np.ones((1, 9), dtype=np.int64), 16, mod.layout(16))
    limit = fft_error_bound(16, math.sqrt(8 * 9), *mod.layout(16))
    monkeypatch.setattr(modfield, "FFT_ERROR_MAX", limit)
    _image_mul(mod, X, X, math.sqrt(8 * 9), 16)
    with pytest.raises(AssertionError):
        _image_mul(mod, X, X, 9, 16)


@pytest.mark.parametrize(
    "p, size",
    [pytest.param(p, size, id=f"{p}-{size}") for p in (DEFAULT_PRIME, P40)
     for size in _largest_scaled_sizes(p, lambda s: 2 * s) if size < 1 << 19]
    + [pytest.param(DEFAULT_PRIME, PAST_2_19, id=f"{DEFAULT_PRIME}-{PAST_2_19}")],
)
def test_scaled_products_exact_on_worst_operands(p, size, fresh_work, monkeypatch):
    # at the largest size of each layout of images kept for a summed pair
    # of products of full rows (2^15 and 2^20 for DEFAULT_PRIME; P40: 2^8 and
    # 2^16): rows of the worst residue of the rows' layout and of p - 1 times
    # such an image of rows of the worst residue of the size's layout and of
    # p - 1, by the closed form of constant rows
    # (test_float_kernel_exact_on_worst_operands); on dtype-object rows for
    # P40
    mod = Modulus(p)
    L, w = mod.layout(size)
    Lx = _kept_limbs(p, size, 2 * size, L, w)
    wx = _width(p, Lx)
    xs = np.array([[worst_residue(p, Lx, wx)], [p - 1]], dtype=mod.dtype)
    ys = np.array([[worst_residue(p, L, w)], [p - 1]], dtype=mod.dtype)
    h = size // 2
    k = np.arange(size - 1)
    want = xs * ys % p * np.minimum(k + 1, size - 1 - k).astype(mod.dtype) % p
    Y = modfield._kept_image(mod, np.repeat(ys, h, axis=1), size, 2 * size)
    assert Y.shape[:3] == (2, Lx, L)
    X = modfield._image_by(mod, np.repeat(xs, h, axis=1), Y)
    assert X.shape[:2] == (2, Lx)
    assert np.array_equal(_image_mul(mod, X, Y, h, size - 1), want)
    # a product by a kept fixed operand, and its transpose, a correlation:
    # coefficient j of the middle product of h constants by h constants is
    # h - j
    for i in range(2):
        fixed = modfield._fixed_operand(mod, np.repeat(ys[i], h), h)
        assert fixed.image.shape[:3] == (1, Lx, L)
        row = np.repeat(xs[i], h)
        assert np.array_equal(_mul_fixed(mod, row, fixed, size - 1), want[i])
        mid = xs[i] * ys[i] % p * np.arange(h, 0, -1).astype(mod.dtype) % p
        assert np.array_equal(_middle_product(mod, row, fixed, h), mid)
    # a product of full rows and a summed pair of them: the largest norms
    # (the kept images above go first, 192 MB each at 2^20); X is fresh, as
    # the first product's inverse transform may write the work slot "image"
    del Y, fixed
    Y = modfield._kept_image(mod, np.repeat(ys, size, axis=1), size, 2 * size)
    X = modfield._image_by(mod, np.repeat(xs, size, axis=1), Y, None)
    for products in (1, 2):
        charge, pair = products * size, [X, Y][: 2 * products - 2]
        error, got = _with_rounding_error(
            monkeypatch, lambda: _image_mul(mod, X, Y, charge, size, *pair))
        assert (got == charge * xs % p * ys % p).all()
        assert error < fft_error_bound(size, charge, Lx, wx, w)


def test_products_by_scaled_images_equal_plain_ones(mod):
    # the product of random rows by a scaled fixed operand, and its
    # transpose, equal those by its plain image (variant 0); the scaled
    # image is one array, whose variant 0 cache_bytes counts once
    rng = np.random.default_rng(63)
    for n in (1024, 1500, 16384):
        a, b = rng.integers(0, mod.p, (2, n))
        fixed = modfield._fixed_operand(mod, b, n)
        assert fixed.image.ndim == 4 and fixed.image.shape[1] == 2 and fixed.length == n
        plain = modfield._Kept(modfield._plain(fixed.image), n)
        assert np.shares_memory(plain.image, fixed.image)
        for product in (_mul_fixed, _middle_product):
            got = product(mod, a, fixed, n)
            assert np.array_equal(got, product(mod, a, plain, n)), (n, product.__name__)
        assert modfield._array_bytes([fixed, plain], set()) == fixed.image.nbytes
    # each image is kept for the charge sqrt(la lb) of its longest product,
    # here of rows of la entries by the lb = 2^14 of b, wrapping or not: two
    # variants of three limbs at 2^16 for la = 2^15 (no wrap) and la = 2^16
    # (wrapping at an explicit size), and at 2^17 for la = 2^17 (a charge of
    # 0.71 2^16, wrapping), 2^18 for la = 2^17 (no wrap, 0.35 2^17) and 2^19
    # for la = 2^18 (0.35 2^18); by an operand of 2^17 entries, a square
    # image, three variants of three limbs, at 2^18 for la = 2^17 (no wrap,
    # a charge of 2^17), and a plain one at 2^19 for la = 2^18
    assert modfield._fixed_operand(mod, b, 1 << 15).image.shape[:3] == (1, 2, 3)
    assert modfield._fixed_operand(mod, b, 1 << 16, 1 << 16).image.shape[:3] == (1, 2, 3)
    assert modfield._fixed_operand(mod, b, 1 << 17, 1 << 17).image.shape[:3] == (1, 2, 3)
    assert modfield._fixed_operand(mod, b, 1 << 17).image.shape[:3] == (1, 2, 3)
    assert modfield._fixed_operand(mod, b, 1 << 18).image.shape[:3] == (1, 2, 3)
    long = rng.integers(0, mod.p, 1 << 17)
    assert modfield._fixed_operand(mod, long, 1 << 17).image.shape[:3] == (1, 3, 3)
    assert modfield._fixed_operand(mod, long, 1 << 18).image.ndim == 3
    # the shift series at 2^15: two variants of three limbs
    fresh = Modulus(DEFAULT_PRIME)
    polyops.taylor_shift(Poly.of(fresh, rng.integers(0, fresh.p, 16384)), 5)
    operand = fresh.cached(("shift", 1 << 15), lambda: None)
    assert operand.image.shape == (1, 2, 3, (1 << 14) + 1)
    assert fresh.cache_bytes()["shift"] == (1, operand.image.nbytes)
    # the per-family operands that conversions at n = 4096 keep (unit and
    # root powers, v and u, 1/u and 1/v; not 1/f, a diagonal): every kept
    # image is scaled and multiplies as its variant 0 does, and short
    # operands keep their coefficients
    conv, n = Modulus(DEFAULT_PRIME), 4096
    for name in ("jacobi(alpha=3,beta=5)", "fibonacci", "mott", "hermite", "peters(lambda=3,mu=2)"):
        fam = families.parse_family(conv, name)
        A = families.to_monomial(rng.integers(0, conv.p, n).tolist(), fam, n, conv)
        families.from_monomial(A, fam, n, conv)
    kept = {"seq": [], "to": [], "from": []}
    for key, value in conv._cache.items():
        if key[0] == "seq":
            # unit powers, and tuples of root powers, in the program's steps
            for (_, _, _, args), _ in value[0]:
                for arg in args:
                    ops = arg if isinstance(arg, tuple) else [arg]
                    kept["seq"] += [X for X in ops if isinstance(X, (np.ndarray, modfield._Kept))]
        elif key[0] == "chain":
            # the operands of the products among each direction's steps
            kept["from" if key[3] else "to"] += [
                args[0] for _, args in value
                if len(args) == 2 and isinstance(args[0], (np.ndarray, modfield._Kept))
            ]
    a = rng.integers(0, conv.p, n)
    for kind, ops in kept.items():
        images = [X for X in ops if isinstance(X, modfield._Kept)]
        assert images and all(X.image.ndim == 4 for X in images), kind
        coeffs = [X for X in ops if isinstance(X, np.ndarray)]
        assert all(X.ndim == 1 and not modfield._by_transform(conv, n, len(X)) for X in coeffs)
        for X in images:
            plain = modfield._Kept(modfield._plain(X.image), X.length)
            for product in (_mul_fixed, _middle_product):
                assert np.array_equal(product(conv, a, X, n), product(conv, a, plain, n))
    assert any(isinstance(X, np.ndarray) for ops in kept.values() for X in ops)


def test_dense_product_exact_on_worst_operands(mod):
    # rows of p - 1, of the worst residue and of limbs all -2^(w-1) (not a
    # residue) times columns of p - 1 sum every term with one sign: at b =
    # 128 and 136, the largest b of two 16-bit limbs, at the leaf size and
    # at 4369, the largest b of three 11-bit limbs, and of four 8-bit limbs
    # past it
    p = mod.p
    layouts = {128: (2, 16), 136: (2, 16), LEAF_SIZE: (3, 11), 4369: (3, 11), 4370: (4, 8)}
    for b, layout in layouts.items():
        L, w = mod.layout(b, dense=True)
        assert (L, w) == layout
        low = -(1 << w - 1) * sum(1 << w * k for k in range(L))
        A = np.array([[v] * b for v in (p - 1, worst_residue(p, L, w), low)], dtype=np.int64)
        assert (_limbs(A[2:], L, w) == -(1 << w - 1)).all()
        want = A.astype(object).sum(axis=1) * (p - 1) % p
        got = modfield._dense_mul(mod, A, np.full((b, 2), p - 1.0))
        assert (got == want.astype(np.int64)[:, None]).all(), b
    assert oracle.dense_product_agrees(mod, LEAF_SIZE)
    # random operands against the integer product
    rng = np.random.default_rng(52)
    A, M = rng.integers(0, p, (5, LEAF_SIZE)), rng.integers(0, p, (LEAF_SIZE, 300))
    want = (A.astype(object) @ M.astype(object)) % p
    assert np.array_equal(modfield._dense_mul(mod, A, M.astype(np.float64)), want.astype(np.int64))
    # past the bound of one-bit limbs the product refuses to run, before it
    # reads its operands (here zero-stride views)
    b = (1 << 53) // (p - 1) + 1
    assert mod.layout(b - 1, dense=True) == (32, 1) and mod.layout(b, dense=True) is None
    A, M = np.broadcast_to(np.int64(1), (1, b)), np.broadcast_to(0.0, (b, 1))
    with pytest.raises(AssertionError):
        modfield._dense_mul(mod, A, M)


@pytest.mark.parametrize(
    "size, rows, kind",
    [
        (8, 1, "float"),
        (16, 1, "float"),
        (16, 128, "float"),
        (16, 256, "float"),
        (512, 16, "float"),
        (512, 32, "float"),
        (1024, 256, "float"),
        (8, 1, "object"),
        (16, 256, "object"),
        (512, 32, "object"),
    ],
)
def test_batch_kernel_by_size_and_rows(size, rows, kind):
    # a batch's images are float limb spectra whatever its row count and the
    # dtype of its rows, in the layout of their size: two 16-bit limbs on
    # int64 rows (sizes up to 2^10), three 14-bit limbs on dtype-object rows
    # (P40, sizes up to 2^13).  Its products are exact
    mod = Modulus({"float": DEFAULT_PRIME, "object": P40}[kind])
    rng = random.Random(size * rows)
    A = [[rng.randrange(mod.p) for _ in range(size // 2)] for _ in range(rows)]
    B = [[rng.randrange(mod.p) for _ in range(size // 2)] for _ in range(rows)]
    A_, B_ = np.array(A, dtype=mod.dtype), np.array(B, dtype=mod.dtype)
    assert mod.layout(size) == {"float": (2, 16), "object": (3, 14)}[kind]
    assert _image(mod, A_, size, mod.layout(size)).shape[:2] == (rows, mod.layout(size)[0])
    assert _image(mod, A_[:1], size, mod.layout(size)).ndim == 3
    got = _convolve_rows(mod, A_, B_)
    for i in {0, rows - 1}:
        assert got[i].tolist() == _school(A[i], B[i], mod.p)
    want = [_convolve_schoolbook(a, b, mod.p) for a, b in zip(A_, B_)]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 998244353])
def test_float_recombination_reduces_multiples_of_p(p):
    # a class coefficient t = -q p: for 998244353 and q >= 3 the double
    # t * fl(1/p) lies below -q, so floor(t / p) falls one short; five
    # classes of 11 bits, more coefficients than the int64 recombination
    # takes, so that it runs in doubles
    size = 4096
    assert size > modfield.RECOMBINE_INT64_MAX
    classes = np.zeros((1, 5, size))
    classes[0, 0] = -p * np.arange(size, dtype=np.float64)
    got = _limb_coeffs(p, np.fft.rfft(classes, axis=-1), size, size, 11, p * size)
    assert not got.any()


def test_float_kernel_dispatch(monkeypatch, fresh_work):
    # a product at 2^20 is one _image_mul call, of four 8-bit limbs of each
    # operand; the bound is asserted in every float product
    mod = Modulus(DEFAULT_PRIME)
    calls, layouts = [0], []
    image_mul, limbs = modfield._image_mul, modfield._limbs

    def counted(*args):
        calls[0] += 1
        return image_mul(*args)

    def recorded(A, L, w):
        layouts.append((L, w))
        return limbs(A, L, w)

    monkeypatch.setattr(modfield, "_image_mul", counted)
    monkeypatch.setattr(modfield, "_limbs", recorded)
    rng = np.random.default_rng(7)
    a, b = rng.integers(0, mod.p, (2, PAST_2_19 // 2))
    got = _convolve(mod, a, b)
    assert calls[0] == 1 and layouts == [(4, 8), (4, 8)]
    # coefficient k is sum_i a_i b_(k-i), in Python ints, at both ends and
    # in the middle
    a_, b_ = a.astype(object), b.astype(object)
    for k in (0, 1, 5, len(a) - 1, len(a), len(got) - 2, len(got) - 1):
        i = np.arange(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1)
        assert got[k] == (a_[i] * b_[k - i]).sum() % mod.p, k
    X = _image(mod, np.ones((1, 4), dtype=np.int64), 16, mod.layout(16))
    monkeypatch.setattr(modfield, "FFT_ERROR_MAX", fft_error_bound(16, 4, *mod.layout(16)) / 2)
    with pytest.raises(AssertionError):
        _image_mul(mod, X, X, 4, 16)


def test_image_past_every_layout_raises_capacity_exceeded(mod):
    # 32 one-bit limbs reach size 2^35 for DEFAULT_PRIME and no layout 2^36:
    # an image, a product and a kept image there raise CapacityExceeded
    # before they allocate anything (the rows are zero-stride views)
    size = 1 << 36
    assert mod.layout(size // 2) == (32, 1) and mod.layout(size) is None
    A = np.broadcast_to(np.int64(1), (1, size // 2))
    held = modfield.work_bytes()
    tracemalloc.start()
    try:
        for make in (
            lambda: _image(mod, A, size, mod.layout(size)),
            lambda: _convolve_rows(mod, A, A),
            lambda: modfield._kept_image(mod, A, size, size),
        ):
            with pytest.raises(CapacityExceeded, match="size 68719476736"):
                make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak
    assert modfield.work_bytes() == held


@pytest.mark.parametrize("p", [DEFAULT_PRIME, P40, 101])
def test_a_product_by_a_constant_scales(p):
    # an operand kept as one coefficient c: a product by it, either way, is
    # the row times c, with no convolution
    mod = Modulus(p)
    rng = random.Random(p)
    a = Poly(mod, [rng.randrange(p) for _ in range(40)], 40)
    for c in (1, p - 3):
        fixed = modfield._fixed_operand(mod, np.array([c], dtype=mod.dtype), 40)
        C = Poly(mod, [c], 40)
        for m in (25, 40, 60):
            assert mul_trunc(a, fixed, m) == mul_trunc(a, C, m)
            assert mul_trunc_t(a, fixed, m) == mul_trunc_t(a, C, m)


def test_middle_products_over_mixed_operands(mod, monkeypatch, transforms):
    # one list of every kind of kept operand: two images of one shape, a row
    # of coefficients whose product with the long row a transforms (through
    # the work slot that holds Rev(a)'s image), an image of the first shape
    # again, one of another shape and a constant.  Each result equals its
    # schoolbook middle product, and Rev(a) is transformed once per run of
    # consecutive images of one shape: three times
    p, n = mod.p, 1024
    rng = np.random.default_rng(65)
    a = rng.integers(0, p, n)
    rows = [rng.integers(0, p, lb) for lb in (n, n, 64, n, 1500, 1)]
    kept = [modfield._fixed_operand(mod, b, n) for b in rows[:2]]
    kept += [rows[2], modfield._fixed_operand(mod, rows[3], n)]
    kept += [modfield._fixed_operand(mod, rows[4], n), rows[5]]
    shapes = [b.image.shape if isinstance(b, modfield._Kept) else None for b in kept]
    assert shapes[0] == shapes[1] == shapes[3] != shapes[4]
    assert shapes[2] is shapes[5] is None and modfield._by_transform(mod, n, 64)
    images, image_by = [], modfield._image_by

    def counted(mod, A, Y, *args):
        images.append(Y.shape)
        return image_by(mod, A, Y, *args)

    monkeypatch.setattr(modfield, "_image_by", counted)
    # warm: the work arrays have grown to the products' sizes, so that the
    # row of coefficients' product writes over a stale image of Rev(a)
    _middle_products(mod, a, kept, n)
    images.clear()
    transforms.clear()
    got = _middle_products(mod, a, kept, n)
    for b, row in zip(rows, got):
        b = b[:n]
        # coefficient k is sum_j a_(k+j) b_j
        want = _convolve_schoolbook(a, b[::-1], p)[len(b) - 1 :]
        assert np.array_equal(row, _fit(want, n))
    assert images == [shapes[0], shapes[0], shapes[4]]
    # and the row of coefficients' own product: two forward, one inverse
    assert transforms.counts() == (3 + 2, 4 + 1)
