import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from basisconv import (
    DEFAULT_PRIME,
    DivisionByZero,
    Modulus,
    Poly,
    PrecisionExceedsModulus,
    mul_trunc,
    mul_trunc_t,
    poly_mul,
)
from basisconv import evalgrid, families, modfield, oracle, polyops
from basisconv.evalgrid import LEAF_SIZE
from basisconv.modfield import (
    _class_spectra,
    _convolve,
    _convolve_rows,
    _convolve_schoolbook,
    _image,
    _image_coeffs,
    _image_mul,
    _image_mul_add,
    _factorize,
    _limb_coeffs,
    _limbs,
    _mul_fixed,
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
    # the limb layouts and the largest float size follow from p alone: the
    # fewest limbs, of the narrowest width of at least 11 bits, whose bound
    # admits the size of a float image or the inner dimension of a dense
    # product
    assert mod.float_max == 1 << 19
    assert [mod.layout(1 << k) for k in (1, 10, 11, 19, 20)] == [
        (2, 16), (2, 16), (3, 11), (3, 11), None,
    ]
    assert [mod.layout(b, dense=True) for b in (1, 136, 137, 4369, 4370)] == [
        (2, 16), (2, 16), (3, 11), (3, 11), None,
    ]
    assert (mod101.layout(1 << 20), mod101.float_max) == ((1, 11), 1 << 20)
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


def test_modulus_finds_its_primitive_root_on_first_use(monkeypatch):
    # building a Modulus factors nothing; only meixner_pollaczek's default i
    # reads the root, and the square roots of -1 it gives are pinned, since
    # the catalog's outputs depend on them
    calls = []
    factorize = modfield._factorize
    monkeypatch.setattr(modfield, "_factorize", lambda n: calls.append(n) or factorize(n))
    p = 1152921504606849707
    mod = Modulus(p)
    assert calls == [] and "primitive_root" not in vars(mod)
    assert (mod.layout(mod.float_max), mod.float_max) == ((6, 11), 1 << 18)
    default = Modulus(DEFAULT_PRIME)
    assert families._sqrt_minus_one(default) == 1728404513
    assert families._sqrt_minus_one(Modulus(P40)) == 874192144897
    assert calls == [DEFAULT_PRIME - 1, P40 - 1]
    assert default.primitive_root == 31


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
    X = _image(mod, np.array(A, dtype=dtype), size)
    Y = _image(mod, np.array(B, dtype=dtype), size)
    got = _image_coeffs(mod, _image_mul(mod, X, Y), size).tolist()
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
    # past the float maximum the Karatsuba split: coefficient k of the square
    # of l ones is min(k + 1, 2 l - 1 - k)
    for mod in (mod101, Modulus(DEFAULT_PRIME)):
        l = mod.float_max // 2 + 1
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
    assert all(modfield._float(mod, 1 << k) for k in range(1, 12))
    rng = np.random.default_rng(8)
    a, b = rng.integers(0, mod.p, (2, 1100))
    assert np.array_equal(_convolve(mod, a, b), _convolve_schoolbook(a, b, mod.p))
    # basisconv selftest checks the least float size, 2, and the largest size
    # of each limb layout up to 2^14 against the Kronecker product, on int64
    # rows (one 21-bit limb up to 8, two 11-bit ones beyond) and on rows of
    # Python ints (P40: two 21-bit limbs up to 4, three 14-bit ones up to
    # 2^13, four 11-bit ones beyond); and products by scaled images at the
    # largest size of each scaled layout (one 21-bit limb against two 11-bit
    # ones up to 2^11; P40: two 21-bit limbs against three 14-bit ones up to
    # 2^8, three 14-bit limbs against four 11-bit ones up to 2^16)
    checked, agrees = [], oracle._float_agrees

    def recorded(mod, size, scaled=False):
        checked.append((size, scaled))
        return agrees(mod, size, scaled)

    monkeypatch.setattr(oracle, "_float_agrees", recorded)
    for p in (NO_ROOTS_PRIME, P40):
        assert oracle.float_kernel_agrees(Modulus(p))
    plain = [size for size, scaled in checked if not scaled]
    assert sorted(plain) == [2, 2, 4, 8, 1 << 13, 1 << 14, 1 << 14]
    assert sorted(size for size, scaled in checked if scaled) == [1 << 8, 1 << 11, 1 << 16]


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


def _counted_transforms(monkeypatch):
    """A one-element list counting the _transform calls made from now on:
    every transform enters through it."""
    calls = [0]
    transform = modfield._transform

    def counted(*args):
        calls[0] += 1
        return transform(*args)

    monkeypatch.setattr(modfield, "_transform", counted)
    return calls


def test_mul_trunc_t_by_a_short_factor_transforms_nothing(mod, monkeypatch):
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
    assert fixed.ndim == 1 and len(fixed) == 5
    calls = _counted_transforms(monkeypatch)
    assert np.array_equal(mul_trunc_t(a, P, n).arr, want)
    assert np.array_equal(mul_trunc_t(a, fixed, n).arr, want)
    assert calls[0] == 0


@pytest.mark.parametrize("n", [300, 4096, 16384])
def test_fixed_operands_keep_their_image_at_every_size(mod, monkeypatch, n):
    # a product by a kept operand, forward or transposed, makes one forward
    # and one inverse transform at every size, 768 KB of float image at 16384 too
    rng = np.random.default_rng(n)
    a = Poly.of(mod, rng.integers(0, mod.p, n))
    P = Poly.of(mod, rng.integers(0, mod.p, n))
    want = mul_trunc(a, P, n), mul_trunc_t(a, P, n)
    fixed = modfield._fixed_operand(mod, P.arr, n)
    assert fixed.ndim > 1
    calls = _counted_transforms(monkeypatch)
    for product, ref in zip((mul_trunc, mul_trunc_t), want):
        calls[0] = 0
        assert product(a, fixed, n) == ref
        assert calls[0] == 2


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
    kept = [fixed, tree.den_fixed] + tree.img[tree.leaf :]
    # float images; 1/D at size 8192 and the levels at 2048 and 4096 scaled
    assert [X.ndim for X in kept] == [3, 4, 3, 3, 4, 4]
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


def _fewer_limb_sizes(p):
    """(L, w, size) for every layout of p but the last, at the largest size
    it serves."""
    layouts = Modulus(p)._layouts
    return [(L, w, size) for L, w, size, _ in layouts[:-1] if size]


@pytest.mark.parametrize(
    "p, size",
    [pytest.param(DEFAULT_PRIME, size, id=str(size)) for size in FLOAT_SIZES]
    + [pytest.param(p, None, id=f"{p}-largest") for p in LIMB_PRIMES]
    + [
        pytest.param(p, size, id=f"{p}-{L}x{w}")
        for p in LIMB_PRIMES
        for L, w, size in _fewer_limb_sizes(p)
    ],
)
def test_float_kernel_exact_on_worst_operands(p, size):
    # from the least size the float kernel takes on to the largest each limb
    # layout admits, with the worst residue of the layout at that size (two
    # 16-bit limbs up to 2^10 for DEFAULT_PRIME, three 11-bit ones from 2^11;
    # three 14-bit limbs up to 2^13 for P40); every image here is float.
    # Constant rows have a closed form: coefficient k of the square of l ones
    # is min(k + 1, 2 l - 1 - k), and the cyclic square of `size` ones is
    # `size` everywhere.  It stands in for the Kronecker product, which takes
    # seconds on the largest rows
    mod = Modulus(p)
    size = size or mod.float_max
    assert modfield._float(mod, size)
    L, w = mod.layout(size)
    values = np.array([[worst_residue(p, L, w)], [p - 1]], dtype=mod.dtype)
    half = np.repeat(values, size // 2, axis=1)
    full = np.repeat(values, size, axis=1)
    k = np.arange(size - 1)
    want = values * values % p * np.minimum(k + 1, size - 1 - k).astype(mod.dtype) % p
    # single and batched rows, and a product by a kept fixed operand
    assert np.array_equal(_convolve_rows(mod, half[:1], half[:1]), want[:1])
    assert np.array_equal(_convolve_rows(mod, half, half), want)
    fixed = _image(mod, half[1:], size)
    assert fixed.shape[:2] == (1, L)
    assert np.array_equal(_mul_fixed(mod, half[1], fixed, size - 1), want[1])
    # a summed pair of product images of full rows: the largest norms
    X = _image(mod, full, size)
    got = _image_coeffs(mod, _image_mul_add(mod, X, X, X, X), size)
    assert (got == 2 * size * values % p * values % p).all()
    for products in (1, 2):
        c = np.fft.irfft(_class_spectra(p, [(X, X)] * products), size, axis=-1)
        assert np.abs(c - np.rint(c)).max() < fft_error_bound(size, products, L, w)


def _largest_scaled_sizes(p):
    """The largest size of each scaled layout of p (Modulus.scaled_layout)."""
    mod = Modulus(p)
    out = {mod.scaled_layout(1 << k): 1 << k for k in range(1, mod.float_max.bit_length())}
    out.pop(None, None)
    return sorted(out.values())


def test_scaled_layouts_by_prime():
    # fewer limbs of the rows multiplied by a scaled image, where the bound
    # admits them: 2 x 16 bits against 3 x 11 for DEFAULT_PRIME, 2 x 21
    # against 3 x 14 and 3 x 14 against 4 x 11 for P40, none for p = 101
    def table(p):
        mod = Modulus(p)
        sizes = [1 << k for k in range(1, mod.float_max.bit_length())]
        return {s: (mod.scaled_layout(s), mod.layout(s)) for s in sizes if mod.scaled_layout(s)}

    assert table(DEFAULT_PRIME) == {1 << k: ((2, 16), (3, 11)) for k in range(11, 16)}
    want = {1 << k: ((2, 21), (3, 14)) for k in range(3, 9)}
    want.update({1 << k: ((3, 14), (4, 11)) for k in range(14, 17)})
    assert table(P40) == want
    assert table(101) == {}
    assert _largest_scaled_sizes(DEFAULT_PRIME) == [1 << 15]
    assert _largest_scaled_sizes(P40) == [1 << 8, 1 << 16]


@pytest.mark.parametrize(
    "p, size",
    [pytest.param(p, size, id=f"{p}-{size}") for p in (DEFAULT_PRIME, P40)
     for size in _largest_scaled_sizes(p)],
)
def test_scaled_products_exact_on_worst_operands(p, size):
    # at the largest size of each scaled layout: rows of the worst residue of
    # the scaled layout and of p - 1 times a scaled image of rows of the
    # worst residue of the size's layout and of p - 1, by the closed form of
    # constant rows (test_float_kernel_exact_on_worst_operands); on dtype-object
    # rows for P40
    mod = Modulus(p)
    (Lx, wx), (L, w) = mod.scaled_layout(size), mod.layout(size)
    xs = np.array([[worst_residue(p, Lx, wx)], [p - 1]], dtype=mod.dtype)
    ys = np.array([[worst_residue(p, L, w)], [p - 1]], dtype=mod.dtype)
    h = size // 2
    k = np.arange(size - 1)
    want = xs * ys % p * np.minimum(k + 1, size - 1 - k).astype(mod.dtype) % p
    Y = modfield._kept_image(mod, np.repeat(ys, h, axis=1), size, scaled=True)
    assert Y.shape[:3] == (2, Lx, L)
    X = modfield._image_by(mod, np.repeat(xs, h, axis=1), Y)
    assert X.shape[:2] == (2, Lx)
    assert np.array_equal(_image_coeffs(mod, _image_mul(mod, X, Y), size - 1), want)
    # a product by a kept fixed operand, and its transpose, a correlation:
    # coefficient j of the middle product of h constants by h constants is
    # h - j
    for i in range(2):
        fixed = modfield._fixed_operand(mod, np.repeat(ys[i], h), h, scaled=True)
        assert fixed.ndim == 4
        row = np.repeat(xs[i], h)
        assert np.array_equal(_mul_fixed(mod, row, fixed, size - 1), want[i])
        mid = xs[i] * ys[i] % p * np.arange(h, 0, -1).astype(mod.dtype) % p
        assert np.array_equal(_mul_fixed(mod, row, fixed, h, transposed=True), mid)
    # a summed pair of product images of full rows: the largest norms
    Y = modfield._kept_image(mod, np.repeat(ys, size, axis=1), size, scaled=True)
    X = modfield._image_by(mod, np.repeat(xs, size, axis=1), Y)
    got = _image_coeffs(mod, _image_mul_add(mod, X, Y, X, Y), size)
    assert (got == 2 * size * xs % p * ys % p).all()
    for products in (1, 2):
        c = np.fft.irfft(_class_spectra(p, [(X, Y)] * products)[:, 0], size, axis=-1)
        assert np.abs(c - np.rint(c)).max() < fft_error_bound(size, products, Lx, wx, w)


def test_products_by_scaled_images_equal_plain_ones(mod):
    # the product of random rows by a scaled fixed operand, and its
    # transpose, equal those by its plain image (variant 0); the scaled
    # image is one array, whose variant 0 cache_bytes counts once
    rng = np.random.default_rng(63)
    for n in (1024, 1500, 16384):
        a, b = rng.integers(0, mod.p, (2, n))
        fixed = modfield._fixed_operand(mod, b, n, scaled=True)
        assert fixed.ndim == 4 and fixed.shape[1] == 2
        plain = modfield._plain(fixed)
        assert np.shares_memory(plain, fixed)
        for transposed in (False, True):
            got = _mul_fixed(mod, a, fixed, n, transposed)
            assert np.array_equal(got, _mul_fixed(mod, a, plain, n, transposed)), (n, transposed)
        assert modfield._array_bytes([fixed, plain], set()) == fixed.nbytes
    # past 2^15 the image stays plain
    assert modfield._fixed_operand(mod, b, 1 << 15, scaled=True).ndim == 3
    # the shift series at 2^15: two variants of three limbs
    fresh = Modulus(DEFAULT_PRIME)
    polyops.taylor_shift(Poly.of(fresh, rng.integers(0, fresh.p, 16384)), 5)
    operand = fresh.cached(("shift", 5, 1 << 15), lambda: None)
    assert operand.shape == (1, 2, 3, (1 << 14) + 1)
    assert fresh.cache_bytes()["shift"] == (1, operand.nbytes)


def test_dense_product_exact_on_worst_operands(mod):
    # rows of p - 1, of the worst residue and of limbs all -2^(w-1) (not a
    # residue) times columns of p - 1 sum every term with one sign: at b =
    # 128 and 136, the largest b of two 16-bit limbs, at the leaf size, of
    # three 11-bit limbs, and at the largest power of two the bound admits
    # for DEFAULT_PRIME
    p = mod.p
    b_max = max(1 << k for k in range(16) if mod.layout(1 << k, dense=True))
    assert b_max == 4096
    for b in (128, 136, LEAF_SIZE, b_max):
        L, w = mod.layout(b, dense=True)
        assert (L, w) == ((2, 16) if b <= 136 else (3, 11))
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
    # past the bound the product refuses to run
    with pytest.raises(AssertionError):
        modfield._dense_mul(mod, np.ones((1, 2 * b_max), dtype=np.int64), np.zeros((2 * b_max, 1)))


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
    assert _image(mod, A_, size).shape[:2] == (rows, mod.layout(size)[0])
    assert _image(mod, A_[:1], size).ndim == 3
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


def test_float_kernel_dispatch(monkeypatch):
    # past the largest admitted size a product makes one Karatsuba split into
    # three float products of half the size; the bound is asserted wherever a
    # float product image is made
    mod = Modulus(DEFAULT_PRIME)
    mod.float_max = 2048
    calls = [0]
    product_image = modfield._product_image

    def counted(*args):
        calls[0] += 1
        return product_image(*args)

    monkeypatch.setattr(modfield, "_product_image", counted)
    rng = random.Random(7)
    for size, products in ((2048, 1), (4096, 3)):
        a = [rng.randrange(mod.p) for _ in range(size // 2)]
        b = [rng.randrange(mod.p) for _ in range(size // 2)]
        calls[0] = 0
        assert _convolve(mod, a, b).tolist() == _school(a, b, mod.p)
        assert calls[0] == products, size
    X = _image(mod, np.ones((1, 4), dtype=np.int64), 16)
    monkeypatch.setattr(modfield, "FFT_ERROR_MAX", fft_error_bound(16, 1, *mod.layout(16)) / 2)
    with pytest.raises(AssertionError):
        _class_spectra(mod.p, [(X, X)])
