import random

import pytest

from basisconv import DEFAULT_PRIME, DimensionMismatch, Modulus, Poly, modfield, polyops
from basisconv.oracle import horner_compose
from basisconv.polyops import (
    DENSE_MIN,
    diagonal,
    find_degrees,
    lincomb,
    lincomb_t,
    power_subst,
    power_subst_t,
    reverse,
    scale,
    split,
    split_t,
    taylor_shift,
    taylor_shift_t,
    truncate,
)


def _matrix_of(fn, n_in, n_out, mod):
    cols = []
    for j in range(n_in):
        e = [0] * n_in
        e[j] = 1
        cols.append(fn(Poly(mod, e, n_in)).coeffs)
    return [[cols[j][i] for j in range(n_in)] for i in range(n_out)]


def _dot(A, B):
    return sum(x * y for x, y in zip(A.coeffs, B.coeffs)) % A.mod.p


def _transpose_check(fwd, bwd, n_in, n_out, mod):
    F = _matrix_of(fwd, n_in, n_out, mod)
    B = _matrix_of(bwd, n_out, n_in, mod)
    for i in range(n_in):
        for j in range(n_out):
            assert B[i][j] == F[j][i]


def test_power_subst(mod101):
    A = Poly(mod101, [3, 5, 7], 3)
    B = power_subst(A, 2)
    assert B.dim == 5 and B.coeffs == [3, 0, 5, 0, 7]
    assert power_subst(A, 1) is A
    with pytest.raises(DimensionMismatch):
        power_subst(A, 0)


def test_power_subst_t_matrix(mod101):
    # k=3, m=4: source K[x]_10, picks indices 0,3,6,9
    A = Poly(mod101, list(range(1, 11)), 10)
    assert power_subst_t(A, 3, 4).coeffs == [1, 4, 7, 10]
    _transpose_check(
        lambda P: power_subst(P, 3),
        lambda P: power_subst_t(P, 3, 4),
        4, 10, mod101,
    )


def test_reverse_scale_truncate_diagonal(mod101):
    A = Poly(mod101, [1, 2, 3], 3)
    assert reverse(A).coeffs == [3, 2, 1]
    assert scale(A, 2).coeffs == [1, 4, 12]
    assert truncate(A, 2).coeffs == [1, 2]
    assert truncate(A, 5).coeffs == [1, 2, 3, 0, 0]
    assert truncate(A, 3) is A
    assert diagonal(A, [10, 20, 30]).coeffs == [10, 40, 90]


def test_taylor_shift_matches_horner(mod101):
    rng = random.Random(11)
    for m in (1, 2, 5, 16, 33):
        A = Poly(mod101, [rng.randrange(101) for _ in range(m)], m)
        a = rng.randrange(101)
        g = Poly(mod101, [a, 1], max(m, 2))   # x + a
        want = horner_compose(A, g, m)
        assert taylor_shift(A, a).coeffs == want.coeffs


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 1099489607681])
def test_taylor_shift_across_primes(p):
    # products on both sides of the schoolbook/transform crossover (near
    # m = 80 on int64 rows, m = 16 on object rows)
    mod = Modulus(p)
    rng = random.Random(16)
    for m in (1, 2, 17, 100, 300):
        A = Poly(mod, [rng.randrange(p) for _ in range(m)], m)
        B = Poly(mod, [rng.randrange(p) for _ in range(m)], m)
        a = rng.randrange(p)
        g = Poly(mod, [a, 1], 2)   # x + a
        shifted = taylor_shift(A, a)
        assert shifted == horner_compose(A, g, m)
        lhs = sum(x * y for x, y in zip(shifted.coeffs, B.coeffs)) % p
        assert lhs == sum(x * y for x, y in zip(A.coeffs, taylor_shift_t(B, a).coeffs)) % p


def test_warm_shift_makes_two_transforms(monkeypatch):
    # the series P of a shift is fixed by a and the transform size, so a
    # warm shift keeps P's image: one forward and one inverse transform, no
    # new entry
    mod = Modulus(DEFAULT_PRIME)
    m = 4096
    rng = random.Random(17)
    A = Poly(mod, [rng.randrange(mod.p) for _ in range(m)], m)
    calls = [0]
    transform = modfield._transform

    def counted(*args):
        calls[0] += 1
        return transform(*args)

    # every transform enters through _transform
    monkeypatch.setattr(modfield, "_transform", counted)
    sizes = []
    for shift in (taylor_shift, taylor_shift_t):
        cold = shift(A, 12345)
        sizes.append(len(mod._cache))
        calls[0] = 0
        assert shift(A, 12345) == cold
        assert calls[0] == 2
        assert len(mod._cache) == sizes[-1]
    # the cold transpose added nothing: it reads the forward shift's operand
    assert sizes[0] == sizes[1]


# 2 * 500001 + 1: no roots of unity of order 4; above 2^31, dtype object
NO_ROOTS_PRIME, P40 = 1000003, 1099489607681


@pytest.mark.parametrize("p", [DEFAULT_PRIME, NO_ROOTS_PRIME, 101, P40])
def test_dense_shift_across_the_cut(p, monkeypatch):
    # shifts on int64 rows at DENSE_MIN <= m <= LEAF_SIZE are one product by
    # the Pascal matrix, the others the factorial/convolution kernel: both
    # sides of each cut equal Horner's rule, and each transpose passes
    # <F x, y> = <x, F^t y>; dtype-object rows never take the dense product
    mod = Modulus(p)
    rng = random.Random(19)
    calls = [0]
    dense_mul = polyops._dense_mul

    def counted(*args):
        calls[0] += 1
        return dense_mul(*args)

    monkeypatch.setattr(polyops, "_dense_mul", counted)
    for m in (DENSE_MIN - 1, DENSE_MIN, DENSE_MIN + 1, 255, 256, 257):
        if m >= p:
            continue
        A, B = (Poly(mod, [rng.randrange(p) for _ in range(m)], m) for _ in range(2))
        a = rng.randrange(1, p)
        calls[0] = 0
        shifted = taylor_shift(A, a)
        assert shifted == horner_compose(A, Poly(mod, [a, 1], 2), m), m
        assert _dot(shifted, B) == _dot(A, taylor_shift_t(B, a)), m
        dense = mod.dtype is not object and DENSE_MIN <= m <= polyops.LEAF_SIZE
        assert calls[0] == 2 * dense, m


def test_warm_dense_shift_makes_no_transform(monkeypatch):
    # a warm dense shift reads the Pascal matrix and two power rows, all
    # kept: one GEMM, no transform and no new cache entry, both ways
    mod = Modulus(DEFAULT_PRIME)
    m = 128
    rng = random.Random(20)
    A = Poly(mod, [rng.randrange(mod.p) for _ in range(m)], m)
    calls = {"_transform": 0, "_dense_mul": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(modfield, "_transform", counted("_transform", modfield._transform))
    monkeypatch.setattr(polyops, "_dense_mul", counted("_dense_mul", polyops._dense_mul))
    for shift in (taylor_shift, taylor_shift_t):
        cold = shift(A, 12345)
        entries = len(mod._cache)
        calls.update(_transform=0, _dense_mul=0)
        assert shift(A, 12345) == cold
        assert calls == {"_transform": 0, "_dense_mul": 1}
        assert len(mod._cache) == entries
    assert [k for k in mod._cache if k[0] == "pascal"] == [("pascal", polyops.LEAF_SIZE)]


def test_shifts_of_one_transform_size_share_one_operand(mod101):
    # the shift series is kept per (a, transform size), built at the size's
    # longest m, at most p - 1: every m of one size past LEAF_SIZE reads it,
    # both ways; shifts at 33 <= m <= 64 are dense and keep no series
    mod = Modulus(DEFAULT_PRIME)
    rng = random.Random(18)
    for m in (64, 40, 33):
        A = Poly(mod, [rng.randrange(mod.p) for _ in range(m)], m)
        assert taylor_shift(A, 7) == horner_compose(A, Poly(mod, [7, 1], m), m)
        _transpose_check(
            lambda B: taylor_shift(B, 7), lambda B: taylor_shift_t(B, 7), m, m, mod
        )
    assert [k for k in mod._cache if k[0] == "shift"] == []
    for m in (1024, 700, 513):
        A, B = (Poly(mod, [rng.randrange(mod.p) for _ in range(m)], m) for _ in range(2))
        shifted = taylor_shift(A, 7)
        assert shifted == horner_compose(A, Poly(mod, [7, 1], 2), m)
        assert _dot(shifted, B) == _dot(A, taylor_shift_t(B, 7))
    assert [k for k in mod._cache if k[0] == "shift"] == [("shift", 7, 2048)]
    for m in (16384, 16383):
        taylor_shift_t(taylor_shift(Poly(mod, [1] * m, m), 12345), 12345)
    keys = [k for k in mod._cache if k[:2] == ("shift", 12345)]
    # a scaled float image (modfield._kept_image)
    assert keys == [("shift", 12345, 32768)] and mod._cache[keys[0]].ndim == 4
    A = Poly(mod101, [rng.randrange(101) for _ in range(100)], 100)
    assert taylor_shift(A, 5) == horner_compose(A, Poly(mod101, [5, 1], 100), 100)


def test_taylor_shift_group_law(mod101):
    rng = random.Random(12)
    A = Poly(mod101, [rng.randrange(101) for _ in range(9)], 9)
    one = taylor_shift(taylor_shift(A, 4), 9)
    assert one.coeffs == taylor_shift(A, 13).coeffs
    assert taylor_shift(taylor_shift(A, 4), 101 - 4).coeffs == A.coeffs
    assert taylor_shift(A, 0) is A


def test_taylor_shift_t_2x2(mod101):
    # m=2: shift matrix [[1,a],[0,1]], transpose maps (b0,b1) to
    # (b0, a*b0 + b1)
    a = 7
    B = Poly(mod101, [5, 9], 2)
    assert taylor_shift_t(B, a).coeffs == [5, (7 * 5 + 9) % 101]


def test_taylor_shift_transpose_matrix(mod101):
    for m in (2, 5, 12):
        _transpose_check(
            lambda P: taylor_shift(P, 17),
            lambda P: taylor_shift_t(P, 17),
            m, m, mod101,
        )


def test_find_degrees():
    assert find_degrees(7, 3) == (3, 2, 2)
    assert find_degrees(6, 3) == (2, 2, 2)
    assert find_degrees(1, 4) == (1, 0, 0, 0)
    assert sum(find_degrees(23, 5)) == 23
    with pytest.raises(DimensionMismatch):
        find_degrees(0, 3)


def test_split_and_split_t_round_trip(mod101):
    rng = random.Random(13)
    for m, k in [(7, 3), (6, 2), (1, 4), (10, 10), (9, 4)]:
        A = Poly(mod101, [rng.randrange(101) for _ in range(m)], m)
        parts = split(A, k)
        assert len(parts) == k
        back = split_t(parts, m)
        assert back.coeffs == A.coeffs


def test_split_reconstruction_identity(mod101):
    # A(x) = sum_i parts[i](x^k) * x^i
    A = Poly(mod101, [4, 8, 15, 16, 23, 42, 9], 7)
    k = 3
    parts = split(A, k)
    acc = [0] * 7
    for i, part in enumerate(parts):
        for j, c in enumerate(part.coeffs):
            if i + j * k < 7:
                acc[i + j * k] = (acc[i + j * k] + c) % 101
    assert acc == A.coeffs


def test_lincomb_and_transpose(mod101):
    rng = random.Random(14)
    n = 8
    G = [Poly(mod101, [rng.randrange(101) for _ in range(n)], n) for _ in range(3)]
    parts = [Poly(mod101, [rng.randrange(101) for _ in range(n)], n) for _ in range(3)]
    out = lincomb(parts, G, n)
    want = [0] * n
    for part, g in zip(parts, G):
        for i in range(n):
            for j in range(n - i):
                want[i + j] = (want[i + j] + part.coeffs[i] * g.coeffs[j]) % 101
    assert out.coeffs == want
    # bilinear pairing against lincomb_t
    A = Poly(mod101, [rng.randrange(101) for _ in range(n)], n)
    Ts = lincomb_t(A, G)
    lhs = sum(out.coeffs[i] * A.coeffs[i] for i in range(n)) % 101
    rhs = sum(
        T.coeffs[i] * part.coeffs[i]
        for T, part in zip(Ts, parts)
        for i in range(n)
    ) % 101
    assert lhs == rhs
