import random
from collections import Counter

import numpy as np
import pytest

from basisconv import DEFAULT_PRIME, Modulus, Poly, PrecisionExceedsModulus, evalgrid, modfield
from basisconv.evalgrid import (
    exp_map,
    exp_map_t,
    interp_grid,
    interp_grid_t,
    log_map,
    log_map_t,
    multieval_grid,
    multieval_grid_t,
)
from basisconv.families import from_monomial, parse_family, to_monomial
from basisconv.oracle import stirling_matrices

# 29 * 2^57 + 1: prime, above 2^31, so products take three to six limbs of
# rows of Python ints
SCALAR_PRIME = 4179340454199820289
# ragged sizes on both sides of powers of two; capped below p, and at 100 on
# the big prime, where every product works on Python ints
SIZES = (1, 2, 3, 5, 31, 32, 33, 100, 1000, 2049)
# 2 * 500001 + 1: no roots of unity of order 4, so float images only
NO_ROOTS_PRIME = 1000003
# 2^31 + 11: the least prime of dtype object, with roots of unity of order 2
# only: two or three limbs of rows of Python ints
RAW_PRIME = 2147483659


@pytest.fixture(
    scope="module",
    params=[DEFAULT_PRIME, 101, SCALAR_PRIME],
    ids=["batched-ntt", "schoolbook", "scalar-ntt"],
)
def field(request):
    mod = Modulus(request.param)
    cap = 100 if request.param == SCALAR_PRIME else mod.p - 1
    return mod, [n for n in SIZES if n <= cap]


def _eval_at(A, x, p):
    acc = 0
    for c in reversed(A.coeffs):
        acc = (acc * x + c) % p
    return acc


def test_multieval_matches_horner(mod101):
    rng = random.Random(31)
    for n in (1, 2, 6, 17, 40):
        A = Poly(mod101, [rng.randrange(101) for _ in range(n)], n)
        vals = multieval_grid(A).tolist()
        assert vals == [_eval_at(A, i, 101) for i in range(n)]


def test_multieval_matches_horner_across_primes(field):
    mod, sizes = field
    rng = random.Random(41)
    for n in sizes:
        A = Poly(mod, [rng.randrange(mod.p) for _ in range(n)], n)
        assert multieval_grid(A).tolist() == [_eval_at(A, i, mod.p) for i in range(n)], n


def test_interp_inverts_multieval_across_primes(field):
    mod, sizes = field
    rng = random.Random(42)
    for n in sizes:
        A = Poly(mod, [rng.randrange(mod.p) for _ in range(n)], n)
        assert interp_grid(mod, multieval_grid(A)) == A, n


def test_interp_t_inverts_multieval_t_across_primes(field):
    mod, sizes = field
    rng = random.Random(43)
    for n in sizes:
        v = [rng.randrange(mod.p) for _ in range(n)]
        assert interp_grid_t(multieval_grid_t(mod, v)).tolist() == v, n


def test_tree_passes_make_logarithmically_many_kernel_calls(monkeypatch):
    # a guard against per-node recursion that, unlike a timing, does not
    # depend on machine load: every level costs a fixed number of calls
    mod = Modulus(DEFAULT_PRIME)
    n, log_n = 4096, 12
    rng = random.Random(44)
    A = Poly(mod, [rng.randrange(mod.p) for _ in range(n)], n)
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)

        return wrapper

    # every transform enters through _transform
    monkeypatch.setattr(modfield, "_transform", counted(modfield._transform))
    monkeypatch.setattr(modfield, "_convolve", counted(modfield._convolve))
    monkeypatch.setattr(evalgrid, "_convolve", counted(evalgrid._convolve))
    # cold: the tree, the inverses of its nodes and one pass
    vals = multieval_grid(A)
    assert 0 < calls[0] <= 16 * log_n
    interp_grid(mod, vals)
    for run in (lambda: multieval_grid(A), lambda: interp_grid(mod, vals)):
        calls[0] = 0
        run()
        assert 0 < calls[0] <= 8 * log_n


@pytest.mark.parametrize(
    "p", [DEFAULT_PRIME, 101, NO_ROOTS_PRIME, SCALAR_PRIME, RAW_PRIME],
    ids=["float-and-ntt", "small-prime", "float-no-roots", "scalar-ntt", "raw-rows"],
)
def test_combine_t_is_the_transpose_of_combine(p):
    # <combine(c), W> = <c, combine_t(W)>: on float spectra of int64 rows and
    # of rows of Python ints, each correlated with the kept image through the
    # input read backwards, and the ragged nodes of every size
    mod = Modulus(p)
    cap = 100 if mod.dtype is object else p - 1
    rng = random.Random(47)
    for n in [n for n in SIZES if n <= cap]:
        tree = evalgrid.SubproductTree(mod, n)
        c, W = ([rng.randrange(p) for _ in range(n)] for _ in range(2))
        lhs = sum(a * b for a, b in zip(tree.combine(np.array(c, dtype=mod.dtype)).tolist(), W))
        rhs = sum(a * b for a, b in zip(c, tree.combine_t(np.array(W, dtype=mod.dtype)).tolist()))
        assert lhs % p == rhs % p, n


def _leaf_sizes(p):
    """Sizes around the leaf blocks of b = LEAF_SIZE points on int64 rows;
    below 101 on 101 and below 100 on object rows, where b = 1."""
    if p == 101:
        return (2, 5, 31, 32, 33, 64, 100)
    if p in (SCALAR_PRIME, RAW_PRIME):
        return (2, 5, 33, 100)
    b = evalgrid.LEAF_SIZE
    return (b - 1, b, b + 1, 2 * b - 1, 2 * b + 1, 3 * b + 5, 4097)


def _dot(u, v, p):
    return sum(a * b for a, b in zip(u, v)) % p


@pytest.mark.parametrize(
    "p", [DEFAULT_PRIME, NO_ROOTS_PRIME, 101, SCALAR_PRIME, RAW_PRIME],
    ids=["float-and-ntt", "float-no-roots", "small-prime", "scalar-ntt", "raw-rows"],
)
def test_six_grid_maps_across_leaf_blocks(p):
    # whole blocks, a ragged last block, a lone ragged block and the tree run
    # to its leaves (b = 1): multieval by Horner, the round trips of interp
    # and interp_t, and each of the three transposed maps by <F x, y> =
    # <x, F^t y>
    mod = Modulus(p)
    rng = random.Random(51)
    for n in _leaf_sizes(p):
        A, v, c, W = ([rng.randrange(p) for _ in range(n)] for _ in range(4))
        x = np.arange(n, dtype=mod.dtype)
        horner = np.zeros(n, dtype=mod.dtype)
        for a in reversed(A):
            horner = (horner * x + a) % p
        vals = multieval_grid(Poly(mod, A, n))
        assert vals.tolist() == horner.tolist(), n
        assert interp_grid(mod, vals).coeffs == A, n
        assert interp_grid_t(multieval_grid_t(mod, v)).tolist() == v, n
        assert _dot(vals.tolist(), v, p) == _dot(A, multieval_grid_t(mod, v).coeffs, p), n
        interp_t = interp_grid_t(Poly(mod, W, n)).tolist()
        assert _dot(interp_grid(mod, v).coeffs, W, p) == _dot(v, interp_t, p), n
        tree = evalgrid._grid_tree(mod, n)
        combined = tree.combine(np.array(c, dtype=mod.dtype)).tolist()
        combined_t = tree.combine_t(np.array(W, dtype=mod.dtype)).tolist()
        assert _dot(combined, W, p) == _dot(c, combined_t, p), n


def test_tree_keeps_nothing_below_the_leaf(monkeypatch):
    # at n = 8192 the tree keeps the level images from K = log2 LEAF_SIZE up,
    # the leaf's two matrices and its powers, in fewer bytes than the tree run
    # to its leaves (LEAF_SIZE = 1)
    def nbytes(value):
        if isinstance(value, np.ndarray):
            return value.nbytes
        if isinstance(value, (list, tuple)):
            return sum(map(nbytes, value))
        return 0

    n = 8192
    tree = evalgrid.SubproductTree(Modulus(DEFAULT_PRIME), n)
    K = evalgrid.LEAF_SIZE.bit_length() - 1
    assert tree.leaf == K and tree.blocks == n >> K
    for levels in (tree.full, tree.img, tree.rag):
        assert levels[:K] == [None] * K and len(levels) >= tree.depth
    assert tree.img[K].shape[0] == n >> K
    assert tree.m0.shape == tree.pascal.shape == (1 << K, 1 << K)
    assert sum(map(nbytes, tree.pows)) == 2 * (n - (1 << K)) * 8
    monkeypatch.setattr(evalgrid, "LEAF_SIZE", 1)
    full = evalgrid.SubproductTree(Modulus(DEFAULT_PRIME), n)
    assert full.leaf == 0 and all(img is not None for img in full.img)
    assert nbytes(list(vars(tree).values())) < nbytes(list(vars(full).values()))


@pytest.mark.parametrize("n", [8192, 6000])
def test_tree_keeps_one_coefficient_row_per_level(n):
    # a level keeps its full nodes as their image only: the passes read the
    # coefficients of the full left child of a ragged node alone, so a level
    # keeps that one row or none, and none where n is a power of two
    mod = Modulus(DEFAULT_PRIME)
    tree = evalgrid._grid_tree(mod, n)
    for k, row in enumerate(tree.full):
        assert row is None or row.shape == ((1 << k) + 1,), k
    rows = [a for a in tree.full + tree.rag if a is not None]
    assert (rows == []) == (n & (n - 1) == 0)
    kept = [img for img in tree.img if img is not None] + tree.pows + rows + [tree.root]
    if n % (1 << tree.leaf):
        kept.append(tree.rag_mat)
    assert mod.cache_bytes()["grid"] == (1, sum({id(a): a.nbytes for a in kept}.values()))


def test_transposed_passes_make_few_transforms(monkeypatch):
    # multieval and interp_t are each one top-down pass of combine_t: two
    # transforms a level, and one tree per n, with no tree over 1/i
    mod = Modulus(DEFAULT_PRIME)
    n, log_n = 4096, 12
    rng = random.Random(48)
    A = Poly(mod, [rng.randrange(mod.p) for _ in range(n)], n)
    calls = [0]
    transform = modfield._transform

    def counted(*args):
        calls[0] += 1
        return transform(*args)

    monkeypatch.setattr(modfield, "_transform", counted)
    for run in (lambda: multieval_grid(A), lambda: interp_grid_t(A)):
        run()
        calls[0] = 0
        run()
        assert 0 < calls[0] <= 3 * log_n
    trees = [k for k, v in mod._cache.items() if isinstance(v, evalgrid.SubproductTree)]
    assert trees == [("grid", n)]


def test_warm_products_by_1_over_D_keep_its_image(monkeypatch):
    # multieval (a middle product) and multieval_t multiply by the same fixed
    # series 1/D: its kept image saves one transform per warm call
    mod = Modulus(DEFAULT_PRIME)
    n = 1024
    rng = random.Random(49)
    A = Poly(mod, [rng.randrange(mod.p) for _ in range(n)], n)
    calls = [0]
    transform = modfield._transform

    def counted(*args):
        calls[0] += 1
        return transform(*args)

    monkeypatch.setattr(modfield, "_transform", counted)

    def warm(run):
        run()
        calls[0] = 0
        out = run().tolist()
        return calls[0], out

    runs = (lambda: multieval_grid(A), lambda: multieval_grid_t(mod, A.arr).arr)
    kept = [warm(run) for run in runs]
    tree = evalgrid._grid_tree(mod, n)
    # a scaled float image at size 2048 (modfield._kept_image)
    assert tree.den_fixed.ndim == 4
    tree.den_fixed = tree.den_inv      # the coefficients, transformed at each use
    for (k, out), (f, want) in zip(kept, [warm(run) for run in runs]):
        assert k == f - 1 and out == want


def test_tree_levels_of_both_kinds_never_mix(monkeypatch):
    # at n = 6000 every level above the leaf keeps a float image, of 23 nodes
    # at size 512 up to one node at size 8192, scaled from size 2048 on;
    # every product meets images of its own kind, float (plain or scaled) or
    # rows, and the passes equal those with the levels past a float maximum
    # lowered to 2048 on coefficient rows
    n = 6000
    rng = random.Random(50)
    coeffs = [rng.randrange(DEFAULT_PRIME) for _ in range(n)]

    def run(float_max=None):
        mod = Modulus(DEFAULT_PRIME)
        mod.float_max = float_max or mod.float_max
        A = Poly(mod, coeffs, n)
        out = [
            multieval_grid(A).tolist(),
            interp_grid(mod, coeffs).coeffs,
            multieval_grid_t(mod, coeffs).coeffs,
            interp_grid_t(A).tolist(),
        ]
        tree = evalgrid._grid_tree(mod, n)
        return out, [tree.img[k].ndim for k in range(tree.leaf, tree.depth)]

    def one_kind(fn):
        def product(mod, X, *images):
            assert all(min(Y.ndim, 3) == X.ndim for Y in images)
            return fn(mod, X, *images)

        return product

    for name in ("_image_mul", "_image_mul_add"):
        monkeypatch.setattr(evalgrid, name, one_kind(getattr(evalgrid, name)))
    monkeypatch.setattr(modfield, "_image_mul", one_kind(modfield._image_mul))
    got, kinds = run()
    assert kinds == [3, 3, 4, 4, 4]
    want, kinds = run(2048)
    assert kinds == [3, 3, 4, 2, 2] and got == want


@pytest.mark.parametrize("n", [4096, 3000])
def test_scaled_tree_levels_equal_plain_ones(n):
    # the levels at sizes 2^11 and 2^12 and 1/D keep scaled images
    # (modfield._kept_image); the four grid maps, and combine and combine_t
    # themselves, equal those of the same tree with each kept image replaced
    # by its plain variant 0
    mod = Modulus(DEFAULT_PRIME)
    rng = np.random.default_rng(n)
    c = rng.integers(0, mod.p, n)
    tree = evalgrid._grid_tree(mod, n)

    def run():
        return [
            tree.combine(c).tolist(),
            tree.combine_t(c).tolist(),
            multieval_grid(Poly.of(mod, c)).tolist(),
            interp_grid(mod, c).coeffs,
            multieval_grid_t(mod, c).coeffs,
            interp_grid_t(Poly.of(mod, c)).tolist(),
        ]

    scaled = run()
    assert [X.ndim for X in tree.img[tree.leaf :]] == [3, 3, 4, 4]
    assert tree.den_fixed.ndim == 4
    tree.img = [None if X is None else modfield._plain(X) for X in tree.img]
    tree.den_fixed = modfield._plain(tree.den_fixed)
    assert scaled == run()


def test_interp_round_trip(mod101):
    rng = random.Random(32)
    for n in (1, 2, 9, 25):
        vals = [rng.randrange(101) for _ in range(n)]
        A = interp_grid(mod101, vals)
        assert multieval_grid(A).tolist() == vals


def test_precision_guard(mod101):
    with pytest.raises(PrecisionExceedsModulus):
        multieval_grid(Poly.zero(mod101, 101))


def test_multieval_t_is_transposed_vandermonde(mod101):
    # coefficient j of the output is sum_i v_i * i^j
    rng = random.Random(33)
    n = 8
    v = [rng.randrange(101) for _ in range(n)]
    out = multieval_grid_t(mod101, v)
    for j in range(n):
        want = sum(v[i] * pow(i, j, 101) for i in range(n)) % 101
        assert out.coeffs[j] == want


def test_interp_t_inverts_multieval_t(mod101):
    rng = random.Random(34)
    for n in (1, 2, 7, 20):
        v = [rng.randrange(101) for _ in range(n)]
        A = multieval_grid_t(mod101, v)
        assert interp_grid_t(A).tolist() == v
        # and the other composition order
        B = Poly(mod101, [rng.randrange(101) for _ in range(n)], n)
        assert multieval_grid_t(mod101, interp_grid_t(B)).coeffs == B.coeffs


def test_exp_map_frozen(mod101):
    # x evaluated at exp(x)-1 is just exp(x)-1
    A = Poly.x(mod101, 4)
    invf = mod101.inv_factorials(4)
    assert exp_map(A, 4).coeffs == [0, 1, invf[2], invf[3]]
    # constants pass through
    assert exp_map(Poly(mod101, [9], 1), 3).coeffs == [9, 0, 0]


def test_exp_map_matrix_is_stirling(mod101):
    # column j of exp_map is (exp(x)-1)^j = j! sum_i S(i,j) x^i / i!
    n = 9
    _, S = stirling_matrices(mod101, n)
    fact = mod101.factorials(n)
    invf = mod101.inv_factorials(n)
    for j in range(n):
        e = [0] * n
        e[j] = 1
        col = exp_map(Poly(mod101, e, n), n).coeffs
        want = [fact[j] * S[i][j] % 101 * invf[i] % 101 for i in range(n)]
        assert col == want


def test_exp_log_maps_mutual_inverse(mod101):
    rng = random.Random(35)
    for n in (1, 2, 8, 32, 64):
        A = Poly(mod101, [rng.randrange(101) for _ in range(n)], n)
        assert log_map(exp_map(A, n), n).coeffs == A.coeffs
        assert exp_map(log_map(A, n), n).coeffs == A.coeffs


def test_transposed_maps_bilinear(mod101):
    rng = random.Random(36)
    n, m = 16, 16
    for fwd, bwd in [(exp_map, exp_map_t), (log_map, log_map_t)]:
        for _ in range(10):
            A = Poly(mod101, [rng.randrange(101) for _ in range(m)], m)
            B = Poly(mod101, [rng.randrange(101) for _ in range(n)], n)
            lhs = sum(
                a * b for a, b in zip(fwd(A, n).coeffs, B.coeffs)
            ) % 101
            rhs = sum(
                a * b for a, b in zip(A.coeffs, bwd(B, m).coeffs)
            ) % 101
            assert lhs == rhs


def test_transposed_maps_matrix(mod101):
    n = 6
    for fwd, bwd in [(exp_map, exp_map_t), (log_map, log_map_t)]:
        F = []
        Bm = []
        for j in range(n):
            e = [0] * n
            e[j] = 1
            F.append(fwd(Poly(mod101, e, n), n).coeffs)
            Bm.append(bwd(Poly(mod101, e, n), n).coeffs)
        for i in range(n):
            for j in range(n):
                assert Bm[i][j] == F[j][i]


def test_trivial_dimension_one(mod101):
    A = Poly(mod101, [7], 1)
    assert exp_map(A, 1).coeffs == [7]
    assert log_map(A, 1).coeffs == [7]
    assert exp_map_t(A, 1).coeffs == [7]
    assert log_map_t(A, 1).coeffs == [7]


def _map_matrix(fn, mod, n):
    """Row j: fn(x^j, n), the matrix of a map on K[x]_n."""
    return np.array([fn(Poly(mod, [0] * j + [1], n), n).coeffs for j in range(n)], dtype=object)


@pytest.mark.parametrize("p", [DEFAULT_PRIME, NO_ROOTS_PRIME, 101])
def test_dense_maps_across_the_cut(p, monkeypatch):
    # up to LEAF_SIZE the four maps are one product by a block of a kept
    # Stirling matrix; they equal E[j, k] = j! S(k, j) / k! and
    # L[j, k] = j! s(k, j) / k! from the oracle, the transposes their
    # transposes, and on random inputs the tree path, forced at the same n
    mod = Modulus(p)
    rng = random.Random(54)
    sizes = [n for n in (1, 2, 31, 32, 255, 256, 257) if n < p]
    top = sizes[-1]
    s, S = (np.array(M, dtype=object) for M in stirling_matrices(mod, top))
    fact = np.array(mod.factorials(top), dtype=object)
    inv_fact = np.array(mod.inv_factorials(top), dtype=object)
    E, L = (fact[:, None] * M.T * inv_fact[None, :] % p for M in (S, s))
    for n in sizes:
        for fwd, bwd, want in ((exp_map, exp_map_t, E), (log_map, log_map_t, L)):
            assert _map_matrix(fwd, mod, n).tolist() == want[:n, :n].tolist(), (fwd.__name__, n)
            assert _map_matrix(bwd, mod, n).tolist() == want[:n, :n].T.tolist(), (bwd.__name__, n)
            xs = [Poly(mod, [rng.randrange(p) for _ in range(n)], n) for _ in range(3)]
            dense = [fn(x, n) for fn in (fwd, bwd) for x in xs]
            with monkeypatch.context() as m:
                m.setattr(evalgrid, "_dense", lambda mod, n: False)
                assert [fn(x, n) for fn in (fwd, bwd) for x in xs] == dense, (fwd.__name__, n)
    assert mod.cache_bytes()["stirling"] == (2, 2 * 8 * min(evalgrid.LEAF_SIZE, p) ** 2)


@pytest.mark.parametrize("n", [32, 200, 256])
def test_dense_maps_pair_with_their_transposes(n):
    # <F x, y> = <x, F^t y> for F: K[x]_m -> K[x]_n, m on both sides of n
    mod = Modulus(DEFAULT_PRIME)
    p = mod.p
    rng = random.Random(52)
    for m in (n - 7, n, n + 9):
        for fwd, bwd in ((exp_map, exp_map_t), (log_map, log_map_t)):
            x, y = ([rng.randrange(p) for _ in range(d)] for d in (m, n))
            lhs = _dot(fwd(Poly(mod, x, m), n).coeffs, y, p)
            assert lhs == _dot(x, bwd(Poly(mod, y, n), m).coeffs, p), (fwd.__name__, m)


def test_warm_dense_maps_make_no_transform(monkeypatch):
    # a warm transposed map at n <= LEAF_SIZE is one GEMM and no transform;
    # round trips of families with Exp or Log build no grid tree there
    mod = Modulus(DEFAULT_PRIME)
    rng = random.Random(53)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(modfield, "_transform", counted("transform", modfield._transform))
    monkeypatch.setattr(evalgrid, "_dense_mul", counted("dense", evalgrid._dense_mul))
    for n in (64, 256):
        A = Poly(mod, [rng.randrange(mod.p) for _ in range(n)], n)
        for fn in (exp_map_t, log_map_t):
            fn(A, n)
            calls.clear()
            size = len(mod._cache)
            fn(A, n)
            assert calls == {"dense": 1} and len(mod._cache) == size, (fn.__name__, n)
    for name in ("bell", "falling", "charlier(a=2)"):
        for n in (64, 256):
            fam = parse_family(mod, name)
            a = [rng.randrange(mod.p) for _ in range(n)]
            assert from_monomial(to_monomial(a, fam, n, mod), fam, n, mod) == a
    assert not [k for k in mod._cache if k[0] in ("grid", "grid leaf")]
