"""Slow reference implementations used to cross-check the fast paths.

The references touch none of the transform machinery: schoolbook products,
explicit matrices and Gaussian elimination, all quadratic or worse, and exact
products by Kronecker substitution through Python ints.  Tests freeze values
produced by these routines.  The kernel checks of basisconv selftest
(float_kernel_agrees, dense_product_agrees) compare the fast kernels of
modfield with these exact products, and past the sizes where the Kronecker
product is quick, with the closed form of constant rows
(constant_rows_agree).
"""

from __future__ import annotations

import math
import random

import numpy as np

from .compseq import compute_g
from .errors import NotInvertible, SingularDiagonal, ZeroCoefficient
from .modfield import (
    Modulus,
    Poly,
    _convolve_rows,
    _dense_mul,
    _image_by,
    _image_mul,
    _kept_image,
    _kept_limbs,
    _width,
)


def _school_mul(mod, a, b, n):
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[: n - i]):
                out[i + j] = (out[i + j] + ai * bj) % mod.p
    return out


def horner_compose(A: Poly, g: Poly, n: int) -> Poly:
    """A(g) mod x^n by Horner's rule with schoolbook products."""
    mod = A.mod
    gc = g.coeffs[:n]
    acc = [0] * n
    for c in reversed(A.coeffs):
        acc = _school_mul(mod, acc, gc, n)
        acc[0] = (acc[0] + c) % mod.p
    return Poly(mod, acc, n)


def _output_series(ops, n, mod) -> Poly:
    """The output of ops mod x^max(n, 2), the last of its truncations."""
    if not ops:
        return Poly.x(mod, max(n, 2))
    return compute_g(ops, max(n, 2), mod).g[-1]


def bivariate_matrix(spec, n: int, mod: Modulus):
    """The n x n coefficient matrix of a -> eval_bivariate(a, spec, n).

    Column j holds the monomial coefficients of the basis image of x^j:
    entry [i][j] = [x^i t^j] u(x) v(t) f(g(x) h(t)).
    """
    g = _output_series(spec.g_ops, n, mod).coeffs[:n]
    h = _output_series(spec.h_ops, n, mod).coeffs[:n]
    f = spec.f_coeffs(n)
    M = [[0] * n for _ in range(n)]
    gp = [0] * n
    gp[0] = 1          # g^0
    hp = [0] * n
    hp[0] = 1
    for k in range(n):
        fk = f[k]
        if fk:
            for i in range(n):
                if gp[i]:
                    w = fk * gp[i] % mod.p
                    for j in range(n):
                        if hp[j]:
                            M[i][j] = (M[i][j] + w * hp[j]) % mod.p
        gp = _school_mul(mod, gp, g, n)
        hp = _school_mul(mod, hp, h, n)
    if spec.v_coeffs is not None:
        v = spec.v_coeffs(n)
        # multiply each row of the t-side by v: column convolution
        for i in range(n):
            row = M[i]
            M[i] = [
                sum(row[j - s] * v[s] for s in range(j + 1)) % mod.p
                for j in range(n)
            ]
    if spec.u_coeffs is not None:
        u = spec.u_coeffs(n)
        cols = [[M[i][j] for i in range(n)] for j in range(n)]
        for j in range(n):
            cols[j] = _school_mul(mod, cols[j], u, n)
        M = [[cols[j][i] for j in range(n)] for i in range(n)]
    return M


def matvec(mod: Modulus, M, a):
    n = len(M)
    return [
        sum(M[i][j] * (a[j] if j < len(a) else 0) for j in range(n)) % mod.p
        for i in range(n)
    ]


def matrix_inverse(mod: Modulus, M):
    """Inverse of a square matrix over F_p by Gaussian elimination."""
    n = len(M)
    aug = [list(M[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise NotInvertible("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = mod.inv(aug[col][col])
        aug[col] = [x * inv % mod.p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [
                    (aug[r][j] - factor * aug[col][j]) % mod.p
                    for j in range(2 * n)
                ]
    return [row[n:] for row in aug]


def naive_convert(a, fam, n: int, direction: str, mod: Modulus):
    """Dense matrix-apply conversion; the quadratic baseline."""
    M = bivariate_matrix(fam.spec, n, mod)
    cs = fam.prefactor(n)
    for j, c in enumerate(cs):
        if c % mod.p == 0:
            raise ZeroCoefficient(f"prefactor c_{j} vanishes")
    if direction == "to-monomial":
        b = [a[j] * mod.inv(cs[j]) % mod.p if j < len(a) else 0 for j in range(n)]
        return matvec(mod, M, b)
    if direction == "from-monomial":
        f = fam.spec.f_coeffs(n)
        for k, fk in enumerate(f):
            if fk % mod.p == 0:
                raise SingularDiagonal(f"f coefficient at index {k} vanishes")
        try:
            Minv = matrix_inverse(mod, M)
        except NotInvertible:
            raise SingularDiagonal("conversion matrix is singular") from None
        y = matvec(mod, Minv, list(a))
        return [y[j] * cs[j] % mod.p for j in range(n)]
    raise ValueError(f"unknown direction {direction!r}")


def stirling_matrices(mod: Modulus, n: int):
    """(signed first kind, second kind) as n x n lower-triangular matrices.

    s[i][j] with x^(falling i) = sum_j s[i][j] x^j, and S[i][j] with
    x^i = sum_j S[i][j] x^(falling j); the two matrices are inverse.
    """
    s = [[0] * n for _ in range(n)]
    S = [[0] * n for _ in range(n)]
    s[0][0] = S[0][0] = 1
    for i in range(1, n):
        for j in range(n):
            below = s[i - 1][j - 1] if j else 0
            s[i][j] = (below - (i - 1) * s[i - 1][j]) % mod.p
            belowS = S[i - 1][j - 1] if j else 0
            S[i][j] = (belowS + j * S[i - 1][j]) % mod.p
    return s, S


def kronecker_mul(p, A, B):
    """Row-wise exact products mod p of the rows of A and B, sequences of
    equally many rows of residues in [0, p), as lists of ints.

    Kronecker substitution through Python ints: each row packed into one int
    of fixed-width slots (int.to_bytes), each slot wider than any coefficient
    of the product, the two ints multiplied and the product's slots read
    back.  CPython multiplies by Karatsuba: two rows of 2^15 residues of
    DEFAULT_PRIME take about 0.8 s.
    """
    out = []
    for a, b in zip(A, B):
        a, b = [int(v) for v in a], [int(v) for v in b]
        width = (min(len(a), len(b)) * (p - 1) ** 2).bit_length() // 8 + 1
        x, y = (
            int.from_bytes(b"".join(v.to_bytes(width, "little") for v in row), "little")
            for row in (a, b)
        )
        z = (x * y).to_bytes((len(a) + len(b)) * width, "little")
        out.append([
            int.from_bytes(z[i * width : (i + 1) * width], "little") % p
            for i in range(len(a) + len(b) - 1)
        ])
    return out


def worst_residue(p, limbs, width):
    """The residue below p whose balanced limbs of `width` bits are all
    -2^(width - 1) but the top one, the largest that keeps it below p: the
    largest limb norm below p in that layout."""
    low = -(1 << width - 1) * sum(1 << width * k for k in range(limbs - 1))
    top = width * (limbs - 1)
    return ((p - 1 - low) >> top << top) + low


def _largest_per_layout(sizes, layout):
    """The largest of the increasing sizes that each value of layout(size)
    but None serves."""
    out = {layout(size): size for size in sizes}
    out.pop(None, None)
    return sorted(out.values())


# The products float_kernel_agrees checks, one per kind of product of the
# library, in increasing charge, as (rows' entries, image's entries, products
# summed) at size 2 h: plain (_convolve_rows), and by an image kept for its
# charge (_kept_image): a fixed operand's, whose products never wrap, a
# Newton step's, whose products wrap, and a grid level's, summed in pairs.
KINDS = {
    "plain": lambda h: (h, h, 1),
    "fixed": lambda h: (h, h + 1, 1),
    "newton": lambda h: (2 * h, h, 1),
    "level": lambda h: (h, h, 2),
}


def _product_of(kind, size):
    """(la, lb, summed, charge) of the product of kind (KINDS) at size."""
    la, lb, summed = KINDS[kind](size // 2)
    return la, lb, summed, summed * math.sqrt(la * lb)


def _layouts_taken(mod: Modulus, sizes):
    """{(L_x, L, scaled): (size, kind)}: for each layout of the rows and of
    the image that a product of some kind takes at one of the increasing
    sizes (modfield._kept_limbs), the largest such size and there the kind
    of the largest charge."""
    out = {}
    for size in sizes:
        layout = mod.layout(size)
        for kind in KINDS if layout else ():
            charge = _product_of(kind, size)[3]
            Lx = kind != "plain" and _kept_limbs(mod.p, size, charge, *layout)
            out[Lx or layout[0], layout[0], bool(Lx)] = (size, kind)
    return out


def float_kernel_agrees(mod: Modulus) -> bool:
    """Whether float products over mod equal exact ones (_float_agrees) at
    size 2, the least the float kernel takes, and for each layout that the
    products of the library take up to 2^17 (_layouts_taken): for
    DEFAULT_PRIME plain at 2, 2^10 and 2^17 and by a scaled image at 2^17.
    Exactness rests on IEEE doubles and an FFT as accurate as the bound
    assumes, which the numpy build decides."""
    checks = {(2, "plain"), *_layouts_taken(mod, [1 << k for k in range(1, 18)]).values()}
    # past 2^14 on constant rows alone: kronecker_mul takes 0.8 s at 2^15
    return all(_float_agrees(mod, size, kind, size > 1 << 14) for size, kind in sorted(checks))


def constant_rows_agree(mod: Modulus, size) -> bool:
    """Whether float products over mod at size, for each layout that the
    products of the library take there (_layouts_taken), equal the closed
    form of constant rows of the worst residues (_float_agrees).  It needs no
    Kronecker product, which takes minutes past 2^19."""
    taken = _layouts_taken(mod, [size]).values()
    return all(_float_agrees(mod, size, kind, constant=True) for _, kind in taken)


def _float_agrees(mod: Modulus, size, kind, constant=False):
    """float_kernel_agrees at one size for one kind of product (KINDS): rows
    of la entries times rows of lb mod x^size - 1, summed twice for a level,
    by _convolve_rows where plain, else by an image of the second rows kept
    for the product's charge, in the layout of the first that its shape
    gives (modfield._image_by).  The rows: a random one times one of p - 1
    and the reverse, against kronecker_mul, and the worst residue of the
    rows' layout times that of the size's (worst_residue); constant: the
    last alone, against their closed form."""
    p, rng = mod.p, random.Random(size)
    la, lb, summed, charge = _product_of(kind, size)
    L, w = mod.layout(size)
    B = [[worst_residue(p, L, w)] * lb]
    B = B if constant else [[p - 1] * lb, [rng.randrange(p) for _ in range(lb)]] + B
    B_ = np.array(B, dtype=mod.dtype)
    Y = None if kind == "plain" else _kept_image(mod, B_, size, charge)
    Lx = L if Y is None else Y.shape[1]
    A = [[worst_residue(p, Lx, _width(p, Lx))] * la]
    A = A if constant else [[rng.randrange(p) for _ in range(la)], [p - 1] * la] + A
    A_, out_len = np.array(A, dtype=mod.dtype), min(la + lb - 1, size)
    if Y is None:
        got = _convolve_rows(mod, A_, B_)
    else:
        X = _image_by(mod, A_, Y)
        got = _image_mul(mod, X, Y, charge, out_len, *[X, Y][: 2 * summed - 2])
    if constant:
        # coefficient k of la constants x by lb constants y is
        # x y min(k + 1, la, lb, la + lb - 1 - k)
        k = np.arange(la + lb - 1)
        terms = np.minimum(np.minimum(k + 1, la + lb - 1 - k), min(la, lb)).astype(object)
        rows = [terms * (A[0][0] * B[0][0] % p)]
    else:
        rows = [np.array(row, dtype=object) for row in kronecker_mul(p, A, B)]
    # mod x^size - 1
    want = [np.append(c, [0] * (-len(c) % size)).reshape(-1, size).sum(axis=0) for c in rows]
    return np.array_equal(got, (summed * np.array(want) % p)[:, :out_len])


def dense_product_agrees(mod: Modulus, b_max) -> bool:
    """Whether modfield._dense_mul equals the exact integer product at the
    largest inner dimension b <= b_max of each limb layout (136 and 256 for
    DEFAULT_PRIME and b_max = 256), on the worst case of its bound: rows of
    p - 1 and rows whose limbs are all -2^(w - 1), times a matrix of p - 1.
    Exactness rests on the BLAS of the numpy build summing doubles as IEEE
    arithmetic does.  True on dtype-object rows, which never take it."""
    if mod.dtype is object:
        return True
    sizes = _largest_per_layout(range(1, b_max + 1), lambda b: mod.layout(b, dense=True))
    return all(_dense_agrees(mod, b) for b in sizes)


def _dense_agrees(mod, b):
    """dense_product_agrees at one inner dimension."""
    p, (L, w) = mod.p, mod.layout(b, dense=True)
    all_low = -(1 << w - 1) * sum(1 << w * k for k in range(L))
    A = np.stack([np.full(b, p - 1), np.full(b, all_low)])
    M = np.full((b, b), p - 1, dtype=np.int64)
    want = (A.astype(object) @ M.astype(object)) % p
    return np.array_equal(_dense_mul(mod, A, M.astype(np.float64)), want.astype(np.int64))
