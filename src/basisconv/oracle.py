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

import random

import numpy as np

from .compseq import compute_g
from .errors import NotInvertible, SingularDiagonal, ZeroCoefficient
from .modfield import (
    Modulus,
    Poly,
    _by_transform,
    _convolve_rows,
    _dense_mul,
    _fixed_operand,
    _image_by,
    _image_coeffs,
    _image_mul,
    _kept_image,
    _mul_fixed,
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


def float_kernel_agrees(mod: Modulus) -> bool:
    """Whether float products over mod equal exact ones (kronecker_mul) at
    size 2, the least the float kernel takes, and at the largest size of
    each limb layout up to 2^14 (2^10 and 2^14 for DEFAULT_PRIME): a random
    row times a row of p - 1 and the reverse, and the square of a row of the
    layout's worst residue (worst_residue); the same products by a scaled
    image (modfield._kept_image) at the largest size of each scaled layout
    up to 2^17 (2^15 for DEFAULT_PRIME); and, on constant rows against
    their closed form (constant_rows_agree), the product by a kept fixed
    operand at each size up to 2^17 where products that never wrap take
    another scaled layout (_linear_sizes: 2^16 and 2^17 for DEFAULT_PRIME).
    Exactness rests on IEEE doubles and an FFT as accurate as the bound
    assumes, which the numpy build decides."""
    sizes = {2, *_largest_per_layout([1 << k for k in range(1, 15)], mod.layout)}
    scaled = _largest_per_layout([1 << k for k in range(1, 18)], mod.scaled_layout)
    linear = _linear_sizes(mod, [1 << k for k in range(1, 18)])
    return (
        all(_float_agrees(mod, size) for size in sorted(sizes))
        and all(_float_agrees(mod, size, scaled=True) for size in scaled)
        and all(_float_agrees(mod, size, constant=True, linear=True) for size in linear)
    )


def _linear_sizes(mod, sizes):
    """The sizes at which the kept image of a fixed operand whose products
    never wrap is scaled in another layout than the one a sum of two
    products admits (Modulus.scaled_layout), of those where some product
    transforms: the largest, of size / 2 entries by as many, does."""
    return [
        s for s in sizes
        if mod.scaled_layout(s, linear=True) not in (None, mod.scaled_layout(s))
        and _by_transform(mod, s // 2, s // 2)
    ]


def constant_rows_agree(mod: Modulus, size) -> bool:
    """Whether float products over mod at size, plain, by a scaled image
    where the size has a scaled layout and by a kept fixed operand where
    products that never wrap take another one (_linear_sizes), equal the
    closed form of constant rows of the worst residues (_float_agrees):
    coefficient k of the product of size / 2 constants x by as many y is
    x y min(k + 1, size - 1 - k).  It needs no Kronecker product, which
    takes minutes past 2^19."""
    kinds = [{}]
    if mod.scaled_layout(size):
        kinds.append({"scaled": True})
    if _linear_sizes(mod, [size]):
        kinds.append({"linear": True})
    return all(_float_agrees(mod, size, constant=True, **kind) for kind in kinds)


def _float_agrees(mod: Modulus, size, scaled=False, constant=False, linear=False):
    """float_kernel_agrees at one size, by a scaled image of B if scaled,
    where the rows A take the worst residue of the scaled layout; linear:
    as scaled in the layout of products that never wrap, by the kept fixed
    operand of B's one row (modfield._fixed_operand), on constant rows
    alone, false unless that operand is scaled in it; constant: on the rows
    of worst residues alone, against their closed form."""
    p, rng, h = mod.p, random.Random(size), size // 2
    worst = worst_residue(p, *mod.layout(size))
    layout = mod.scaled_layout(size, linear) if scaled or linear else mod.layout(size)
    worst_x = worst_residue(p, *layout)
    A, B = [[worst_x] * h], [[worst] * h]
    if not constant:
        r, s = ([rng.randrange(p) for _ in range(h)] for _ in range(2))
        A, B = [r, [p - 1] * h] + A, [[p - 1] * h, s] + B
    A_, B_ = np.array(A, dtype=mod.dtype), np.array(B, dtype=mod.dtype)
    if linear:
        # the path of a conversion's product by a kept operand, which
        # asserts the bound for the lengths h and h
        fixed = _fixed_operand(mod, B_[0], h)
        if fixed.image.ndim != 4 or fixed.image.shape[1] != layout[0]:
            return False
        got = _mul_fixed(mod, A_[0], fixed, size - 1)[None]
    elif scaled:
        Y = _kept_image(mod, B_, size)
        got = _image_coeffs(mod, _image_mul(mod, _image_by(mod, A_, Y), Y), size - 1)
    else:
        got = _convolve_rows(mod, A_, B_)
    if constant:
        k = np.arange(size - 1)
        want = np.minimum(k + 1, size - 1 - k).astype(mod.dtype) * (worst_x * worst % p) % p
        return np.array_equal(got, want[None])
    return got.tolist() == kronecker_mul(p, A, B)


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
