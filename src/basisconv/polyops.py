"""Linear operators on polynomials: powering, reversal, truncation, scaling,
diagonal, Taylor shift, split and linear combination, plus every transpose.

All operators are pure functions Poly -> Poly (or tuples of Polys).  Dimension
metadata travels with each Poly, so a transposed operator knows both its
source and target spaces.

A Taylor shift on K[x]_m is one exact GEMM (modfield._dense_mul) by the
Pascal matrix on int64 rows with m <= LEAF_SIZE, and otherwise a product by
the series sum x^d / d!, one kept per transform size for every
shift value a, as a scaled image where modfield admits it
(modfield._kept_image), between the diagonals i! a^i and a^-i / i!, rows
kept per (a, transform size).  The diagonals of scale and of the dense
shifts slice rows of powers kept per base and power-of-two size.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .modfield import (
    Modulus,
    Poly,
    _check_poly,
    _dense_mul,
    _dimension,
    _fit,
    _fixed_operand,
    _integer,
    _integers,
    _middle_products,
    _mul_fixed,
    _powers,
    _readonly,
    _residues,
    _size,
    mul_trunc,
    mul_trunc_t,
)

# The grid tree's leaf blocks (evalgrid) have b <= LEAF_SIZE points; they
# and the dense shifts read blocks of one Pascal matrix per modulus (_pascal).
# Warm combine + combine_t time in ms at n by b, median of 3 runs of best of 15
# on a 2-core x86-64 machine with numpy 2.4 (OpenBLAS, one thread); b = 1 is
# the tree run to its points:
#
#   n \ b       1     32     64    128    256    512   1024
#    1024      4.4    2.5    2.2    2.3    1.4    1.9    2.6
#    4096     14.8   12.4   10.4    9.3    7.6    8.8   11.5
#    8192     41.8   35.9   34.5   28.6   26.6   18.0   21.2
#   16384     82.5   67.2   65.6   56.1   58.5   53.7   53.6
#
# 256 is fastest up to n = 4096.  512 is faster from n = 8192 on, but the two
# b x b matrices take 16 b^2 bytes per modulus, 4 MB at 512: on the
# sheffer_large benchmark (n = 8192) it made 66 conversions per second against
# 52 at 256, and raised peak memory from 55.3 to 58.5 MB, which 256 keeps flat.
LEAF_SIZE = 256

def power_subst(A: Poly, k: int) -> Poly:
    """A(x^k); result dim k*(m-1)+1.  No arithmetic."""
    mod = _check_poly(A)
    if _dimension(k) == 1:
        return A
    out = np.zeros(k * (A.dim - 1) + 1, dtype=A.arr.dtype)
    out[::k] = A.arr
    return Poly.of(mod, out)


def power_subst_t(A: Poly, k: int, m: int) -> Poly:
    """Transpose of power_subst: keep coefficients at indices 0, k, 2k, ..."""
    return Poly.of(_check_poly(A), _fit(A.arr[:: _dimension(k)], _dimension(m)))


def reverse(A: Poly) -> Poly:
    """x^(m-1) * A(1/x): coefficients reversed within dim m.  Self-transpose."""
    return Poly.of(_check_poly(A), A.arr[::-1])


def truncate(A: Poly, n: int) -> Poly:
    """A mod x^n (drops or zero-pads to dim n).  Transpose is truncate back."""
    mod = _check_poly(A)
    if n == A.dim:
        return A
    return Poly.of(mod, _fit(A.arr, _dimension(n)))


def _power_row(mod: Modulus, lam, m, sign=1):
    """lam^(sign i) mod p for i < m, sign 1 or -1 (lam != 0), read-only: a
    slice of the row kept per (lam, sign, power-of-two size)."""
    size = _size(m)

    def build():
        return _readonly(_powers(mod, lam if sign == 1 else mod.inv(lam), size))

    return mod.cached(("powers", lam, sign, size), build)[:m]


def scale(A: Poly, lam: int) -> Poly:
    """A(lambda * x): coefficient i multiplied by lambda^i.  Self-transpose.
    DomainViolation unless lambda is an integer (not a bool)."""
    mod, lam = _check_poly(A), _integer(lam, "scaling constant")
    return Poly.of(mod, A.arr * _power_row(mod, lam % mod.p, A.dim) % mod.p)


def diagonal(A: Poly, s) -> Poly:
    """Pointwise product with the sequence s of >= dim integers, read by
    modfield._integers and reduced mod p where an entry lies outside [0, p);
    DimensionMismatch for fewer than dim entries."""
    mod = _check_poly(A)
    s = _integers(s)
    if len(s) < A.dim:
        raise DimensionMismatch(f"{len(s)} diagonal entries for dimension {A.dim}")
    s = s[: A.dim]
    if s.min() < 0 or s.max() >= mod.p:     # two passes, cheaper than a remainder
        s = _residues(mod, s)
    return Poly.of(mod, A.arr * s % mod.p)


def _shift_operand(mod: Modulus, m):
    """The fixed factor of every shift on K[x]_m, P = sum x^d / d!, as
    _fixed_operand keeps it; read backwards by the transpose.  A shift on
    K[x]_m reads P below x^m only, so one operand, cached, serves every a and
    m of one transform size: P below x^L, L the longest such m (at most p)."""
    size = _size(2 * m - 1)

    def build():
        L = min((size + 1) // 2, mod.p)
        return _fixed_operand(mod, mod.table("inv_factorials", L), L)

    return mod.cached(("shift", size), build)


def _shift_diagonals(mod: Modulus, a, m):
    """(i! a^i, a^-i / i!) for i < m, the diagonals of a shift by a != 0 on
    K[x]_m, read-only: slices of two rows kept per (a, transform size) as
    _shift_operand keeps P, or at a = 1 of the factorial tables."""
    if a == 1:
        return mod.table("factorials", m), mod.table("inv_factorials", m)
    size = _size(2 * m - 1)

    def build():
        L, p = min((size + 1) // 2, mod.p), mod.p
        up = mod.table("factorials", L) * _powers(mod, a, L) % p
        down = mod.table("inv_factorials", L) * _powers(mod, mod.inv(a), L) % p
        return _readonly(up), _readonly(down)

    up, down = mod.cached(("shiftrows", a, size), build)
    return up[:m], down[:m]


def _pascal(mod: Modulus, b):
    """The float64 matrix of binomials C(t, s) mod p, t, s < b <= LEAF_SIZE,
    read-only: the top-left block of the one kept at LEAF_SIZE (sums of two
    residues are exact in doubles)."""

    def build():
        B = np.zeros((LEAF_SIZE, LEAF_SIZE))
        B[:, 0] = 1
        for t in range(1, LEAF_SIZE):
            B[t, 1 : t + 1] = (B[t - 1, 1 : t + 1] + B[t - 1, :t]) % mod.p
        return _readonly(B)

    return mod.cached(("pascal", LEAF_SIZE), build)[:b, :b]


def _dense_shift(mod: Modulus, X, up, down, transposed: bool):
    """The int64 rows X of m <= LEAF_SIZE residues, each shifted by a != 0
    (or by the transpose), given the powers up = a^s and down = a^-t, s, t <
    m, as one row for one a for all rows or as one row per row of X: A(x + a)
    = ((A ⊙ a^s) B) ⊙ a^-t, B the Pascal matrix C(s, t), one exact GEMM for
    all rows, and ((A ⊙ a^-t) B^T) ⊙ a^s its transpose."""
    B = _pascal(mod, X.shape[-1])
    if transposed:
        up, down, B = down, up, B.T
    return _dense_mul(mod, X * up % mod.p, B) * down % mod.p


def _shift_kernel(A: Poly, a: int, transposed: bool) -> Poly:
    mod, m, p = A.mod, A.dim, A.mod.p
    if mod.dtype is not object and m <= LEAF_SIZE:
        # the Pascal product divides by nothing: any m, m >= p too
        up, down = _power_row(mod, a, m), _power_row(mod, a, m, -1)
        return Poly.of(mod, _dense_shift(mod, A.arr[None], up, down, transposed)[0])
    # A(x + a) = Diag(a^-i / i!) Rev(Rev(Diag(i! a^i) A) P mod x^m) and its
    # transpose Diag(i! a^i) Rev((Rev(Diag(a^-i / i!) A) Rev(P)) div x^(m-1)),
    # a middle product (Aho, Steiglitz & Ullman 1975), which divides by i!
    mod.check_precision(m)
    up, down = _shift_diagonals(mod, a, m)
    pre, post = (down, up) if transposed else (up, down)
    B, P = (A.arr * pre % p)[::-1], _shift_operand(mod, m)
    C = _middle_products(mod, B, (P,), m)[0] if transposed else _mul_fixed(mod, B, P, m)
    return Poly.of(mod, C[::-1] * post % p)


def taylor_shift(A: Poly, a: int) -> Poly:
    """A(x + a): one product by the Pascal matrix on int64 rows with
    m <= LEAF_SIZE, m >= p too, else the factorial/convolution
    factorization, cost M(m) + O(m), which needs m < p.  DomainViolation
    unless a is an integer (not a bool)."""
    mod = _check_poly(A)
    a = _integer(a, "shift") % mod.p
    return _shift_kernel(A, a, transposed=False) if a else A


def taylor_shift_t(A: Poly, a: int) -> Poly:
    """Transpose of taylor_shift(., a) on K[x]_m."""
    mod = _check_poly(A)
    a = _integer(a, "shift") % mod.p
    return _shift_kernel(A, a, transposed=True) if a else A


def find_degrees(m: int, k: int):
    """Dimensions (m_0, ..., m_{k-1}) of the k-section of K[x]_m.

    m_i counts indices congruent to i mod k below m, i.e.
    floor(m/k) + 1 exactly when i < m mod k.
    """
    q, r = divmod(_dimension(m), _dimension(k))
    return tuple(q + (1 if i < r else 0) for i in range(k))


def split(A: Poly, k: int):
    """k-section: A(x) = sum_i parts[i](x^k) * x^i.  No arithmetic."""
    mod = _check_poly(A)
    dims = find_degrees(A.dim, k)
    # dims[i] is 0 when i >= m; that slice is the zero polynomial of dim 1
    # so Poly invariants hold
    return tuple(
        Poly.of(mod, A.arr[i::k]) if di else Poly.zero(mod, 1) for i, di in enumerate(dims)
    )


def split_t(parts, m: int) -> Poly:
    """Interleave the k parts back into K[x]_m (transpose of split)."""
    k = len(parts)
    dims = find_degrees(m, k)
    mod = parts[0].mod
    out = np.zeros(m, dtype=mod.dtype)
    for i, (part, di) in enumerate(zip(parts, dims)):
        if part.dim < di:
            raise DimensionMismatch(f"part {i} has dim {part.dim}, expected {di}")
        out[i::k] = part.arr[:di]
    return Poly.of(mod, out)


def lincomb(parts, G, n: int) -> Poly:
    """sum_i parts[i] * G[i] mod x^n; each G[i] a Poly or an operand kept
    for products of length <= n (modfield._fixed_operand)."""
    if len(parts) != len(G):
        raise DimensionMismatch("parts and G must have equal length")
    mod = parts[0].mod
    # int64: each term is a residue, so k terms sum below k * 2^31
    acc = sum(mul_trunc(part, g, n).arr for part, g in zip(parts, G))
    return Poly.of(mod, acc % mod.p)


def lincomb_t(A: Poly, G):
    """Transpose of lincomb: component-wise transposed truncated products,
    each G[i] as lincomb takes it for n = dim(A).  Kept operands take one
    call (modfield._middle_products), which transforms A once per run of
    images of one shape; Polys take mul_trunc_t each."""
    mod = _check_poly(A)
    if any(isinstance(g, Poly) for g in G):
        return tuple(mul_trunc_t(A, g, A.dim) for g in G)
    return tuple(Poly.of(mod, c) for c in _middle_products(mod, A.arr, G, A.dim))
