"""Linear operators on polynomials: powering, reversal, truncation, scaling,
diagonal, Taylor shift, split and linear combination, plus every transpose.

All operators are pure functions Poly -> Poly (or tuples of Polys).  Dimension
metadata travels with each Poly, so a transposed operator knows both its
source and target spaces.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .modfield import (
    Modulus,
    Poly,
    _fit,
    _fixed_operand,
    _mul_fixed,
    _powers,
    _size,
    mul_trunc,
    mul_trunc_t,
)


def power_subst(A: Poly, k: int) -> Poly:
    """A(x^k); result dim k*(m-1)+1.  No arithmetic."""
    if k < 1:
        raise DimensionMismatch("k must be >= 1")
    if k == 1:
        return A
    out = np.zeros(k * (A.dim - 1) + 1, dtype=A.arr.dtype)
    out[::k] = A.arr
    return Poly.of(A.mod, out)


def power_subst_t(A: Poly, k: int, m: int) -> Poly:
    """Transpose of power_subst: keep coefficients at indices 0, k, 2k, ..."""
    if k < 1:
        raise DimensionMismatch("k must be >= 1")
    return Poly.of(A.mod, _fit(A.arr[::k], m))


def reverse(A: Poly) -> Poly:
    """x^(m-1) * A(1/x): coefficients reversed within dim m.  Self-transpose."""
    return Poly.of(A.mod, A.arr[::-1])


def truncate(A: Poly, n: int) -> Poly:
    """A mod x^n (drops or zero-pads to dim n).  Transpose is truncate back."""
    if n == A.dim:
        return A
    return Poly.of(A.mod, _fit(A.arr, n))


def scale(A: Poly, lam: int) -> Poly:
    """A(lambda * x): coefficient i multiplied by lambda^i.  Self-transpose."""
    mod = A.mod
    return Poly.of(mod, A.arr * _powers(mod, lam % mod.p, A.dim) % mod.p)


def diagonal(A: Poly, s) -> Poly:
    """Pointwise product with the sequence s of >= dim residues."""
    mod = A.mod
    s = np.asarray(s[: A.dim], dtype=mod.dtype)
    return Poly.of(mod, A.arr * s % mod.p)


def _shift_operand(mod: Modulus, a, m):
    """The fixed factor of a shift by a on K[x]_m, P = sum a^i x^i / i!, as
    _fixed_operand keeps it; read backwards by the transpose.  A shift on
    K[x]_m reads P below x^m only, so one operand, cached, serves every m of
    one transform size: P below x^L, L the longest such m (at most p)."""
    size = _size(2 * m - 1)

    def build():
        L = min((size + 1) // 2, mod.p)
        P = _powers(mod, a, L) * mod.table("inv_factorials", L) % mod.p
        return _fixed_operand(mod, P, L)

    return mod.cached(("shift", a, size), build)


def _shift_kernel(A: Poly, a: int, transposed: bool) -> Poly:
    # A(x + a) = Diag(1/i!) Rev(Rev(Diag(i!) A) P mod x^m) and its transpose
    # Diag(i!) Rev((Rev(Diag(1/i!) A) Rev(P)) div x^(m-1)), a middle product
    mod, m, p = A.mod, A.dim, A.mod.p
    mod.check_precision(m)
    fact, inv_fact = mod.table("factorials", m), mod.table("inv_factorials", m)
    pre, post = (inv_fact, fact) if transposed else (fact, inv_fact)
    B = (A.arr * pre % p)[::-1]
    C = _mul_fixed(mod, B, _shift_operand(mod, a % p, m), m, transposed)
    return Poly.of(mod, C[::-1] * post % p)


def taylor_shift(A: Poly, a: int) -> Poly:
    """A(x + a) via the factorial/convolution factorization; cost M(m)+O(m)."""
    if a % A.mod.p == 0:
        return A
    return _shift_kernel(A, a, transposed=False)


def taylor_shift_t(A: Poly, a: int) -> Poly:
    """Transpose of taylor_shift(., a) on K[x]_m."""
    if a % A.mod.p == 0:
        return A
    return _shift_kernel(A, a, transposed=True)


def find_degrees(m: int, k: int):
    """Dimensions (m_0, ..., m_{k-1}) of the k-section of K[x]_m.

    m_i counts indices congruent to i mod k below m, i.e.
    floor(m/k) + 1 exactly when i < m mod k.
    """
    if m < 1 or k < 1:
        raise DimensionMismatch("m and k must be >= 1")
    q, r = divmod(m, k)
    return tuple(q + (1 if i < r else 0) for i in range(k))


def split(A: Poly, k: int):
    """k-section: A(x) = sum_i parts[i](x^k) * x^i.  No arithmetic."""
    dims = find_degrees(A.dim, k)
    # dims[i] is 0 when i >= m; that slice is the zero polynomial of dim 1
    # so Poly invariants hold
    return tuple(
        Poly.of(A.mod, A.arr[i::k]) if di else Poly.zero(A.mod, 1)
        for i, di in enumerate(dims)
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
    each G[i] as lincomb takes it for n = dim(A)."""
    n = A.dim
    return tuple(mul_trunc_t(A, g, n) for g in G)
