"""Fast assembly of the dense conversion matrix.

The benchmark compares against a quadratic matrix-apply baseline; building
that n x n matrix entry by entry would be cubic in pure Python.  This module
assembles it in one shot: stack the truncated powers of g and h, take one
modular matrix product (exact float64 dgemm on 16-bit limbs), then fold the
v multiplier into each row by convolution.  The result equals the matrix of
eval_bivariate column for column.
"""

from __future__ import annotations

import numpy as np

from .compseq import _output_series
from .modfield import Modulus, Poly, mul_trunc


def _mod_matmul(A, B, p):
    """(A @ B) % p for int64 arrays with entries in [0, p), p < 2^31."""
    A1, A0 = A >> 16, A & 0xFFFF
    B1, B0 = B >> 16, B & 0xFFFF

    def mm(X, Y):
        # limb entries < 2^16 and inner dim < 2^21 keep products exact in
        # float64 (< 2^53), so BLAS does the heavy lifting
        return np.matmul(X.astype(np.float64), Y.astype(np.float64)).astype(np.int64)

    hi = mm(A1, B1) % p
    mid = (mm(A1, B0) + mm(A0, B1)) % p
    lo = mm(A0, B0) % p
    return (hi * ((1 << 32) % p) + mid * (1 << 16) + lo) % p


def _power_stack(mod, series, weights, n):
    """Array P with P[k] = weights[k] * (series^k mod x^n)."""
    out = np.zeros((n, n), dtype=np.int64)
    cur = Poly(mod, [1], n)
    for k in range(n):
        if weights[k]:
            out[k] = cur.arr * weights[k] % mod.p
        if k + 1 < n:
            cur = mul_trunc(cur, series, n)
    return out


def conversion_matrix(spec, n: int, mod: Modulus):
    """The n x n matrix of a -> eval_bivariate(a, spec, n), as nested lists."""
    if spec.u_coeffs is not None:
        raise NotImplementedError("u multiplier not supported here")
    g = _output_series(spec.g_ops, n, mod)
    h = _output_series(spec.h_ops, n, mod)
    f = spec.f_coeffs(n)
    Gf = _power_stack(mod, g, [fk % mod.p for fk in f], n)
    H = _power_stack(mod, h, [1] * n, n)
    M = _mod_matmul(Gf.T.copy(), H, mod.p)
    if spec.v_coeffs is not None:
        v = Poly(mod, spec.v_coeffs(n), n)
        rows = np.zeros_like(M)
        for i in range(n):
            rows[i] = mul_trunc(Poly.of(mod, M[i]), v, n).arr
        M = rows
    return M.tolist()
