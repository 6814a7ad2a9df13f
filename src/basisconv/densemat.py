"""Fast assembly of the dense conversion matrix.

The benchmark compares against a quadratic matrix-apply baseline; building
that n x n matrix entry by entry would be cubic in pure Python.  This module
assembles it in one shot: stack the truncated powers of g and h, take their
exact modular matrix product (modfield._dense_mul, in blocks of rows), then
fold the v multiplier into each row by convolution.  The result equals the
matrix of eval_bivariate column for column.  It serves primes below 2^31,
whose residues live on int64 rows; larger primes raise CapacityExceeded.
"""

from __future__ import annotations

import numpy as np

from .compseq import _output_series
from .errors import CapacityExceeded
from .modfield import Modulus, Poly, _dense_mul, mul_trunc

# The product of the power stacks takes one _dense_mul per block of BLOCK_ROWS
# rows, whose limbs are L x BLOCK_ROWS x n doubles, where the whole stack's
# would be L n^2.  For jacobi(alpha=3,beta=5) at n = 2048, on a 2-core x86-64
# machine with numpy 2.4, the product took 0.60 s and the build's peak memory
# grew by 141 MB in blocks of 64 rows, 0.63 s and 169 MB in blocks of 256, and
# 0.79 s and 405 MB in one product.
BLOCK_ROWS = 64


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
    """The n x n matrix of a -> eval_bivariate(a, spec, n), as nested lists;
    CapacityExceeded for p >= 2^31."""
    if mod.dtype is object:
        raise CapacityExceeded(f"dense conversion matrices need p < 2^31, got p = {mod.p}")
    if spec.u_coeffs is not None:
        raise NotImplementedError("u multiplier not supported here")
    g = _output_series(spec.g_ops, n, mod)
    h = _output_series(spec.h_ops, n, mod)
    f = spec.f_coeffs(n)
    Gf = _power_stack(mod, g, [fk % mod.p for fk in f], n)
    H = _power_stack(mod, h, [1] * n, n).astype(np.float64)
    blocks = range(0, n, BLOCK_ROWS)
    M = np.concatenate([_dense_mul(mod, Gf.T[i : i + BLOCK_ROWS], H) for i in blocks])
    if spec.v_coeffs is not None:
        v = Poly(mod, spec.v_coeffs(n), n)
        rows = np.zeros_like(M)
        for i in range(n):
            rows[i] = mul_trunc(Poly.of(mod, M[i]), v, n).arr
        M = rows
    return M.tolist()
