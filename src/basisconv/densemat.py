"""The dense conversion matrix, the benchmark's quadratic matrix-apply baseline.

Its column j is eval_bivariate of x^j: the transpose of the matrix on rows
that bivariate._bivariate_matrix builds as the product of the matrices of the
five factors, one exact GEMM (modfield._dense_mul) per block of rows, at any
n and for any u and v.  It serves primes below 2^31, whose residues live on
int64 rows; larger primes raise CapacityExceeded.  For n <=
families.MATRIX_MAX (64) it is built as the matrix families keeps for the
fast path, so there it is no independent check of that path;
oracle.bivariate_matrix is.
"""

from __future__ import annotations

from .bivariate import _bivariate_matrix
from .errors import CapacityExceeded
from .modfield import Modulus


def conversion_matrix(spec, n: int, mod: Modulus):
    """The n x n matrix of a -> eval_bivariate(a, spec, n), as nested lists;
    CapacityExceeded for p >= 2^31."""
    if mod.dtype is object:
        raise CapacityExceeded(f"dense conversion matrices need p < 2^31, got p = {mod.p}")
    return _bivariate_matrix(spec, n, mod, False).T.tolist()
