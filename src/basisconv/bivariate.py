"""Structured bivariate evaluation u(x) v(t) f(g(x) h(t)) and its inverse.

The coefficient matrix of such a series factors as

    Mul(., u) o Eval(., g) o Diag(f_k) o Eval^t(., h) o Mul^t(., v)

which reduces the map, and its inverse, to the composition machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compseq import (
    _inverse_seq_matrix,
    _leads,
    _prepare,
    _seq_matrix,
    eval_inv_transposed,
    eval_seq,
    eval_seq_inv,
    eval_seq_t,
)
from .errors import SingularDiagonal, SpecViolation
from .modfield import (
    Modulus,
    Poly,
    _dense_mul,
    _fixed_operand,
    _readonly,
    _toeplitz,
    mul_trunc,
    mul_trunc_t,
)
from .polyops import diagonal, truncate
from .seriesops import series_inv


@dataclass(frozen=True)
class BivariateSpec:
    """The quintuple (u, v, f, g, h) defining the series u v f(g h).

    f_coeffs, u_coeffs, v_coeffs are callables n -> list of n coefficients;
    g_ops and h_ops are composition-sequence op tuples for g(x) and h(t).
    """

    f_coeffs: object
    g_ops: tuple
    h_ops: tuple
    u_coeffs: object = None   # None means u = 1
    v_coeffs: object = None   # None means v = 1


def _series_poly(mod, coeffs_fn, n):
    if coeffs_fn is None:
        return None
    return Poly(mod, coeffs_fn(n), n)


def _fixed(mod, P, n):
    """P kept for products of length <= n (modfield._fixed_operand)."""
    return None if P is None else _fixed_operand(mod, P.arr, n)


def check_spec(spec: BivariateSpec, n: int, mod: Modulus):
    """Validate the factorization hypotheses numerically at precision n:
    g(0)h(0) = 0 and g'(0), h'(0), u(0), v(0) all nonzero."""
    _spec_vectors(spec, n, mod)


def _spec_vectors(spec, n, mod):
    """(f_0..f_{n-1} as an array, v and u as Poly or None) at precision n,
    built once, after the checks of check_spec."""

    def build():
        g0, g1 = _leads(spec.g_ops, n, mod)
        h0, h1 = _leads(spec.h_ops, n, mod)
        if g0 != 0 and h0 != 0:
            raise SpecViolation("g(0) * h(0) must vanish")
        if g1 == 0:
            raise SpecViolation("g'(0) must be nonzero")
        if h1 == 0:
            raise SpecViolation("h'(0) must be nonzero")
        f = Poly(mod, spec.f_coeffs(n), n).arr
        v = _series_poly(mod, spec.v_coeffs, n)
        u = _series_poly(mod, spec.u_coeffs, n)
        if u is not None and u.constant() == 0:
            raise SpecViolation("u(0) must be nonzero")
        if v is not None and v.constant() == 0:
            raise SpecViolation("v(0) must be nonzero")
        return f, v, u

    return mod.cached(("fvu", spec, n), build)


def _forward_vectors(spec, n, mod):
    """(v, u) kept for their products or None at precision n, cached."""

    def build():
        v, u = _spec_vectors(spec, n, mod)[1:]
        return _fixed(mod, v, n), _fixed(mod, u, n)

    return mod.cached(("vu", spec, n), build)


def _inverse_series(spec, n, mod):
    """(1/f_k array, then 1/u and 1/v as Poly or None) at precision n, made
    afresh; raises SingularDiagonal at the first vanishing f_k."""
    f, v, u = _spec_vectors(spec, n, mod)
    zeros = np.flatnonzero(f == 0)
    if len(zeros):
        raise SingularDiagonal(f"f coefficient at index {zeros[0]} vanishes")
    return mod.inv_array(f), *(None if P is None else series_inv(P, n) for P in (u, v))


def _inverse_vectors(spec, n, mod):
    """_inverse_series with 1/u and 1/v kept for their products, cached."""

    def build():
        finv, uinv, vinv = _inverse_series(spec, n, mod)
        return _readonly(finv), _fixed(mod, uinv, n), _fixed(mod, vinv, n)

    return mod.cached(("finv", spec, n), build)


def eval_bivariate(a, spec: BivariateSpec, n: int, mod: Modulus) -> Poly:
    """sum_j xi_j(x) a_j mod x^n for the series sum_j xi_j t^j = u v f(g h)."""
    mod.check_precision(n)
    # the operands of both evaluations and the leading coefficients that
    # check_spec reads come from one set of truncations of each sequence
    _prepare(spec.g_ops, n, mod)
    _prepare(spec.h_ops, n, mod)
    check_spec(spec, n, mod)
    cur = Poly(mod, a, n)
    f = _spec_vectors(spec, n, mod)[0]
    v, u = _forward_vectors(spec, n, mod)
    if v is not None:
        cur = mul_trunc_t(cur, v, n)
    cur = eval_seq_t(cur, spec.h_ops, n)
    cur = diagonal(cur, f)
    cur = eval_seq(cur, spec.g_ops, n)
    if u is not None:
        cur = mul_trunc(cur, u, n)
    return cur


def eval_bivariate_inv(A: Poly, spec: BivariateSpec, n: int, mod: Modulus):
    """Exact inverse of eval_bivariate, as a list of ints; needs every f_k
    nonzero (k < n)."""
    return _bivariate_inv(A, spec, n, mod).coeffs


def _bivariate_inv(A: Poly, spec: BivariateSpec, n: int, mod: Modulus) -> Poly:
    """eval_bivariate_inv as a Poly."""
    mod.check_precision(n)
    check_spec(spec, n, mod)
    finv, uinv, vinv = _inverse_vectors(spec, n, mod)
    cur = truncate(A, n)
    if uinv is not None:
        cur = mul_trunc(cur, uinv, n)
    cur = eval_seq_inv(cur, spec.g_ops, n)
    cur = diagonal(cur, finv)
    cur = eval_inv_transposed(cur, spec.h_ops, n)
    if vinv is not None:
        cur = mul_trunc_t(cur, vinv, n)
    return cur


# The same maps as n x n matrices on rows, n <= LEAF_SIZE, which families keeps
# for n <= MATRIX_MAX: products, one exact GEMM each (modfield._dense_mul), of
# the factors' matrices, Toeplitz for u, v and their inverses, power stacks for
# g and h (compseq._seq_matrix), none for an empty sequence.  They make none of
# the operands the evaluations above keep, and raise what those raise.


def _product(mod, *Ms):
    """The product mod p of the n x n matrices of residues Ms, int64 or
    float64, one exact GEMM (modfield._dense_mul) each, skipping those that
    are None (the identity); None where all are."""
    Ms = [M for M in Ms if M is not None]
    X = Ms[0] if Ms else None
    for M in Ms[1:]:
        X = _dense_mul(mod, X.astype(np.int64, copy=False), M.astype(np.float64, copy=False))
    return X


def _scaled_t(mod, a, M, b):
    """Diag(a) M^T Diag(b) mod p as int64, M None standing for the identity."""
    if M is None:
        return np.diag(a * b % mod.p)
    return M.T.astype(np.int64, order="C") * a[:, None] % mod.p * b % mod.p


def _toeplitz_of(P, n):
    return None if P is None else _toeplitz(P.arr, n)


def _bivariate_matrix(spec: BivariateSpec, n: int, mod: Modulus, cinv):
    """The int64 n x n matrix on rows of eval_bivariate at n after Diag(cinv):
    Diag(cinv) (H V)^T Diag(f) G U, for G and H the matrices of eval_seq at g
    and h and U and V those of the products by u and v."""
    G = _seq_matrix(spec.g_ops, n, mod) if spec.g_ops else None
    H = _seq_matrix(spec.h_ops, n, mod) if spec.h_ops else None
    check_spec(spec, n, mod)
    f, v, u = _spec_vectors(spec, n, mod)
    left = _scaled_t(mod, cinv, _product(mod, H, _toeplitz_of(v, n)), f)
    return _product(mod, left, G, _toeplitz_of(u, n))


def _bivariate_inv_matrix(spec: BivariateSpec, n: int, mod: Modulus, cs):
    """The int64 n x n matrix on rows of eval_bivariate_inv at n, then
    Diag(cs), the factors as _bivariate_inv applies them:
    U^-1 G^-1 Diag(1/f) (V^-1 H^-1)^T Diag(cs), for G^-1 and H^-1 the
    matrices of eval_seq_inv at g and h and U^-1 and V^-1 those of the
    products by 1/u and 1/v."""
    check_spec(spec, n, mod)
    finv, uinv, vinv = _inverse_series(spec, n, mod)
    G = _inverse_seq_matrix(spec.g_ops, n, mod) if spec.g_ops else None
    H = _inverse_seq_matrix(spec.h_ops, n, mod) if spec.h_ops else None
    right = _scaled_t(mod, finv, _product(mod, _toeplitz_of(vinv, n), H), cs)
    return _product(mod, _toeplitz_of(uinv, n), G, right)
