"""Structured bivariate evaluation u(x) v(t) f(g(x) h(t)) and its inverse.

The coefficient matrix of such a series factors as

    Mul(., u) o Eval(., g) o Diag(f_k) o Eval^t(., h) o Mul^t(., v)

which reduces the map, and its inverse, to the composition machinery.
_factors lists the factors of one direction, in the order they apply, once
for both of its consumers: the chain, which runs them as steps kept in the
one cache entry ("chain", spec, n, inverse), and _bivariate_matrix, which
multiplies their matrices for the small n that families keeps as matrices.
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
    _check_poly,
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


def _factors(spec, n, mod, inverse):
    """The factors of eval_bivariate at n, or with inverse of
    eval_bivariate_inv, as (map, operand) pairs in the order they apply, a
    product by an absent u or v and a map by an empty sequence left out: a
    product's operand is its series as a Poly, a sequence map's its ops and
    Diag's an array.  Raises what
    check_spec raises, then (inverse) SingularDiagonal at the first vanishing
    f_k.  The maps are as this module's namespace binds them now."""
    check_spec(spec, n, mod)
    f, v, u = _spec_vectors(spec, n, mod)
    g, h = spec.g_ops or None, spec.h_ops or None
    if not inverse:
        factors = ((mul_trunc_t, v), (eval_seq_t, h), (diagonal, f), (eval_seq, g), (mul_trunc, u))
    else:
        zeros = np.flatnonzero(f == 0)
        if len(zeros):
            raise SingularDiagonal(f"f coefficient at index {zeros[0]} vanishes")
        finv = _readonly(mod.inv_array(f))
        uinv, vinv = (None if P is None else series_inv(P, n) for P in (u, v))
        factors = ((mul_trunc, uinv), (eval_seq_inv, g), (diagonal, finv),
                   (eval_inv_transposed, h), (mul_trunc_t, vinv))
    return [(fn, x) for fn, x in factors if x is not None]


def _chain(spec, n, mod, inverse):
    """_factors as steps (map, args), each applied as map(A, *args), kept as
    the one entry ("chain", spec, n, inverse), a product's series kept for
    products of length <= n (modfield._fixed_operand).  Forward, the
    programs of g and h (compseq._prepare) are built first: their
    truncations give the leading coefficients that check_spec reads."""

    def build():
        if not inverse:
            _prepare(spec.g_ops, n, mod)
            _prepare(spec.h_ops, n, mod)
        steps = []
        for fn, x in _factors(spec, n, mod, inverse):
            if isinstance(x, Poly):
                x = _fixed_operand(mod, x.arr, n)
            steps.append((fn, (x,) if fn is diagonal else (x, n)))
        return tuple(steps)

    return mod.cached(("chain", spec, n, inverse), build)


def _run_chain(A: Poly, spec, n, mod, inverse) -> Poly:
    for fn, args in _chain(spec, n, mod, inverse):
        A = fn(A, *args)
    return A


def eval_bivariate(a, spec: BivariateSpec, n: int, mod: Modulus) -> Poly:
    """sum_j xi_j(x) a_j mod x^n for the series sum_j xi_j t^j = u v f(g h)."""
    n = mod.check_precision(n)
    return _run_chain(Poly(mod, a, n), spec, n, mod, False)


def eval_bivariate_inv(A: Poly, spec: BivariateSpec, n: int, mod: Modulus):
    """Exact inverse of eval_bivariate, as a list of ints; needs every f_k
    nonzero (k < n) and A a Poly over the prime of mod."""
    return _bivariate_inv(A, spec, n, mod).coeffs


def _bivariate_inv(A: Poly, spec: BivariateSpec, n: int, mod: Modulus) -> Poly:
    """eval_bivariate_inv as a Poly."""
    n = mod.check_precision(n)
    _check_poly(A, mod)
    return _run_chain(truncate(A, n), spec, n, mod, True)


# The same maps as n x n matrices on rows, n <= LEAF_SIZE, which families keeps
# for n <= MATRIX_MAX: the product of the matrices of the factors of _factors,
# one exact GEMM (modfield._dense_mul) each: a Toeplitz matrix for a product,
# the powers of g or h for a sequence map (compseq._seq_matrix,
# _inverse_seq_matrix), transposed where the map is, a scaling for a
# diagonal.  They make none of the operands the chain keeps, and raise what
# it raises.


def _bivariate_matrix(spec: BivariateSpec, n: int, mod: Modulus, inverse, c):
    """The int64 n x n matrix on rows of eval_bivariate at n after Diag(c),
    or with inverse of eval_bivariate_inv at n and then Diag(c).  Forward,
    the power stacks of g and h are built first, as the chain's programs
    are, and give check_spec its leading coefficients."""
    stacks = {} if inverse else {o: _seq_matrix(o, n, mod) for o in (spec.g_ops, spec.h_ops) if o}
    factors = _factors(spec, n, mod, inverse)
    factors = factors + [(diagonal, c)] if inverse else [(diagonal, c)] + factors
    p, X, d = mod.p, None, np.ones(n, dtype=np.int64)     # the product: Diag(d) until X
    for fn, x in factors:
        if fn is diagonal:
            if X is None:
                d = d * x % p
            else:
                X = X * x % p
            continue
        if isinstance(x, Poly):
            M = _toeplitz(x.arr, n)
        else:
            M = _inverse_seq_matrix(x, n, mod) if inverse else stacks[x]
        if fn in (mul_trunc_t, eval_seq_t, eval_inv_transposed):
            M = M.T
        if X is None:
            X = M.astype(np.int64) * d[:, None] % p
        else:
            X = _dense_mul(mod, X, M.astype(np.float64, copy=False))
    return np.diag(d) if X is None else X
