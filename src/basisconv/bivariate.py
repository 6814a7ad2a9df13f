"""Structured bivariate evaluation u(x) v(t) f(g(x) h(t)) and its inverse.

The coefficient matrix of such a series factors as

    Mul(., u) o Eval(., g) o Diag(f_k) o Eval^t(., h) o Mul^t(., v)

which reduces the map, and its inverse, to the composition machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compseq import (
    Add,
    Mul,
    compute_g,
    eval_seq,
    eval_seq_inv,
    eval_seq_t,
    reverse_sequence,
)
from .errors import NotInvertible, SingularDiagonal, SpecViolation
from .modfield import Modulus, Poly, mul_trunc, mul_trunc_t
from .polyops import diagonal, scale, taylor_shift_t, truncate
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


def _output_series(ops, n, mod):
    if not ops:
        return Poly.x(mod, max(n, 2))
    return compute_g(ops, max(n, 2), mod).g[-1]


def check_spec(spec: BivariateSpec, n: int, mod: Modulus):
    """Validate the factorization hypotheses numerically at precision n:
    g(0)h(0) = 0 and g'(0), h'(0), u(0), v(0) all nonzero."""
    key = ("speck", spec, n)
    if key in mod._memo:
        return
    g = _output_series(spec.g_ops, n, mod)
    h = _output_series(spec.h_ops, n, mod)
    if g.constant() != 0 and h.constant() != 0:
        raise SpecViolation("g(0) * h(0) must vanish")
    if g.dim < 2 or g.coeffs[1] == 0:
        raise SpecViolation("g'(0) must be nonzero")
    if h.dim < 2 or h.coeffs[1] == 0:
        raise SpecViolation("h'(0) must be nonzero")
    u = _series_poly(mod, spec.u_coeffs, n)
    if u is not None and u.constant() == 0:
        raise SpecViolation("u(0) must be nonzero")
    v = _series_poly(mod, spec.v_coeffs, n)
    if v is not None and v.constant() == 0:
        raise SpecViolation("v(0) must be nonzero")
    mod._memo[key] = True


def _spec_vectors(spec, n, mod):
    """(f coefficient list, v as Poly or None) at precision n, cached."""
    key = ("fv", spec, n)
    cached = mod._memo.get(key)
    if cached is None:
        cached = (spec.f_coeffs(n), _series_poly(mod, spec.v_coeffs, n))
        mod._memo[key] = cached
    return cached


def eval_bivariate(a, spec: BivariateSpec, n: int, mod: Modulus) -> Poly:
    """sum_j xi_j(x) a_j mod x^n for the series sum_j xi_j t^j = u v f(g h)."""
    mod.check_precision(n)
    check_spec(spec, n, mod)
    cur = Poly(mod, list(a), n)
    f, v = _spec_vectors(spec, n, mod)
    if v is not None:
        cur = mul_trunc_t(cur, v, n)
    cur = eval_seq_t(cur, spec.h_ops, n)
    cur = diagonal(cur, f)
    cur = eval_seq(cur, spec.g_ops, n)
    u = _series_poly(mod, spec.u_coeffs, n)
    if u is not None:
        cur = mul_trunc(cur, u, n)
    return cur


def eval_inv_transposed(A: Poly, h_ops, n: int) -> Poly:
    """Transpose of the inverse evaluation map at the series output by h_ops.

    Obtained by transposing the inverse's factorization: the reversed
    sequence is evaluated transposed, after the transposed shift/scale
    prefactors of the general-case reduction.
    """
    mod = A.mod
    mod.check_precision(n)
    probe = _output_series(h_ops, n, mod)
    h0, h1 = probe.coeffs[0], probe.coeffs[1]
    if h1 == 0:
        raise NotInvertible("h'(0) = 0: evaluation map is singular")
    if h0 == 0 and h1 == 1:
        ext = tuple(h_ops)
        cur = truncate(A, n)
    else:
        ext = tuple(h_ops) + (Add((-h0) % mod.p), Mul(mod.inv(h1)))
        cur = scale(taylor_shift_t(truncate(A, n), (-h0) % mod.p), mod.inv(h1))
    truncs = compute_g(ext, max(n, 2), mod)
    rev_ops = reverse_sequence(ext, truncs, mod)
    return eval_seq_t(cur, rev_ops, n)


def eval_bivariate_inv(A: Poly, spec: BivariateSpec, n: int, mod: Modulus):
    """Exact inverse of eval_bivariate; needs every f_k nonzero (k < n)."""
    mod.check_precision(n)
    check_spec(spec, n, mod)
    f = spec.f_coeffs(n)
    for k, fk in enumerate(f):
        if fk % mod.p == 0:
            raise SingularDiagonal(f"f coefficient at index {k} vanishes")
    cur = truncate(A, n)
    u = _series_poly(mod, spec.u_coeffs, n)
    if u is not None:
        cur = mul_trunc(cur, series_inv(u, n), n)
    cur = eval_seq_inv(cur, spec.g_ops, n)
    cur = diagonal(cur, mod.batch_inv(f))
    cur = eval_inv_transposed(cur, spec.h_ops, n)
    v = _series_poly(mod, spec.v_coeffs, n)
    if v is not None:
        cur = mul_trunc_t(cur, series_inv(v, n), n)
    return cur.coeffs
