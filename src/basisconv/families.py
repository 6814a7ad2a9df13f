"""Catalog of classical polynomial families as structured bivariate specs.

Each family is described by the quintuple (u, v, f, g, h) of its generating
series  sum_n c_n P_n(x) t^n = u(x) v(t) f(g(x) h(t))  together with the
prefactor sequence c_n.  The public conversions speak in the actual
polynomials P_n: the prefactor diagonal is applied internally.

Families whose g/h sequences avoid exp and log convert in O(M(n)); the
Sheffer-type families (h built from a logarithm or exponential) convert in
O(M(n) log n).  For p < 2^31 and n <= MATRIX_MAX a conversion is instead one
product by its n x n matrix, kept per family, n and direction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bivariate import (
    BivariateSpec,
    _bivariate_inv,
    _bivariate_matrix,
    eval_bivariate,
)
from .compseq import Add, Exp, Inv, Log, Mul, Pow, Root, _parse_scalar, cost_class_of
from .errors import DimensionMismatch, DomainViolation, SpecViolation, ZeroCoefficient
from .modfield import (
    Modulus,
    Poly,
    _check_poly,
    _dense_mul,
    _fit,
    _powers,
    _readonly,
    _residues,
    _strict_row,
)
from .seriesops import _hypergeometric, series_inv, unit_pow


@dataclass(frozen=True)
class FamilyDescriptor:
    name: str
    params: dict
    spec: BivariateSpec
    prefactor: object     # callable n -> [c_0, ..., c_{n-1}]
    p: int | None = None  # the prime family() built it over; None if built by hand

    @property
    def cost_class(self):
        return cost_class_of(self.spec.g_ops + self.spec.h_ops)

    def __hash__(self):
        return hash((self.name, tuple(sorted(self.params.items()))))


# -- coefficient generators ------------------------------------------------
#
# Each generator is a callable n -> list of n coefficients (BivariateSpec's
# contract, which the oracle and perfbench read too).  The hypergeometric
# series, e^(zt), (1 + zt)^e, Jacobi's 2F1 and the Pochhammer ratios, are
# bound by _hyp; the others are written below or in their builders.


def _hyp(mod, upper=(), lower=(), z=1):
    """pFq(upper; lower; z t) as a generator (seriesops._hypergeometric);
    _hyp(mod) is e^t, and 1/n! as a prefactor."""
    return lambda n: _hypergeometric(mod, n, upper, lower, z).tolist()


def _ones(mod):
    # 1/(1 - t), at any n: not 1F0(1;; 1), which reads 1/k and stops at p
    return lambda n: [1] * n


def _spread_f(mod):
    # z / (1 + 4z): f_0 = 0, f_k = (-4)^(k-1)
    return lambda n: [0] + _powers(mod, (-4) % mod.p, n - 1).tolist()


def _unit_power_series(mod, base_fn, e):
    """coeffs of base^e where base(0) = 1 and e is a field residue."""

    def gen(n):
        base = Poly(mod, base_fn(n), n)
        return unit_pow(base, e % mod.p, n).coeffs

    return gen


def _exp_minus_one_over_t(mod):
    # (e^t - 1)/t: coefficient k is 1/(k+1)!; 1F1(1; 2; 1) would divide by
    # (2)_k and raise ZeroCoefficient at n = p, where the table raises
    # PrecisionExceedsModulus as the oracle does
    return lambda n: mod.table("inv_factorials", n + 1)[1:].tolist()


def _log_one_plus_over_t(mod):
    # log(1+t)/t: coefficient k is (-1)^k/(k+1)
    def fn(n):
        out = mod.table("inverses", n + 1)[1:].copy()
        out[1::2] = (-out[1::2]) % mod.p
        return out.tolist()

    return fn


def _inv_series(mod, base_fn):
    def gen(n):
        return series_inv(Poly(mod, base_fn(n), n), n).coeffs

    return gen


# -- composition-sequence builders ----------------------------------------


def moebius_ops(mod, a, b, c, d):
    """Sequence for (a t + b)/(c t + d) as a power series; needs c d != 0."""
    a, b, c, d = a % mod.p, b % mod.p, c % mod.p, d % mod.p
    if c == 0 or d == 0:
        raise SpecViolation("moebius sequence needs c and d nonzero")
    e = (b - a * d % mod.p * mod.inv(c)) % mod.p
    f = a * mod.inv(c) % mod.p
    if e == 0:
        raise SpecViolation("degenerate moebius transform (constant value)")
    ops = [Mul(c), Add(d), Inv(), Mul(e), Add(f)]
    return tuple(op for op in ops if op not in (Mul(1), Add(0)))


def _jacobi_h_ops(mod):
    # 2t / (1+t)^2
    half = mod.inv(2)
    return (Add(1), Inv(), Mul(mod.p - 2), Add(1), Pow(2), Mul(mod.p - 1), Add(1), Mul(half))


def _fibonacci_h_ops(mod):
    # t / (1 - t^2)
    half = mod.inv(2)
    return (
        Pow(2),
        Mul(mod.p - 1),
        Add(1),
        Inv(),
        Mul(2),
        Add(mod.p - 1),
        Pow(2),
        Add(mod.p - 1),
        Root(2, 2, 1),
        Mul(half),
    )


def _mott_h_ops(mod):
    # (1 - sqrt(1 - t^2)) / t; the final root has leading term t/2
    half = mod.inv(2)
    return (
        Pow(2),
        Mul(mod.p - 1),
        Add(1),
        Root(2, 1, 0),
        Add(1),
        Inv(),
        Mul(2),
        Add(mod.p - 1),
        Root(2, half, 1),
    )


def _bessel_h_ops(mod):
    # 1 - sqrt(1 - 2t)
    return (Mul(mod.p - 2), Add(1), Root(2, 1, 0), Mul(mod.p - 1), Add(1))


def _log_ratio_ops(mod, a, b, c, d):
    """log((a t + b)/(c t + d)) with b = d (so the value at 0 is log 1 = 0)."""
    ops = list(moebius_ops(mod, a, b, c, d))
    # Log takes log(1 + y): subtract 1, folded into the final Add(f) if any
    shift = mod.p - 1
    if isinstance(ops[-1], Add):
        shift = (ops.pop().a - 1) % mod.p
    if shift:
        ops.append(Add(shift))
    return (*ops, Log())


def _mittag_leffler_h_ops(mod):
    # log((1+t)/(1-t))
    return (Add(mod.p - 1), Inv(), Mul(mod.p - 2), Add(mod.p - 2), Log())


# -- family builders -------------------------------------------------------


def _int_param(params, key, default=None):
    if key not in params:
        if default is None:
            raise SpecViolation(f"missing parameter {key!r}")
        return default
    val = params[key]
    if type(val) is bool or not isinstance(val, int):
        raise SpecViolation(f"parameter {key!r} must be an integer")
    return val


def _sqrt_minus_one(mod):
    """c^((p - 1)/4) for the least quadratic non-residue c mod p, found by
    Euler's criterion c^((p - 1)/2) = -1: a square root of -1."""
    p = mod.p
    if p % 4 != 1:
        raise SpecViolation(f"p = {p} has no square root of -1 (p % 4 != 1)")
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    return pow(c, (p - 1) // 4, p)


def _build_laguerre(mod, params):
    alpha = _int_param(params, "alpha")
    spec = BivariateSpec(
        f_coeffs=_hyp(mod),
        g_ops=(Mul(mod.p - 1),),
        h_ops=moebius_ops(mod, 1, 0, mod.p - 1, 1),
        v_coeffs=_hyp(mod, (alpha + 1,)),    # (1 - t)^-(alpha+1)
    )
    return FamilyDescriptor("laguerre", {"alpha": alpha}, spec, _ones(mod))


def _build_hermite(mod, params):
    def v(n):
        # exp(-t^2), e^(-t) at t^2
        out = np.zeros(n, dtype=mod.dtype)
        out[::2] = _hypergeometric(mod, (n + 1) // 2, z=-1)
        return out.tolist()

    spec = BivariateSpec(f_coeffs=_hyp(mod), g_ops=(Mul(2),), h_ops=(), v_coeffs=v)
    return FamilyDescriptor("hermite", {}, spec, _hyp(mod))


def _build_jacobi(mod, params):
    alpha = _int_param(params, "alpha")
    beta = _int_param(params, "beta")
    half, s = mod.inv(2), alpha + beta + 1
    spec = BivariateSpec(
        f_coeffs=_hyp(mod, (s * half, (s + 1) * half), (beta + 1,)),
        g_ops=(Add(1),),
        h_ops=_jacobi_h_ops(mod),
        v_coeffs=_hyp(mod, (s,), (), -1),       # (1 + t)^-s
    )
    pref = _hyp(mod, (s, 1), (beta + 1,))        # (s)_n / (beta + 1)_n
    return FamilyDescriptor("jacobi", {"alpha": alpha, "beta": beta}, spec, pref)


def _build_fibonacci(mod, params):
    def v(n):
        return ([1, 0] * n)[:n]

    spec = BivariateSpec(
        f_coeffs=_ones(mod), g_ops=(), h_ops=_fibonacci_h_ops(mod), v_coeffs=v
    )
    return FamilyDescriptor("fibonacci", {}, spec, _ones(mod))


def _build_euler(mod, params):
    alpha = _int_param(params, "alpha")

    def base(n):
        # (e^t + 1)/2
        out = mod.table("inv_factorials", n) * mod.inv(2) % mod.p
        out[0] = 1
        return out.tolist()

    spec = BivariateSpec(
        f_coeffs=_hyp(mod), g_ops=(), h_ops=(), v_coeffs=_unit_power_series(mod, base, -alpha)
    )
    return FamilyDescriptor("euler", {"alpha": alpha}, spec, _hyp(mod))


def _build_bernoulli(mod, params):
    alpha = _int_param(params, "alpha")
    spec = BivariateSpec(
        f_coeffs=_hyp(mod),
        g_ops=(),
        h_ops=(),
        v_coeffs=_unit_power_series(mod, _exp_minus_one_over_t(mod), -alpha),
    )
    return FamilyDescriptor("bernoulli", {"alpha": alpha}, spec, _hyp(mod))


def _build_mott(mod, params):
    spec = BivariateSpec(f_coeffs=_hyp(mod), g_ops=(Mul(mod.p - 1),), h_ops=_mott_h_ops(mod))
    return FamilyDescriptor("mott", {}, spec, _hyp(mod))


def _build_spread(mod, params):
    def v(n):
        # (1+t)/(1-t)
        return [1] + [2] * (n - 1)

    # -h(-t) / 2 for jacobi's h: its last Mul(1/2) and the 1/(-2) make one
    h_ops = (Mul(mod.p - 1),) + _jacobi_h_ops(mod)[:-1] + (Mul(mod.inv(mod.p - 4)),)
    spec = BivariateSpec(f_coeffs=_spread_f(mod), g_ops=(), h_ops=h_ops, v_coeffs=v)
    return FamilyDescriptor("spread", {}, spec, _ones(mod))


def _build_bessel(mod, params):
    spec = BivariateSpec(f_coeffs=_hyp(mod), g_ops=(), h_ops=_bessel_h_ops(mod))
    return FamilyDescriptor("bessel", {}, spec, _hyp(mod))


def _build_falling(mod, params):
    spec = BivariateSpec(f_coeffs=_hyp(mod), g_ops=(), h_ops=(Log(),))
    return FamilyDescriptor("falling", {}, spec, _hyp(mod))


def _build_bell(mod, params):
    spec = BivariateSpec(f_coeffs=_hyp(mod), g_ops=(), h_ops=(Exp(),))
    return FamilyDescriptor("bell", {}, spec, _hyp(mod))


def _build_bernoulli2(mod, params):
    spec = BivariateSpec(
        f_coeffs=_hyp(mod),
        g_ops=(),
        h_ops=(Log(),),
        v_coeffs=_inv_series(mod, _log_one_plus_over_t(mod)),
    )
    return FamilyDescriptor("bernoulli2", {}, spec, _hyp(mod))


def _build_charlier(mod, params):
    a = _int_param(params, "a")
    if a % mod.p == 0:
        raise SpecViolation("charlier needs a != 0")
    spec = BivariateSpec(
        f_coeffs=_hyp(mod), g_ops=(), h_ops=(Mul(mod.inv(a)), Log()), v_coeffs=_hyp(mod, z=-1)
    )
    return FamilyDescriptor("charlier", {"a": a}, spec, _hyp(mod))


def _build_actuarial(mod, params):
    beta = _int_param(params, "beta")
    spec = BivariateSpec(
        f_coeffs=_hyp(mod), g_ops=(Mul(mod.p - 1),), h_ops=(Exp(),), v_coeffs=_hyp(mod, z=beta)
    )
    return FamilyDescriptor("actuarial", {"beta": beta}, spec, _hyp(mod))


def _build_narumi(mod, params):
    a = _int_param(params, "a")
    spec = BivariateSpec(
        f_coeffs=_hyp(mod),
        g_ops=(),
        h_ops=(Log(),),
        v_coeffs=_unit_power_series(mod, _log_one_plus_over_t(mod), -a),
    )
    return FamilyDescriptor("narumi", {"a": a}, spec, _hyp(mod))


def _build_peters(mod, params):
    lam = _int_param(params, "lambda")
    mu = _int_param(params, "mu")

    def v(n):
        w = _hypergeometric(mod, n, (-lam,), (), -1)    # (1+t)^lambda
        w[0] = (w[0] + 1) % mod.p               # 1 + (1+t)^lambda, constant 2
        base = Poly.of(mod, w * mod.inv(2) % mod.p)
        body = unit_pow(base, (-mu) % mod.p, n)
        scalar = mod.pow(2, -mu)                # mu must be a plain integer
        return (body.arr * scalar % mod.p).tolist()

    spec = BivariateSpec(f_coeffs=_hyp(mod), g_ops=(), h_ops=(Log(),), v_coeffs=v)
    return FamilyDescriptor("peters", {"lambda": lam, "mu": mu}, spec, _hyp(mod))


def _build_meixner_pollaczek(mod, params):
    lam = _int_param(params, "lambda")
    s = _int_param(params, "s")        # plays e^{i phi}
    s %= mod.p
    if s == 0 or s * s % mod.p == 1:
        raise SpecViolation("meixner_pollaczek needs s with s^2 != 1 and s != 0")
    i_unit = _int_param(params, "i") if "i" in params else _sqrt_minus_one(mod)
    if i_unit * i_unit % mod.p != mod.p - 1:
        raise SpecViolation("parameter i must square to -1")

    def base(n):
        # (1 - s t)(1 - t/s) = 1 - (s + 1/s) t + t^2
        out = [0] * n
        out[0] = 1
        if n > 1:
            out[1] = (-(s + mod.inv(s))) % mod.p
        if n > 2:
            out[2] = 1
        return out

    spec = BivariateSpec(
        f_coeffs=_hyp(mod),
        g_ops=(Mul(i_unit),),
        h_ops=_log_ratio_ops(mod, (-s) % mod.p, 1, (-mod.inv(s)) % mod.p, 1),
        v_coeffs=_unit_power_series(mod, base, -lam),
    )
    return FamilyDescriptor(
        "meixner_pollaczek", {"lambda": lam, "s": s, "i": i_unit}, spec, _ones(mod)
    )


def _build_meixner(mod, params):
    beta = _int_param(params, "beta")
    c = _int_param(params, "c")
    c %= mod.p
    if c == 0 or c == 1:
        raise SpecViolation("meixner needs c outside {0, 1}")
    # v = (1 - t)^-beta and c_n = (beta)_n / n!: the same series
    spec = BivariateSpec(
        f_coeffs=_hyp(mod),
        g_ops=(),
        h_ops=_log_ratio_ops(mod, (-mod.inv(c)) % mod.p, 1, mod.p - 1, 1),
        v_coeffs=_hyp(mod, (beta,)),
    )
    return FamilyDescriptor("meixner", {"beta": beta, "c": c}, spec, _hyp(mod, (beta,)))


def _build_krawtchouk(mod, params):
    pk = _int_param(params, "p") % mod.p
    N = _int_param(params, "N")
    if pk == 0:
        raise SpecViolation("krawtchouk needs p != 0")
    # v = (1 + t)^N and c_n = binom(N, n): the same series
    spec = BivariateSpec(
        f_coeffs=_hyp(mod),
        g_ops=(),
        h_ops=_log_ratio_ops(mod, (pk - 1) % mod.p, pk, pk, pk),
        v_coeffs=_hyp(mod, (-N,), (), -1),
    )
    return FamilyDescriptor("krawtchouk", {"p": pk, "N": N}, spec, _hyp(mod, (-N,), (), -1))


def _build_mittag_leffler(mod, params):
    spec = BivariateSpec(f_coeffs=_hyp(mod), g_ops=(), h_ops=_mittag_leffler_h_ops(mod))
    return FamilyDescriptor("mittag_leffler", {}, spec, _hyp(mod))


FAMILY_BUILDERS = {
    "laguerre": _build_laguerre,
    "hermite": _build_hermite,
    "jacobi": _build_jacobi,
    "fibonacci": _build_fibonacci,
    "euler": _build_euler,
    "bernoulli": _build_bernoulli,
    "mott": _build_mott,
    "spread": _build_spread,
    "bessel": _build_bessel,
    "falling": _build_falling,
    "bell": _build_bell,
    "bernoulli2": _build_bernoulli2,
    "charlier": _build_charlier,
    "actuarial": _build_actuarial,
    "narumi": _build_narumi,
    "peters": _build_peters,
    "meixner_pollaczek": _build_meixner_pollaczek,
    "meixner": _build_meixner,
    "krawtchouk": _build_krawtchouk,
    "mittag_leffler": _build_mittag_leffler,
}


def family(mod: Modulus, name: str, **params) -> FamilyDescriptor:
    """Build a family descriptor by name; raises SpecViolation for an unknown
    name, a missing or non-integer parameter, or one the family does not take.

    One descriptor is kept per (name, params) and modulus: the data cached
    against a descriptor is then found again when a family is parsed again,
    instead of being cached anew on every call."""

    def build():
        builder = FAMILY_BUILDERS.get(name)
        if builder is None:
            raise SpecViolation(f"unknown family {name!r}")
        fam = builder(mod, params)
        stray = sorted(set(params) - set(fam.params))
        if stray:
            raise SpecViolation(f"{name} has no parameter {stray[0]!r}")
        return replace(fam, p=mod.p)

    return mod.cached(("family", name, tuple(sorted(params.items()))), build)


def family_names():
    return sorted(FAMILY_BUILDERS)


def parse_family(mod: Modulus, text: str) -> FamilyDescriptor:
    """Parse "name" or "name(key=value, ...)" into a descriptor; a value is an
    integer, kept unreduced, or a fraction a/b, reduced mod p."""
    text = text.strip()
    if "(" not in text:
        return family(mod, text)
    if not text.endswith(")"):
        raise SpecViolation(f"malformed family string {text!r}")
    name, args = text[:-1].split("(", 1)
    params = {}
    for item in args.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise SpecViolation(f"malformed family parameter {item!r}")
        key, val = item.split("=", 1)
        try:
            params[key.strip()] = _parse_scalar(val, mod)
        except ValueError:
            raise SpecViolation(f"malformed family parameter {item!r}") from None
    return family(mod, name.strip(), **params)


def _prefactors(fam: FamilyDescriptor, n: int, mod: Modulus):
    """(c_0..c_{n-1}, their inverses) as arrays, cached; raises if some c_j
    vanishes."""

    def build():
        cs = _residues(mod, fam.prefactor(n))
        zeros = np.flatnonzero(cs == 0)
        if len(zeros):
            raise ZeroCoefficient(
                f"{fam.name}: prefactor c_{zeros[0]} vanishes; conversion undefined"
            )
        return _readonly(cs), _readonly(mod.inv_array(cs))

    return mod.cached(("prefac", fam, n), build)


# On int64 rows a conversion at n <= MATRIX_MAX is one exact GEMM
# (modfield._dense_mul) of the input row by the n x n matrix of the conversion,
# prefactors folded in, kept per (family, n, direction) (_conversion_matrix):
# 32 KB at n = 64.  The first conversion builds it as the product of the
# matrices of the five factors (bivariate._bivariate_matrix).  Time in ms of
# the 39 conversions of the 20 catalog families (spread one way), warm best of
# 20 summed over three runs, and cold on a fresh modulus, quartiles of 12
# alternating runs, on a 2-core x86-64 machine, numpy 2.4, one BLAS thread:
#
#   n       warm matrix   warm chain    cold matrix   cold chain
#   16       1.0-1.3       4.6-5.0        54-57         53-63
#   32       1.0-1.3       6.1-7.0        47-69         54-73
#   64       1.2-1.3       7.0-12.3       69-87         64-83
#   128      1.5-2.5      13.0-19.0      142-186        88-128
#
# so up to 64 the build costs about as much as the cold chain it replaces; at
# 128 it costs more, and each matrix takes 128 KB.
MATRIX_MAX = 64


def _by_matrix(mod: Modulus, n):
    """Whether conversions at n are one product by a kept matrix."""
    return mod.dtype is not object and 1 <= n <= MATRIX_MAX


def _conversion_matrix(fam: FamilyDescriptor, n: int, mod: Modulus, inverse: bool):
    """The float64 n x n matrix, read-only, by which a row of n residues is
    converted to the monomial basis (or from it, with inverse), the product of
    the prefactors' diagonal and the factors' matrices, built on first use and
    kept per (family, n, direction); raises what the conversion raises."""

    def build():
        cs, cinv = _prefactors(fam, n, mod)
        M = _bivariate_matrix(fam.spec, n, mod, inverse, cs if inverse else cinv)
        return _readonly(M.astype(np.float64))

    return mod.cached(("matrix", fam, n, "from" if inverse else "to"), build)


def _check_prime(fam: FamilyDescriptor, mod: Modulus):
    """Raises DomainViolation for a family built over another prime than
    mod's, whose spec and prefactors hold residues of that prime."""
    if fam.p is not None and fam.p != mod.p:
        raise DomainViolation(
            f"family {fam.name} built over p = {fam.p}, conversion over p = {mod.p}"
        )


def to_monomial(coeffs, fam: FamilyDescriptor, n: int, mod: Modulus) -> Poly:
    """sum_j coeffs[j] P_j(x) expressed in the monomial basis, mod x^n; the
    n or fewer coefficients must be integers in [0, p) (modfield._strict_row).
    Raises DomainViolation for a family built over another prime."""
    _check_prime(fam, mod)
    a = _strict_row(mod, coeffs, n)
    n = len(a)      # n as check_precision reads it
    if _by_matrix(mod, n):
        return Poly.of(mod, _dense_mul(mod, a[None], _conversion_matrix(fam, n, mod, False))[0])
    _, cinv = _prefactors(fam, n, mod)
    return eval_bivariate(a * cinv % mod.p, fam.spec, n, mod)


def from_monomial(A: Poly, fam: FamilyDescriptor, n: int, mod: Modulus):
    """Coefficients of A on the family basis (exact inverse of to_monomial),
    as a list of ints; raises DomainViolation for A no Poly over the prime of
    mod or a family built over another prime, and DimensionMismatch for A of
    dim > n."""
    _check_prime(fam, mod)
    n = mod.check_precision(n)
    _check_poly(A, mod)
    if A.dim > n:
        raise DimensionMismatch(f"dimension {A.dim} exceeds {n}")
    if _by_matrix(mod, n):
        M = _conversion_matrix(fam, n, mod, True)
        return _dense_mul(mod, _fit(A.arr, n)[None], M)[0].tolist()
    cs, _ = _prefactors(fam, n, mod)
    return (_bivariate_inv(A, fam.spec, n, mod).arr * cs % mod.p).tolist()
