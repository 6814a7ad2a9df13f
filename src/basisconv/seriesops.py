"""Truncated power-series kernels: inverse, root, exp, log, powering.

A series truncation g mod x^n is just a Poly of dim n.  Newton iteration
doubles the precision at each step, so every kernel costs O(M(n)).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DomainViolation,
    InvalidOperatorParam,
    PrecisionExceedsModulus,
    ZeroCoefficient,
)
from .modfield import (
    Poly,
    _arange,
    _by_transform,
    _check_poly,
    _dimension,
    _fit,
    _fixed_operand,
    _mul_cyclic,
    _mul_fixed,
    _prefix_products,
    _size,
    mul_trunc,
)
from .polyops import truncate


def series_add_const(g: Poly, a: int) -> Poly:
    out = g.arr.copy()
    out[0] = (int(out[0]) + a) % g.mod.p
    return Poly.of(g.mod, out)


def series_mul_const(g: Poly, lam: int) -> Poly:
    p = g.mod.p
    if lam % p == 0:
        raise InvalidOperatorParam("scaling constant must be nonzero")
    return Poly.of(g.mod, g.arr * (lam % p) % p)


def series_inv(g: Poly, n: int) -> Poly:
    """1/g mod x^n; requires g(0) != 0.  The body g / g(0) is inverted by
    _power: in closed form where it is binomial, by Newton steps otherwise."""
    mod = _check_poly(g)
    n = _dimension(n)
    c = g.constant()
    if c == 0:
        raise DomainViolation("series inverse needs a nonzero constant term")
    c = mod.inv(c)
    body = _fit(g.arr, n) * c % mod.p
    return Poly.of(mod, _power(mod, body, -1, _newton_inv_series) * c % mod.p)


def _newton_inv(g: Poly, y, prec):
    """1/g mod x^prec from the array y = 1/g mod x^h, h = len(y) >= prec / 2.

    With g y = 1 + x^h e, one Newton step gives y - x^h (y e mod x^(prec - h)).
    Both products run mod x^L - 1, L = _size(prec), by one image of y
    (_fixed_operand): g y mod x^prec wraps only into its known coefficients
    below x^h, and y e mod x^(prec - h) does not wrap.
    """
    mod, h = g.mod, len(y)
    Y = _fixed_operand(mod, y, prec, _size(prec))
    e = _mul_fixed(mod, g.arr[:prec], Y, prec)[h:]
    d = _mul_fixed(mod, e, Y, prec - h)
    return np.concatenate([y, (-d) % mod.p])


def _newton_inv_series(g: Poly, n):
    """1/g mod x^n as an array, for g(0) = 1, by Newton steps from 1."""
    y = np.ones(1, dtype=g.mod.dtype)
    while len(y) < n:
        y = _newton_inv(g, y, min(2 * len(y), n))
    return y


def _derivative(g: Poly) -> Poly:
    mod = g.mod
    if g.dim == 1:
        return Poly.zero(mod, 1)
    return Poly.of(mod, g.arr[1:] * _arange(mod, 1, g.dim) % mod.p)


def _integral(g: Poly, n: int) -> Poly:
    """Antiderivative with zero constant term, truncated to dim n."""
    mod = g.mod
    if n > 1:
        mod.check_precision(n - 1)
    k = min(g.dim, n - 1)
    out = np.zeros(n, dtype=mod.dtype)
    out[1 : k + 1] = g.arr[:k] * mod.table("inverses", k + 1)[1:] % mod.p
    return Poly.of(mod, out)


def series_log(g: Poly, n: int) -> Poly:
    """log(1+g) mod x^n; requires g(0) = 0 and n < p."""
    mod = _check_poly(g)
    n = mod.check_precision(n)
    if g.constant() != 0:
        raise DomainViolation("log needs a series with zero constant term")
    if n == 1:
        return Poly.zero(mod, 1)
    one_plus = series_add_const(truncate(g, n), 1)
    quot = mul_trunc(_derivative(one_plus), series_inv(one_plus, n - 1), n - 1)
    return _integral(quot, n)


def series_exp(g: Poly, n: int) -> Poly:
    """exp(g) - 1 mod x^n; requires g(0) = 0 and n < p.

    Newton steps coupled with log: y <- y (1 + g - log y), y(0) = 1, with
    log(y)' = g' + (y' - y g') / y.  Where y = exp(g) mod x^m the numerator
    vanishes below x^(m-1), so the quotient mod x^(2m-1) takes 1/y only mod
    x^m: z carries 1/y from step to step, one Newton update (_newton_inv)
    per step.  A step from m to new = min(2m, n) multiplies by y twice, both
    times through one image of y at L = _size(new) (_fixed_operand): y g'
    mod x^L - 1, a cyclic middle product whose wrap lands below x^(m-1),
    which the step does not read, and y d, which does not wrap.
    """
    mod = _check_poly(g)
    n = mod.check_precision(n)
    if g.constant() != 0:
        raise DomainViolation("exp needs a series with zero constant term")
    p = mod.p
    y = z = Poly(mod, [1], 1)
    m = 1
    while m < n:
        new = min(2 * m, n)
        k = new - m             # the precision z needs, at most 2 z.dim
        if z.dim < k:
            z = Poly.of(mod, _newton_inv(y, z.arr, k))
        q = _derivative(truncate(g, new))
        Y = _fixed_operand(mod, y.arr, new - 1, _size(new))
        # deg y' < m - 1, so (y' - y q) / y = -x^(m-1) (y q div x^(m-1)) z;
        # a short q (g a polynomial) takes the schoolbook
        lq = q.degree() + 1 or 1
        yq = _mul_fixed(mod, q.arr[:lq], Y if _by_transform(mod, m, lq) else y.arr, new - 1)
        w = q.arr.copy()
        w[m - 1 :] -= mul_trunc(Poly.of(mod, yq[m - 1 :]), z, k).arr
        ln = _integral(Poly.of(mod, w % p), new)
        # g - log y vanishes below x^m, so y (1 + g - log y) adds only x^m y d
        d = (_fit(g.arr, new)[m:] - ln.arr[m:]) % p
        out = _fit(y.arr, new)
        out[m:] = _mul_fixed(mod, d, Y, k)
        y, m = Poly.of(mod, out), new
    return series_add_const(truncate(y, n), -1)


def _unit_pow_field(g: Poly, e: int, n: int) -> Poly:
    """g^e mod x^n for g(0)=1 and a field-element exponent e (via exp/log)."""
    mod = g.mod
    n = mod.check_precision(n)
    e %= mod.p
    if e == 0:
        return Poly(mod, [1], n)
    ln = series_log(series_add_const(truncate(g, n), -1), n)
    scaled = Poly.of(mod, ln.arr * e % mod.p)
    return series_add_const(series_exp(scaled, n), 1)


def _hypergeometric(mod, n, upper=(), lower=(), z=1):
    """The first n <= p coefficients of pFq(upper; lower; z x) as an array,
    term k = (a_1)_k ... z^k / ((b_1)_k ... k!) for the upper parameters a_i
    and the lower b_j, all read mod p: the running products of the term
    ratios z (a_1 + k - 1) ... / ((b_1 + k - 1) ... k), with no transform.
    1/k comes from the "inverses" table (PrecisionExceedsModulus past p) and
    the lower factors are inverted together; ZeroCoefficient at the first
    that vanishes.  A vanishing upper factor ends the series: the binomial
    (1 + t x)^e is 1F0(-e;; -t), binom(N, k) its terms at e = N, t = 1."""
    p = mod.p
    k = _arange(mod, 1, n)
    ratios = np.ones(n, dtype=mod.dtype)
    ratios[1:] = mod.table("inverses", n)[1:] * (z % p) % p
    for a in upper:
        ratios[1:] = ratios[1:] * ((a - 1) % p + k) % p
    if lower:
        den = np.ones_like(k)
        for b in lower:
            den = den * ((b - 1) % p + k) % p
        zeros = np.flatnonzero(den == 0)
        if len(zeros):
            raise ZeroCoefficient(f"a lower parameter's factor vanishes at term {zeros[0] + 1}")
        ratios[1:] = ratios[1:] * mod.inv_array(den) % p
    return _prefix_products(ratios, p)


def _newton_sqrt(B: Poly, n):
    """sqrt(B) mod x^n as an array, for B(0) = 1, by the coupled Newton
    iteration on s = sqrt(B) and z = 1/s: where B - s^2 = x^m E mod x^k,
    k <= 2m, s + x^m (E z mod x^(k-m)) / 2 is sqrt(B) mod x^k.  z is carried
    from step to step, one _newton_inv step each.  It divides only by 2, so
    it holds at any n in odd characteristic."""
    mod, p = B.mod, B.mod.p
    s = z = np.ones(1, dtype=mod.dtype)
    m = 1
    while m < n:
        k = min(2 * m, n)
        size = _size(k)
        if len(z) < k - m:
            z = _newton_inv(Poly.of(mod, s), z, k - m)
        # s^2 = B mod x^m, so s^2 mod x^size - 1 wraps only below x^m
        E = (B.arr[m:k] - _mul_cyclic(mod, s, s, size, k)[m:]) % p
        d = _mul_cyclic(mod, E, z[: k - m], size, k - m)
        s = np.concatenate([s, d * ((p + 1) // 2) % p])
        m = k
    return s


def _power(mod, body, e, newton=None):
    """body^e mod x^len(body) as an array, for body[0] = 1 and an exponent e.
    A lacunary body B(x^j), j the gcd of its exponents, is raised at
    precision m = ceil(len / j) and x^j substituted back.  Where m <= p the
    coefficients of B^e depend on e mod p only, and a binomial B = 1 + t x
    takes the closed form 1F0(-e;; -t) (_hypergeometric).  Any other B takes
    newton(B, m), a kernel whose result is B^e at every precision, where the
    caller gives one, and exp(e log B) otherwise, which refuses m >= p."""
    n, p = len(body), mod.p
    nz = np.flatnonzero(body[1:]) + 1
    j = int(np.gcd.reduce(nz)) if len(nz) else n
    B = Poly.of(mod, body[::j])
    m = B.dim
    if len(nz) <= 1 and m <= p:
        w = _hypergeometric(mod, m, (-e,), (), -int(B.arr[1]) if m > 1 else 0)
    elif newton is not None:
        w = newton(B, m)
    else:
        w = _unit_pow_field(B, e, m).arr
    if j == 1:
        return w
    out = np.zeros(n, dtype=mod.dtype)
    out[::j] = w
    return out


def _normalized_pow(g: Poly, val: int, e: int, c: int, shift: int, n: int, newton=None) -> Poly:
    """c x^shift (g / (g_val x^val))^e mod x^n for g_val = g[val] != 0: the
    body of g from x^val on, divided by its leading coefficient, raised by
    _power (with the kernel newton, if given) and scaled by c."""
    mod = g.mod
    prec = n - shift
    body = _fit(g.arr[val : val + prec], prec) * mod.inv(int(g.arr[val])) % mod.p
    out = np.zeros(n, dtype=mod.dtype)
    out[shift:] = _power(mod, body, e, newton) * c % mod.p
    return Poly.of(mod, out)


def _integer_newton(mod, e, n):
    """The Newton kernel for the integer power e at precision n, or None.
    Below x^p the coefficients of B^e depend on e mod p only, so there
    e = -1 and e = 1/2 mod p may take the inverse and the square root;
    past it they stand for other powers, which only exp(e log B) (raising)
    is left to take."""
    if n > mod.p:
        return None
    if (e + 1) % mod.p == 0:
        return _newton_inv_series
    if 2 * e % mod.p == 1:
        return _newton_sqrt
    return None


def unit_pow(g: Poly, e: int, n: int) -> Poly:
    """g^e mod x^n for g(0) != 0 and any integer exponent e (possibly huge
    or negative); the scalar part uses Fermat exponentiation.  Exact past
    x^p where _power takes the closed form; elsewhere there it raises."""
    mod = _check_poly(g)
    n = _dimension(n)
    c = g.constant()
    if c == 0:
        raise DomainViolation("unit_pow needs a nonzero constant term")
    return _normalized_pow(g, 0, e, mod.pow(c, e), 0, n, _integer_newton(mod, e, n))


def series_root(g: Poly, k: int, alpha: int, r: int, n: int) -> Poly:
    """g^(1/k) mod x^n: the unique series with leading term alpha*x^r whose
    k-th power is g.  Input must carry precision >= n + r*(k-1)."""
    mod, n = _check_poly(g), _dimension(n)
    if k < 1 or r < 0 or alpha % mod.p == 0:
        raise InvalidOperatorParam("root needs k >= 1, r >= 0, alpha != 0")
    need = n + r * (k - 1)
    if g.dim < need:
        raise DomainViolation(
            f"root needs input precision {need}, got {g.dim}"
        )
    val = truncate(g, need).valuation()
    if val is None:
        raise DomainViolation("root of an identically-zero truncation")
    if val != r * k:
        raise DomainViolation(f"root expects valuation {r * k}, found {val}")
    lead = int(g.arr[val])
    if lead != mod.pow(alpha, k):
        raise DomainViolation("leading coefficient is not alpha^k")
    if k == 1:
        return truncate(g, n)
    if mod.p % k == 0:
        raise PrecisionExceedsModulus(f"{k} is not invertible mod {mod.p}")
    if n <= r:
        return Poly.zero(mod, n)
    # normalize to constant term 1, take the root there, re-attach alpha*x^r
    newton = _newton_sqrt if k == 2 else None
    return _normalized_pow(g, val, mod.inv(k), alpha % mod.p, r, n, newton)


def series_pow(g: Poly, k: int, n: int) -> Poly:
    """g^k mod x^n for k >= 1, by repeated squaring: exact at any n."""
    mod = _check_poly(g)
    if k < 1:
        raise InvalidOperatorParam("series_pow needs k >= 1")
    acc = Poly(mod, [1], n)
    base = truncate(g, n)
    while k:
        if k & 1:
            acc = mul_trunc(acc, base, n)
        k >>= 1
        if k:
            base = mul_trunc(base, base, n)
    return acc
