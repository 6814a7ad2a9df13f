import hashlib
import random

import numpy as np
import pytest

from basisconv import (
    DEFAULT_PRIME,
    DomainViolation,
    InvalidOperatorParam,
    Modulus,
    Poly,
    PrecisionExceedsModulus,
    ZeroCoefficient,
    modfield,
    mul_trunc,
    seriesops,
    series_exp,
    series_inv,
    series_log,
    series_pow,
    series_root,
    truncate,
    unit_pow,
)

P40 = 1099489607681


def _exp_by_log(g, n):
    """exp(g) - 1 mod x^n by Newton steps y <- y (1 + g - log y), each with
    a fresh series_log: the reference."""
    add_const = seriesops.series_add_const
    y = Poly(g.mod, [1], 1)
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        ln = series_log(add_const(y, -1), prec)
        corr = Poly.of(g.mod, (truncate(g, prec).arr - ln.arr) % g.mod.p)
        y = mul_trunc(truncate(y, prec), add_const(corr, 1), prec)
    return add_const(truncate(y, n), -1)


def test_series_inv_geometric(mod101):
    g = Poly(mod101, [1, 100], 6)   # 1 - x
    assert series_inv(g, 6).coeffs == [1] * 6


def test_series_inv_is_inverse(mod101):
    rng = random.Random(21)
    for n in (1, 2, 7, 20, 33):
        g = Poly(mod101, [1 + rng.randrange(100)] + [rng.randrange(101) for _ in range(n - 1)], n)
        prod = mul_trunc(g, series_inv(g, n), n)
        assert prod.coeffs == [1] + [0] * (n - 1)
    with pytest.raises(DomainViolation):
        series_inv(Poly(mod101, [0, 1], 4), 4)


def test_series_exp_log_frozen(mod101):
    x = Poly.x(mod101, 5)
    e = series_exp(x, 5)
    invf = mod101.inv_factorials(5)
    assert e.coeffs == [0, 1, invf[2], invf[3], invf[4]]
    l = series_log(x, 5)
    # log(1+x) = x - x^2/2 + x^3/3 - x^4/4
    assert l.coeffs == [
        0, 1, (-mod101.inv(2)) % 101, mod101.inv(3), (-mod101.inv(4)) % 101,
    ]


def test_exp_log_mutual_inverse(mod101):
    rng = random.Random(22)
    for n in (1, 2, 9, 31):
        g = Poly(mod101, [0] + [rng.randrange(101) for _ in range(n - 1)], n)
        assert series_log(series_exp(g, n), n).coeffs == g.coeffs
        assert series_exp(series_log(g, n), n).coeffs == g.coeffs
    with pytest.raises(DomainViolation):
        series_exp(Poly(mod101, [1], 3), 3)
    with pytest.raises(DomainViolation):
        series_log(Poly(mod101, [1], 3), 3)


@pytest.mark.parametrize(
    "p, sizes",
    [
        (DEFAULT_PRIME, (1, 2, 3, 17, 64, 1000)),
        (101, (1, 2, 3, 17, 64)),
        (P40, (1, 2, 3, 17, 64, 1000)),
    ],
)
def test_series_exp_matches_exp_by_log(p, sizes):
    mod = Modulus(p)
    rng = random.Random(24)
    for n in sizes:
        g = Poly(mod, [0] + [rng.randrange(p) for _ in range(n - 1)], n)
        assert series_exp(g, n) == _exp_by_log(g, n), n


def test_series_exp_carries_the_inverse(mod, monkeypatch):
    # 1/y is updated from step to step, not recomputed by series_inv
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return series_inv(*args)

    monkeypatch.setattr(seriesops, "series_inv", counted)
    rng = random.Random(25)
    n = 4096
    g = Poly(mod, [0] + [rng.randrange(mod.p) for _ in range(n - 1)], n)
    series_exp(g, n)
    assert calls[0] <= 1


def _inv_by_full_products(g, n):
    """1/g mod x^n by Newton steps on linear products: the reference."""
    mod, p = g.mod, g.mod.p
    y = Poly(mod, [mod.inv(g.constant())], 1)
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        corr = (-mul_trunc(truncate(g, prec), y, prec).arr) % p
        corr[0] = (int(corr[0]) + 2) % p
        y = mul_trunc(y, Poly.of(mod, corr), prec)
    return truncate(y, n)


@pytest.mark.parametrize(
    "p, sizes",
    [
        (DEFAULT_PRIME, (1, 2, 3, 17, 64, 1000)),
        (101, (1, 2, 3, 17, 64)),
        (P40, (1, 2, 3, 17, 64, 1000)),
    ],
)
def test_series_inv_matches_full_products(p, sizes):
    mod = Modulus(p)
    rng = random.Random(27)
    for n in sizes:
        g = Poly(mod, [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n - 1)], n)
        assert series_inv(g, n) == _inv_by_full_products(g, n), n
        # and from a shorter g, zero-padded
        assert series_inv(truncate(g, n // 2 + 1), n) == _inv_by_full_products(
            truncate(g, n // 2 + 1), n
        ), n


def test_series_inv_transforms_at_its_precision(mod, monkeypatch):
    # each Newton step reads both its products mod x^L - 1, L >= prec, not
    # from linear products at twice that size
    sizes = []
    transform = modfield._transform

    def recorded(m, X, size, *args):
        sizes.append(size)
        return transform(m, X, size, *args)

    monkeypatch.setattr(modfield, "_transform", recorded)
    rng = random.Random(28)
    n = 4096
    g = Poly(mod, [1] + [rng.randrange(mod.p) for _ in range(n - 1)], n)
    series_inv(g, n)
    assert sizes and max(sizes) == n


def _by_exp_log(g, e, n):
    """g^e mod x^n as g(0)^e exp(e log(g / g(0))): the reference route."""
    mod = g.mod
    c = g.constant()
    body = Poly.of(mod, truncate(g, n).arr * mod.inv(c) % mod.p)
    return Poly.of(mod, seriesops._unit_pow_field(body, e, n).arr * mod.pow(c, e) % mod.p)


def _body(mod, j, binomial, n, rng):
    """A series of dim n with constant term 1 and terms at the multiples of
    j only: one term, at x^j, where binomial; none where j >= n."""
    out = np.zeros(n, dtype=object)
    out[0] = 1
    for i in range(j, n, j):
        out[i] = rng.randrange(1, mod.p)
        if binomial:
            break
    return Poly(mod, out.tolist(), n)


# (j, binomial): 1 + t x, 1 + t x^3, lacunary bodies B(x^2) and B(x^3), a
# dense body, and one whose only terms lie past the precision (j = n)
BODIES = [(1, True), (3, True), (2, False), (3, False), (1, False), (None, False)]


@pytest.mark.parametrize(
    "p, sizes",
    [
        (DEFAULT_PRIME, (1, 2, 3, 17, 64, 1000)),
        (101, (1, 2, 3, 17, 64)),
        (P40, (1, 2, 3, 17, 64, 1000)),
    ],
)
def test_powers_roots_and_inverses_match_exp_log(p, sizes):
    # the lacunary, binomial and Newton routes give the unique results of
    # exp(e log g), bit for bit
    mod = Modulus(p)
    rng = random.Random(29)
    half = mod.inv(2)
    for n in sizes:
        for j, binomial in BODIES:
            body = _body(mod, j or n, binomial, n, rng)
            c = rng.randrange(1, p)
            g = Poly.of(mod, body.arr * c % p)
            for e in (half, -1, 1 - n, 10**12 + 7):
                assert unit_pow(g, e, n) == _by_exp_log(g, e, n), (n, j, binomial, e)
            want = _by_exp_log(g, -1, n)
            assert series_inv(g, n) == want == _inv_by_full_products(g, n), (n, j, binomial)
            alpha = rng.randrange(1, p)
            for r in range(min(n, 2)):
                # alpha^2 x^2r body at the precision n + r the root reads
                sq = np.zeros(n + r, dtype=mod.dtype)
                sq[2 * r :] = body.arr[: n - r] * (alpha * alpha % p) % p
                want = np.zeros(n, dtype=mod.dtype)
                want[r:] = seriesops._unit_pow_field(truncate(body, n - r), half, n - r).arr
                want = Poly.of(mod, want * alpha % p)
                assert series_root(Poly.of(mod, sq), 2, alpha, r, n) == want, (n, j, binomial, r)


def test_square_root_takes_no_exp_or_log(mod, monkeypatch):
    def refused(*args):
        raise AssertionError("exp or log called")

    monkeypatch.setattr(seriesops, "series_exp", refused)
    monkeypatch.setattr(seriesops, "series_log", refused)
    rng = random.Random(30)
    n = 2048
    for j, binomial in BODIES:
        body = _body(mod, j or n, binomial, n + 1, rng)
        g = Poly.of(mod, np.concatenate([[0, 0], body.arr[: n - 1]]) * 9 % mod.p)
        s = series_root(g, 2, 3, 1, n)
        assert mul_trunc(s, s, n + 1) == g, (j, binomial)


def test_newton_square_root_past_the_modulus(mod101):
    # Newton steps divide only by 2: dense bodies at n >= p, where
    # exp(log(g) / 2) refuses the precision
    rng = random.Random(32)
    for n in (101, 300):
        g = Poly(mod101, [4] + [rng.randrange(101) for _ in range(n - 1)], n)
        s = series_root(g, 2, 2, 0, n)
        assert mul_trunc(s, s, n) == g, n


def test_binomial_power_takes_no_transform(mod, monkeypatch):
    # (c + t x^j)^e in closed form: prefix products of its term ratios
    def refused(*args):
        raise AssertionError("transform called")

    monkeypatch.setattr(modfield, "_transform", refused)
    n = 4096
    for j in (1, 2, 5):
        g = Poly(mod, [7] + [0] * (j - 1) + [11], n)
        for e in (mod.inv(2), -1, 1 - n, 10**12 + 7):
            unit_pow(g, e, n)
        series_inv(g, n)


def test_square_root_transforms_at_its_precision(mod, monkeypatch):
    # each Newton step reads s^2 mod x^L - 1, L >= its precision k, and 1/s
    # at k - m: no product transforms past the size of n
    sizes = []
    transform = modfield._transform

    def recorded(m, X, size, *args):
        sizes.append(size)
        return transform(m, X, size, *args)

    monkeypatch.setattr(modfield, "_transform", recorded)
    rng = random.Random(31)
    n = 4096
    g = Poly(mod, [1] + [rng.randrange(mod.p) for _ in range(n - 1)], n)
    series_root(g, 2, 1, 0, n)
    assert sizes and max(sizes) == n


def _kernel_digest(p, n):
    """sha256 of the Newton kernels' results on a seeded dense series of
    precision n: the inverse and square root (series_inv, series_root) and,
    where n < p, exp (series_exp) and the unit powers g^-1, g^(1/2) and
    g^(1 - n) (exp o log)."""
    mod = Modulus(p)
    rng = random.Random(n)
    tail = [rng.randrange(p) for _ in range(n - 1)]
    alpha = rng.randrange(1, p)
    g = Poly(mod, [alpha * alpha % p] + tail, n)
    outs = [series_inv(g, n), series_root(g, 2, alpha, 0, n)]
    if n < p:
        outs += [
            series_exp(Poly(mod, [0] + tail, n), n),
            unit_pow(g, -1, n),
            unit_pow(g, mod.inv(2), n),
            unit_pow(g, 1 - n, n),
        ]
    h = hashlib.sha256()
    for out in outs:
        h.update(np.asarray(out.arr, dtype=np.int64).tobytes())
    return h.hexdigest()


# _kernel_digest as computed by the kernels that transformed each operand of
# a Newton step once per product; the series are unique, so every correct
# kernel gives them bit for bit.  The sizes are no powers of two and lie on
# both sides of _by_transform, which the forced runs move to the transforms
KERNEL_DIGESTS = {
    (DEFAULT_PRIME, 16387): "b43fe02f0539b5b8e6aac79de7e88f7d0235e0e04b156e14fa22952151ce6224",
    (DEFAULT_PRIME, 300): "aaf9c60cff8bcb0f12aae939eff2f911b87f110d9aa922b5d4f74c5a2ee50df2",
    (P40, 3000): "e6c90abdd9b49e1c2185d796ad273f1917a39f5f185f8c5227e1f00418b3b46e",
    (P40, 200): "4fca958f6c33b70e8dfa12cc63b616cd50ba9d46b829f5fad1ad73bfbeb6472b",
    (101, 100): "520cc0dad7f708d0385c72d128dbbc1260de56297f15040ce6ee0f43b1603273",
    (101, 1000): "304f7cea6114a8f10d225f2a5e0a1cef1ea2a0dbfe0e4cfa315ee5f5314c2ef9",
}


@pytest.mark.parametrize(
    "p, n, forced",
    [(p, n, False) for p, n in KERNEL_DIGESTS]
    + [(p, n, True) for p, n in KERNEL_DIGESTS if n <= 1000],
)
def test_newton_kernels_match_the_previous_kernels(p, n, forced, force_kernel):
    if forced:
        force_kernel()
    assert _kernel_digest(p, n) == KERNEL_DIGESTS[p, n]


def _transforms(monkeypatch):
    """A list that records (forward or not) for each call of
    modfield._transform from now on."""
    calls = []
    transform = modfield._transform

    def recorded(m, X, size, out_len=None, slot=None):
        calls.append(out_len is None)
        return transform(m, X, size, out_len, slot)

    monkeypatch.setattr(modfield, "_transform", recorded)
    return calls


def _counts(calls):
    return sum(calls), len(calls) - sum(calls)


def test_newton_steps_transform_each_operand_once(mod, monkeypatch):
    # (forward, inverse) transforms of one step at 4096: _newton_inv
    # transforms y once for g y and y e; a series_exp step takes that
    # _newton_inv step for 1/y, y g' and y d by one image of y, and
    # (y g' div x^(m-1)) / y; a square-root step takes the _newton_inv step
    # for 1/s, s^2 by one image of s, and the correction times 1/s
    rng = random.Random(34)
    n = 4096
    g = Poly(mod, [1] + [rng.randrange(mod.p) for _ in range(n - 1)], n)
    g0 = Poly(mod, [0] + g.coeffs[1:], n)
    y = seriesops._newton_inv_series(g, n // 2)
    calls = _transforms(monkeypatch)
    seriesops._newton_inv(g, y, n)
    assert _counts(calls) == (3, 2)
    for kernel, steps in [
        (lambda m: series_exp(g0, m), (8, 5)),
        (lambda m: series_root(g, 2, 1, 0, m), (6, 4)),
    ]:
        # the last step of a kernel at n: its steps at n / 2 less
        calls.clear()
        kernel(n // 2)
        before = _counts(calls)
        calls.clear()
        kernel(n)
        assert tuple(np.subtract(_counts(calls), before)) == steps


def _by_products(g, k, n):
    acc = Poly(g.mod, [1], n)
    for _ in range(k):
        acc = mul_trunc(acc, truncate(g, n), n)
    return acc


def test_integer_powers_past_the_modulus(mod101):
    # past x^p the exponents 100 = -1, 51 = 1/2 and 101 = 0 mod 101 stand
    # for other powers than the inverse, the square root and 1: series_pow,
    # by squaring, equals repeated products; unit_pow raises or equals them,
    # never the field-exponent result
    n = 200
    for coeffs in ([1, 1], [1, 1, 1], [3, 0, 5], [2, 0, 1, 0, 7], [1, 0, 0, 4]):
        g = Poly(mod101, coeffs, n)
        for k in (9, 51, 100, 101, 152):
            want = _by_products(g, k, n)
            assert series_pow(g, k, n) == want, (coeffs, k)
            try:
                got = unit_pow(g, k, n)
            except PrecisionExceedsModulus:
                continue
            assert got == want, (coeffs, k)


def test_series_inv_over_three():
    # over p = 3, -1 = 1/2: the inverse still takes Newton inverse steps
    mod = Modulus(3)
    rng = random.Random(33)
    for n in (4, 5, 9, 17, 40):
        for _ in range(5):
            g = Poly(mod, [rng.randrange(1, 3)] + [rng.randrange(3) for _ in range(n - 1)], n)
            assert series_inv(g, n) == _inv_by_full_products(g, n), (n, g.coeffs)
    g = Poly(mod, [1, 1, 1], 4)
    assert series_inv(g, 4).coeffs == [1, 2, 0, 1]


def test_unit_pow_small_exponents(mod101):
    rng = random.Random(23)
    n = 10
    g = Poly(mod101, [3] + [rng.randrange(101) for _ in range(n - 1)], n)
    acc = Poly(mod101, [1], n)
    for k in range(6):
        assert unit_pow(g, k, n).coeffs == acc.coeffs
        acc = mul_trunc(acc, g, n)


def test_unit_pow_negative_and_huge(mod101):
    rng = random.Random(24)
    n = 12
    g = Poly(mod101, [5] + [rng.randrange(101) for _ in range(n - 1)], n)
    assert unit_pow(g, -1, n).coeffs == series_inv(g, n).coeffs
    # g^e * g^-e = 1
    prod = mul_trunc(unit_pow(g, 7, n), unit_pow(g, -7, n), n)
    assert prod.coeffs == [1] + [0] * (n - 1)
    # exponent far beyond p: consistency with exponent splitting
    e = 10**12 + 7
    split_prod = mul_trunc(unit_pow(g, e - 3, n), unit_pow(g, 3, n), n)
    assert unit_pow(g, e, n).coeffs == split_prod.coeffs
    with pytest.raises(DomainViolation):
        unit_pow(Poly(mod101, [0, 1], 4), 2, 4)


def test_unit_pow_past_p_in_closed_form(mod101):
    # a binomial body at n = p and lacunary ones past it take the closed form
    # at m = ceil(n / j) <= p, which is exact there: powers by repeated
    # products; a body that needs exp(e log B) at m >= p still raises
    for coeffs, n in [([3, 5], 101), ([1, 0, 1], 150), ([7, 0, 0, 4], 300)]:
        g = Poly(mod101, coeffs, n)
        acc = Poly(mod101, [1], n)
        for e in range(6):
            assert unit_pow(g, e, n) == acc, (coeffs, n, e)
            acc = mul_trunc(acc, g, n)
        assert mul_trunc(unit_pow(g, -3, n), unit_pow(g, 3, n), n) == Poly(mod101, [1], n)
    with pytest.raises(PrecisionExceedsModulus):
        unit_pow(Poly(mod101, [1, 1, 1], 150), 3, 150)


def test_series_root_recovers_base(mod101):
    rng = random.Random(25)
    for k, r in [(2, 0), (2, 1), (3, 2), (5, 0)]:
        n = 12
        body = [rng.randrange(1, 101)] + [rng.randrange(101) for _ in range(n - r - 1)]
        g = Poly(mod101, [0] * r + body, n)
        alpha = g.coeffs[r]
        gk = series_pow(g, k, n + r * (k - 1))
        back = series_root(gk, k, alpha, r, n)
        assert back.coeffs == g.coeffs


def test_series_root_domain_errors(mod101):
    g = Poly(mod101, [0, 0, 4, 1], 4)
    # wrong valuation for r=0
    with pytest.raises(DomainViolation):
        series_root(g, 2, 2, 0, 4)
    # leading coefficient not alpha^k
    with pytest.raises(DomainViolation):
        series_root(g, 2, 3, 1, 4)
    # insufficient input precision for r*(k-1) > 0
    with pytest.raises(DomainViolation):
        series_root(Poly(mod101, [0, 0, 4, 1], 4), 2, 2, 1, 4)
    with pytest.raises(InvalidOperatorParam):
        series_root(g, 2, 0, 1, 4)


def test_series_root_valid_with_shift(mod101):
    # sqrt of 4x^2 + ... with alpha=2, r=1 at n=4 needs input precision 5
    g = Poly(mod101, [0, 2, 5, 9], 4)
    g2 = series_pow(g, 2, 5)
    assert series_root(g2, 2, 2, 1, 4).coeffs == g.coeffs


def test_series_pow_matches_repeated_mul(mod101):
    rng = random.Random(26)
    n = 15
    for val in (0, 1, 3):
        g = Poly(
            mod101,
            [0] * val + [rng.randrange(1, 101)] + [rng.randrange(101) for _ in range(n - val - 1)],
            n,
        )
        acc = Poly(mod101, list(g.coeffs), n)
        for k in range(1, 12):
            assert series_pow(g, k, n).coeffs == acc.coeffs, (val, k)
            acc = mul_trunc(acc, g, n)
    with pytest.raises(InvalidOperatorParam):
        series_pow(g, 0, n)


def _hypergeometric_by_ints(p, n, upper, lower, z):
    """The first n terms of pFq(upper; lower; z x) mod p from explicit rising
    factorials in Python ints, or the first k < n whose lower factor
    (b + k - 1) vanishes mod p, as ("zero", k)."""

    def rising(x, k):
        out = 1
        for i in range(k):
            out *= x + i
        return out

    terms, fact = [], 1
    for k in range(n):
        fact *= max(k, 1)
        den = 1
        for b in lower:
            den *= rising(b, k)
        if den % p == 0:
            return ("zero", k)
        num = z**k
        for a in upper:
            num *= rising(a, k)
        terms.append(num * pow(den, -1, p) * pow(fact, -1, p) % p)
    return terms


@pytest.mark.parametrize("p", [DEFAULT_PRIME, P40, 101])
def test_hypergeometric_matches_rising_factorials(p):
    # random parameters of either sign, and past p; zero and negative upper
    # parameters end the series; n = 1 and, over 101, n = p
    mod, rng = Modulus(p), random.Random(p)
    cases = [((), (), 1, 1), ((0,), (), 5, 6), ((-3,), (2,), -1, 9), ((-7, 4), (3,), 2, 12),
             ((1,), (-4,), 1, 10), ((2,), (3, -2), 1, 4)]
    for _ in range(30):
        params = [rng.randrange(-60, 60) if rng.random() < 0.8 else rng.randrange(-3 * p, 3 * p)
                  for _ in range(rng.randrange(4))]
        q = rng.randrange(len(params) + 1)
        z, n = rng.randrange(-p, p), rng.randrange(1, 40)
        cases.append((tuple(params[q:]), tuple(params[:q]), z, n))
    if p == 101:
        cases += [((), (), 1, p), ((3, -200), (205,), 7, p), ((5,), (60,), 1, p)]
    zeros = 0
    for upper, lower, z, n in cases:
        want = _hypergeometric_by_ints(p, n, upper, lower, z)
        if isinstance(want, tuple):
            zeros += 1
            with pytest.raises(ZeroCoefficient, match=f"term {want[1]}$"):
                seriesops._hypergeometric(mod, n, upper, lower, z)
        else:
            got = seriesops._hypergeometric(mod, n, upper, lower, z)
            assert got.dtype == mod.dtype and got.tolist() == want, (upper, lower, z, n)
    assert zeros >= 1
    with pytest.raises(PrecisionExceedsModulus):
        seriesops._hypergeometric(Modulus(101), 102, (1,), (2,))
