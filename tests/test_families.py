import random

import pytest

from basisconv import (
    DEFAULT_PRIME,
    DimensionMismatch,
    DomainViolation,
    Modulus,
    Poly,
    SingularDiagonal,
    SpecViolation,
    ZeroCoefficient,
    evalgrid,
    modfield,
)
from basisconv import (
    Add,
    AmbiguousValuation,
    BivariateSpec,
    Inv,
    Log,
    Mul,
    PrecisionExceedsModulus,
    eval_bivariate,
)
from basisconv.bivariate import _bivariate_inv
from basisconv.compseq import _output_series
from basisconv.families import (
    MATRIX_MAX,
    FamilyDescriptor,
    _prefactors,
    family,
    family_names,
    from_monomial,
    parse_family,
    to_monomial,
)
from basisconv.oracle import naive_convert, stirling_matrices
from catalog_data import FAMILY_STRINGS, all_families

# 2 * 500001 + 1: no roots of unity of order 4
NO_ROOTS_PRIME = 1000003
P40 = 1099489607681

M_TABLE = {
    "laguerre", "hermite", "jacobi", "fibonacci", "euler", "bernoulli",
    "mott", "spread", "bessel",
}


def _basis_col(fam, j, n, mod):
    e = [0] * n
    e[j] = 1
    return to_monomial(e, fam, n, mod).coeffs


def test_catalog_complete(mod):
    assert len(family_names()) == 20
    assert len(FAMILY_STRINGS) == 20
    parsed = {f.name for f in all_families(mod)}
    assert parsed == set(family_names())


def test_cost_classes(mod):
    for fam in all_families(mod):
        want = "M" if fam.name in M_TABLE else "MlogM"
        assert fam.cost_class == want, fam.name


def test_no_two_adjacent_adds(mod):
    # two Taylor shifts in a row are one shift by the sum: each Add costs a
    # product per conversion
    for fam in all_families(mod):
        for ops in (fam.spec.g_ops, fam.spec.h_ops):
            kinds = [type(op).__name__ for op in ops]
            assert ("Add", "Add") not in zip(kinds, kinds[1:]), (fam.name, ops)


def test_hermite_frozen(mod):
    p = mod.p
    # H_0=1, H_1=2x, H_2=4x^2-2, H_3=8x^3-12x
    assert _basis_col(parse_family(mod, "hermite"), 2, 5, mod) == [p - 2, 0, 4, 0, 0]
    assert _basis_col(parse_family(mod, "hermite"), 3, 5, mod) == [0, p - 12, 0, 8, 0]


def test_hermite_inverse_frozen(mod):
    fam = parse_family(mod, "hermite")
    A = Poly(mod, [mod.p - 2, 0, 4], 3)   # 4x^2 - 2
    assert from_monomial(A, fam, 3, mod) == [0, 0, 1]


def test_falling_factorial_is_stirling(mod):
    n = 12
    s, S = stirling_matrices(mod, n)
    fam = parse_family(mod, "falling")
    for j in range(n):
        assert _basis_col(fam, j, n, mod) == [s[j][i] for i in range(n)]
    # inverse direction: x^j on the falling basis = second-kind row j
    for j in range(n):
        e = [0] * n
        e[j] = 1
        assert from_monomial(Poly(mod, e, n), fam, n, mod) == [
            S[j][i] for i in range(n)
        ]


def test_bell_frozen(mod):
    # Touchard polynomials: T_2 = x + x^2, T_3 = x + 3x^2 + x^3
    fam = parse_family(mod, "bell")
    assert _basis_col(fam, 2, 5, mod) == [0, 1, 1, 0, 0]
    assert _basis_col(fam, 3, 5, mod) == [0, 1, 3, 1, 0]


def test_fibonacci_frozen(mod):
    # F_1=1, F_2=x, F_3=x^2+1, F_4=x^3+2x (index j holds F_{j+1})
    fam = parse_family(mod, "fibonacci")
    assert _basis_col(fam, 2, 5, mod) == [1, 0, 1, 0, 0]
    assert _basis_col(fam, 3, 5, mod) == [0, 2, 0, 1, 0]


def test_laguerre_frozen(mod):
    # alpha=0: L_2 = 1 - 2x + x^2/2
    fam = parse_family(mod, "laguerre(alpha=0)")
    assert _basis_col(fam, 2, 4, mod) == [1, mod.p - 2, mod.inv(2), 0]


def test_hermite_three_term_recurrence(mod):
    n = 16
    fam = parse_family(mod, "hermite")
    cols = [_basis_col(fam, j, n, mod) for j in range(n)]
    for j in range(1, n - 1):
        # H_{j+1} = 2x H_j - 2j H_{j-1}
        want = [0] * n
        for i in range(n - 1):
            want[i + 1] = 2 * cols[j][i] % mod.p
        for i in range(n):
            want[i] = (want[i] - 2 * j * cols[j - 1][i]) % mod.p
        assert cols[j + 1] == want, j


def test_laguerre_three_term_recurrence(mod):
    n = 16
    alpha = 3
    fam = parse_family(mod, f"laguerre(alpha={alpha})")
    cols = [_basis_col(fam, j, n, mod) for j in range(n)]
    for j in range(1, n - 1):
        # (j+1) L_{j+1} = (2j+1+alpha-x) L_j - (j+alpha) L_{j-1}
        want = [0] * n
        for i in range(n):
            want[i] = (2 * j + 1 + alpha) * cols[j][i] % mod.p
        for i in range(n - 1):
            want[i + 1] = (want[i + 1] - cols[j][i]) % mod.p
        for i in range(n):
            want[i] = (want[i] - (j + alpha) * cols[j - 1][i]) % mod.p
        inv = mod.inv(j + 1)
        assert cols[j + 1] == [w * inv % mod.p for w in want], j


def test_degree_property(mod):
    n = 12
    for fam in all_families(mod):
        f = fam.spec.f_coeffs(n)
        for j in range(n):
            if f[j] % mod.p == 0:
                continue   # spread has f_0 = 0, so P_0 = 0 there
            col = _basis_col(fam, j, n, mod)
            deg = max((i for i, c in enumerate(col) if c), default=-1)
            assert deg == j, (fam.name, j)


def test_round_trip_all(mod):
    rng = random.Random(61)
    n = 32
    for fam in all_families(mod):
        a = [rng.randrange(mod.p) for _ in range(n)]
        A = to_monomial(a, fam, n, mod)
        if fam.name == "spread":
            with pytest.raises(SingularDiagonal):
                from_monomial(A, fam, n, mod)
            continue
        assert from_monomial(A, fam, n, mod) == a, fam.name


def test_matches_naive_convert(mod):
    # over P40 object rows take the chain at n = 40, whose products by the
    # per-family operands (unit and root powers, v, u, 1/u, 1/v) take scaled
    # images at sizes 2^3 to 2^8
    rng = random.Random(62)
    cases = [(mod, 10, name) for name in (
        "jacobi(alpha=3,beta=5)", "euler(alpha=3)", "narumi(a=2)", "krawtchouk(p=1/3,N=100)",
    )] + [(Modulus(P40), 40, name) for name in (
        "jacobi(alpha=3,beta=5)", "fibonacci", "mott", "laguerre(alpha=3)", "bessel",
        "charlier(a=2)",
    )]
    for mod, n, name in cases:
        fam = parse_family(mod, name)
        a = [rng.randrange(mod.p) for _ in range(n)]
        fast = to_monomial(a, fam, n, mod).coeffs
        assert fast == naive_convert(a, fam, n, "to-monomial", mod), name
        back = from_monomial(Poly(mod, fast, n), fam, n, mod)
        assert back == naive_convert(fast, fam, n, "from-monomial", mod), name


def test_transform_kernel_matches_naive_convert(transforms_only):
    # products this small go to the schoolbook by default; here every product
    # goes through transforms, cached operands included (a fresh modulus):
    # float images, or past size 16 Karatsuba splits and coefficient rows,
    # also over a prime without roots of unity.  The fast chain is called
    # directly: at n <= MATRIX_MAX the conversions are kept matrices
    primes = [DEFAULT_PRIME, NO_ROOTS_PRIME]
    rng = random.Random(55)
    n = 24
    for mod in map(Modulus, primes):
        for fam in _families_over(mod):
            a = [rng.randrange(mod.p) for _ in range(n)]
            fast = _chain_to(a, fam, n, mod)
            assert fast == naive_convert(a, fam, n, "to-monomial", mod), (mod, fam.name)
            if fam.name != "spread":    # its diagonal has a zero: no inverse
                assert _chain_from(fast, fam, n, mod) == a, (mod, fam.name)


def _chain_to(a, fam, n, mod):
    """to_monomial of a by the fast chain, eval_bivariate(a / c), as a list."""
    _, cinv = _prefactors(fam, n, mod)
    return eval_bivariate(Poly(mod, a, n).arr * cinv % mod.p, fam.spec, n, mod).coeffs


def _chain_from(A, fam, n, mod):
    """from_monomial of the coefficients A by the fast chain, _bivariate_inv."""
    cs, _ = _prefactors(fam, n, mod)
    return (_bivariate_inv(Poly(mod, A, n), fam.spec, n, mod).arr * cs % mod.p).tolist()


def _outcome(fn):
    """fn()'s value, or the type of the AlgebraError it raised."""
    try:
        return fn()
    except (AmbiguousValuation, PrecisionExceedsModulus, SingularDiagonal) as exc:
        return type(exc)


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 101])
def test_matrix_path_matches_naive_convert(p):
    # at n <= MATRIX_MAX (int64 rows) each conversion is one product by a
    # matrix kept per (family, n, direction); n = 65 takes the fast chain.
    # Where they differ from the oracle, both paths raise as the chain does:
    # spread's from_monomial (a zero f_k); over 101, past MATRIX_MAX, the
    # chain's transposed Taylor shifts of dimension 2n - 1 >= p, which the
    # matrices do not make (they convert up to n = 64 there)
    mod = Modulus(p)
    rng = random.Random(56)
    chain_limit = {
        ("jacobi", "to-monomial"), ("spread", "to-monomial"), ("bessel", "from-monomial"),
    }
    for fam in all_families(mod):
        for n in (1, 2, 3, 17, 32, 63, 64, 65):
            a = [rng.randrange(p) for _ in range(n)]
            for direction in ("to-monomial", "from-monomial"):
                if direction == "to-monomial":
                    got = _outcome(lambda: to_monomial(a, fam, n, mod).coeffs)
                else:
                    got = _outcome(lambda: from_monomial(Poly(mod, a, n), fam, n, mod))
                want = _outcome(lambda: naive_convert(a, fam, n, direction, mod))
                if p == 101 and n > MATRIX_MAX and (fam.name, direction) in chain_limit:
                    want = PrecisionExceedsModulus
                assert got == want, (fam.name, n, direction)


def test_matrix_path_matches_the_chain():
    # both directions at every n up to MATRIX_MAX, on a fresh modulus each,
    # against eval_bivariate and _bivariate_inv called directly, exceptions
    # included; the last family has a u, a v and an Inv in g
    rng = random.Random(57)
    names = ["laguerre(alpha=3)", "jacobi(alpha=3,beta=5)", "fibonacci", "mott", "mittag_leffler"]

    def with_u(mod):
        spec = BivariateSpec(
            f_coeffs=lambda n: mod.inv_factorials(n),
            g_ops=(Add(1), Inv(), Mul(3), Add(mod.p - 3)),
            h_ops=(Mul(2), Log()),
            u_coeffs=lambda n: ([1, 3] + [0] * n)[:n],
            v_coeffs=lambda n: [2] + [1] * (n - 1),
        )
        return FamilyDescriptor("with_u", {}, spec, lambda n: list(range(1, n + 1)))

    for n in range(1, MATRIX_MAX + 1):
        a = [rng.randrange(DEFAULT_PRIME) for _ in range(n)]
        for name in names + [with_u]:
            chain, matrix = Modulus(DEFAULT_PRIME), Modulus(DEFAULT_PRIME)
            fams = [name(m) if callable(name) else parse_family(m, name) for m in (chain, matrix)]
            want = _outcome(lambda: _chain_to(a, fams[0], n, chain))
            assert _outcome(lambda: to_monomial(a, fams[1], n, matrix).coeffs) == want, (name, n)
            want = _outcome(lambda: _chain_from(a, fams[0], n, chain))
            got = _outcome(lambda: from_monomial(Poly(matrix, a, n), fams[1], n, matrix))
            assert got == want, (name, n)
            assert [k for k in matrix._cache if k[0] in ("seq", "vu", "finv")] == [], (name, n)


@pytest.mark.parametrize("n", [MATRIX_MAX, MATRIX_MAX + 1])
def test_matrix_path_raises_as_the_chain(n, mod):
    # the errors of both sides of MATRIX_MAX, each on every call
    rng = random.Random(58)
    a = [rng.randrange(mod.p) for _ in range(n)]
    spread = parse_family(mod, "spread")
    for _ in range(2):
        with pytest.raises(SingularDiagonal):
            from_monomial(to_monomial(a, spread, n, mod), spread, n, mod)
        with pytest.raises(ZeroCoefficient):
            to_monomial(a, parse_family(mod, "krawtchouk(p=1/3,N=4)"), n, mod)
        with pytest.raises(ZeroCoefficient):
            from_monomial(Poly(mod, a, n), parse_family(mod, "krawtchouk(p=1/3,N=4)"), n, mod)
    hermite = parse_family(mod, "hermite")
    with pytest.raises(DomainViolation, match=f"coefficient {n - 1} "):
        to_monomial(a[:-1] + [mod.p], hermite, n, mod)
    with pytest.raises(DimensionMismatch):
        to_monomial(a + [1], hermite, n, mod)


@pytest.mark.parametrize("n, p", [(61, 61), (64, 61), (67, 67), (70, 67)])
def test_precision_exceeds_modulus_on_both_sides(n, p):
    # n = p is refused by check_precision, n > p already by the tables
    mod = Modulus(p)
    for name in ("hermite", "bell"):
        fam = parse_family(mod, name)
        with pytest.raises(PrecisionExceedsModulus):
            to_monomial([1] * n, fam, n, mod)
        with pytest.raises(PrecisionExceedsModulus):
            from_monomial(Poly(mod, [1] * n, n), fam, n, mod)


def _families_over(mod):
    """The catalog families that exist over mod: all but meixner_pollaczek,
    which needs a square root of -1, where p % 4 == 3."""
    if mod.p % 4 == 1:
        return all_families(mod)
    names = [s for s in FAMILY_STRINGS if not s.startswith("meixner_pollaczek")]
    with pytest.raises(SpecViolation):
        parse_family(mod, "meixner_pollaczek(lambda=3,s=5)")
    return [parse_family(mod, s) for s in names]


@pytest.mark.parametrize("n", [1100, 2100])
def test_round_trip_without_roots_of_unity(n):
    # long products go to the float kernel, which needs no roots of unity
    mod = Modulus(NO_ROOTS_PRIME)
    assert mod.p % 4 == 3
    rng = random.Random(n)
    for name in ("hermite", "bell"):
        fam = parse_family(mod, name)
        a = [rng.randrange(mod.p) for _ in range(n)]
        A = to_monomial(a, fam, n, mod)
        assert from_monomial(A, fam, n, mod) == a, name


def test_no_roots_rows_need_no_row_loop(monkeypatch):
    # over a prime without roots of unity the float kernel takes every size,
    # so _convolve_rows never falls back to one _convolve per row.  The trees
    # run to their points (LEAF_SIZE = 1), so that they have levels of every
    # size from 2 on
    n = 300
    monkeypatch.setattr(evalgrid, "LEAF_SIZE", 1)
    looped, inside = [0], [0]
    convolve, convolve_rows = modfield._convolve, modfield._convolve_rows

    def rows(*args):
        inside[0] += 1
        try:
            return convolve_rows(*args)
        finally:
            inside[0] -= 1

    def conv(*args):
        looped[0] += inside[0] > 0
        return convolve(*args)

    monkeypatch.setattr(modfield, "_convolve_rows", rows)
    monkeypatch.setattr(modfield, "_convolve", conv)
    a = random.Random(64).sample(range(NO_ROOTS_PRIME), n)

    def round_trip():
        mod = Modulus(NO_ROOTS_PRIME)
        fam = parse_family(mod, "bell")
        A = to_monomial(a, fam, n, mod)
        return A.coeffs, from_monomial(A, fam, n, mod)

    looped[0] = 0
    got = round_trip()
    assert looped[0] == 0 and got[1] == a


def test_small_prime_conversions(mod101):
    rng = random.Random(63)
    n = 20
    for name in ["hermite", "falling", "bessel", "charlier(a=2)"]:
        fam = parse_family(mod101, name)
        a = [rng.randrange(101) for _ in range(n)]
        A = to_monomial(a, fam, n, mod101)
        assert from_monomial(A, fam, n, mod101) == a, name


def test_square_roots_past_the_modulus():
    # at n = 100 over p = 101 the root operators read truncations at
    # precision 101, where exp(log(g) / 2) refuses them; their bodies are
    # series in t^2, raised at half the precision (or in closed form)
    mod = Modulus(101)
    rng = random.Random(64)
    n = 100
    cases = [("fibonacci", "from-monomial"), ("mott", "to-monomial"), ("mott", "from-monomial")]
    for name, direction in cases:
        fam = parse_family(mod, name)
        a = [rng.randrange(101) for _ in range(n)]
        if direction == "to-monomial":
            got = to_monomial(a, fam, n, mod).coeffs
        else:
            got = from_monomial(Poly(mod, a, n), fam, n, mod)
        assert got == naive_convert(a, fam, n, direction, mod), (name, direction)
    # the oracle reads h from the same sequence: fibonacci's against its
    # closed form, t / (1 - t^2)
    h = _output_series(parse_family(mod, "fibonacci").spec.h_ops, n, mod)
    assert h.coeffs == [0, 1] * (n // 2)


def test_parameter_validation(mod):
    with pytest.raises(SpecViolation):
        family(mod, "charlier", a=0)
    with pytest.raises(SpecViolation):
        family(mod, "meixner", beta=5, c=1)
    with pytest.raises(SpecViolation):
        family(mod, "meixner_pollaczek", **{"lambda": 3, "s": 1})
    with pytest.raises(SpecViolation):
        family(mod, "krawtchouk", p=0, N=10)
    with pytest.raises(SpecViolation):
        family(mod, "nosuchfamily")
    with pytest.raises(SpecViolation):
        family(mod, "jacobi", alpha=3)   # missing beta
    with pytest.raises(SpecViolation):
        family(mod, "peters", **{"lambda": 3, "mu": "x"})
    # parameters that are no integers, each a SpecViolation, not a TypeError
    for bad in (0.5, "3"):
        with pytest.raises(SpecViolation, match="'p' must be an integer"):
            family(mod, "krawtchouk", p=bad, N=10)
        with pytest.raises(SpecViolation, match="'i' must be an integer"):
            family(mod, "meixner_pollaczek", **{"lambda": 3, "s": 5, "i": bad})
    # a parameter the family does not take
    with pytest.raises(SpecViolation, match="no parameter 'gamma'"):
        family(mod, "jacobi", alpha=1, beta=2, gamma=5)


def test_sqrt_minus_one_requires_1_mod_4():
    mod103 = Modulus(103)   # 103 % 4 == 3: no square root of -1
    with pytest.raises(SpecViolation):
        family(mod103, "meixner_pollaczek", **{"lambda": 3, "s": 5})
    # explicit i that does not square to -1 is rejected even when p allows one
    mod = Modulus(101)
    with pytest.raises(SpecViolation):
        family(mod, "meixner_pollaczek", **{"lambda": 3, "s": 5, "i": 2})


def test_krawtchouk_prefactor_vanishes(mod):
    fam = parse_family(mod, "krawtchouk(p=1/3,N=4)")
    with pytest.raises(ZeroCoefficient):
        to_monomial([1] * 8, fam, 8, mod)
    # within range the small-N family still works
    a = [3, 1, 4, 1]
    A = to_monomial(a, fam, 4, mod)
    assert from_monomial(A, fam, 4, mod) == a


def test_parse_family_forms(mod):
    fam = parse_family(mod, "  jacobi( alpha = 3 , beta = 5 ) ")
    assert fam.params == {"alpha": 3, "beta": 5}
    fam2 = parse_family(mod, "krawtchouk(p=1/3,N=7)")
    assert fam2.params["p"] == mod.inv(3)
    with pytest.raises(SpecViolation):
        parse_family(mod, "jacobi(alpha=3")
    with pytest.raises(SpecViolation):
        parse_family(mod, "jacobi(3,5)")


@pytest.mark.parametrize("n", [3, MATRIX_MAX, MATRIX_MAX + 1, 200])
def test_from_monomial_rejects_what_to_monomial_refuses(n, mod):
    # on the kept matrices (n <= MATRIX_MAX) and on the chain: a polynomial
    # of dimension past n, or over another prime, is refused, not truncated
    # or read over mod
    fam = parse_family(mod, "hermite")
    rng = random.Random(n)
    a = [rng.randrange(101) for _ in range(n)]
    with pytest.raises(DimensionMismatch):
        from_monomial(Poly(mod, a + [1, 2], n + 2), fam, n, mod)
    with pytest.raises(DomainViolation):
        from_monomial(Poly(Modulus(101), a, n), fam, n, mod)
    # a shorter polynomial over mod converts as its zero-padding
    want = from_monomial(Poly(mod, a[:-1], n), fam, n, mod)
    assert from_monomial(Poly(mod, a[:-1]), fam, n, mod) == want


def test_to_monomial_rejects_malformed_input(mod):
    fam = parse_family(mod, "hermite")
    p = mod.p
    with pytest.raises(DimensionMismatch):
        to_monomial([1, 2, 3, 4, 5], fam, 4, mod)
    for bad, j in (([1, -1, 2], 1), ([0, 0, 0, p], 3), ([5, 2**70, 1], 1), ([3, 1, -(2**70)], 2)):
        with pytest.raises(DomainViolation, match=f"coefficient {j} "):
            to_monomial(bad, fam, 4, mod)
    with pytest.raises(DomainViolation):
        to_monomial([1, 0.5], fam, 4, mod)
    # in range, shorter than n: zero-padded
    assert to_monomial([0, 0, 1], fam, 4, mod).coeffs == [p - 2, 0, 4, 0]
