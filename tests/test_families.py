import random
import re
from fractions import Fraction
from math import comb, factorial, prod
from pathlib import Path

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
    Pow,
    PrecisionExceedsModulus,
    Root,
    eval_bivariate,
    eval_seq,
    eval_seq_inv,
    eval_seq_t,
    format_sequence,
    mul_trunc,
    mul_trunc_t,
    parse_sequence,
    series_exp,
    series_inv,
    series_log,
    unit_pow,
)
from basisconv.bivariate import _bivariate_inv
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
from basisconv.oracle import _output_series, naive_convert, stirling_matrices
from catalog_data import FAMILY_STRINGS, all_families

# 2 * 500001 + 1: no roots of unity of order 4
NO_ROOTS_PRIME = 1000003
P40 = 1099489607681

M_TABLE = {
    "laguerre", "hermite", "jacobi", "fibonacci", "euler", "bernoulli",
    "mott", "spread", "bessel",
}

# format_sequence of the g and h of every FAMILY_STRINGS entry: a change to
# any op tuple of the catalog fails test_catalog_ops_frozen
FROZEN_OPS = {
    DEFAULT_PRIME: {
        "laguerre(alpha=3)": ("M:2013265920", "M:2013265920;A:1;Inv;A:2013265920"),
        "hermite": ("M:2", ""),
        "jacobi(alpha=3,beta=5)": (
            "A:1",
            "A:1;Inv;M:2013265919;A:1;P:2;M:2013265920;A:1;M:1006632961",
        ),
        "fibonacci": (
            "",
            "P:2;M:2013265920;A:1;Inv;M:2;A:2013265920;P:2;A:2013265920;R:2,2,1;M:1006632961",
        ),
        "euler(alpha=3)": ("", ""),
        "bernoulli(alpha=3)": ("", ""),
        "mott": (
            "M:2013265920",
            "P:2;M:2013265920;A:1;R:2,1,0;A:1;Inv;M:2;A:2013265920;R:2,1006632961,1",
        ),
        "spread": ("", "M:2013265920;A:1;Inv;M:2013265919;A:1;P:2;M:2013265920;A:1;M:503316480"),
        "bessel": ("", "M:2013265919;A:1;R:2,1,0;M:2013265920;A:1"),
        "falling": ("", "L"),
        "bell": ("", "E"),
        "bernoulli2": ("", "L"),
        "charlier(a=2)": ("", "M:1006632961;L"),
        "actuarial(beta=3)": ("M:2013265920", "E"),
        "narumi(a=2)": ("", "L"),
        "peters(lambda=3,mu=2)": ("", "L"),
        "meixner_pollaczek(lambda=3,s=5)": (
            "M:1728404513",
            "M:402653184;A:1;Inv;M:2013265897;A:24;L",
        ),
        "meixner(beta=5,c=7)": ("", "M:2013265920;A:1;Inv;M:1150437670;A:862828251;L"),
        "krawtchouk(p=1/3,N=100)": ("", "M:1342177281;A:1342177281;Inv;A:2013265918;L"),
        "mittag_leffler": ("", "A:2013265920;Inv;M:2013265919;A:2013265919;L"),
    },
    101: {
        "laguerre(alpha=3)": ("M:100", "M:100;A:1;Inv;A:100"),
        "hermite": ("M:2", ""),
        "jacobi(alpha=3,beta=5)": ("A:1", "A:1;Inv;M:99;A:1;P:2;M:100;A:1;M:51"),
        "fibonacci": ("", "P:2;M:100;A:1;Inv;M:2;A:100;P:2;A:100;R:2,2,1;M:51"),
        "euler(alpha=3)": ("", ""),
        "bernoulli(alpha=3)": ("", ""),
        "mott": ("M:100", "P:2;M:100;A:1;R:2,1,0;A:1;Inv;M:2;A:100;R:2,51,1"),
        "spread": ("", "M:100;A:1;Inv;M:99;A:1;P:2;M:100;A:1;M:25"),
        "bessel": ("", "M:99;A:1;R:2,1,0;M:100;A:1"),
        "falling": ("", "L"),
        "bell": ("", "E"),
        "bernoulli2": ("", "L"),
        "charlier(a=2)": ("", "M:51;L"),
        "actuarial(beta=3)": ("M:100", "E"),
        "narumi(a=2)": ("", "L"),
        "peters(lambda=3,mu=2)": ("", "L"),
        "meixner_pollaczek(lambda=3,s=5)": ("M:10", "M:20;A:1;Inv;M:77;A:24;L"),
        "meixner(beta=5,c=7)": ("", "M:100;A:1;Inv;M:73;A:28;L"),
        "krawtchouk(p=1/3,N=100)": ("", "M:34;A:34;Inv;A:98;L"),
        "mittag_leffler": ("", "A:100;Inv;M:99;A:99;L"),
    },
}

# the families whose h is formatted from their parameters, written in words
# in README.md's family table
PARAMETRIC_H = {"meixner_pollaczek", "meixner", "krawtchouk"}
README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_transform_kernel_matches_naive_convert(force_kernel):
    # products this small go to the schoolbook by default; here every product
    # goes through float images, cached operands included (a fresh modulus),
    # also over a prime without roots of unity.  The fast chain is called
    # directly: at n <= MATRIX_MAX the conversions are kept matrices
    force_kernel()
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
    # Both raise where the oracle raises: spread's from_monomial (a zero
    # f_k).  Over 101 the chain's Taylor shifts of dimension 2n - 1 >= p at
    # n = 65 are dense Pascal products, which convert as the oracle does
    mod = Modulus(p)
    rng = random.Random(56)
    for fam in all_families(mod):
        for n in (1, 2, 3, 17, 32, 63, 64, 65):
            a = [rng.randrange(p) for _ in range(n)]
            for direction in ("to-monomial", "from-monomial"):
                if direction == "to-monomial":
                    got = _outcome(lambda: to_monomial(a, fam, n, mod).coeffs)
                else:
                    got = _outcome(lambda: from_monomial(Poly(mod, a, n), fam, n, mod))
                want = _outcome(lambda: naive_convert(a, fam, n, direction, mod))
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
    # n >= p is refused by check_precision in both directions, before the
    # tables or the prefactors, which vanish there for jacobi, meixner and
    # krawtchouk, are read
    mod = Modulus(p)
    for name in ("hermite", "bell", "jacobi(alpha=3,beta=5)", "meixner(beta=5,c=7)",
                 "krawtchouk(p=1/3,N=100)"):
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
    # parameters that are no integers, each a SpecViolation, not a TypeError;
    # a bool is none either, where it would read as 0 or 1
    for bad in (0.5, "3", True):
        with pytest.raises(SpecViolation, match="'p' must be an integer"):
            family(mod, "krawtchouk", p=bad, N=10)
        with pytest.raises(SpecViolation, match="'i' must be an integer"):
            family(mod, "meixner_pollaczek", **{"lambda": 3, "s": 5, "i": bad})
    with pytest.raises(SpecViolation, match="'alpha' must be an integer"):
        family(mod, "laguerre", alpha=True)
    # a parameter the family does not take
    with pytest.raises(SpecViolation, match="no parameter 'gamma'"):
        family(mod, "jacobi", alpha=1, beta=2, gamma=5)


def test_one_integer_grammar(mod):
    # family values, sequence scalars and the P: and R: integers are ASCII
    # decimal integers with an optional sign, blanks around them ignored:
    # int() would read 1_0 as 10 and the Arabic-Indic digit three as 3
    for text in ("laguerre(alpha=1_0)", "laguerre(alpha=\u0663)", "krawtchouk(p=1/3_0,N=100)"):
        with pytest.raises(SpecViolation, match="malformed family parameter"):
            parse_family(mod, text)
    assert parse_family(mod, "krawtchouk(p= -1 / 3 ,N=+100)").params == {
        "p": (-1 * mod.inv(3)) % mod.p, "N": 100,
    }
    for text in ("A:1_0", "M:\u0663", "P:1_0", "R:2,1,0_0", "M:1/"):
        with pytest.raises(ValueError, match="malformed integer"):
            parse_sequence(text, mod)
    ops = parse_sequence(" A: -2 ; P: 3 ; R:2, 1 ,0", mod)
    assert ops == (Add(mod.p - 2), Pow(3), Root(2, 1, 0))


def test_precision_zero_is_a_dimension_mismatch(mod):
    # n = 0 is no dimension: the conversions of every catalog family and the
    # sequence and series entry points raise DimensionMismatch, where they
    # raised IndexError or ValueError or returned a Poly of dim 0
    for fam in all_families(mod):
        with pytest.raises(DimensionMismatch):
            to_monomial([], fam, 0, mod)
        with pytest.raises(DimensionMismatch):
            from_monomial(Poly(mod, [0]), fam, 0, mod)
    g, x, ops = Poly(mod, [1, 2, 3]), Poly(mod, [0, 1]), parse_sequence("A:1;Inv", mod)
    spec = parse_family(mod, "jacobi(alpha=3,beta=5)").spec
    calls = {
        "eval_seq": lambda: eval_seq(g, ops, 0),
        "eval_seq_t": lambda: eval_seq_t(g, ops, 0),
        "eval_seq_inv": lambda: eval_seq_inv(g, ops, 0),
        "eval_bivariate": lambda: eval_bivariate([], spec, 0, mod),
        "series_exp": lambda: series_exp(x, 0),
        "series_log": lambda: series_log(x, 0),
        "mul_trunc": lambda: mul_trunc(g, g, 0),
        "mul_trunc_t": lambda: mul_trunc_t(g, g, 0),
        "series_inv": lambda: series_inv(g, 0),
        "unit_pow": lambda: unit_pow(g, 3, 0),
    }
    for call in calls.values():
        with pytest.raises(DimensionMismatch, match="dimension 0 is below 1"):
            call()


def test_sqrt_minus_one_requires_1_mod_4():
    mod103 = Modulus(103)   # 103 % 4 == 3: no square root of -1
    with pytest.raises(SpecViolation):
        family(mod103, "meixner_pollaczek", **{"lambda": 3, "s": 5})
    # explicit i that does not square to -1 is rejected even when p allows one
    mod = Modulus(101)
    with pytest.raises(SpecViolation):
        family(mod, "meixner_pollaczek", **{"lambda": 3, "s": 5, "i": 2})


def test_meixner_pollaczek_default_i_over_41():
    # the default i is c^((p - 1)/4) for the least quadratic non-residue c:
    # 3^10 = 9 over p = 41, not the 32 that the least primitive root 6 gives
    mod = Modulus(41)
    fam = parse_family(mod, "meixner_pollaczek(lambda=3,s=5)")
    a, n = [3, 1, 4, 1, 5, 9, 2, 6], 8
    A = to_monomial(a, fam, n, mod)
    for i, same in ((9, True), (32, False)):
        fam_i = parse_family(mod, f"meixner_pollaczek(lambda=3,s=5,i={i})")
        assert (to_monomial(a, fam_i, n, mod).coeffs == A.coeffs) == same, i
    assert A.coeffs == naive_convert(a, fam, n, "to-monomial", mod)
    assert from_monomial(A, fam, n, mod) == a


@pytest.mark.parametrize("p, n", [(41, 8), (DEFAULT_PRIME, 8), (DEFAULT_PRIME, MATRIX_MAX + 6)])
def test_meixner_pollaczek_reduces_i(p, n):
    # i and i + p are one residue, as s is: equal params, g and conversions
    # (both spellings still make a descriptor each, family() keying by the
    # parameters as given)
    mod = Modulus(p)
    i = parse_family(mod, "meixner_pollaczek(lambda=3,s=5)").params["i"]
    fams = [family(mod, "meixner_pollaczek", **{"lambda": 3, "s": 5, "i": j}) for j in (i, i + p)]
    assert fams[0].params == fams[1].params == {"lambda": 3, "s": 5, "i": i}
    assert fams[0].spec.g_ops == fams[1].spec.g_ops == (Mul(i),)
    rng = random.Random(n)
    a = [rng.randrange(p) for _ in range(n)]
    A, B = (to_monomial(a, fam, n, mod) for fam in fams)
    assert A == B
    assert from_monomial(A, fams[0], n, mod) == from_monomial(A, fams[1], n, mod) == a


def test_no_family_over_two():
    # no conversion runs over p = 2, where check_spec reads g'(0) and h'(0)
    # at precision 2: every family refuses it as family() builds it, by one
    # error, before its builder raises another or none
    mod = Modulus(2)
    for text in FAMILY_STRINGS:
        with pytest.raises(PrecisionExceedsModulus, match="p = 2"):
            parse_family(mod, text)


def _outcome(convert):
    try:
        return convert()
    except Exception as exc:   # compared by type with the oracle's
        return type(exc)


@pytest.mark.parametrize("n", [65, 96, 100, 101, 102])
def test_near_the_modulus_the_chain_converts_or_raises_as_the_oracle(n, mod101):
    # past MATRIX_MAX every conversion runs the chain; near and past p = 101
    # each family, both ways, gives the oracle's output or raises its error
    rng = random.Random(n)
    for text in FAMILY_STRINGS:
        fam = parse_family(mod101, text)
        a = [rng.randrange(101) for _ in range(n)]
        want = _outcome(lambda: naive_convert(a, fam, n, "to-monomial", mod101))
        assert _outcome(lambda: to_monomial(a, fam, n, mod101).coeffs) == want, text
        want = _outcome(lambda: naive_convert(a, fam, n, "from-monomial", mod101))
        assert _outcome(lambda: from_monomial(Poly(mod101, a, n), fam, n, mod101)) == want, text


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
    with pytest.raises(SpecViolation, match="repeated family parameter 'alpha'"):
        parse_family(mod, "laguerre(alpha=3, alpha = 4)")


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 101])
def test_catalog_ops_frozen(p):
    mod = Modulus(p)
    ops = {
        text: (format_sequence(fam.spec.g_ops), format_sequence(fam.spec.h_ops))
        for text, fam in zip(FAMILY_STRINGS, all_families(mod))
    }
    assert ops == FROZEN_OPS[p]


def test_readme_family_table_states_the_catalog(mod):
    # each g and h cell of README.md's family table is the sequence string
    # the catalog parses, a parameter written by its name; a blank cell is
    # the empty sequence, and a cell in words one built from parameters
    fams = {fam.name: fam for fam in all_families(mod)}
    lines = README.read_text(encoding="utf-8").split("\n## Families\n", 1)[1].splitlines()
    start = lines.index("| family | g | h | f | v | c_n |")
    rows = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        name, g, h = (cell.strip() for cell in line.split("|")[1:4])
        rows[name] = (g, h)
    assert sorted(rows) == family_names()
    for name, cells in rows.items():
        fam = fams[name]
        for cell, ops in zip(cells, (fam.spec.g_ops, fam.spec.h_ops)):
            if not cell:
                assert ops == (), name
            elif not cell.startswith("`"):
                assert name in PARAMETRIC_H and ops, name
            else:
                text = re.sub(r"\b[a-z]+\b", lambda m: str(fam.params[m.group()]), cell.strip("`"))
                assert parse_sequence(text, mod) == ops, (name, cell)


@pytest.mark.parametrize("n", [3, MATRIX_MAX, MATRIX_MAX + 1, 200])
def test_from_monomial_rejects_what_to_monomial_refuses(n, mod):
    # on the kept matrices (n <= MATRIX_MAX) and on the chain: a polynomial
    # of dimension past n, over another prime, or a list is refused, not
    # truncated or read over mod
    fam = parse_family(mod, "hermite")
    rng = random.Random(n)
    a = [rng.randrange(101) for _ in range(n)]
    with pytest.raises(DimensionMismatch):
        from_monomial(Poly(mod, a + [1, 2], n + 2), fam, n, mod)
    with pytest.raises(DomainViolation):
        from_monomial(Poly(Modulus(101), a, n), fam, n, mod)
    with pytest.raises(DomainViolation):
        from_monomial(a, fam, n, mod)
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


@pytest.mark.parametrize("n", [3, 80])
def test_a_family_built_over_another_prime_is_refused(n, mod, mod101):
    # a descriptor holds residues of the prime it was built over: converting
    # with it over another prime raises, naming both, in both directions and
    # on the kept matrices (n = 3) as on the chain (n = 80); over its own
    # prime it converts
    A = Poly(mod, [1, 2, 3], n)
    for name in ("hermite", "laguerre(alpha=3)", "bell", "jacobi(alpha=3,beta=5)", "fibonacci"):
        fam = parse_family(mod101, name)
        assert fam.p == 101 and parse_family(mod, name).p == mod.p
        for convert, x in ((to_monomial, [1, 2, 3]), (from_monomial, A)):
            with pytest.raises(DomainViolation, match=f"p = 101, conversion over p = {mod.p}"):
                convert(x, fam, n, mod)
        if n < 101:
            assert to_monomial([1, 2, 3], fam, n, mod101).dim == n


def _closed_forms(p, n):
    """{family string: {"f" | "v" | "c": coefficients mod p below t^n}} of the
    catalog's hypergeometric series, from binomials, factorials and powers
    written out here, with no generator of the library."""
    from fractions import Fraction
    from math import comb, factorial, prod

    def mod_p(xs):
        return [Fraction(x).numerator * pow(Fraction(x).denominator, -1, p) % p for x in xs]

    def rising(x, k):
        return prod(Fraction(x) + i for i in range(k))

    ks = range(n)
    exp_t = mod_p(Fraction(1, factorial(k)) for k in ks)
    # jacobi(alpha=3, beta=5), s = 9: (s/2)_k ((s+1)/2)_k = (s)_2k / 4^k
    jacobi = {
        "f": mod_p(rising(9, 2 * k) / (4**k * rising(6, k) * factorial(k)) for k in ks),
        "v": mod_p((-1) ** k * comb(k + 8, 8) for k in ks),
        "c": mod_p(rising(9, k) / rising(6, k) for k in ks),
    }
    out = {"jacobi(alpha=3,beta=5)": jacobi}
    for name in FAMILY_STRINGS:
        if name.split("(")[0] not in ("jacobi", "fibonacci", "spread"):
            out.setdefault(name, {})["f"] = exp_t
    for name in ("hermite", "euler(alpha=3)", "bernoulli(alpha=3)", "mott", "bessel", "falling",
                 "bell", "bernoulli2", "charlier(a=2)", "actuarial(beta=3)", "narumi(a=2)",
                 "peters(lambda=3,mu=2)", "mittag_leffler"):
        out[name]["c"] = exp_t
    out["laguerre(alpha=3)"]["v"] = mod_p(comb(k + 3, 3) for k in ks)
    out["charlier(a=2)"]["v"] = mod_p(Fraction((-1) ** k, factorial(k)) for k in ks)
    out["actuarial(beta=3)"]["v"] = mod_p(Fraction(3**k, factorial(k)) for k in ks)
    meixner = mod_p(comb(k + 4, 4) for k in ks)
    out["meixner(beta=5,c=7)"].update(v=meixner, c=meixner)
    krawtchouk = mod_p(comb(100, k) for k in ks)
    out["krawtchouk(p=1/3,N=100)"].update(v=krawtchouk, c=krawtchouk)
    # peters: v = (1 + (1 + t)^3)^-2, the inverse of a square of a cubic
    base = [2, 3, 3, 1] + [0] * n
    sq = [sum(base[i] * base[k - i] for i in range(k + 1)) for k in ks]
    inv = [Fraction(1, sq[0])]
    for k in range(1, n):
        inv.append(-sum(sq[i] * inv[k - i] for i in range(1, k + 1)) / sq[0])
    out["peters(lambda=3,mu=2)"]["v"] = mod_p(inv)
    return out


def test_hypergeometric_series_match_closed_forms(mod101):
    # the oracle reads the same generators, so it cannot catch a wrong one
    n, checked = 12, 0
    for name, series in _closed_forms(101, n).items():
        fam = parse_family(mod101, name)
        gens = {"f": fam.spec.f_coeffs, "v": fam.spec.v_coeffs, "c": fam.prefactor}
        for key, want in series.items():
            assert gens[key](n) == want, (name, key)
            checked += 1
    # f of 17 families, c_n = 1/n! of 13, jacobi's f, v and c_n, and the v
    # of laguerre, charlier, actuarial, meixner, krawtchouk and peters, and
    # c_n of meixner and krawtchouk
    assert checked == 17 + 13 + 3 + 6 + 2
