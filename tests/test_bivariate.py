import random

import pytest

from basisconv import (
    DEFAULT_PRIME,
    Add,
    BivariateSpec,
    Inv,
    Modulus,
    Mul,
    NotInvertible,
    Poly,
    Pow,
    SingularDiagonal,
    SpecViolation,
    check_spec,
    eval_bivariate,
    eval_bivariate_inv,
    eval_inv_transposed,
    eval_seq,
    eval_seq_inv,
    parse_sequence,
)
from basisconv import compseq, polyops
from basisconv.bivariate import _bivariate_inv
from basisconv.families import from_monomial, parse_family, to_monomial
from basisconv.oracle import bivariate_matrix, matrix_inverse, matvec


def _exp_f(mod):
    return lambda n: list(mod.inv_factorials(n))


def test_check_spec_violations(mod101):
    # both g and h unit at 0
    bad = BivariateSpec(f_coeffs=_exp_f(mod101), g_ops=(Add(1),), h_ops=(Add(1),))
    with pytest.raises(SpecViolation):
        check_spec(bad, 8, mod101)
    # u vanishing at 0
    bad2 = BivariateSpec(
        f_coeffs=_exp_f(mod101), g_ops=(), h_ops=(),
        u_coeffs=lambda n: [0] * n,
    )
    with pytest.raises(SpecViolation):
        check_spec(bad2, 8, mod101)
    # v vanishing at 0
    bad3 = BivariateSpec(
        f_coeffs=_exp_f(mod101), g_ops=(), h_ops=(),
        v_coeffs=lambda n: [0] * n,
    )
    with pytest.raises(SpecViolation):
        check_spec(bad3, 8, mod101)


def test_check_spec_keeps_one_entry(mod101):
    n = 8
    # g(0) h(0) != 0 and u(0) = 0: the first check reports, nothing is kept
    bad = BivariateSpec(
        f_coeffs=_exp_f(mod101), g_ops=(Add(1),), h_ops=(Add(1),),
        u_coeffs=lambda n: [0] * n,
    )
    with pytest.raises(SpecViolation, match=r"g\(0\) \* h\(0\)"):
        check_spec(bad, n, mod101)
    assert not [k for k in mod101._cache if len(k) > 1 and k[1] is bad]
    # a valid spec keeps its f, v, u series, the entry eval_bivariate reads
    spec = BivariateSpec(f_coeffs=_exp_f(mod101), g_ops=(Add(1),), h_ops=())
    check_spec(spec, n, mod101)
    assert [k for k in mod101._cache if len(k) > 1 and k[1] is spec] == [("fvu", spec, n)]


def test_trivial_n1(mod101):
    spec = BivariateSpec(
        f_coeffs=lambda n: [7] * n, g_ops=(), h_ops=(),
        u_coeffs=lambda n: [3] + [0] * (n - 1),
        v_coeffs=lambda n: [5] + [0] * (n - 1),
    )
    out = eval_bivariate([1], spec, 1, mod101)
    assert out.coeffs == [7 * 3 * 5 % 101]


def test_matrix_matches_oracle(mod):
    rng = random.Random(51)
    n = 8
    for name in ["laguerre(alpha=3)", "hermite", "mott", "bell"]:
        fam = parse_family(mod, name)
        M = bivariate_matrix(fam.spec, n, mod)
        for j in range(n):
            e = [0] * n
            e[j] = 1
            col = eval_bivariate(e, fam.spec, n, mod).coeffs
            assert col == [M[i][j] for i in range(n)], (name, j)
        # and on a random vector
        a = [rng.randrange(mod.p) for _ in range(n)]
        assert eval_bivariate(a, fam.spec, n, mod).coeffs == matvec(mod, M, a)


def test_triangularity(mod):
    # with h(0)=0 and deg(P_j)=j the matrix is lower triangular with
    # nonzero diagonal
    n = 10
    for name in ["hermite", "falling", "charlier(a=2)"]:
        fam = parse_family(mod, name)
        M = bivariate_matrix(fam.spec, n, mod)
        for j in range(n):
            assert M[j][j] != 0, name
            for i in range(j + 1, n):
                assert M[i][j] == 0, (name, i, j)


def test_eval_inv_transposed_identity_h(mod101):
    A = Poly(mod101, [4, 9, 2, 7], 4)
    assert eval_inv_transposed(A, (), 4).coeffs == A.coeffs


def test_eval_inv_transposed_matrix(mod101):
    # matrix equals the inverse transpose of the evaluation matrix at h
    n = 8
    h_ops = (Mul(100), Add(1), Inv(), Add(100))   # t/(1-t)
    F = []
    for j in range(n):
        e = [0] * n
        e[j] = 1
        F.append(eval_seq(Poly(mod101, e, n), h_ops, n).coeffs)
    M = [[F[j][i] for j in range(n)] for i in range(n)]   # column-major fix
    Minv = matrix_inverse(mod101, M)
    for j in range(n):
        e = [0] * n
        e[j] = 1
        got = eval_inv_transposed(Poly(mod101, e, n), h_ops, n).coeffs
        want = [Minv[j][i] for i in range(n)]   # row j of M^-1 = col j of M^-T
        assert got == want


def test_eval_inv_transposed_rejects_singular(mod101):
    # h = t^2 has h'(0) = 0
    with pytest.raises(NotInvertible):
        eval_inv_transposed(Poly(mod101, [1, 2], 2), (Pow(2),), 2)


def test_bivariate_round_trip(mod):
    rng = random.Random(52)
    n = 16
    for name in ["jacobi(alpha=3,beta=5)", "bernoulli2", "meixner(beta=5,c=7)"]:
        fam = parse_family(mod, name)
        a = [rng.randrange(mod.p) for _ in range(n)]
        A = eval_bivariate(a, fam.spec, n, mod)
        assert eval_bivariate_inv(A, fam.spec, n, mod) == a, name


def test_singular_diagonal(mod):
    fam = parse_family(mod, "spread")
    with pytest.raises(SingularDiagonal):
        eval_bivariate_inv(Poly(mod, [1, 2, 3], 3), fam.spec, 3, mod)


@pytest.mark.parametrize("text", ["E;A:1", "M:3;L;A:2;M:5", "A:1;Inv"])
def test_inverse_maps_where_the_reduction_shifts_cancel(mod, text):
    # where the reversed sequence has Add, Mul, Exp and Log alone, the
    # inverse and its transpose start after its leading Add(g(0)) instead of
    # shifting by g(0) and back; with an Inv they still shift
    n = 64
    ops = parse_sequence(text, mod)
    assert compseq._shifts_cancel(*compseq._inverse_reduction(ops, n, mod)) == ("Inv" not in text)
    rng = random.Random(17)
    A, B = (Poly(mod, [rng.randrange(mod.p) for _ in range(n)], n) for _ in range(2))
    assert eval_seq_inv(eval_seq(A, ops, n), ops, n) == A
    lhs = sum(a * b for a, b in zip(eval_seq_inv(A, ops, n).coeffs, B.coeffs))
    rhs = sum(a * b for a, b in zip(A.coeffs, eval_inv_transposed(B, ops, n).coeffs))
    assert lhs % mod.p == rhs % mod.p


@pytest.mark.parametrize("n", [64, 16384])
def test_jacobi_inverse_makes_one_forward_shift(n, monkeypatch):
    # jacobi's g = x + 1 reverses into (Add(1), Add(-1)): the inverse chain
    # makes the one shift by -1 on K[x]_n, not also the shift by 1 and back.
    # The chain is called directly: at n <= MATRIX_MAX from_monomial is one
    # product by a kept matrix
    mod = Modulus(DEFAULT_PRIME)
    fam = parse_family(mod, "jacobi(alpha=3,beta=5)")
    rng = random.Random(18)
    a = [rng.randrange(mod.p) for _ in range(n)]
    A = to_monomial(a, fam, n, mod)
    cs = fam.prefactor(n)
    shifts, kernel = [], polyops._shift_kernel

    def counted(P, shift, transposed):
        if not transposed and P.dim == n:
            shifts.append(shift)
        return kernel(P, shift, transposed)

    monkeypatch.setattr(polyops, "_shift_kernel", counted)
    b = _bivariate_inv(A, fam.spec, n, mod).coeffs
    assert [x * c % mod.p for x, c in zip(b, cs)] == a
    assert shifts == [mod.p - 1]
