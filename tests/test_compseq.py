import random

import pytest

from basisconv import (
    Add,
    AmbiguousValuation,
    DomainViolation,
    Exp,
    Inv,
    InvalidOperatorParam,
    Log,
    Modulus,
    Mul,
    NotInvertible,
    NotTangentToIdentity,
    Poly,
    Pow,
    Root,
    compute_g,
    cost_class_of,
    eval_inv_transposed,
    eval_seq,
    eval_seq_inv,
    eval_seq_t,
    format_sequence,
    mul_trunc,
    parse_sequence,
    precision_schedule,
    reverse_sequence,
    series_inv,
    validate,
)
from basisconv import compseq
from basisconv.families import parse_family
from basisconv.modfield import DEFAULT_PRIME
from basisconv.oracle import horner_compose
from catalog_data import catalog_sequences


def _rand_poly(mod, n, rng):
    return Poly(mod, [rng.randrange(mod.p) for _ in range(n)], n)


def test_parse_format_round_trip(mod101):
    text = "A:1;Inv;M:-2;A:-2;L;P:3;R:2,1/2,1;E"
    ops = parse_sequence(text, mod101)
    assert ops == (
        Add(1), Inv(), Mul(99), Add(99), Log(), Pow(3),
        Root(2, mod101.inv(2), 1), Exp(),
    )
    assert parse_sequence(format_sequence(ops), mod101) == ops
    with pytest.raises(ValueError):
        parse_sequence("Q:3", mod101)
    with pytest.raises(InvalidOperatorParam):
        parse_sequence("M:0", mod101)
    with pytest.raises(InvalidOperatorParam):
        parse_sequence("R:2,0,1", mod101)
    # each token takes exactly its fields: none for Inv, E and L
    for text, head in [
        ("Inv:3;E:junk;L:1", "Inv"), ("E:x", "E"), ("L:", "L"), ("R:2,1", "R"),
        ("R:2,1,0,4", "R"), ("A:1,2", "A"), ("M", "M"), ("P:2,3", "P"),
    ]:
        with pytest.raises(ValueError, match=f"sequence token {head} takes"):
            parse_sequence(text, mod101)


def test_catalog_sequences_read_back(mod):
    for ops in catalog_sequences(mod):
        assert parse_sequence(format_sequence(ops), mod) == ops


def test_operator_param_guards():
    with pytest.raises(InvalidOperatorParam):
        Pow(0)
    with pytest.raises(InvalidOperatorParam):
        Root(2, 1, -1)


def test_precision_schedule_roots():
    ops = (Pow(2), Root(3, 1, 2), Mul(5), Root(2, 1, 1))
    # n_L = 8; crossing R(2,.,1) adds 1; crossing R(3,.,2) adds 4
    assert precision_schedule(ops, 8) == [13, 13, 9, 9, 8]


def test_compute_g_frozen(mod101):
    # (A:1, Inv): 1/(1+x) = 1 - x + x^2 - ...
    truncs = compute_g((Add(1), Inv()), 6, mod101)
    assert truncs.g[-1].coeffs == [1, 100, 1, 100, 1, 100]
    # the Moebius-style sequence for 2x/(1+x)^2
    seq = parse_sequence("A:1;Inv;M:-2;A:1;P:2;M:-1;A:1;M:1/2", mod101)
    g = compute_g(seq, 8, mod101).g[-1]
    direct = mul_trunc(
        Poly(mod101, [0, 2], 8),
        series_inv(Poly(mod101, [1, 2, 1], 8), 8),
        8,
    )
    assert g.coeffs == direct.coeffs


def test_validate_and_cost_class(mod101):
    seq = validate((Add(1), Inv()), 8, mod101)
    assert seq.cost_class == "M"
    assert cost_class_of((Add(1), Log())) == "MlogM"
    with pytest.raises(DomainViolation):
        validate((Inv(),), 4, mod101)   # 1/x is not a power series


def test_domain_checks(mod101):
    # Exp of a unit fails, Log of a unit fails
    with pytest.raises(DomainViolation):
        compute_g((Add(1), Exp()), 4, mod101)
    with pytest.raises(DomainViolation):
        compute_g((Add(1), Log()), 4, mod101)
    # zero truncation under a root: valuation cannot be certified
    with pytest.raises(AmbiguousValuation):
        compute_g((Pow(4), Root(2, 1, 2)), 2, mod101)


def test_eval_matches_horner_all_catalog(mod):
    rng = random.Random(41)
    for ops in catalog_sequences(mod):
        for n in (8, 17):
            truncs = compute_g(ops, n, mod)
            g = truncs.g[-1]
            A = _rand_poly(mod, n, rng)
            fast = eval_seq(A, ops, n)
            slow = horner_compose(A, g, n)
            assert fast.coeffs == slow.coeffs, ops


def test_eval_term_by_term_cross_check(mod101):
    # third method: sum a_i g^i by explicit powering
    rng = random.Random(42)
    ops = parse_sequence("P:2;M:-1;A:1;R:2,1,0;M:-1;A:1", mod101)
    n = 12
    g = compute_g(ops, n, mod101).g[-1]
    A = _rand_poly(mod101, n, rng)
    power = Poly(mod101, [1], n)
    acc = [0] * n
    for c in A.coeffs:
        for i in range(n):
            acc[i] = (acc[i] + c * power.coeffs[i]) % 101
        power = mul_trunc(power, g, n)
    assert eval_seq(A, ops, n).coeffs == acc


def test_eval_diagonal_example(mod101):
    # seq = (M:2) has matrix diag(1, 2, 4, ...)
    A = Poly(mod101, [1, 1, 1], 3)
    assert eval_seq(A, (Mul(2),), 3).coeffs == [1, 2, 4]
    assert eval_seq_t(A, (Mul(2),), 3).coeffs == [1, 2, 4]


def test_eval_t_bilinear_and_matrix(mod):
    rng = random.Random(43)
    n = 8
    for ops in catalog_sequences(mod):
        A = _rand_poly(mod, n, rng)
        B = _rand_poly(mod, n, rng)
        lhs = sum(a * b for a, b in zip(eval_seq(A, ops, n).coeffs, B.coeffs)) % mod.p
        rhs = sum(a * b for a, b in zip(A.coeffs, eval_seq_t(B, ops, n).coeffs)) % mod.p
        assert lhs == rhs, ops
    # dense matrix transpose for one Moebius sequence
    ops = parse_sequence("M:-1;A:1;Inv;A:-1", mod)
    F, T = [], []
    for j in range(n):
        e = [0] * n
        e[j] = 1
        F.append(eval_seq(Poly(mod, e, n), ops, n).coeffs)
        T.append(eval_seq_t(Poly(mod, e, n), ops, n).coeffs)
    for i in range(n):
        for j in range(n):
            assert T[i][j] == F[j][i]


def test_eval_of_an_undefined_sequence_raises(mod101):
    # log(1 + g) and exp(g) - 1 need g(0) = 0; no Inv or Root makes the
    # evaluation read a truncation, so the sequence is checked up front, on
    # every call: a check that raises keeps nothing
    A = Poly(mod101, [1, 2, 3, 4], 4)
    for ops in ((Add(1), Log()), (Add(1), Exp())):
        for fn in (eval_seq, eval_seq_t, eval_seq_inv) * 2:
            with pytest.raises(DomainViolation, match="step 2:"):
                fn(A, ops, 4)


def test_the_evaluation_runs_the_kept_program_alone(monkeypatch):
    # the evaluation, forward and transposed, reads the unit and root powers
    # in the program _prepare kept; it builds no operand and no truncation
    # afresh, and a sequence with no program kept raises where it would
    mod = Modulus(101)
    A = Poly(mod, [1, 2, 3, 4], 4)
    seqs = ((Add(1), Inv()), (Pow(2), Root(2, 1, 1)))
    want = [(eval_seq(A, ops, 4), eval_seq_t(A, ops, 4)) for ops in seqs]

    def refused(*args):
        raise KeyError("not kept")

    for name in ("compute_g", "unit_pow", "_fixed_operand"):
        monkeypatch.setattr(compseq, name, refused)
    assert [(eval_seq(A, ops, 4), eval_seq_t(A, ops, 4)) for ops in seqs] == want
    for ops in seqs:
        for fn in (eval_seq, eval_seq_t):
            with pytest.raises(KeyError):
                fn(A, ops, 5)


def test_a_cold_prepare_builds_each_unit_power_once(monkeypatch):
    # a Root whose parts have equal dimensions reaches the steps below it
    # twice on one (ell, m); the Inv there multiplies by one unit power
    # built once.  fibonacci's and mott's h have one Inv each, so its
    # dimensions m tell its pairs (ell, m) apart.  Its product folds into
    # the Root's lincomb: each product of two series is made once, and each
    # series the program multiplies by is kept once
    calls, unit_pow = [], compseq.unit_pow
    monkeypatch.setattr(compseq, "unit_pow", lambda g, e, n: calls.append(e) or unit_pow(g, e, n))
    made, mul = [], compseq.mul_trunc
    monkeypatch.setattr(compseq, "mul_trunc", lambda *a: made.append(mul(*a)) or made[-1])
    kept, fixed = [], compseq._fixed_operand
    monkeypatch.setattr(compseq, "_fixed_operand", lambda *a: kept.append(fixed(*a)) or kept[-1])
    for name in ("fibonacci", "mott"):
        mod, n = Modulus(DEFAULT_PRIME), 256
        calls.clear(), made.clear(), kept.clear()
        steps, dims = compseq._prepare(parse_family(mod, name).spec.h_ops, n, mod)
        # the Inv reverses K[x]_m, then multiplies by its unit power
        dims_in = [dims[src] for (f, src, _, _), _ in steps if f is compseq.reverse]
        assert sorted(calls) == sorted({1 - m for m in dims_in}), name
        assert len(calls) < len(dims_in), name
        assert len({P.arr.tobytes() for P in made}) == len(made), name
        operands = [G for (f, _, _, args), _ in steps if f is compseq.lincomb for G in args[0]]
        assert len({id(G) for G in operands}) == len(kept) == len(operands), name
        assert not any(f is compseq.mul_trunc for (f, _, _, _), _ in steps), name


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 101])
@pytest.mark.parametrize(
    "text, shifts", [("A:3;A:-3;M:2", []), ("A:0;L", []), ("A:5;A:7;Inv", [12])]
)
def test_adjacent_and_zero_shifts_fold(p, text, shifts):
    # adjacent Taylor shifts compile into one shift by their sum, and one by
    # 0 mod p into none; the four maps are those of the sequence as written
    mod, n = Modulus(p), 48
    ops = parse_sequence(text, mod)
    steps, _ = compseq._prepare(ops, n, mod)
    assert [args[0] for (f, _, _, args), _ in steps if f is compseq.taylor_shift] == shifts
    rng = random.Random(p)
    A, B = _rand_poly(mod, n, rng), _rand_poly(mod, n, rng)

    def dot(X, Y):
        return sum(x * y for x, y in zip(X.coeffs, Y.coeffs)) % p

    image = eval_seq(A, ops, n)
    assert image == horner_compose(A, compute_g(ops, n, mod).g[-1], n)
    assert eval_seq_inv(image, ops, n) == A
    assert dot(image, B) == dot(A, eval_seq_t(B, ops, n))
    assert dot(eval_seq_inv(A, ops, n), B) == dot(A, eval_inv_transposed(B, ops, n))


def test_reverse_sequence_jacobi(mod101):
    seq = parse_sequence("A:1;Inv;M:-2;A:1;P:2;M:-1;A:1;M:1/2", mod101)
    n = 16
    truncs = compute_g(seq, n, mod101)
    rev = reverse_sequence(seq, truncs, mod101)
    g = truncs.g[-1]
    gt = compute_g(rev, n, mod101).g[-1]
    # g_tilde(g) = x mod x^16
    comp = horner_compose(Poly(mod101, gt.coeffs, n), g, n)
    assert comp.coeffs == Poly.x(mod101, n).coeffs


def test_reverse_sequence_requires_valuation_one(mod101):
    for ops in [(Add(1),), (Pow(2),)]:
        truncs = compute_g(ops, 4, mod101)
        with pytest.raises(NotTangentToIdentity):
            reverse_sequence(ops, truncs, mod101)


def test_reverse_sequence_mott(mod101):
    # non-tangent output with a Pow over a valuation-1 intermediate: the
    # reversed root's leading coefficient picks up a g'(0)^-val factor
    seq = parse_sequence(
        "P:2;M:-1;A:1;R:2,1,0;A:1;Inv;M:2;A:-1;R:2,1/2,1", mod101
    )
    n = 16
    truncs = compute_g(seq, n, mod101)
    rev = reverse_sequence(seq, truncs, mod101)
    g = truncs.g[-1]
    gt = compute_g(rev, n, mod101).g[-1]
    comp = horner_compose(Poly(mod101, gt.coeffs, n), g, n)
    assert comp.coeffs == Poly.x(mod101, n).coeffs


def test_eval_inv_round_trip(mod):
    rng = random.Random(44)
    n = 24
    for ops in catalog_sequences(mod):
        A = _rand_poly(mod, n, rng)
        B = eval_seq(A, ops, n)
        assert eval_seq_inv(B, ops, n).coeffs == A.coeffs, ops


def test_eval_inv_general_case(mod101):
    # output 1/(1+x) is a unit series: exercises the shift/scale reduction
    ops = (Add(1), Inv())
    rng = random.Random(45)
    A = _rand_poly(mod101, 20, rng)
    B = eval_seq(A, ops, 20)
    assert eval_seq_inv(B, ops, 20).coeffs == A.coeffs


def test_eval_inv_rejects_singular(mod101):
    with pytest.raises(NotInvertible):
        eval_seq_inv(Poly(mod101, [1, 2, 3], 3), (Pow(2),), 3)


def test_frozen_compose_example(mod101):
    # (A:1, Inv) applied to 1+x+x^2 gives 3 - 3x + 4x^2
    A = Poly(mod101, [1, 1, 1], 3)
    assert eval_seq(A, (Add(1), Inv()), 3).coeffs == [3, 98, 4]


def _maps_agree(mod, ops, n, rng):
    """eval_seq against oracle.horner_compose, the inverse round trip and
    both transposition identities."""
    A, B = _rand_poly(mod, n, rng), _rand_poly(mod, n, rng)

    def dot(X, Y):
        return sum(x * y for x, y in zip(X.coeffs, Y.coeffs)) % mod.p

    image = eval_seq(A, ops, n)
    assert image == horner_compose(A, compute_g(ops, n, mod).g[-1], n)
    assert eval_seq_inv(image, ops, n) == A
    assert dot(image, B) == dot(A, eval_seq_t(B, ops, n))
    assert dot(eval_seq_inv(A, ops, n), B) == dot(A, eval_inv_transposed(B, ops, n))


def _products(steps):
    """The product steps of a program: (f, rows read, operands)."""
    out = []
    for (f, src, _, args), _ in steps:
        if f is compseq.mul_trunc:
            out.append((f, (src,), (args[0],)))
        elif f is compseq.lincomb:
            out.append((f, src, args[0]))
    return out


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 101])
@pytest.mark.parametrize(
    "text, terms",
    [
        ("A:1;Inv;R:2,1,0", [2]),
        ("P:2;M:-1;A:1;R:2,1,0;A:1;Inv;M:2;A:-1;R:2,1/2,1", [4]),    # mott's h
        # Inv, Root, Inv, Root; the Mul and Add steps set each Root's lead to 1
        ("A:1;Inv;M:-1;A:2;R:2,1,0;A:1;Inv;M:2;R:2,1,0", [4]),
    ],
)
def test_products_of_products_fold(p, text, terms):
    # a product of the row a product made compiles into one lincomb of that
    # product's rows; nested Roots flatten into one lincomb of their parts
    mod, n = Modulus(p), 48
    ops = parse_sequence(text, mod)
    steps, _ = compseq._prepare(ops, n, mod)
    assert [len(rows) for _, rows, _ in _products(steps)] == terms
    _maps_agree(mod, ops, n, random.Random(p))


@pytest.mark.parametrize("n", [256, 4096])
def test_no_product_reads_a_products_row(n):
    # every forward and inverse program of the catalog, at precisions whose
    # products transform
    mod = Modulus(DEFAULT_PRIME)
    for ops in catalog_sequences(mod):
        programs = [ops]
        try:
            g0, rev = compseq._inverse_reduction(ops, n, mod)
            programs.append((rev, -g0 % mod.p))
        except NotInvertible:
            pass
        for key in programs:
            seq, shift = key if isinstance(key[-1], int) else (key, 0)
            steps, _ = compseq._prepare(seq, n, mod, shift)
            made = {dst for (f, _, dst, _), _ in steps
                    if f is compseq.mul_trunc or f is compseq.lincomb}
            for _, rows, _ in _products(steps):
                assert not made & set(rows), format_sequence(seq)
