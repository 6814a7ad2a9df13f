"""Every public entry point reads its inputs by one rule (modfield).

A row is a sequence or a 1-D array of integers, Python ints or numpy
integers, never bools; a polynomial argument is a Poly, over the prime of
the call where the call has one; n is an integer >= 1, numpy integers
included.  Each bad input raises the same AlgebraError subclass whichever
entry point reads it, and each good form of an input gives the output of
the plain list of Python ints.
"""

import operator

import numpy as np
import pytest

from basisconv import (
    DEFAULT_PRIME,
    DimensionMismatch,
    DomainViolation,
    Modulus,
    Poly,
    eval_bivariate,
    eval_bivariate_inv,
    eval_inv_transposed,
    eval_seq,
    eval_seq_inv,
    eval_seq_t,
    from_monomial,
    interp_grid,
    mul_trunc,
    mul_trunc_t,
    multieval_grid_t,
    parse_family,
    parse_sequence,
    poly_mul,
    to_monomial,
)

P40 = 1099489607681
N = 3


def entry_points(mod):
    """name -> (what it reads, call(x, n)): "row" where x is a row of
    integers, "poly" where x is a Poly that may be over any prime, "poly
    over mod" where x must be a Poly over the prime of mod; n is None for an
    entry point that takes none."""
    fam = parse_family(mod, "laguerre(alpha=3)")
    spec, ops, G = fam.spec, parse_sequence("A:1;Inv", mod), Poly(mod, [2, 1, 5])
    return {
        "Poly": ("row", lambda x, n: Poly(mod, x, n)),
        "to_monomial": ("row", lambda x, n: to_monomial(x, fam, n, mod)),
        "eval_bivariate": ("row", lambda x, n: eval_bivariate(x, spec, n, mod)),
        "interp_grid": ("row", lambda x, n: interp_grid(mod, x)),
        "multieval_grid_t": ("row", lambda x, n: multieval_grid_t(mod, x)),
        "from_monomial": ("poly over mod", lambda x, n: from_monomial(x, fam, n, mod)),
        "eval_bivariate_inv": ("poly over mod", lambda x, n: eval_bivariate_inv(x, spec, n, mod)),
        "eval_seq": ("poly", lambda x, n: eval_seq(x, ops, n)),
        "eval_seq_t": ("poly", lambda x, n: eval_seq_t(x, ops, n)),
        "eval_seq_inv": ("poly", lambda x, n: eval_seq_inv(x, ops, n)),
        "eval_inv_transposed": ("poly", lambda x, n: eval_inv_transposed(x, ops, n)),
        "mul_trunc(x, G)": ("poly over mod", lambda x, n: mul_trunc(x, G, n)),
        "mul_trunc(G, x)": ("poly over mod", lambda x, n: mul_trunc(G, x, n)),
        "mul_trunc_t(x, G)": ("poly over mod", lambda x, n: mul_trunc_t(x, G, n)),
        "mul_trunc_t(G, x)": ("poly over mod", lambda x, n: mul_trunc_t(G, x, n)),
        "poly_mul(x, G)": ("poly over mod", lambda x, n: poly_mul(x, G)),
        "poly_mul(G, x)": ("poly over mod", lambda x, n: poly_mul(G, x)),
    }


NO_N = {"interp_grid", "multieval_grid_t", "poly_mul(x, G)", "poly_mul(G, x)"}


def bad_inputs(mod):
    """(what the input stands for, input, the error it raises)."""
    return {
        "row": [
            ("float", [1.5, 2, 3], DomainViolation),
            ("whole float", [1, 2.0, 3], DomainViolation),
            ("str", [1, 2, "3"], DomainViolation),
            ("bool", [True, False, True], DomainViolation),
            ("bool among ints", [1, True, 3], DomainViolation),
            ("numpy bool array", np.array([True, False, True]), DomainViolation),
            ("numpy float array", np.array([1.0, 2.0, 3.0]), DomainViolation),
            ("Poly where a row is taken", Poly(mod, [1, 2, 3]), DomainViolation),
        ],
        "poly": [
            ("list where a Poly is taken", [1, 2, 3], DomainViolation),
        ],
        "poly over mod": [
            ("list where a Poly is taken", [1, 2, 3], DomainViolation),
            ("Poly over another prime", Poly(Modulus(101), [1, 2, 3]), DomainViolation),
        ],
    }


BAD_N = [2.0, True, 0]


@pytest.mark.parametrize("p", [DEFAULT_PRIME, P40])
def test_every_entry_point_reads_inputs_by_one_rule(p):
    mod = Modulus(p)
    good = {"row": [1, 2, 3], "poly": Poly(mod, [1, 2, 3])}
    raised = []
    for name, (reads, call) in entry_points(mod).items():
        for what, x, error in bad_inputs(mod)[reads]:
            with pytest.raises(error):
                call(x, N)
            raised.append((name, what))
        if name in NO_N:
            continue
        x = good["row" if reads == "row" else "poly"]
        for n in BAD_N:
            with pytest.raises(DimensionMismatch):
                call(x, n)
            raised.append((name, n))
    # 5 row readers x 8, 12 Poly readers x 1 and 8 of them over mod x 1,
    # 13 readers of n x 3
    assert len(raised) == 5 * 8 + 12 + 8 + 13 * 3


def good_rows(p):
    """Rows that reduce mod p to those of the plain list of their Python
    ints, and, strict, rows of residues in [0, p) (to_monomial's)."""
    rows = [
        [3, p + 1, -1],
        np.array([3, p + 1, -1], dtype=np.int64),
        np.array([(1 << 64) - 1, 7, p], dtype=np.uint64),
        [1 << 63, (1 << 70) + 1, -(1 << 64)],
        [np.int64(-5), np.uint8(200), 4],
    ]
    strict = [
        [p - 1, 0, 2],
        np.array([p - 1, 0, 2], dtype=np.int64),
        np.array([p - 1, 0, 2], dtype=np.uint64),
    ]
    if p >= 1 << 31:
        rows.append(np.array([3, p + 4, 1 << 70], dtype=object))
        strict.append(np.array([p - 1, 0, 2], dtype=object))
    return rows, strict


@pytest.mark.parametrize("p", [DEFAULT_PRIME, P40])
def test_good_inputs_give_the_outputs_of_plain_lists(p):
    mod = Modulus(p)
    rows, strict = good_rows(p)
    for name, (reads, call) in entry_points(mod).items():
        if reads == "row":
            for row in strict if name == "to_monomial" else rows:
                plain = [operator.index(v) % p for v in row]
                assert call(row, N) == call(plain, N), (name, row)
            x = strict[0]
        else:
            x = Poly(mod, [1, 2, 3])
        if name not in NO_N:
            # n as a numpy integer, and the output of that n as a Python int
            assert call(x, np.int64(N)) == call(x, N), name
            assert call(x, np.uint16(N)) == call(x, N), name
