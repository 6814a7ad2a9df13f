"""The one-shot dense matrix assembly must match the entry-by-entry oracle."""

from dataclasses import replace

import pytest

from basisconv import CapacityExceeded, Modulus, eval_bivariate
from basisconv.densemat import conversion_matrix
from basisconv.families import parse_family
from basisconv.oracle import bivariate_matrix

NAMES = [
    "laguerre(alpha=3)",
    "hermite",
    "jacobi(alpha=3,beta=5)",
    "mott",
    "bell",
    "mittag_leffler",
    "spread",
]


# spread at 64 is the n of its kept matrices, which families builds by the
# same product: there the oracle is the one independent check
@pytest.mark.parametrize(
    "name, n",
    [pytest.param(name, 16, id=name) for name in NAMES]
    + [pytest.param("spread", 64, id="spread-64")],
)
def test_matches_oracle(mod, name, n):
    fam = parse_family(mod, name)
    assert conversion_matrix(fam.spec, n, mod) == bivariate_matrix(fam.spec, n, mod)


def test_u_multiplier_matches_oracle(mod):
    # all five factors: jacobi's f, g, h and v, and u = 1 + x
    spec = replace(parse_family(mod, "jacobi(alpha=3,beta=5)").spec,
                   u_coeffs=lambda n: [1, 1] + [0] * (n - 2))
    assert conversion_matrix(spec, 16, mod) == bivariate_matrix(spec, 16, mod)


@pytest.mark.parametrize("name", ["jacobi(alpha=3,beta=5)", "spread"])
def test_columns_are_the_chain_on_unit_vectors(mod, name):
    # at n = 200 the power stacks' last doubling step multiplies 71 rows, two
    # blocks of compseq.BLOCK_ROWS, and the factor products end in a ragged
    # block of 8 rows
    fam, n = parse_family(mod, name), 200
    columns = list(zip(*conversion_matrix(fam.spec, n, mod)))
    for j in range(n):
        e = [0] * n
        e[j] = 1
        assert list(columns[j]) == eval_bivariate(e, fam.spec, n, mod).coeffs, j


def test_small_prime(mod101):
    fam = parse_family(mod101, "hermite")
    n = 12
    assert conversion_matrix(fam.spec, n, mod101) == bivariate_matrix(
        fam.spec, n, mod101
    )


@pytest.mark.parametrize("p", [1099489607681, 3317044064679887385961813])
def test_primes_past_2_31_are_refused(p):
    # residues of p >= 2^31 live in Python ints, where an exact dense product
    # takes many limbs; the matrix is refused, not built wrong
    mod = Modulus(p)
    fam = parse_family(mod, "jacobi(alpha=3,beta=5)")
    with pytest.raises(CapacityExceeded):
        conversion_matrix(fam.spec, 8, mod)


@pytest.mark.parametrize("name", ["jacobi(alpha=3,beta=5)", "bell", "laguerre(alpha=3)", "spread"])
def test_matches_oracle_near_2_31(name):
    # the largest prime below 2^31: limb products that fit no smaller prime
    mod = Modulus(2147483647)
    fam = parse_family(mod, name)
    assert conversion_matrix(fam.spec, 40, mod) == bivariate_matrix(fam.spec, 40, mod)
