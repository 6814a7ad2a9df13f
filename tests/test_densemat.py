"""The one-shot dense matrix assembly must match the entry-by-entry oracle."""

import pytest

from basisconv import CapacityExceeded, Modulus
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


@pytest.mark.parametrize("name", NAMES)
def test_matches_oracle(mod, name):
    fam = parse_family(mod, name)
    n = 16
    assert conversion_matrix(fam.spec, n, mod) == bivariate_matrix(fam.spec, n, mod)


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
