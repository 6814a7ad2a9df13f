"""The transform census: the float transform rows of warm conversions,
counted without a clock.

A conversion whose sequences hold no Exp or Log costs O(M(n)) (Bostan, Salvy
& Schost, ISSAC 2008): a fixed number of products whatever n, each one
forward and one inverse transform of a kept operand's size.  So the rows
that modfield._transform takes, limb rows forward and class rows inverse,
are the same at every n, where a change of layout at some size shows as a
step.  Criterion 7 (test_acceptance) checks the same shape by the clock.
"""

import random

import pytest

from basisconv import DEFAULT_PRIME, Modulus, modfield
from basisconv.families import from_monomial, parse_family, to_monomial
from catalog_data import FAMILY_STRINGS

# (forward rows, inverse rows) of one warm conversion at DEFAULT_PRIME, the
# same for n = 2^11 ... 2^14, for each catalog family of cost class "M" both
# ways (spread converts to the monomial basis only): every product by a kept
# operand is scaled, two 16-bit limb rows forward and three 11-bit class rows
# back, at 2^16 and 2^17 too (jacobi's Taylor shifts at dimension 2n - 1
# reach 2^16 from n = 2^14 on).  jacobi's to_monomial makes six such
# products and bessel's from_monomial two.
CENSUS = {
    ("hermite", "to"): (2, 3),
    ("hermite", "from"): (2, 3),
    ("euler(alpha=3)", "to"): (2, 3),
    ("euler(alpha=3)", "from"): (2, 3),
    ("bernoulli(alpha=3)", "to"): (2, 3),
    ("bernoulli(alpha=3)", "from"): (2, 3),
    ("laguerre(alpha=3)", "to"): (8, 12),
    ("laguerre(alpha=3)", "from"): (6, 9),
    ("bessel", "to"): (8, 12),
    ("bessel", "from"): (4, 6),
    ("spread", "to"): (10, 15),
    ("jacobi(alpha=3,beta=5)", "to"): (12, 18),
    ("jacobi(alpha=3,beta=5)", "from"): (14, 21),
    ("fibonacci", "to"): (20, 30),
    ("fibonacci", "from"): (26, 39),
    ("mott", "to"): (26, 39),
    ("mott", "from"): (18, 27),
}
# the two conversions pinned at 2^15 as well
AT_2_15 = (("jacobi(alpha=3,beta=5)", "to"), ("bessel", "from"))


@pytest.fixture
def rows(monkeypatch):
    """[forward, inverse] rows of modfield._transform from now on."""
    counted, transform = [0, 0], modfield._transform

    def counting(mod, X, size, out_len=None, slot=None):
        # limbs (rows, L, size) forward; class spectra (rows, K, f) or, by a
        # scaled image, (rows, L_x, K, f) back
        counted[out_len is not None] += X.shape[0] * X.shape[-2]
        return transform(mod, X, size, out_len, slot)

    monkeypatch.setattr(modfield, "_transform", counting)
    return counted


def test_transform_rows_are_the_same_at_every_n(rows):
    mod = Modulus(DEFAULT_PRIME)
    m_class = {s for s in FAMILY_STRINGS if parse_family(mod, s).cost_class == "M"}
    assert {name for name, _ in CENSUS} == m_class
    got, want = {}, {}
    for k in range(11, 16):
        n, mod = 1 << k, Modulus(DEFAULT_PRIME)
        rng = random.Random(k)
        a = [rng.randrange(mod.p) for _ in range(n)]
        for name, direction in CENSUS if k < 15 else AT_2_15:
            fam = parse_family(mod, name)
            A = to_monomial(a, fam, n, mod)
            if direction == "from":
                from_monomial(A, fam, n, mod)
            rows[:] = [0, 0]
            if direction == "to":
                to_monomial(a, fam, n, mod)
            else:
                from_monomial(A, fam, n, mod)
            got[name, direction, n] = tuple(rows)
            want[name, direction, n] = CENSUS[name, direction]
    assert got == want
