"""The transform census: the float transform rows of warm conversions,
counted without a clock.

A conversion whose sequences hold no Exp or Log costs O(M(n)) (Bostan, Salvy
& Schost, ISSAC 2008): a fixed number of products whatever n, each one
forward and one inverse transform of a kept operand's size.  So the rows
of the float transforms, limb rows forward (modfield._transform) and class
rows inverse (modfield._limb_coeffs), counted by the transforms fixture,
are the same at every n, where a change of layout at some size shows as a
step.  A conversion whose h holds Exp or Log costs O(M(n) log n): its rows
double with n, as the levels of its grid trees do, and its transform volume
(rows times size) over n log2 n rises slowly.  Criterion 7 (test_acceptance)
checks the same shape by the clock.
"""

import random

from basisconv import DEFAULT_PRIME, Modulus
from basisconv.families import from_monomial, parse_family, to_monomial
from catalog_data import FAMILY_STRINGS

# (forward rows, inverse rows) of one warm conversion at DEFAULT_PRIME, the
# same for n = 2^11 ... 2^14, for each catalog family of cost class "M" both
# ways (spread converts to the monomial basis only): every product by a kept
# operand is scaled, two 16-bit limb rows forward and three 11-bit class rows
# back, at 2^16 and 2^17 too (jacobi's Taylor shifts at dimension 2n - 1
# reach 2^16 from n = 2^14 on).  jacobi's to_monomial makes six such
# products and bessel's from_monomial two.  A transposed lincomb by k kept
# operands transforms its input once: two rows forward and 3 k back.
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
    ("jacobi(alpha=3,beta=5)", "from"): (12, 21),
    ("fibonacci", "to"): (16, 27),
    ("fibonacci", "from"): (18, 36),
    ("mott", "to"): (18, 36),
    ("mott", "from"): (14, 24),
}
# the two conversions pinned at 2^15 as well
AT_2_15 = (("jacobi(alpha=3,beta=5)", "to"), ("bessel", "from"))

# (forward rows, inverse rows) of one warm conversion at DEFAULT_PRIME at
# n = 2^11, 2^12 and 2^13 for each catalog family of cost class "MlogM" both
# ways, krawtchouk with N = 100000 (as perfbench takes it: N = 100 makes
# c_101 vanish).  Each doubling of n adds a level to the grid trees of Exp
# and Log.
MLOGM_CENSUS = {
    ("falling", "to"): ((30, 24), (62, 48), (126, 96)),
    ("falling", "from"): ((18, 48), (34, 96), (66, 192)),
    ("bell", "to"): ((18, 48), (34, 96), (66, 192)),
    ("bell", "from"): ((30, 24), (62, 48), (126, 96)),
    ("bernoulli2", "to"): ((32, 27), (64, 51), (128, 99)),
    ("bernoulli2", "from"): ((20, 51), (36, 99), (68, 195)),
    ("charlier(a=2)", "to"): ((32, 27), (64, 51), (128, 99)),
    ("charlier(a=2)", "from"): ((20, 51), (36, 99), (68, 195)),
    ("actuarial(beta=3)", "to"): ((20, 51), (36, 99), (68, 195)),
    ("actuarial(beta=3)", "from"): ((32, 27), (64, 51), (128, 99)),
    ("narumi(a=2)", "to"): ((32, 27), (64, 51), (128, 99)),
    ("narumi(a=2)", "from"): ((20, 51), (36, 99), (68, 195)),
    ("peters(lambda=3,mu=2)", "to"): ((32, 27), (64, 51), (128, 99)),
    ("peters(lambda=3,mu=2)", "from"): ((18, 48), (34, 96), (66, 192)),
    ("meixner_pollaczek(lambda=3,s=5)", "to"): ((38, 36), (70, 60), (134, 108)),
    ("meixner_pollaczek(lambda=3,s=5)", "from"): ((24, 57), (40, 105), (72, 201)),
    ("meixner(beta=5,c=7)", "to"): ((38, 36), (70, 60), (134, 108)),
    ("meixner(beta=5,c=7)", "from"): ((24, 57), (40, 105), (72, 201)),
    ("krawtchouk(p=1/3,N=100000)", "to"): ((38, 36), (70, 60), (134, 108)),
    ("krawtchouk(p=1/3,N=100000)", "from"): ((26, 60), (42, 108), (74, 204)),
    ("mittag_leffler", "to"): ((36, 33), (68, 57), (132, 105)),
    ("mittag_leffler", "from"): ((24, 57), (40, 105), (72, 201)),
}
# the most by which rows x size / (n log2 n) may rise from n to 2n; it rose
# by 0.04 to 0.35 when the table was taken
VOLUME_STEP_MAX = 0.5


def test_transform_rows_are_the_same_at_every_n(transforms):
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
            got[name, direction, n] = _warm_rows(transforms, fam, a, A, n, mod, direction)[:2]
            want[name, direction, n] = CENSUS[name, direction]
    assert got == want


def _warm_rows(transforms, fam, a, A, n, mod, direction):
    """The counts of rows (Transforms.rows) of one warm conversion of a to
    the monomial basis, or of A = to_monomial(a) from it."""
    if direction == "from":
        from_monomial(A, fam, n, mod)
    transforms.clear()
    if direction == "to":
        to_monomial(a, fam, n, mod)
    else:
        from_monomial(A, fam, n, mod)
    return transforms.rows()


def test_transform_volume_of_exp_and_log_is_n_log_n(transforms):
    mod = Modulus(DEFAULT_PRIME)
    mlogm = {s.replace("N=100)", "N=100000)") for s in FAMILY_STRINGS
             if parse_family(mod, s).cost_class == "MlogM"}
    assert {name for name, _ in MLOGM_CENSUS} == mlogm
    got, volume = {}, {}
    for i, k in enumerate(range(11, 14)):
        n, mod = 1 << k, Modulus(DEFAULT_PRIME)
        rng = random.Random(k)
        a = [rng.randrange(mod.p) for _ in range(n)]
        for name, direction in MLOGM_CENSUS:
            fam = parse_family(mod, name)
            A = to_monomial(a, fam, n, mod)
            counts = _warm_rows(transforms, fam, a, A, n, mod, direction)
            got[(name, direction), i] = counts[:2]
            volume.setdefault((name, direction), []).append(counts[2] / (n * k))
    assert got == {(key, i): MLOGM_CENSUS[key][i] for key in MLOGM_CENSUS for i in range(3)}
    steps = {key: [b - a for a, b in zip(v, v[1:])] for key, v in volume.items()}
    assert all(step <= VOLUME_STEP_MAX for v in steps.values() for step in v), steps
