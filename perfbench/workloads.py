"""The benchmark's workloads: which families, at which sizes, and why.

Pure data, shared by run.py, summarize.py and selfcheck.py.  Each workload
records the layer it is meant to stress and the layers it bypasses, so that a
later change to one layer has a workload that exercises it and one on which
the prediction is "no change".
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple      # family strings as parse_family accepts them
    sizes: tuple         # n values; every (family, n) pair runs once per pass
    tiny_sizes: tuple    # sizes for the self-check (--tiny)
    reparse: bool        # parse the family string again for every conversion
    why: str             # one line, copied into BENCHMARK.json
    stresses: str
    bypasses: str


# The 20 catalog families with the test suite's parameters, except
# krawtchouk: N=100 makes the prefactor c_101 vanish, so it cannot run above
# n = 101.  N=100000 keeps every prefactor nonzero at the sizes used here.
CATALOG = (
    "laguerre(alpha=3)",
    "hermite",
    "jacobi(alpha=3,beta=5)",
    "fibonacci",
    "euler(alpha=3)",
    "bernoulli(alpha=3)",
    "mott",
    "spread",
    "bessel",
    "falling",
    "bell",
    "bernoulli2",
    "charlier(a=2)",
    "actuarial(beta=3)",
    "narumi(a=2)",
    "peters(lambda=3,mu=2)",
    "meixner_pollaczek(lambda=3,s=5)",
    "meixner(beta=5,c=7)",
    "krawtchouk(p=1/3,N=100000)",
    "mittag_leffler",
)

# spread's diagonal has a zero entry, so it converts to the monomial basis only.
TO_ONLY = frozenset({"spread"})

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sheffer_large",
            families=("mittag_leffler", "bell", "falling", "charlier(a=2)"),
            sizes=(8192,),
            tiny_sizes=(128,),
            reparse=False,
            why=(
                "Exp/Log in h at n=8192 route every conversion through the grid "
                "subproduct trees; the evalgrid workload"
            ),
            stresses="evalgrid (subproduct trees, small kernel calls at the tree leaves)",
            bypasses="compseq Root/Inv operators and the large-transform buckets",
        ),
        Workload(
            name="algebraic_large",
            families=("jacobi(alpha=3,beta=5)", "fibonacci", "mott", "laguerre(alpha=3)", "bessel"),
            sizes=(16384,),
            tiny_sizes=(256,),
            reparse=False,
            why=(
                "no Exp/Log at n=16384, so evalgrid does no work; time goes to large "
                "transforms, Taylor shifts and the Root/Inv operators"
            ),
            stresses="modfield large transforms, polyops Taylor shifts, compseq Root/Inv",
            bypasses="evalgrid (zero calls predicted)",
        ),
        Workload(
            name="catalog_small",
            families=CATALOG,
            sizes=(64, 256),
            tiny_sizes=(16, 32),
            reparse=True,
            why=(
                "all 20 families at n in {64, 256}, re-parsed per conversion: per-call "
                "overhead, products near the transform threshold, cache writes"
            ),
            stresses="families parsing and per-call overhead, small kernel calls, memo writes",
            bypasses="the ge16k kernel bucket (no product reaches length 16384)",
        ),
    )
}


def family_name(text: str) -> str:
    """The bare family name of a family string."""
    return text.split("(", 1)[0].strip()
