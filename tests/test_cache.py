"""The per-modulus cache of input-independent data (Modulus.cached)."""

import random
import sys
import threading
from collections import Counter

from basisconv import DEFAULT_PRIME, Add, BivariateSpec, Exp, Inv, Log, Modulus, Mul, Poly
from basisconv import bivariate, compseq, evalgrid, families, seriesops
from basisconv.families import FamilyDescriptor, from_monomial, parse_family, to_monomial

NAMES = ["hermite", "jacobi(alpha=3,beta=5)", "bell", "charlier(a=2)", "laguerre(alpha=1/2)"]


def _random_vector(rng, mod, n):
    return [rng.randrange(mod.p) for _ in range(n)]


def test_cache_stays_flat_under_reparsing():
    mod = Modulus(DEFAULT_PRIME)
    rng = random.Random(7)
    n = 32
    for name in NAMES:
        fam = parse_family(mod, name)
        from_monomial(to_monomial(_random_vector(rng, mod, n), fam, n, mod), fam, n, mod)
    size = len(mod._cache)
    for i in range(100):
        name = NAMES[i % len(NAMES)]
        A = to_monomial(_random_vector(rng, mod, n), parse_family(mod, name), n, mod)
        from_monomial(A, parse_family(mod, name), n, mod)
    assert len(mod._cache) == size


def _counted(calls, name, fn):
    def gen(n):
        calls[name] += 1
        return fn(n)

    return gen


def test_warm_from_monomial_recomputes_nothing(monkeypatch):
    mod = Modulus(DEFAULT_PRIME)
    p = mod.p
    calls = Counter()
    inv = seriesops.series_inv

    def series_inv(g, n):
        calls["series_inv"] += 1
        return inv(g, n)

    for module in (bivariate, compseq, evalgrid, families, seriesops):
        monkeypatch.setattr(module, "series_inv", series_inv, raising=False)
    # Inv and Root operators in h, Log and Exp through the grid trees, u and v
    cases = [
        ((Add(1), Inv(), Add(p - 1)), families._fibonacci_h_ops(mod)),
        ((), (Log(),)),
        ((Mul(2),), (Exp(),)),
    ]
    n = 64
    rng = random.Random(8)
    for k, (g_ops, h_ops) in enumerate(cases):
        spec = BivariateSpec(
            f_coeffs=_counted(calls, "f", lambda n: list(mod.inv_factorials(n))),
            g_ops=g_ops,
            h_ops=h_ops,
            u_coeffs=_counted(calls, "u", lambda n: [1, 3] + [0] * (n - 2)),
            v_coeffs=_counted(calls, "v", lambda n: [2] + [1] * (n - 1)),
        )
        fam = FamilyDescriptor(
            f"counted{k}", {}, spec, _counted(calls, "prefactor", lambda n: [1] * n)
        )
        a = _random_vector(rng, mod, n)
        A = to_monomial(a, fam, n, mod)
        assert from_monomial(A, fam, n, mod) == a
        assert calls["series_inv"] > 0
        calls.clear()
        for _ in range(2):
            a = _random_vector(rng, mod, n)
            A = Poly(mod, to_monomial(a, fam, n, mod).coeffs, n)
            assert from_monomial(A, fam, n, mod) == a
        assert not calls, (g_ops, h_ops, dict(calls))


def test_inverses_reuse_the_forward_truncations():
    # the inverse of A -> A(g) is the reversed sequence of g - g(0) and one
    # Taylor shift: it truncates no sequence but g_ops, h_ops and their
    # reversals
    n = 256
    rng = random.Random(10)
    for name in ("jacobi(alpha=3,beta=5)", "mott", "laguerre(alpha=3)"):
        mod = Modulus(DEFAULT_PRIME)
        fam = parse_family(mod, name)
        A = Poly(mod, _random_vector(rng, mod, n), n)
        from_monomial(A, fam, n, mod)
        allowed = set()
        for ops in (fam.spec.g_ops, fam.spec.h_ops):
            allowed |= {ops, compseq._inverse_reduction(ops, n, mod)[-1]}
        keys = [k for k in mod._cache if k[0] == "truncs"]
        assert keys, name
        for key in keys:
            assert key[1] in allowed and key[2] == n, (name, key)


def _run_threads(work, count=4):
    """work() in count threads started together, more threads than cores,
    switching often so that they interleave; their results."""
    barrier = threading.Barrier(count)
    results, errors = [], []

    def worker():
        try:
            barrier.wait()
            results.append(work())
        except Exception as exc:   # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    return results


def test_threads_grow_tables_once():
    mod = Modulus(DEFAULT_PRIME)

    def work():
        for n in range(2, 4000, 5):
            mod.factorials(n), mod.inv_factorials(n), mod.inverses(n)

    _run_threads(work)
    ref = Modulus(DEFAULT_PRIME)
    assert mod.factorials(4000) == ref.factorials(4000)
    assert mod.inv_factorials(4000) == ref.inv_factorials(4000)
    assert mod.inverses(4000) == ref.inverses(4000)


def test_threads_share_one_modulus(monkeypatch):
    n = 256
    names = ["bell", "jacobi(alpha=3,beta=5)"]
    rng = random.Random(9)
    vectors = {name: _random_vector(rng, Modulus(DEFAULT_PRIME), n) for name in names}

    def convert(mod):
        out = {}
        for name, a in vectors.items():
            A = to_monomial(a, parse_family(mod, name), n, mod)
            out[name] = (A.coeffs, from_monomial(A, parse_family(mod, name), n, mod))
        return out

    want = convert(Modulus(DEFAULT_PRIME))
    assert all(back == vectors[name] for name, (_, back) in want.items())

    builds = []
    init = evalgrid.SubproductTree.__init__

    def counted_init(self, mod, n):
        builds.append(n)
        init(self, mod, n)

    monkeypatch.setattr(evalgrid.SubproductTree, "__init__", counted_init)
    mod = Modulus(DEFAULT_PRIME)
    assert _run_threads(lambda: convert(mod)) == [want] * 4
    trees = [v for v in mod._cache.values() if isinstance(v, evalgrid.SubproductTree)]
    assert builds and len(builds) == len(trees)
