"""The per-modulus cache of input-independent data (Modulus.cached)."""

import gc
import random
import sys
import threading
import weakref
from collections import Counter

from basisconv import DEFAULT_PRIME, Add, BivariateSpec, Exp, Inv, Log, Modulus, Mul, Poly
from basisconv import bivariate, compseq, evalgrid, families, modfield, polyops, seriesops
from basisconv.families import FamilyDescriptor, from_monomial, parse_family, to_monomial
from catalog_data import FAMILY_STRINGS as CATALOG

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
    # Inv and Root operators in h, Log and Exp through the Stirling matrices,
    # u and v; above MATRIX_MAX, so that the conversions run the fast chain
    cases = [
        ((Add(1), Inv(), Add(p - 1)), parse_family(mod, "fibonacci").spec.h_ops),
        ((), (Log(),)),
        ((Mul(2),), (Exp(),)),
    ]
    n = families.MATRIX_MAX + 32
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


def _counted_truncations(monkeypatch):
    """A Counter of the truncation sets built from now on, by (ops, n)."""
    builds = Counter()
    truncations = compseq._truncations

    def counted(ops, n, mod):
        builds[tuple(ops), n] += 1
        return truncations(ops, n, mod)

    monkeypatch.setattr(compseq, "_truncations", counted)
    return builds


def _holds_truncations(mod):
    return any(isinstance(v, compseq.SequenceTruncations) for v in mod._cache.values())


def test_inverses_reuse_the_forward_truncations(monkeypatch):
    # the inverse of A -> A(g) is the reversed sequence of g - g(0) and one
    # Taylor shift.  Every operand of a sequence at n comes from one set of
    # its truncations, dropped once they are built.  Run first, the inverse
    # truncates g_ops and h_ops for their leading coefficients and reduction
    # alone and builds none of their operands, so a forward conversion after
    # it truncates them again; run after the forward conversion, it reuses
    # what that kept, and every sequence is truncated once
    n = 256
    rng = random.Random(10)
    builds = _counted_truncations(monkeypatch)
    for name in ("jacobi(alpha=3,beta=5)", "mott", "laguerre(alpha=3)", "fibonacci"):
        for first in (to_monomial, from_monomial):
            mod = Modulus(DEFAULT_PRIME)
            fam = parse_family(mod, name)
            forward = {fam.spec.g_ops, fam.spec.h_ops}
            a = _random_vector(rng, mod, n)
            builds.clear()
            if first is to_monomial:
                a = to_monomial(a, fam, n, mod).coeffs
            else:
                from_monomial(Poly(mod, a, n), fam, n, mod)
                # an empty sequence is no step of a conversion: none is prepared
                reversals = {compseq._inverse_reduction(ops, n, mod)[-1] for ops in forward if ops}
                prepared = {k[1] for k in mod._cache if k[0] == "seq"}
                assert prepared == reversals, name
            assert not _holds_truncations(mod), name
            for _ in range(2):
                b = from_monomial(Poly(mod, a, n), fam, n, mod)
                assert to_monomial(b, fam, n, mod).coeffs == a
            assert not _holds_truncations(mod), name
            seqs = set(forward)
            for ops in forward:
                seqs.add(compseq._inverse_reduction(ops, n, mod)[-1])
            again = forward if first is from_monomial else set()
            assert builds == {(ops, n): 1 + (ops in again) for ops in seqs}, (name, first)


def test_a_compiled_program_drops_its_truncations(monkeypatch):
    # the truncations a program is compiled from are freed as _prepare
    # returns, by reference counting, not kept by a cycle until the next
    # collection; the unit and root powers the steps read are kept
    made, truncations = [], compseq._truncations

    def recorded(ops, n, mod):
        truncs = truncations(ops, n, mod)
        made.append(weakref.ref(truncs))
        return truncs

    monkeypatch.setattr(compseq, "_truncations", recorded)
    mod = Modulus(DEFAULT_PRIME)
    fam = parse_family(mod, "mott")
    gc.disable()
    try:
        compseq._prepare(fam.spec.h_ops, 512, mod)
        assert made and all(ref() is None for ref in made)
    finally:
        gc.enable()
    assert mod.cache_bytes()["seq"][1] > 0


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


def _convert_all(mod, vectors, n):
    out = {}
    for name, a in vectors.items():
        A = to_monomial(a, parse_family(mod, name), n, mod)
        out[name] = (A.coeffs, from_monomial(A, parse_family(mod, name), n, mod))
    return out


def test_threads_share_one_modulus(monkeypatch):
    # above LEAF_SIZE the Exp/Log maps run on grid trees, each built once;
    # at n = 4096 products up to size 8192 run through each thread's own
    # work arrays (modfield._work_array)
    names = ["bell", "jacobi(alpha=3,beta=5)"]
    rng = random.Random(9)
    builds = []
    init = evalgrid.SubproductTree.__init__

    def counted_init(self, mod, n):
        builds.append(n)
        init(self, mod, n)

    monkeypatch.setattr(evalgrid.SubproductTree, "__init__", counted_init)
    for n in (512, 4096):
        vectors = {name: _random_vector(rng, Modulus(DEFAULT_PRIME), n) for name in names}
        want = _convert_all(Modulus(DEFAULT_PRIME), vectors, n)
        assert all(back == vectors[name] for name, (_, back) in want.items())
        builds.clear()
        mod = Modulus(DEFAULT_PRIME)
        assert _run_threads(lambda: _convert_all(mod, vectors, n)) == [want] * 4
        trees = [v for v in mod._cache.values() if isinstance(v, evalgrid.SubproductTree)]
        assert builds and len(builds) == len(trees), n

    # at n = 256 they read the kept Stirling matrices, one entry per kind
    n = 256
    vectors = {"bell": _random_vector(rng, mod, n)}
    want = _convert_all(Modulus(DEFAULT_PRIME), vectors, n)
    mod = Modulus(DEFAULT_PRIME)
    assert _run_threads(lambda: _convert_all(mod, vectors, n)) == [want] * 4
    assert sorted(k for k in mod._cache if k[0] == "stirling") == [
        ("stirling", "exp"), ("stirling", "log"),
    ]


def test_threads_build_each_conversion_matrix_once(monkeypatch):
    # cold conversions at n <= MATRIX_MAX on one modulus: each (family, n,
    # direction) builds its matrix once, and every thread gets the
    # single-thread results
    names = ["jacobi(alpha=3,beta=5)", "fibonacci", "bell", "meixner(beta=5,c=7)"]
    rng = random.Random(16)
    vectors = {name: _random_vector(rng, Modulus(DEFAULT_PRIME), 64) for name in names}
    sized = {n: {k: a[:n] for k, a in vectors.items()} for n in (17, 64)}
    want = {n: _convert_all(Modulus(DEFAULT_PRIME), sized[n], n) for n in sized}
    builds = Counter()
    matrix = families._bivariate_matrix

    def counted(spec, n, mod, inverse, c):
        builds[inverse, spec, n] += 1
        return matrix(spec, n, mod, inverse, c)

    monkeypatch.setattr(families, "_bivariate_matrix", counted)
    mod = Modulus(DEFAULT_PRIME)

    def work():
        return {n: _convert_all(mod, sized[n], n) for n in sized}

    assert _run_threads(work) == [want] * 4
    assert len(builds) == 2 * len(names) * 2 and set(builds.values()) == {1}
    keys = [k for k in mod._cache if k[0] == "matrix"]
    assert len(keys) == len(builds)


def test_small_conversions_keep_only_their_matrices():
    # after one round trip of every catalog family at n = 64 the cache holds
    # one 64 x 64 float64 matrix per (family, direction), and none of the
    # operands of the fast chain
    mod = Modulus(DEFAULT_PRIME)
    rng = random.Random(17)
    n = 64
    for text in CATALOG:
        fam = parse_family(mod, text)
        A = to_monomial(_random_vector(rng, mod, n), fam, n, mod)
        if fam.name != "spread":
            from_monomial(A, fam, n, mod)
    census = mod.cache_bytes()
    assert census["matrix"] == (39, 39 * 8 * n * n)
    for kind in ("seq", "chain", "shift", "grid"):
        assert kind not in census, kind
    assert not _holds_truncations(mod)


def test_threads_build_and_drop_truncations_once(monkeypatch):
    # cold conversions of two families with Inv and Root operators on one
    # modulus, while the first of them builds every operand and drops the
    # truncations, give the single-thread results
    n = 512
    names = ["fibonacci", "mott"]
    rng = random.Random(11)
    vectors = {name: _random_vector(rng, Modulus(DEFAULT_PRIME), n) for name in names}

    def convert(mod):
        out = {}
        for name, a in vectors.items():
            fam = parse_family(mod, name)
            A = to_monomial(a, fam, n, mod)
            out[name] = (A.coeffs, from_monomial(A, fam, n, mod))
        return out

    want = convert(Modulus(DEFAULT_PRIME))
    assert all(back == vectors[name] for name, (_, back) in want.items())
    builds = _counted_truncations(monkeypatch)
    mod = Modulus(DEFAULT_PRIME)
    assert _run_threads(lambda: convert(mod)) == [want] * 4
    assert builds and set(builds.values()) == {1}
    assert not _holds_truncations(mod)


def _warm_transforms(monkeypatch, transforms, name, n):
    """The transforms (forward and inverse) of a warm to_monomial and
    from_monomial of name at n, and for each warm call that multiplies by
    kept images (modfield._mul_fixed, modfield._middle_products) its
    (forward transforms, inverse transforms less the images)."""
    mod = Modulus(DEFAULT_PRIME)
    fam = parse_family(mod, name)
    a = _random_vector(random.Random(12), mod, n)
    A = to_monomial(a, fam, n, mod)
    from_monomial(A, fam, n, mod)
    per_fixed = []

    def counted(product, one):
        def wrapper(mod, a, fixed, *args):
            before = transforms.counts()
            out = product(mod, a, fixed, *args)
            images = sum(isinstance(b, modfield._Kept) for b in ([fixed] if one else fixed))
            if images:
                forward, inverse = (x - y for x, y in zip(transforms.counts(), before))
                per_fixed.append((forward, inverse - images))
            return out

        return wrapper

    for module in (modfield, polyops, evalgrid):
        monkeypatch.setattr(module, "_mul_fixed", counted(modfield._mul_fixed, True))
        monkeypatch.setattr(module, "_middle_products", counted(modfield._middle_products, False))
    counts = []
    for convert, x in ((to_monomial, a), (from_monomial, A)):
        transforms.clear()
        convert(x, fam, n, mod)
        counts.append(len(transforms))
    return tuple(counts), per_fixed


def test_warm_transform_counts(monkeypatch, transforms):
    # at n = 8192 every unit power, root power, shift series and the v, 1/v
    # series keep their float image, so each product by one of them makes one
    # forward and one inverse transform; bell and mittag_leffler also run the
    # grid trees, whose levels keep their float images too.  A transposed
    # lincomb by k kept operands (fibonacci's and mott's h) transforms its
    # input once for all k, and makes k inverse transforms
    want = {"fibonacci": (17, 21), "mott": (21, 15), "bell": (14, 12), "mittag_leffler": (18, 20)}
    for name, counts in want.items():
        got, per_fixed = _warm_transforms(monkeypatch, transforms, name, 8192)
        assert got == counts, name
        assert per_fixed and set(per_fixed) == {(1, 0)}, name


def test_cache_bytes_hold_no_truncations():
    mod = Modulus(DEFAULT_PRIME)
    mod.table("factorials", 8)
    assert mod.cache_bytes() == {"table": (1, 64)}
    n = 1024
    rng = random.Random(13)
    for name in ("fibonacci", "mott"):
        fam = parse_family(mod, name)
        A = to_monomial(_random_vector(rng, mod, n), fam, n, mod)
        from_monomial(A, fam, n, mod)
    census = mod.cache_bytes()
    assert "truncs" not in census and not _holds_truncations(mod)
    # the kept operands: unit and root powers, shift series, f, u and v, and
    # each direction's steps with the operands of its products and 1/f
    for kind in ("seq", "shift", "fvu", "chain"):
        entries, size = census[kind]
        assert entries > 0 and size > 0, kind
    assert "vu" not in census and "finv" not in census
    chains = [k for k in mod._cache if k[0] == "chain"]
    assert sorted(k[3] for k in chains) == [False, False, True, True]
    assert sum(e for e, _ in census.values()) == len(mod._cache)


def test_one_pascal_matrix_per_modulus():
    # the dense Taylor shifts and the leaf blocks of every grid tree read the
    # top-left blocks of one Pascal matrix, kept at LEAF_SIZE
    mod = Modulus(DEFAULT_PRIME)
    rng = random.Random(14)
    for n in (64, 256, 8192):
        for name in ("bell", "charlier(a=2)"):
            fam = parse_family(mod, name)
            from_monomial(to_monomial(_random_vector(rng, mod, n), fam, n, mod), fam, n, mod)
    assert [k for k in mod._cache if k[0] == "pascal"] == [("pascal", polyops.LEAF_SIZE)]
    assert mod.cache_bytes()["pascal"] == (1, 8 * polyops.LEAF_SIZE**2)


def test_one_stirling_matrix_per_kind_per_modulus():
    # the Exp/Log maps up to LEAF_SIZE read the top-left blocks of one matrix
    # per kind, kept at LEAF_SIZE; above it they build no such matrix
    mod = Modulus(DEFAULT_PRIME)
    rng = random.Random(15)
    for n in (64, 256, 8192):
        for name in ("bell", "falling"):
            fam = parse_family(mod, name)
            from_monomial(to_monomial(_random_vector(rng, mod, n), fam, n, mod), fam, n, mod)
    assert sorted(k for k in mod._cache if k[0] == "stirling") == [
        ("stirling", "exp"), ("stirling", "log"),
    ]
    assert mod.cache_bytes()["stirling"] == (2, 2 * 8 * polyops.LEAF_SIZE**2)
    big = Modulus(DEFAULT_PRIME)
    fam = parse_family(big, "bell")
    from_monomial(to_monomial(_random_vector(rng, big, 8192), fam, 8192, big), fam, 8192, big)
    assert "stirling" not in big.cache_bytes()
