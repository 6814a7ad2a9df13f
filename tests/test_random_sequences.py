"""Random well-formed composition sequences against the quadratic oracle.

A generator walks the parse_sequence grammar (A, M, P, R, Inv, E, L) and
keeps track of what each operator's domain depends on: the constant term g0
of the current series, its valuation and its leading coefficient.  It only
emits operators whose domain holds, so every sequence must evaluate; one
more operator chosen outside its domain must raise the typed error of
compseq._apply_op.  On int64 rows the matrices of the evaluation and its
inverse (compseq._seq_matrix, _inverse_seq_matrix) must give the same
images.  Three primes cover the kernels: 101 (schoolbook products, one
limb), DEFAULT_PRIME (two or three limbs on int64 rows) and a 40-bit prime
(two to four limbs on dtype-object rows).  Every prime takes the sizes 3, 9
and 40.  Over 101 the inverse's power substitutions, which multiply the
dimension by k, make Taylor shifts of dimension m >= p; up to LEAF_SIZE
those are dense Pascal products, which divide by nothing.
"""

import random

import pytest

from basisconv import (
    DEFAULT_PRIME,
    DomainViolation,
    Modulus,
    Poly,
    compute_g,
    eval_seq,
    eval_seq_inv,
    eval_seq_t,
    format_sequence,
    parse_sequence,
)
from basisconv.compseq import _inverse_seq_matrix, _seq_matrix
from basisconv.oracle import horner_compose

P40 = 1099489607681
SIZES = {101: (3, 9, 40), DEFAULT_PRIME: (3, 9, 40), P40: (3, 9, 40)}
SEQUENCES = 30
MAX_VALUATION = 4


class _Walk:
    """The text of a sequence built so far and the state of its output."""

    def __init__(self, p):
        self.p = p
        self.tokens = []
        self.g0, self.val, self.lead = 0, 1, 1      # g = x

    def emit(self, token):
        self.tokens.append(token)

    def scalar(self, rng, v):
        # the same residue, sometimes written as a negative integer
        return str(v - self.p) if rng.random() < 0.3 else str(v)

    def add(self, rng, a):
        p = self.p
        self.emit(f"A:{self.scalar(rng, a)}")
        if self.g0:
            self.g0 = self.lead = (self.g0 + a) % p
        elif a:
            self.g0 = self.lead = a
            self.val = 0

    def step(self, rng):
        p = self.p
        choices = ["A", "M", "P"]
        choices += ["Inv", "R0"] if self.g0 else ["E", "L"]
        op = rng.choice(choices)
        if op == "A":
            # from a nonzero constant term never to zero: the valuation
            # of the result would depend on coefficients the walk ignores
            a = rng.randrange(p)
            while self.g0 and (self.g0 + a) % p == 0:
                a = rng.randrange(p)
            self.add(rng, a)
        elif op == "M":
            lam = rng.randrange(1, p)
            self.emit(f"M:{self.scalar(rng, lam)}")
            self.g0, self.lead = self.g0 * lam % p, self.lead * lam % p
        elif op == "P":
            k = rng.choice((2, 3))
            if not self.g0 and self.val * k > MAX_VALUATION:
                return
            alpha, r = self.lead, self.val if not self.g0 else 0
            self.emit(f"P:{k}")
            self.g0, self.lead = pow(self.g0, k, p), pow(self.lead, k, p)
            self.val = 0 if self.g0 else self.val * k
            if rng.random() < 0.5:
                # a root of the power: alpha x^r leads the series powered
                self.emit(f"R:{k},{self.scalar(rng, alpha)},{r}")
                self.g0 = alpha if self.g0 else 0
                self.lead, self.val = alpha, r
        elif op == "R0":
            # a root with r = 0: first move g0 to alpha^k
            k, alpha = rng.choice((2, 3)), rng.randrange(1, p)
            self.add(rng, (pow(alpha, k, p) - self.g0) % p)
            self.emit(f"R:{k},{self.scalar(rng, alpha)},0")
            self.g0 = self.lead = alpha
        elif op == "Inv":
            self.emit("Inv")
            self.g0 = self.lead = pow(self.g0, p - 2, p)
        else:
            self.emit(op)      # E and L keep g0 = 0, the valuation and the lead

    def invalid(self, rng):
        """One operator outside its domain at the current state."""
        if not self.g0:
            return rng.choice(["Inv", f"R:2,{self.lead},0"])
        k, alpha = 2, rng.randrange(1, self.p)
        while pow(alpha, k, self.p) == self.g0:
            alpha = rng.randrange(1, self.p)
        return rng.choice(["E", "L", f"R:{k},{alpha},0"])


def _walks(p, seed):
    rng = random.Random(seed)
    for _ in range(SEQUENCES):
        walk = _Walk(p)
        for _ in range(rng.randrange(1, 7)):
            walk.step(rng)
        yield rng, walk


def _dot(a, b, p):
    return sum(x * y for x, y in zip(a, b)) % p


def _row_times(A, M):
    """The row A times the matrix M, in Python ints."""
    return Poly(A.mod, [_dot(A.coeffs, col.tolist(), A.mod.p) for col in M.T], len(M))


@pytest.fixture(params=[101, DEFAULT_PRIME, P40], ids=["p101", "default", "p40"])
def mod(request):
    # fresh per test, so that no cached truncation outlives a kernel choice
    return Modulus(request.param)


@pytest.fixture(params=["dispatch", "float"])
def kernel(request):
    # as dispatched by size, or every product through the float kernel
    if request.param == "float":
        request.getfixturevalue("force_kernel")()
    return request.param


def test_random_sequences_match_oracles(mod, kernel):
    p = mod.p
    for rng, walk in _walks(p, seed=p % 1000):
        text = ";".join(walk.tokens)
        ops = parse_sequence(text, mod)
        assert parse_sequence(format_sequence(ops), mod) == ops, text
        for n in SIZES[p]:
            g = compute_g(ops, n, mod).g[-1] if ops else Poly.x(mod, n)
            A = Poly(mod, [rng.randrange(p) for _ in range(n)], n)
            B = Poly(mod, [rng.randrange(p) for _ in range(n)], n)
            image = eval_seq(A, ops, n)
            assert image == horner_compose(A, g, n), (text, n)
            # transpose: <eval(A), B> = <A, eval_t(B)>
            lhs = _dot(image.coeffs, B.coeffs, p)
            assert lhs == _dot(A.coeffs, eval_seq_t(B, ops, n).coeffs, p), (text, n)
            # the inverse exists where g'(0) != 0
            invertible = not ops or compute_g(ops, max(n, 2), mod).g[-1].arr[1]
            if invertible:
                assert eval_seq_inv(image, ops, n) == A, (text, n)
            # the matrices of both on int64 rows
            if mod.dtype is not object:
                assert _row_times(A, _seq_matrix(ops, n, mod)) == image, (text, n)
                if invertible:
                    assert _row_times(image, _inverse_seq_matrix(ops, n, mod)) == A, (text, n)


def test_random_sequences_outside_a_domain_raise(mod):
    for rng, walk in _walks(mod.p, seed=mod.p % 1000 + 1):
        bad = walk.tokens + [walk.invalid(rng)]
        ops = parse_sequence(";".join(bad), mod)
        with pytest.raises(DomainViolation, match=f"step {len(ops)}:"):
            compute_g(ops, 9, mod)
