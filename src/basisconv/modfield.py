"""Prime-field arithmetic and the polynomial multiplication kernel.

Coefficients are plain Python ints in [0, p).  A Modulus bundles the prime
with NTT machinery (2-adicity, primitive root, per-size twiddle tables),
factorials, and one cache for input-independent data (Modulus.cached).  A
Poly is a dense coefficient list of a fixed declared dimension over one
modulus; trailing zeros are stored explicitly so len(coeffs) == dim.

The product kernel dispatches between schoolbook convolution (small sizes, or
moduli without enough roots of unity) and an iterative radix-2 NTT on the
rows of numpy arrays, so one call transforms a whole batch of equal-length
operands (_convolve_rows); a single product is its one-row case.  Rows hold
int64 for p < 2^31 and Python ints (dtype object) for larger primes.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import (
    CapacityExceeded,
    DimensionMismatch,
    DivisionByZero,
    PrecisionExceedsModulus,
)

# Below this product length the schoolbook convolution beats transform setup.
NTT_THRESHOLD = 32

# From this many transform entries on, butterflies reduce by a conditional
# correction instead of %: cheaper per entry, but more numpy calls per stage.
CORRECTION_MIN = 4096

# Largest product length we accept for schoolbook when the modulus lacks
# transform capacity.
SCHOOLBOOK_LIMIT = 2048

DEFAULT_PRIME = 2013265921  # 15 * 2^27 + 1, primitive root 31

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.3e24."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factorize(n):
    """Trial-division factorization; fine for the word-size p-1 we see."""
    fs = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fs[d] = fs.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        fs[n] = fs.get(n, 0) + 1
    return fs


def _find_primitive_root(p):
    if p == 2:
        return 1
    factors = _factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise ValueError(f"no primitive root found for {p}")


class Modulus:
    """A prime modulus with its NTT tables, factorials and cached data."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        two_adicity = 0
        m = p - 1
        while m % 2 == 0:
            m //= 2
            two_adicity += 1
        self.max_ntt_len = 1 << two_adicity
        self.primitive_root = _find_primitive_root(p)
        self._twiddles = {}      # (size, invert) -> np.ndarray or list
        self._bitrev = {}        # size -> np.ndarray
        self._fact = [1]
        self._inv_fact = [1]
        self._inverses = [0, 1]
        self._cache = {}         # key -> value, see cached()
        self._lock = threading.RLock()
        # residues of p >= 2^31 have products beyond int64: keep Python ints
        self.dtype = np.int64 if p < (1 << 31) else object

    def __repr__(self):
        return f"Modulus({self.p})"

    def __eq__(self, other):
        return isinstance(other, Modulus) and other.p == self.p

    def __hash__(self):
        return hash(self.p)

    # -- scalar field arithmetic ------------------------------------------

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, e):
        """a^e for any integer e; negative e inverts (a != 0)."""
        a %= self.p
        if a == 0:
            if e < 0:
                raise DivisionByZero("negative power of zero")
            return 0 if e else 1
        return pow(a, e % (self.p - 1), self.p)

    def cached(self, key, build):
        """The value under key of data that depends only on the modulus and
        the key, made by build() on the first call.  A hit takes no lock; a
        miss builds under the (reentrant) lock, so each value is built once
        even across threads.  A build that raises stores nothing.  The same
        lock guards the growth of the factorial and inverse tables."""
        try:
            return self._cache[key]
        except KeyError:
            pass
        with self._lock:
            if key not in self._cache:
                self._cache[key] = build()
            return self._cache[key]

    def check_precision(self, n):
        if n >= self.p:
            raise PrecisionExceedsModulus(f"precision {n} >= modulus {self.p}")

    # -- factorial tables -------------------------------------------------

    def factorials(self, n):
        """[0!, 1!, ..., (n-1)!] mod p; requires n <= p."""
        if n > self.p:
            raise PrecisionExceedsModulus(f"factorials up to {n - 1} need p >= {n}")
        with self._lock:
            while len(self._fact) < n:
                k = len(self._fact)
                self._fact.append(self._fact[-1] * k % self.p)
        return self._fact[:n]

    def inv_factorials(self, n):
        fact = self.factorials(n)
        with self._lock:
            m = len(self._inv_fact)
            if m < n:
                # one inversion, then fill backwards: 1/k! = (k+1) * 1/(k+1)!
                tail = [0] * (n - m)
                tail[-1] = self.inv(fact[n - 1])
                for k in range(n - 2, m - 1, -1):
                    tail[k - m] = tail[k - m + 1] * (k + 1) % self.p
                self._inv_fact.extend(tail)
        return self._inv_fact[:n]

    def inverses(self, n):
        """[0, 1/1, 1/2, ..., 1/(n-1)] mod p in O(n); requires n <= p."""
        if n > self.p:
            raise PrecisionExceedsModulus(f"inverses up to {n - 1} need p >= {n}")
        with self._lock:
            while len(self._inverses) < n:
                i = len(self._inverses)
                self._inverses.append(
                    (self.p - self.p // i) * self._inverses[self.p % i] % self.p
                )
        return self._inverses[:n]

    def batch_inv(self, values):
        """Inverses of a list of nonzero residues with one field inversion."""
        prefix = [1] * (len(values) + 1)
        for i, v in enumerate(values):
            prefix[i + 1] = prefix[i] * v % self.p
        acc = self.inv(prefix[-1])
        out = [0] * len(values)
        for i in range(len(values) - 1, -1, -1):
            out[i] = acc * prefix[i] % self.p
            acc = acc * values[i] % self.p
        return out

    # -- NTT tables -------------------------------------------------------

    def _bitrev_indices(self, size):
        idx = self._bitrev.get(size)
        if idx is None:
            bits = size.bit_length() - 1
            i = np.arange(size, dtype=np.int64)
            idx = np.zeros(size, dtype=np.int64)
            for b in range(bits):
                idx |= ((i >> b) & 1) << (bits - 1 - b)
            self._bitrev[size] = idx
        return idx

    def _stage_twiddles(self, length, invert):
        key = (length, invert)
        tw = self._twiddles.get(key)
        if tw is None:
            w = pow(self.primitive_root, (self.p - 1) // length, self.p)
            if invert:
                w = pow(w, self.p - 2, self.p)
            half = length // 2
            ws = [1] * half
            for i in range(1, half):
                ws[i] = ws[i - 1] * w % self.p
            tw = np.array(ws, dtype=self.dtype)
            self._twiddles[key] = tw
        return tw


def _ntt_numpy(mod: Modulus, rows, size, invert):
    """Radix-2 NTT of every row of a 2-D array of residues in [0, p),
    zero-padded to size columns."""
    p = mod.p
    r = rows.shape[0]
    a = np.zeros((r, size), dtype=mod.dtype)
    a[:, : rows.shape[1]] = rows
    a = a[:, mod._bitrev_indices(size)]
    length = 2
    while length <= size:
        half = length // 2
        a = a.reshape(r, size // length, length)
        even = a[..., :half]
        odd = a[..., half:]
        if half > 1:
            # int64: a residue times a twiddle, both < 2^31, stays below 2^62
            odd *= mod._stage_twiddles(length, invert)
            odd %= p
        diff = even - odd
        even += odd
        if a.size < CORRECTION_MIN or a.dtype == object:
            even %= p
            diff %= p
        else:
            # int64 x >> 63 is -1 exactly where x < 0
            even -= p
            even += (even >> 63) & p
            diff += (diff >> 63) & p
        odd[...] = diff
        length *= 2
    a = a.reshape(r, size)
    if invert:
        a = a * pow(size, p - 2, p) % p
    return a


def _convolve_schoolbook(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return [c % p for c in out]


def _transforms(mod: Modulus, size):
    """Whether products mod x^size - 1 run through the vectorized NTT."""
    return size <= mod.max_ntt_len


def _convolve(mod: Modulus, a, b):
    """Exact cyclic-free product of two lists of residues in [0, p)."""
    out_len = len(a) + len(b) - 1
    size = 1 << (out_len - 1).bit_length()
    if out_len < NTT_THRESHOLD or not _transforms(mod, size):
        if out_len > SCHOOLBOOK_LIMIT:
            raise CapacityExceeded(
                f"product length {out_len} exceeds transform capacity "
                f"{mod.max_ntt_len} of p={mod.p}"
            )
        return _convolve_schoolbook(a, b, mod.p)
    A, B = np.array([a], dtype=mod.dtype), np.array([b], dtype=mod.dtype)
    return _convolve_rows(mod, A, B)[0].tolist()


def _convolve_rows(mod: Modulus, A, B):
    """Row-wise exact products of two 2-D arrays of residues with equally
    many rows.

    Where the modulus cannot transform at the needed size the rows go one by
    one through _convolve.
    """
    out_len = A.shape[1] + B.shape[1] - 1
    size = 1 << (out_len - 1).bit_length()
    if not _transforms(mod, size):
        out = [_convolve(mod, a, b) for a, b in zip(A.tolist(), B.tolist())]
        return np.array(out, dtype=A.dtype).reshape(len(out), out_len)
    # int64: a pointwise product of two residues < 2^31 stays below 2^62
    fc = _image(mod, A, size) * _image(mod, B, size) % mod.p
    return _image_coeffs(mod, fc, out_len)


# Images: rows in the transform domain of the products mod x^size - 1.  They
# are the rows' NTTs where the modulus can transform at that size, and the
# zero-padded rows themselves otherwise, so that callers can keep the images
# of fixed operands without caring which.


def _image(mod: Modulus, A, size):
    """The image of the coefficient rows of A, each of length <= size."""
    if _transforms(mod, size):
        return _ntt_numpy(mod, A, size, False)
    out = np.zeros((A.shape[0], size), dtype=A.dtype)
    out[:, : A.shape[1]] = A
    return out


def _image_mul(mod: Modulus, X, Y):
    """Row-wise product of two images, that is of their rows mod x^size - 1."""
    size = X.shape[1]
    if _transforms(mod, size):
        return X * Y % mod.p
    out = _convolve_rows(mod, X, Y)
    out[:, : size - 1] += out[:, size:]
    return out[:, :size] % mod.p


def _image_coeffs(mod: Modulus, X, out_len):
    """The first out_len coefficients of every row of an image."""
    if _transforms(mod, X.shape[1]):
        return _ntt_numpy(mod, X, X.shape[1], True)[:, :out_len]
    return X[:, :out_len]


class Poly:
    """Dense polynomial in K[x]_dim: coefficient list of length exactly dim."""

    __slots__ = ("mod", "coeffs")

    def __init__(self, mod: Modulus, coeffs, dim=None):
        if dim is None:
            dim = max(1, len(coeffs))
        if dim < 1:
            raise DimensionMismatch("dim must be >= 1")
        cs = [c % mod.p for c in coeffs[:dim]]
        if len(cs) < dim:
            cs.extend([0] * (dim - len(cs)))
        self.mod = mod
        self.coeffs = cs

    @classmethod
    def zero(cls, mod, dim):
        return cls(mod, [], dim)

    @classmethod
    def x(cls, mod, dim):
        """The identity polynomial x (dim >= 2 gives an honest x)."""
        return cls(mod, [0, 1][:dim], dim)

    @property
    def dim(self):
        return len(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.mod == other.mod
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.mod.p, tuple(self.coeffs)))

    def __repr__(self):
        return f"Poly({self.coeffs}, p={self.mod.p})"

    def degree(self):
        """Degree of the stored truncation; -1 for the zero polynomial."""
        for i in range(self.dim - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return -1

    def valuation(self):
        """Index of the first nonzero coefficient; None if all stored are zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def constant(self):
        return self.coeffs[0]


def poly_mul(a: Poly, b: Poly) -> Poly:
    """Exact product; result dim = dim(a) + dim(b) - 1."""
    if a.mod != b.mod:
        raise DimensionMismatch("mixed moduli")
    return Poly(a.mod, _convolve(a.mod, a.coeffs, b.coeffs))


def mul_trunc(a: Poly, P: Poly, n: int) -> Poly:
    """a * P mod x^n, result dim n."""
    mod = a.mod
    da, dp = a.degree(), P.degree()
    if da < 0 or dp < 0:
        return Poly.zero(mod, n)
    # truncating the inputs to n first keeps the transform size at O(n)
    ca = a.coeffs[: min(da + 1, n)]
    cp = P.coeffs[: min(dp + 1, n)]
    prod = _convolve(mod, ca, cp)
    return Poly(mod, prod[:n], n)


def mul_trunc_t(a: Poly, P: Poly, m: int) -> Poly:
    """Transpose of mul_trunc(., P, n) for n = dim(a); result dim m.

    Realized as the middle product (a * Rev(P) mod x^{n+d}) div x^d with
    d the stored degree bound of P.
    """
    mod = a.mod
    d = P.dim - 1
    rev = list(reversed(P.coeffs))
    prod = _convolve(mod, a.coeffs, rev) if a.degree() >= 0 and P.degree() >= 0 else []
    out = prod[d : d + m]
    return Poly(mod, out, m)
