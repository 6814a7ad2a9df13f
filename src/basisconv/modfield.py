"""Prime-field arithmetic and the polynomial multiplication kernel.

A Modulus bundles the prime with the limb count and float size limit of its
products, its factorial tables and one cache for input-independent data
(Modulus.cached).  Residues live in numpy arrays of dtype Modulus.dtype: int64
for p < 2^31, where a product of two residues stays below 2^62, and object
(Python ints) for larger primes; the same array expressions serve both.  A
Poly is a dense polynomial of a fixed declared dimension over one modulus: one
read-only array of its dim coefficients in [0, p), trailing zeros included.
Lists of Python ints appear only at the boundary: Poly(mod, list) reduces its
entries mod p and Poly.coeffs reads them back as a list.

Short operands go to the schoolbook convolution, by measured work
(_by_transform).  Longer ones are multiplied through images, transforms of the
rows of 2-D arrays, so one call multiplies a whole batch of equal-length
operands (_convolve_rows); a single product is its one-row case.  There is one
transform, the float FFT (numpy.fft.rfft) on L balanced 11-bit limbs of each
residue, L = Modulus.limbs from p, for every prime and dtype.  It is exact at
sizes from 2 to Modulus.float_max, where the rounding error bound
fft_error_bound stays below FFT_ERROR_MAX, and needs no roots of unity.  Past
that size a product makes one Karatsuba split into three products of half the
length, each dispatched again, so every prime converts at every size.  An
image carries its kind in its shape and the kind follows from the modulus and
the size alone (_float), so kinds never mix: float limb spectra (3-D) from
size 2 to float_max, and beyond it the zero-padded coefficient rows (2-D),
whose products are the exact ones of _convolve_rows.
A fixed operand, a series every product by which is input-independent, keeps
its one-row image wherever its products transform (_fixed_operand): each
product by it then costs one forward and one inverse transform.  mul_trunc
and mul_trunc_t take such an operand in place of a Poly.

Rows times a fixed matrix of residues (the leaf blocks of evalgrid's grid
tree) take one float64 matrix product of their limbs (_dense_mul), exact
while its partial sums stay below 2^53 (_dense_exact); it too rests on the
numpy build, and oracle.dense_product_agrees checks it as
oracle.float_kernel_agrees checks the float FFT.

The float kernel writes the transient arrays of a product into work arrays
that each thread keeps and reuses (_work_array): the limb rows (_limbs, which
_dense_mul reads too), the spectra of its operands, its class spectra with
their temporaries, and its class coefficients, on which the recombination
runs in place; the schoolbook keeps its large int64 rows there too.  They
grow only, to the largest product the thread has run, so warm products map
no fresh pages.  Kept images (_fixed_operand, the levels
of evalgrid's trees), every row array a product returns and every cached
value are fresh arrays, never work arrays.  After a warm pass of each of the
benchmark's workloads a thread holds (work_bytes) 0.17 MB on catalog_small
(n <= 256), 1.8 MB on sheffer_large (n = 8192) and 8.7 MB on algebraic_large
(n = 16384).
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .errors import DimensionMismatch, DivisionByZero, PrecisionExceedsModulus

# The schoolbook costs about m (la + lb - 1) element operations, m = min(la,
# lb) (its work), a product by transforms about size log(size) and, on int64
# rows, a fixed cost of numpy calls per stage.  Products go to transforms past
# work = SCHOOLBOOK_WORK_INT64 + 16 size on int64 rows and past
# SCHOOLBOOK_WORK_OBJECT on dtype-object rows.  On int64 rows, schoolbook time
# over float transform time of an m x (out_len + 1 - m) product, median of 7
# on a 2-core x86-64 machine with numpy 2.4:
#
#   out_len \ m     8    16    24    32    48    64    96
#        256      0.24  0.36  0.50  0.34  0.50  0.88  1.28
#        512      0.17  0.31  0.86  1.04  2.81  2.74  3.84
#       1024      0.40  0.54  0.63  3.72  3.61  4.98  9.51
#       2048      0.49  0.93  1.32  1.80  6.29  6.95 12.95
#       8192      0.47  0.98  1.50  1.99  7.77  8.00 12.73
#      16384      0.50  0.73  1.57  2.00  5.39  4.49  8.37
#
# so the limit picks the schoolbook up to m = 48, 32, 24, 20, 17, 16 on these
# rows.  Every product of out_len <= 128 stays on the schoolbook, which was
# faster at all of them (0.47 for 64 x 65).  On dtype-object rows, where the
# schoolbook multiplies Python ints, the same ratio for p = 1099489607681
# (four limbs), same machine (an m past (out_len + 1) / 2 multiplies
# out_len + 1 - m by m):
#
#   out_len \ m     4      8     16     24     32     48     64
#         64      0.33   0.61   1.01   1.13   1.33   1.04   0.11
#        128      0.50   0.89   1.67   2.13   2.82   3.65   4.35
#        256      0.76   1.48   2.69   4.01   5.05   7.43   8.44
#        512      1.02   1.94   3.57   5.51   6.97  10.70  13.66
#       1024      1.09   2.22   4.11   6.91   9.43  14.88  20.43
#       2048      1.16   2.37   5.20   6.85  11.64  17.39  21.65
#       4096      1.21   2.62   5.43   8.73  12.06  24.85  20.38
#
# so there the schoolbook wins up to a work of about 1024 at every size (m = 4
# to out_len 256, 8 to 128, 16 at 64) and loses beyond it.
SCHOOLBOOK_WORK_PER_ENTRY = 16
SCHOOLBOOK_WORK_INT64 = 1 << 13
SCHOOLBOOK_WORK_OBJECT = 1 << 10

DEFAULT_PRIME = 2013265921  # 15 * 2^27 + 1, primitive root 31

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# Miller-Rabin with the twelve prime bases below 41 is deterministic below
# this bound (Sorenson & Webster 2015); Modulus refuses primes from it on.
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < PRIME_BOUND."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
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


def _rho_divisor(n):
    """A proper divisor of the odd composite n: Brent's variant of Pollard's
    rho, about n^(1/4) steps for the smallest prime factor of n."""
    for c in range(1, n):
        f = lambda v: (v * v + c) % n  # noqa: E731
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = f(y)
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = f(y)
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batched gcd overshot: redo the last batch one step at a time
            g = 1
            while g == 1:
                ys = f(ys)
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ValueError(f"no divisor found for {n}")


def _factorize(n):
    """Prime factorization {q: multiplicity} of n < PRIME_BOUND: small primes
    by trial division, the cofactor split by Pollard-Brent rho."""
    fs = {}
    for q in _SMALL_PRIMES:
        while n % q == 0:
            fs[q] = fs.get(q, 0) + 1
            n //= q
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            fs[m] = fs.get(m, 0) + 1
        else:
            d = _rho_divisor(m)
            stack += [d, m // d]
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
    """A prime modulus with the shape of its float products, its factorial
    tables and cached data: limbs, the number L of balanced 11-bit limbs that
    hold every residue (_limbs), and float_max, the largest size of a float
    image that the rounding error bound admits for L limbs (_float_max)."""

    def __init__(self, p: int):
        if p >= PRIME_BOUND:
            raise ValueError(
                f"modulus {p} is not below {PRIME_BOUND}, the bound of the primality test"
            )
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self._cache = {}         # key -> value, see cached()
        self._lock = threading.RLock()
        # residues of p >= 2^31 have products beyond int64: keep Python ints
        self.dtype = np.int64 if p < (1 << 31) else object
        # the fewest limbs whose top one stays within 2^10 like the others,
        # which holds residues below 2^(11 L - 1): ceil(bits(p) / 11) but
        # where bits(p) is a multiple of 11
        self.limbs = (p - 1).bit_length() // LIMB_BITS + 1
        self.float_max = _float_max(self.limbs)

    def __repr__(self):
        return f"Modulus({self.p})"

    @functools.cached_property
    def primitive_root(self):
        """The least primitive root mod p, found on first use: it factors
        p - 1."""
        return _find_primitive_root(self.p)

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
        even across threads.  A build that raises stores nothing."""
        try:
            return self._cache[key]
        except KeyError:
            pass
        with self._lock:
            if key not in self._cache:
                self._cache[key] = build()
            return self._cache[key]

    def cache_bytes(self):
        """{kind: (entries, bytes)} over the cache, the kind of an entry the
        first field of its key and its bytes those of the numpy arrays its
        value holds (_array_bytes); an array two entries share counts once."""
        with self._lock:
            items = list(self._cache.items())
        seen, out = set(), {}
        for key, value in items:
            entries, size = out.get(key[0], (0, 0))
            out[key[0]] = (entries + 1, size + _array_bytes(value, seen))
        return out

    def check_precision(self, n):
        if n >= self.p:
            raise PrecisionExceedsModulus(f"precision {n} >= modulus {self.p}")

    # -- factorial tables -------------------------------------------------

    def table(self, name, n):
        """The first n entries, for n <= p, of the table name as a read-only
        array of self.dtype: "factorials" k!, "inv_factorials" 1/k! or
        "inverses" 1/k (0 at k = 0).  One array per power of two (capped at
        p) is cached and sliced."""
        if n > self.p:
            raise PrecisionExceedsModulus(f"{name} up to {n - 1} need p >= {n}")
        size = min(1 << max(n - 1, 0).bit_length(), self.p)
        full = self.cached(("table", name, size), lambda: _readonly(self._table(name, size)))
        return full[:n]

    def _table(self, name, size):
        p = self.p
        if name == "factorials":
            k = _arange(self, 0, size)
            k[0] = 1
            return _prefix_products(k, p)
        fact = self.table("factorials", size)
        if name == "inv_factorials":
            # 1/k! = (k+1) (k+2) ... (size-1) / (size-1)!
            down = np.concatenate([_arange(self, 1, 2), _arange(self, 1, size)[::-1]])
            return _prefix_products(down, p)[::-1] * self.inv(int(fact[-1])) % p
        if name == "inverses":
            # 1/k = (k-1)! / k!
            out = np.zeros(size, dtype=self.dtype)
            out[1:] = fact[:-1] * self.table("inv_factorials", size)[1:] % p
            return out
        raise ValueError(f"unknown table {name!r}")

    def factorials(self, n):
        """[0!, 1!, ..., (n-1)!] mod p; requires n <= p."""
        return self.table("factorials", n).tolist()

    def inv_factorials(self, n):
        """[1/0!, 1/1!, ..., 1/(n-1)!] mod p; requires n <= p."""
        return self.table("inv_factorials", n).tolist()

    def inverses(self, n):
        """[0, 1/1, 1/2, ..., 1/(n-1)] mod p; requires n <= p."""
        return self.table("inverses", n).tolist()

    def inv_array(self, values):
        """Inverses of an array of nonzero residues with one field inversion,
        as an array; raises DivisionByZero if some residue is zero."""
        if len(values) == 0:
            return values.copy()
        p = self.p
        pre, suf = _prefix_products(values, p), _prefix_products(values[::-1], p)[::-1]
        out = np.full(len(values), self.inv(int(pre[-1])), dtype=values.dtype)
        # 1/v_i = v_0..v_{i-1} * v_{i+1}..v_{n-1} / (v_0..v_{n-1})
        out[1:] = out[1:] * pre[:-1] % p
        out[:-1] = out[:-1] * suf[1:] % p
        return out

    def batch_inv(self, values):
        """Inverses of a list of nonzero residues with one field inversion,
        as a list of ints."""
        return self.inv_array(np.array(values, dtype=self.dtype)).tolist()


# int64 schoolbook rows of at least this many entries (256 KB) live in a work
# array (_work_array); smaller ones are fresh arrays, which malloc serves
# from memory already mapped.  Time in us, best of 300, fresh arrays / work
# array, on a 2-core x86-64 machine with numpy 2.4: 10 x 512 39 / 54,
# 10 x 2048 142 / 152, 16 x 2048 347 / 231, 10 x 4096 409 / 233 and
# 16 x 8192 1485 / 693.
SCHOOLBOOK_ROWS_KEPT = 1 << 15


def _convolve_schoolbook(a, b, p):
    """Exact product of two 1-D residue arrays by direct convolution.

    Row i of a zero-padded (la, la + lb) array holds a_i b mod p; read with a
    row length one shorter, row i starts i places later, so the column sums
    are the product's coefficients.  int64: a_i b_j < 2^62 is reduced before
    any sum, and a column sums min(la, lb) terms below 2^31, which stays
    below 2^63 for any la < 2^32.
    """
    if len(a) > len(b):
        a, b = b, a
    la, lb = len(a), len(b)
    if a.dtype == object or la * (la + lb) < SCHOOLBOOK_ROWS_KEPT:
        rows = np.zeros((la, la + lb), dtype=a.dtype)
        rows[:, :lb] = np.multiply.outer(a, b) % p
    else:
        # the calling thread's work array (_work_array), pad columns zeroed
        rows = _work_array("school", (la, la + lb))
        np.multiply.outer(a, b, out=rows[:, :lb])
        np.remainder(rows[:, :lb], p, out=rows[:, :lb])
        rows[:, lb:] = 0
    return rows.reshape(-1)[: la * (la + lb - 1)].reshape(la, la + lb - 1).sum(axis=0) % p


def _float(mod: Modulus, size):
    """Whether images at size are float limb spectra: at every size from 2 to
    mod.float_max (a float image of size 1 has one frequency, which does not
    tell its size)."""
    return 2 <= size <= mod.float_max


def _size(out_len):
    """The transform size of a product of length out_len."""
    return 1 << (out_len - 1).bit_length()


def _by_transform(mod: Modulus, la, lb):
    """Whether a product of lengths la and lb is cheaper by transforms than
    by the schoolbook."""
    out_len = la + lb - 1
    work = min(la, lb) * out_len
    if mod.dtype is object:
        return work > SCHOOLBOOK_WORK_OBJECT
    return work > SCHOOLBOOK_WORK_PER_ENTRY * _size(out_len) + SCHOOLBOOK_WORK_INT64


def _convolve(mod: Modulus, a, b):
    """Exact product of two 1-D arrays of residues in [0, p), an array of
    length len(a) + len(b) - 1."""
    a, b = np.asarray(a, dtype=mod.dtype), np.asarray(b, dtype=mod.dtype)
    if _by_transform(mod, len(a), len(b)):
        return _convolve_rows(mod, a[None], b[None])[0]
    return _convolve_schoolbook(a, b, mod.p)


def _convolve_rows(mod: Modulus, A, B):
    """Row-wise exact products of two 2-D arrays of residues with equally
    many rows: through float images up to mod.float_max (_float), and past it
    by one Karatsuba split,
    A B = A0 B0 + x^m ((A0 + A1)(B0 + B1) - A0 B0 - A1 B1) + x^2m A1 B1
    for A = A0 + x^m A1 and B = B0 + x^m B1, into three products of about
    half the length, each dispatched again.  Where one operand is no longer
    than m it has no A1, and A1 B1 is zero."""
    (rows, la), lb = A.shape, B.shape[1]
    out_len = la + lb - 1
    # a float image has at least size 2
    size = max(_size(out_len), 2)
    if _float(mod, size):
        return _image_coeffs(mod, _product_image(mod, A, B, size), out_len)
    p, m = mod.p, (max(la, lb) + 1) // 2
    (A0, A1), (B0, B1) = (A[:, :m], A[:, m:]), (B[:, :m], B[:, m:])
    low = _convolve_rows(mod, A0, B0)
    mid = _convolve_rows(mod, _add_rows(A0, A1, p), _add_rows(B0, B1, p))
    mid[:, : low.shape[1]] -= low
    out = np.zeros((rows, out_len), dtype=A.dtype)
    out[:, : low.shape[1]] = low
    if A1.shape[1] and B1.shape[1]:
        high = _convolve_rows(mod, A1, B1)
        mid[:, : high.shape[1]] -= high
        out[:, 2 * m :] = high
    w = min(mid.shape[1], out_len - m)
    out[:, m : m + w] += mid[:, :w]
    return out % p


def _add_rows(X0, X1, p):
    """X0 + X1 mod p, row-wise, for rows X1 no longer than those of X0."""
    out = X0.copy()
    out[:, : X1.shape[1]] += X1
    return out % p


def _product_image(mod: Modulus, A, B, size):
    """The product image at size of the rows of A and B, whose images are
    work arrays (_work_array) that do not outlive the call."""
    return _image_mul(mod, _image(mod, A, size, "image"), _image(mod, B, size, "image2"))


# Images: rows in the transform domain of the products mod x^size - 1.  An
# image carries its kind: float limb spectra are 3-D, (rows, L limbs, size // 2
# + 1 frequencies); past mod.float_max, the zero-padded coefficient rows
# themselves are 2-D.  The kind follows from the size (_float), so callers
# keep the images of fixed operands without caring which kind they are.  A
# product image (_image_mul) is what _image_coeffs turns back into rows.


def _image(mod: Modulus, A, size, slot=None):
    """The image of the coefficient rows of A, each of length <= size.  A
    float image is fresh, or given a slot, the calling thread's work array of
    that slot (_work_array), for a product to read before the next one."""
    if _float(mod, size):
        return _transform(mod, _limbs(A, mod.limbs), size, None, slot)
    out = np.zeros((A.shape[0], size), dtype=A.dtype)
    out[:, : A.shape[1]] = A
    return out


def _image_size(X):
    """The size of an image or product image: float ones keep the size // 2 + 1
    frequencies of each limb or class row."""
    return 2 * (X.shape[2] - 1) if X.ndim == 3 else X.shape[1]


def _image_mul(mod: Modulus, X, Y):
    """Row-wise product of two images of one kind, that is of their rows mod
    x^size - 1.  Where Y has m times as many rows as X, row i of X multiplies
    rows i m to i m + m - 1 of Y.  A float product image is a work array."""
    if X.ndim == 3:
        return _class_spectra([(X, Y)])
    if 0 < len(X) < len(Y):
        X = np.repeat(X, len(Y) // len(X), axis=0)
    size = X.shape[1]
    # the product of the rows up to their last nonzero columns, folded
    c = _convolve_rows(mod, _trim(X), _trim(Y))
    out = np.zeros((len(c), 2 * size), dtype=c.dtype)
    out[:, : c.shape[1]] = c
    return (out[:, :size] + out[:, size:]) % mod.p


def _trim(X):
    """The rows X up to their last column with a nonzero entry, or the first."""
    nz = np.flatnonzero(X.any(axis=0))
    return X[:, : nz[-1] + 1 if len(nz) else 1]


def _backwards(A, size, out_len):
    """The rows to transform in place of the rows A (each of length <= size)
    so that their products by b mod x^size - 1, first out_len coefficients
    reversed, are those of A by b read backwards (coefficient k of b moved to
    -k mod size): A zero-padded to size and read from index out_len - 1
    downwards, cyclically.  A correlation with a kept image thus reads it as
    it is."""
    (rows, la), k = A.shape, min(A.shape[1], out_len)
    out = np.zeros((rows, size), dtype=A.dtype)
    out[:, out_len - k : out_len] = A[:, k - 1 :: -1]
    if la > out_len:
        out[:, size + out_len - la :] = A[:, : out_len - 1 : -1]
    return out


def _image_mul_add(mod: Modulus, X, Y, U, V):
    """The product image of X Y + U V, row-wise, for images of one kind, made
    before any inverse transform: float class spectra add unreduced."""
    if X.ndim == 3:
        return _class_spectra([(X, Y), (U, V)])
    return (_image_mul(mod, X, Y) + _image_mul(mod, U, V)) % mod.p


def _image_coeffs(mod: Modulus, X, out_len):
    """The first out_len coefficients of every row of a product image."""
    if X.ndim == 3:
        return _transform(mod, X, _image_size(X), out_len)
    return X[:, :out_len]


def _transform(mod: Modulus, X, size, out_len=None, slot=None):
    """The one entry to the float transforms: the spectra of the limb rows X
    (_limbs), in the work array of slot if one is given; or, given out_len,
    the first out_len coefficients of the rows of the product image X."""
    if out_len is None:
        out = None if slot is None else _work_array(slot, X.shape[:2] + (size // 2 + 1,))
        return np.fft.rfft(X, size, axis=-1, out=out)
    return _limb_coeffs(mod.p, X, size, out_len)


def _fixed_operand(mod: Modulus, b, la):
    """What products of arrays of length <= la by the fixed array b keep of
    b, trimmed to its degree: its image (of one row) where such a product
    transforms, its coefficients otherwise.  Callers cache it; _mul_fixed,
    mul_trunc and mul_trunc_t use it."""
    nz = np.flatnonzero(b)
    lb = int(nz[-1]) + 1 if len(nz) else 1
    if _by_transform(mod, la, lb):
        return _readonly(_image(mod, b[None, :lb], _size(la + lb - 1)))
    return _readonly(b[:lb].copy())


def _mul_fixed(mod: Modulus, a, fixed, out_len, transposed=False):
    """The first out_len coefficients of a times the operand b kept by
    _fixed_operand: one forward and one inverse transform.  transposed: of
    the middle product, a times b read backwards from x^(len(b) - 1) on (the
    product by b of mul_trunc_t), as a correlation with b's image."""
    if fixed.ndim == 1:
        # the product reads b below out_len (transposed: below len(a)) only
        if transposed:
            b = fixed[: len(a)]
            return _fit(_convolve(mod, a, b[::-1])[len(b) - 1 :], out_len)
        return _fit(_convolve(mod, a, fixed[:out_len]), out_len)
    size = _image_size(fixed)
    if transposed:
        X = _image(mod, _backwards(a[None], size, out_len), size, "image")
        return _image_coeffs(mod, _image_mul(mod, X, fixed), out_len)[0, ::-1]
    X = _image(mod, a[None], size, "image")
    return _image_coeffs(mod, _image_mul(mod, X, fixed), out_len)[0]


def _mul_cyclic(mod: Modulus, a, b, size, out_len):
    """The first out_len coefficients of a b mod x^size - 1 for 1-D a and b
    of length <= size: through images at size, or where _by_transform picks
    the schoolbook, the linear product folded."""
    if _by_transform(mod, len(a), len(b)):
        return _image_coeffs(mod, _product_image(mod, a[None], b[None], size), out_len)[0]
    c = _fit(_convolve(mod, a, b), 2 * size)
    return (c[:out_len] + c[size : size + out_len]) % mod.p


# -- the float kernel ------------------------------------------------------
#
# A residue a splits into L = Modulus.limbs balanced limbs of LIMB_BITS bits,
# a = sum_k a_k 2^(11k) with |a_k| <= 2^10: three for DEFAULT_PRIME, four for
# a 40-bit prime, eight below PRIME_BOUND.  The image of a row is the rfft of
# each of its limb rows; a product image holds the spectra of the 2L - 1
# classes c_k = sum_{i+j=k} a_i b_j, whose inverse transforms round to
# integers of magnitude at most 2^42, recombined to sum_k c_k 2^(11k) mod p.

LIMB_BITS = 11

# Rounding to the nearest integer is exact while the error stays below 1/2;
# dispatch asks for a fourfold margin.
FFT_ERROR_MAX = 1 / 8

# The most product images summed before one inverse transform
# (_image_mul_add).
MAX_SUMMED = 2


def fft_error_bound(size, products, limbs):
    """A bound on the rounding error of every class coefficient of a sum of
    `products` float product images of `limbs` limbs at size (a power of
    two).

    Percival (Math. Comp. 72, 2003): a cyclic convolution of real vectors
    x, y by a radix-2 FFT of size 2^n in IEEE doubles, with unit roundoff
    eps = 2^-53 and twiddle factors accurate to beta, errs by at most
    |x| |y| ((1 + eps)^(3n) (1 + eps sqrt 5)^(3n + 1) (1 + beta)^(3n) - 1)
    in every coefficient, |.| the Euclidean norm.  Limb rows of at most size
    entries of magnitude <= 2^10 give |x| |y| <= 2^20 size; a class sums at
    most `limbs` limb products per product image.  beta is taken as eps.
    That numpy's FFT errs no more than this model is checked against exact
    products (oracle.kronecker_mul) by the tests and by basisconv selftest.
    """
    n = size.bit_length() - 1
    eps = 2.0**-53
    growth = math.expm1(
        6 * n * math.log1p(eps) + (3 * n + 1) * math.log1p(eps * math.sqrt(5))
    )
    return limbs * products * 2.0 ** (2 * (LIMB_BITS - 1)) * size * growth


@functools.cache
def _float_max(limbs):
    """The largest size the bound admits for MAX_SUMMED products of `limbs`
    limbs: 2^20 for one limb, 2^19 for two to four, 2^18 for five to eight."""
    return 1 << max(
        k for k in range(1, 40) if fft_error_bound(1 << k, MAX_SUMMED, limbs) <= FFT_ERROR_MAX
    )


# Work arrays.  The transient arrays of a product, its limb rows, the spectra
# of its operands, its class spectra with their temporaries and its class
# coefficients, and the large rows of a schoolbook product on int64 rows
# (_convolve_schoolbook), are written into arrays each thread keeps
# (_work_array).  They
# grow only, to the largest product the thread has run, so repeated products
# reuse memory already mapped instead of faulting in fresh pages.  A slot names
# one kind of array and the buffer it lives in: slots on one buffer are never
# live at once within a product.  The limb rows are transformed before the
# class spectra are made, and the first operand's spectra are read before its
# class coefficients are written.  Images that callers keep and every row array
# a product returns are fresh.
_WORK_SLOTS = {
    "limbs": (0, np.float64),
    "classes": (0, np.complex128),
    "image": (1, np.complex128),
    "coeffs": (1, np.float64),
    "image2": (2, np.complex128),
    "term": (3, np.complex128),
    "school": (4, np.int64),
}

# The most views a thread keeps at once; past it they are dropped and made
# again on use.
WORK_VIEWS_MAX = 256


class _Work(threading.local):
    """One thread's work buffers, by number, and its views of them, by (slot,
    shape)."""

    def __init__(self):
        self.buffers = {}
        self.views = {}


_work = _Work()


def _work_array(slot, shape):
    """The calling thread's work array of slot at shape, of the slot's dtype,
    with whatever content its last use left."""
    try:
        return _work.views[slot, shape]
    except KeyError:
        pass
    number, dtype = _WORK_SLOTS[slot]
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buf = _work.buffers.get(number)
    if buf is None or buf.nbytes < nbytes:
        # 16-byte aligned, as complex128 needs
        _work.buffers[number] = buf = np.empty(-(-nbytes // 16), np.complex128).view(np.uint8)
        old = _work.views.items()
        _work.views = {k: v for k, v in old if _WORK_SLOTS[k[0]][0] != number}
    if len(_work.views) >= WORK_VIEWS_MAX:
        _work.views.clear()
    view = _work.views[slot, shape] = buf[:nbytes].view(dtype).reshape(shape)
    return view


def work_bytes():
    """The bytes the calling thread's work arrays hold."""
    return sum(buf.nbytes for buf in _work.buffers.values())


# Residues of dtype object enter the limb split in chunks of CHUNK_LIMBS limbs,
# 44 bits, each exact in doubles.
CHUNK_LIMBS = 4


def _limbs(A, L):
    """The L balanced limb rows of the residue rows A, the input of a float
    image (_transform): shape (rows, L, A.shape[1]), a work array."""
    limbs = _work_array("limbs", (A.shape[0], L, A.shape[1]))
    inv_base, base = 1.0 / (1 << LIMB_BITS), float(1 << LIMB_BITS)
    chunks = [A]
    if A.dtype == object:
        bits, mask = CHUNK_LIMBS * LIMB_BITS, (1 << CHUNK_LIMBS * LIMB_BITS) - 1
        chunks = [(A >> s & mask).astype(np.float64) for s in range(0, L * LIMB_BITS, bits)]
    np.copyto(limbs[:, 0], chunks[0])
    for k in range(L - 1):
        # exact in doubles: limb k is f minus the nearest multiple hi 2^11 of
        # f, and hi, the next f, goes to row k + 1, where the next chunk of a
        # residue of dtype object joins it
        f, hi = limbs[:, k], limbs[:, k + 1]
        np.multiply(f, inv_base, out=hi)
        np.rint(hi, out=hi)
        hi *= base
        f -= hi
        hi *= inv_base
        if (k + 1) % CHUNK_LIMBS == 0:
            hi += chunks[(k + 1) // CHUNK_LIMBS]
    return limbs


def _class_spectra(pairs):
    """The product image of the sum over pairs (X, Y) of float images of
    the products X Y: the spectra of the classes c_0..c_(2L-2), a work array.
    Where Y has m times as many rows as X, the same m for every pair, row i
    of X multiplies rows i m to i m + m - 1 of Y."""
    X, Y = pairs[0]
    rows, (L, f) = max(len(X), len(Y)), X.shape[1:]
    assert fft_error_bound(2 * (f - 1), len(pairs), L) <= FFT_ERROR_MAX, (f, L, len(pairs))
    Z, T = _work_array("classes", (rows, 2 * L - 1, f)), _work_array("term", (rows, f))
    if 0 < len(X) < len(Y):
        # (rows / m, 1) against (rows / m, m): each row of X serves m rows
        lead = (len(X), len(Y) // len(X))
        Z, T = Z.reshape(lead + (2 * L - 1, f)), T.reshape(lead + (f,))
        pairs = [(X[:, None], Y.reshape(lead + (L, f))) for X, Y in pairs]
    z = [Z[..., k, :] for k in range(2 * L - 1)]
    for n, (X, Y) in enumerate(pairs):
        ys = [Y[..., j, :] for j in range(L)]
        for i in range(L):
            x = X[..., i, :]
            for j, y in enumerate(ys):
                # (i, j) with i = 0 or j = L - 1 is the first term of class i + j
                if n == 0 and (i == 0 or j == L - 1):
                    np.multiply(x, y, out=z[i + j])
                else:
                    np.multiply(x, y, out=T)
                    z[i + j] += T
    return Z.reshape(rows, 2 * L - 1, f)


def _limb_coeffs(p, Z, size, out_len):
    """The first out_len coefficients mod p of the rows of the float product
    image Z, of dtype object for p >= 2^31."""
    c = np.fft.irfft(Z, size, axis=-1, out=_work_array("coeffs", Z.shape[:2] + (size,)))
    c = c[..., :out_len]
    np.rint(c, out=c)
    if p >> 31:
        # Horner in Python ints over words c_2j + c_(2j+1) 2^11, added in
        # int64: |c_k| <= 2^42 keeps them below 2^54
        w = c.astype(np.int64)
        w[:, :-1:2] += w[:, 1::2] << LIMB_BITS
        acc = w[:, -1].astype(object)
        for k in range(w.shape[1] - 3, -1, -2):
            acc = (acc << 2 * LIMB_BITS) + w[:, k]
        return acc % p
    if c.shape[1] == 1:
        # one limb (p < 2^10): the class is the product itself
        return c[:, 0].astype(np.int64) % p
    # Horner in doubles, in place on the top class: acc <= p and |c_k| < 2^42
    # (at most three limbs) keep every value below 2^53, and so does the
    # first step, from a top class below 2^41 (top limbs of at most 2^10 at
    # sizes up to 2^19);
    # floor(t / p) is off by one only where p divides t, which leaves acc = p,
    # mapped to 0 at the end.  Once added, c_k holds the step's multiple of p
    pinv, base = 1.0 / p, float(1 << LIMB_BITS)
    acc = c[:, -1]
    for k in range(c.shape[1] - 2, -1, -1):
        acc *= base
        acc += c[:, k]
        t = c[:, k]
        np.multiply(acc, pinv, out=t)
        np.floor(t, out=t)
        t *= p
        acc -= t
    out = acc.astype(np.int64)
    out[out == p] = 0
    return out


def _dense_exact(b, p):
    """Whether a row of b limbs (|limb| <= 2^10) times a column of b residues
    below p sums exactly in doubles: every partial sum stays below 2^53."""
    return b * (p - 1) << (LIMB_BITS - 1) < 1 << 53


def _dense_mul(mod: Modulus, A, M):
    """The int64 rows A times the float64 matrix M of residues, mod p, as
    int64 rows of residues: one GEMM of the balanced limbs of A (_limbs) by M,
    exact while _dense_exact(len(M), p) holds (asserted), rounded, reduced
    and recombined mod p in int64.  The limbs are split from A read as one
    row, so that each limb of all rows is one contiguous block: limb-major
    rows, where the limb rows of many rows of A would each be a short
    strided slice."""
    p, (r, b), L = mod.p, A.shape, mod.limbs
    assert _dense_exact(b, p), (b, p)
    limbs = _limbs(A.reshape(1, r * b), L).reshape(L * r, b)
    c = np.rint(np.matmul(limbs, M)).astype(np.int64).reshape(L, r, M.shape[1])
    # |c_k| < 2^53 and out < 2^31: each step stays below 2^54 in int64
    out = c[L - 1] % p
    for k in range(L - 2, -1, -1):
        out = ((out << LIMB_BITS) + c[k]) % p
    return out


def _times(mod: Modulus, X, M):
    """X M mod p for int64 rows X and a float64 matrix M of residues
    (_dense_mul); a 1-D X stands for the rows of Diag(X), whose product is M
    with its rows scaled, and no GEMM."""
    if X.ndim == 1:
        return X[:, None] * M.astype(np.int64) % mod.p
    return _dense_mul(mod, X, M)


def _toeplitz(s, n):
    """The n x n float64 matrix U[i, j] = s_(j - i), 0 for j < i, of the
    residues s, as a read-only view of one row of 2n - 1 entries: rows times
    U (_dense_mul) are their products by s mod x^n (mul_trunc), and rows times
    its transpose the transposed products (mul_trunc_t)."""
    w = np.zeros(2 * n - 1)
    k = min(len(s), n)
    w[n - 1 : n - 1 + k] = s[:k]
    step = w.strides[0]
    # row i starts at w[n - 1 - i]
    U = np.lib.stride_tricks.as_strided(w[n - 1 :], (n, n), (-step, step))
    return _readonly(U)


# -- array helpers ---------------------------------------------------------


def _array_bytes(value, seen):
    """The bytes of the numpy arrays value holds, in its containers, Polys and
    object attributes, a view counted as its base, but for those whose id is
    in seen, which it joins; a Modulus counts nothing."""
    if id(value) in seen or isinstance(value, Modulus):
        return 0
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        # a view holds the memory of its base
        return value.nbytes if value.base is None else _array_bytes(value.base, seen)
    if isinstance(value, Poly):
        return _array_bytes(value.arr, seen)
    if isinstance(value, dict):
        value = list(value.values())
    elif hasattr(value, "__dict__") and not callable(value):
        value = list(vars(value).values())
    if isinstance(value, (tuple, list)):
        return sum(_array_bytes(v, seen) for v in value)
    return 0


def _readonly(arr):
    arr.flags.writeable = False
    return arr


def _fit(arr, n):
    """A fresh array of length n: arr truncated or zero-padded."""
    out = np.zeros(n, dtype=arr.dtype)
    k = min(n, len(arr))
    out[:k] = arr[:k]
    return out


def _residues(mod: Modulus, values):
    """values (a sequence of integers) reduced mod p into a fresh array of
    mod.dtype."""
    if isinstance(values, np.ndarray) and values.dtype == mod.dtype:
        return values % mod.p
    # through Python ints: entries may be negative, beyond int64 or numpy
    # scalars, which must not enter an object array
    return (np.array([int(v) for v in values], dtype=object) % mod.p).astype(mod.dtype)


def _arange(mod: Modulus, start, stop):
    """The integers start..stop-1 as an array of mod.dtype."""
    return np.arange(start, stop).astype(mod.dtype)


def _powers(mod: Modulus, lam, m):
    """[lam^0, ..., lam^(m-1)] mod p as an array, by doubling."""
    p = mod.p
    out = np.ones(m, dtype=mod.dtype)
    k = 1
    while k < m:
        step = min(k, m - k)
        out[k : k + step] = out[:step] * pow(lam, k, p) % p
        k *= 2
    return out


def _prefix_products(values, p):
    """Running products v_0 ... v_i mod p along the last axis of an array, in
    log2(n) doubling steps (the Hillis-Steele scan)."""
    out = values % p
    k = 1
    while k < out.shape[-1]:
        out[..., k:] = out[..., k:] * out[..., :-k] % p
        k *= 2
    return out


class Poly:
    """Dense polynomial in K[x]_dim: a read-only array of exactly dim
    coefficients in [0, p), of dtype mod.dtype."""

    __slots__ = ("mod", "arr")

    def __init__(self, mod: Modulus, coeffs, dim=None):
        """From a sequence of integers, reduced mod p and truncated or
        zero-padded to dim (default: its length, at least 1)."""
        if dim is None:
            dim = max(1, len(coeffs))
        if dim < 1:
            raise DimensionMismatch("dim must be >= 1")
        self.mod = mod
        self.arr = _readonly(_fit(_residues(mod, coeffs[:dim]), dim))

    @classmethod
    def of(cls, mod: Modulus, arr):
        """The Poly over the non-empty 1-D array arr itself, whose entries
        must already be residues in [0, p) of dtype mod.dtype: no copy and no
        reduction.  arr is made read-only."""
        P = cls.__new__(cls)
        P.mod, P.arr = mod, _readonly(arr)
        return P

    @classmethod
    def zero(cls, mod, dim):
        return cls(mod, [], dim)

    @classmethod
    def x(cls, mod, dim):
        """The identity polynomial x (dim >= 2 gives an honest x)."""
        return cls(mod, [0, 1][:dim], dim)

    @property
    def coeffs(self):
        """The coefficients as a list of ints."""
        return self.arr.tolist()

    @property
    def dim(self):
        return len(self.arr)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.mod == other.mod
            and np.array_equal(self.arr, other.arr)
        )

    def __hash__(self):
        return hash((self.mod.p, tuple(self.coeffs)))

    def __repr__(self):
        return f"Poly({self.coeffs}, p={self.mod.p})"

    def degree(self):
        """Degree of the stored truncation; -1 for the zero polynomial."""
        nz = np.flatnonzero(self.arr)
        return int(nz[-1]) if len(nz) else -1

    def valuation(self):
        """Index of the first nonzero coefficient; None if all stored are zero."""
        nz = np.flatnonzero(self.arr)
        return int(nz[0]) if len(nz) else None

    def constant(self):
        return int(self.arr[0])


def poly_mul(a: Poly, b: Poly) -> Poly:
    """Exact product; result dim = dim(a) + dim(b) - 1."""
    if a.mod != b.mod:
        raise DimensionMismatch("mixed moduli")
    return Poly.of(a.mod, _convolve(a.mod, a.arr, b.arr))


def mul_trunc(a: Poly, P, n: int) -> Poly:
    """a * P mod x^n, result dim n.  P is a Poly, or an operand kept by
    _fixed_operand for products of length <= n."""
    mod = a.mod
    if isinstance(P, np.ndarray):
        return Poly.of(mod, _mul_fixed(mod, a.arr[:n], P, n))
    da, dp = a.degree(), P.degree()
    if da < 0 or dp < 0:
        return Poly.zero(mod, n)
    # truncating the inputs to n first keeps the transform size at O(n)
    prod = _convolve(mod, a.arr[: min(da + 1, n)], P.arr[: min(dp + 1, n)])
    return Poly.of(mod, _fit(prod, n))


def mul_trunc_t(a: Poly, P, m: int) -> Poly:
    """Transpose of mul_trunc(., P, n) for n = dim(a); result dim m.  P is a
    Poly, or an operand kept by _fixed_operand for products of length <= n.

    Realized as the middle product (a * Rev(P) mod x^(m+e)) div x^e, e the
    degree of P, which reads a below x^(m+e) only.
    """
    mod = a.mod
    if isinstance(P, np.ndarray):
        return Poly.of(mod, _mul_fixed(mod, a.arr, P, m, transposed=True))
    e = P.degree()
    if a.degree() < 0 or e < 0:
        return Poly.zero(mod, m)
    prod = _convolve(mod, a.arr[: m + e], P.arr[e::-1])
    return Poly.of(mod, _fit(prod[e:], m))
