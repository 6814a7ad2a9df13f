"""Prime-field arithmetic and the polynomial multiplication kernel.

A Modulus bundles the prime with the limb layouts of its products, its
factorial tables and one cache for input-independent data
(Modulus.cached).  Residues live in numpy arrays of dtype Modulus.dtype: int64
for p < 2^31, where a product of two residues stays below 2^62, and object
(Python ints) for larger primes; the same array expressions serve both.  A
Poly is a dense polynomial of a fixed declared dimension over one modulus: one
read-only array of its dim coefficients in [0, p), trailing zeros included.
Lists of Python ints appear only at the boundary, read here for every public
entry point: rows of integers (_integers, _residues, _strict_row), Polys
(_check_poly) and dimensions (_dimension, Modulus.check_precision).

Short operands go to the schoolbook convolution, by measured work
(_by_transform).  Longer ones are multiplied through images, transforms of the
rows of 2-D arrays, so one call multiplies a whole batch of equal-length
operands (_convolve_rows); a single product is its one-row case.  There is one
transform, the float FFT (numpy.fft.rfft) on L balanced limbs of w bits of each
residue, for every prime, dtype and size.  The layout (L, w) follows from p
and the size by one rule (Modulus.layout): the fewest limbs, and the
narrowest width that holds every residue in them, whose rounding error bound
(fft_error_bound) stays below FFT_ERROR_MAX.  For the default prime that is
two 16-bit limbs up to size 2^10, three 11-bit limbs up to 2^19 and four
8-bit limbs up to 2^24; narrower limbs go on to sizes 2^33 to 2^39, depending
on p, past which an image raises CapacityExceeded.  The kernel needs no roots
of unity.
A fixed operand, a series every product by which is input-independent, keeps
its one-row image wherever its products transform (_fixed_operand): each
product by it then costs one forward and one inverse transform.  mul_trunc
and mul_trunc_t take such an operand in place of a Poly.
Every kept image, of a fixed operand (a family's unit and root powers, u, v
and their inverses, the Taylor-shift series) or of the levels of evalgrid's
grid trees, is scaled wherever the bound admits it (_kept_image,
Modulus.scaled_layout): it holds the L_x
variants Y_i = 2^(w_x i) Y mod p of their rows Y, each in the size's layout
(L, w), so that rows X = sum_i x_i 2^(w_x i) of L_x <= L limbs of w_x bits
multiply them as X Y = sum_i x_i Y_i mod p, in the L classes
c_j = sum_i x_i y_(i,j): L_x forward and L inverse transforms where a plain
image takes L and 2L - 1.  The bound admits more for a fixed operand whose
products never wrap (la + lb - 1 <= size, known when it is kept), each
charged by its lengths (fft_error_bound), than for the grid trees' levels,
whose products are summed in pairs or wrap.  For the default prime that is
two 16-bit limbs against three 11-bit ones from size 2^11 to 2^15, and to
2^17 for such fixed operands, 2 forward and 3 inverse FFTs per product in
place of 3 and 5, for twice the memory of the image: after a warm pass the
cache holds 11.1 MB on sheffer_large and 42.5 MB on algebraic_large (7.6
and 24.9 MB with every image plain, 40.9 MB with those at 2^16 plain),
where one Taylor-shift series per transform size (polyops), not one per
shift value, makes room for them.  At 2^18 alone such a fixed operand's
image is square (SQUARE), three variants of three 11-bit limbs by which
rows of three limbs multiply: 3 forward and 3 inverse FFTs in place of 3
and 5, for three times the memory.

Rows times a fixed matrix of residues (the leaf blocks of evalgrid's grid
tree) take one float64 matrix product of their limbs (_dense_mul), exact
while its partial sums stay below 2^53 (_dense_exact), with the layout the
same rule gives for that bound and the inner dimension; it too rests on the
numpy build, and oracle.dense_product_agrees checks it as
oracle.float_kernel_agrees checks the float FFT.

The float kernel writes the transient arrays of a product into work arrays
that each thread keeps and reuses (_work_array): the limb rows (_limbs, which
_dense_mul reads too), the spectra of its operands, its class spectra with
their temporaries, its class coefficients, on which the recombination runs
in place, and the quotients of that recombination; the schoolbook keeps its
large int64 rows there too.  They grow only, to the largest product the
thread has run, so warm products map no fresh pages, while the thread's
total stays within WORK_KEEP_MAX (64 MiB; a product at size 2^19 keeps 56
MiB for the default prime): a larger array drops them all first, and one
past the bound alone is made fresh and not kept.
Kept images (_fixed_operand, the levels of evalgrid's trees), every row
array a product returns and every cached value are fresh arrays, never work
arrays.  After a
warm pass of each of the benchmark's workloads a thread holds (work_bytes)
0.11 MB on catalog_small (n <= 256), 1.8 MB on sheffer_large (n = 8192) and
8.7 MB on algebraic_large (n = 16384).
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityExceeded,
    DimensionMismatch,
    DivisionByZero,
    DomainViolation,
    PrecisionExceedsModulus,
)

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


class Modulus:
    """A prime modulus with the limb layouts of its products (layout), its
    factorial tables and cached data."""

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
        self._layouts = _layouts(p)
        self._scaled = _scaled_layouts(p, self._layouts)
        self._scaled_linear = _scaled_layouts(p, self._layouts, linear=True)

    def __repr__(self):
        return f"Modulus({self.p})"

    def layout(self, size, dense=False):
        """(L, w) of products at size: L balanced limbs of w bits (_limbs),
        the fewest whose exactness bound admits size (_layouts), for float
        images of that size or, dense, for _dense_mul at inner dimension
        size; None where no layout does."""
        for L, w, float_size, dense_size in self._layouts:
            if size <= (dense_size if dense else float_size):
                return L, w
        return None

    def scaled_layout(self, size, linear=False):
        """(L_x, w_x) of the rows multiplied by a scaled image at size
        (_kept_image), fewer limbs than layout(size) gives, for a sum of two
        products or, linear, for one product that does not wrap, there as
        many at SQUARE where none are fewer; None where the bound admits none
        (_scaled_layouts)."""
        return (self._scaled_linear if linear else self._scaled).get(size)

    def __eq__(self, other):
        return isinstance(other, Modulus) and other.p == self.p

    def __hash__(self):
        return hash(self.p)

    # -- scalar field arithmetic ------------------------------------------

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
        """n read by _dimension; PrecisionExceedsModulus for n >= p."""
        n = _dimension(n)
        if n >= self.p:
            raise PrecisionExceedsModulus(f"precision {n} >= modulus {self.p}")
        return n

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
    many rows, through float images."""
    out_len = A.shape[1] + B.shape[1] - 1
    # a float image has at least size 2
    size = max(_size(out_len), 2)
    return _image_coeffs(mod, _product_image(mod, A, B, size), out_len)


def _product_image(mod: Modulus, A, B, size):
    """The product image at size of the rows of A and B, whose images are
    work arrays (_work_array) that do not outlive the call."""
    return _image_mul(mod, _image(mod, A, size, "image"), _image(mod, B, size, "image2"))


# Images: rows in the transform domain of the products mod x^size - 1, the
# float limb spectra of their rows, 3-D: (rows, L limbs, size // 2 + 1
# frequencies) in the layout mod.layout(size).  A kept image may be scaled
# (_kept_image), 4-D: the L_x variants 2^(w_x i) Y mod p of its rows Y, each
# in the size's layout, variant 0 the plain image; rows multiplied by it
# enter in the scaled layout (L_x, w_x) (_image_by).  A product image
# (_image_mul) is what _image_coeffs turns back into rows: class spectra,
# 3-D, or 4-D with one variant by a scaled image, from which the
# recombination takes its layout.


def _image(mod: Modulus, A, size, slot=None, layout=None):
    """The image of the coefficient rows of A, each of length <= size, in
    layout (default mod.layout(size)): fresh, or given a slot, the calling
    thread's work array of that slot (_work_array), for a product to read
    before the next one.  Raises CapacityExceeded, before it allocates
    anything, where no layout admits the size."""
    layout = layout or mod.layout(size)
    if layout is None:
        raise CapacityExceeded(f"no limb layout of p = {mod.p} is exact at size {size}")
    return _transform(mod, _limbs(A, *layout), size, None, slot)


def _kept_image(mod: Modulus, A, size, linear=False):
    """The fresh image of the rows A that a caller keeps: scaled where
    mod.scaled_layout(size, linear) gives (L_x, w_x), the images of the L_x
    variants 2^(w_x i) A mod p, (rows, L_x, L, f), by which rows of L_x limbs
    of w_x bits multiply (_image_mul), variant 0, [:, 0], the plain image;
    plain elsewhere.  linear: for products by it that never wrap and are
    never summed (_fixed_operand)."""
    layout = mod.scaled_layout(size, linear)
    if layout is None:
        return _image(mod, A, size)
    p, (Lx, wx) = mod.p, layout
    variants = np.stack([A] + [A * pow(2, wx * i, p) % p for i in range(1, Lx)], axis=1)
    img = _image(mod, variants.reshape(-1, A.shape[1]), size)
    return img.reshape((len(A), Lx) + img.shape[1:])


def _plain(X):
    """The plain image of a kept image: variant 0 of a scaled one."""
    return X[:, 0] if X.ndim == 4 else X


def _image_by(mod: Modulus, A, Y, slot="image"):
    """The image, in the work array of slot, of the rows A for products by
    the kept image Y: where Y is scaled, in L_x limbs of w_x = _width(p, L_x)
    bits, L_x its number of variants."""
    Lx = Y.shape[1]
    layout = (Lx, _width(mod.p, Lx)) if Y.ndim == 4 else None
    return _image(mod, A, _image_size(Y), slot, layout)


def _image_size(X):
    """The size of an image or product image, which keeps the size // 2 + 1
    frequencies of each limb or class row."""
    return 2 * (X.shape[-1] - 1)


def _image_mul(mod: Modulus, X, Y, U=None, V=None, lengths=None):
    """The product image, a work array, of X Y, or of X Y + U V, row-wise,
    that is of their rows mod x^size - 1: the spectra of the classes
    c_k = sum_{i+j=k} x_i y_j, k < 2L - 1, of plain images in one layout;
    or, by scaled images Y and V (_kept_image) and X and U in their scaled
    layout (_image_by), of the classes c_j = sum_i x_i y_(i,j), j < L,
    y_(i,j) limb j of variant i (4-D: the one variant of classes seen as L_x
    variants, so that the recombination reads their layout).  The class
    spectra of the two products add unreduced before any inverse transform.
    Where Y has m times as many rows as X, the same m for V and U, row i of X
    multiplies rows i m to i m + m - 1 of Y.  lengths (la, lb): the most
    entries the rows of X and Y hold, where the bound charges sqrt(la lb)
    in place of size (fft_error_bound); the bound is asserted."""
    p, pairs = mod.p, [(X, Y)] if U is None else [(X, Y), (U, V)]
    rows, (Lx, f), L = max(len(X), len(Y)), X.shape[1:], Y.shape[-2]
    scaled = Y.ndim == 4
    size, K = 2 * (f - 1), L if scaled else 2 * L - 1
    bound = fft_error_bound(size, len(pairs), Lx, _width(p, Lx), _width(p, L), lengths)
    assert bound <= FFT_ERROR_MAX and Lx == Y.shape[1], (f, Lx, L, len(pairs), lengths)
    Z, T = _work_array("classes", (rows, K, f)), _work_array("term", (rows, f))
    if 0 < len(X) < len(Y):
        # (rows / m, 1) against (rows / m, m): each row of X serves m rows
        lead = (len(X), len(Y) // len(X))
        Z, T = Z.reshape(lead + (K, f)), T.reshape(lead + (f,))
        pairs = [(X[:, None], Y.reshape(lead + Y.shape[1:])) for X, Y in pairs]
    z, made = [Z[..., k, :] for k in range(K)], set()
    for X, Y in pairs:
        for i in range(Lx):
            x = X[..., i, :]
            for j in range(L):
                k, y = (j, Y[..., i, j, :]) if scaled else (i + j, Y[..., j, :])
                if k in made:
                    np.multiply(x, y, out=T)
                    z[k] += T
                else:
                    np.multiply(x, y, out=z[k])
                    made.add(k)
    Z = Z.reshape(rows, K, f)
    if not scaled:
        return Z
    # a zero-stride view, read-only (np.broadcast_to costs four times as much)
    strides = Z.strides[:1] + (0,) + Z.strides[1:]
    return _readonly(np.ndarray((rows, Lx, K, f), Z.dtype, Z, 0, strides))


def _image_coeffs(mod: Modulus, X, out_len):
    """The first out_len coefficients of every row of a product image."""
    return _transform(mod, X, _image_size(X), out_len)


def _transform(mod: Modulus, X, size, out_len=None, slot=None):
    """The one entry to the float transforms: the spectra of the limb rows X
    (_limbs), in the work array of slot if one is given; or, given out_len,
    the first out_len coefficients of the rows of the product image X."""
    if out_len is None:
        out = None if slot is None else _work_array(slot, X.shape[:2] + (size // 2 + 1,))
        return np.fft.rfft(X, size, axis=-1, out=out)
    p = mod.p
    if X.ndim == 4:
        # by a scaled image: L classes of w bits, each summing L_x limb
        # products of w_x by w bits per product image
        Lx, L = X.shape[1:3]
        wx, w = _width(p, Lx), _width(p, L)
        return _limb_coeffs(p, X[:, 0], size, out_len, w, Lx * MAX_SUMMED * size << wx + w - 2)
    # 2L - 1 classes of w bits, the middle one summing L limb products
    L = (X.shape[1] + 1) // 2
    w = _width(p, L)
    return _limb_coeffs(p, X, size, out_len, w, L * MAX_SUMMED * size << 2 * w - 2)


@dataclass(frozen=True, eq=False)
class _Kept:
    """A fixed operand kept as an image (_fixed_operand): the image of its
    one row and the row's length lb, which the bound of each product by it
    charges (_mul_fixed)."""

    image: np.ndarray
    length: int


def _fixed_operand(mod: Modulus, b, la, size=None):
    """What products of arrays of length <= la by the fixed array b keep of
    b, trimmed to its length lb (its degree + 1): its image (_Kept, of one
    row, scaled where admitted, _kept_image) where such a product
    transforms, its coefficients otherwise.  The image is at size, by
    default the products' own _size(la + lb - 1); at a smaller size the
    products by it are taken mod x^size - 1, for a caller that reads only
    coefficients the wrap leaves alone.  Where la + lb - 1 <= size no
    product by it wraps, and its image is scaled where the bound admits one
    such product (mod.scaled_layout(size, linear=True)); elsewhere where it
    admits a sum of two.  Callers cache it or read it more than once;
    _mul_fixed, mul_trunc and mul_trunc_t use it."""
    nz = np.flatnonzero(b)
    lb = int(nz[-1]) + 1 if len(nz) else 1
    if _by_transform(mod, la, lb):
        size = size or _size(la + lb - 1)
        image = _kept_image(mod, b[None, :lb], size, linear=la + lb - 1 <= size)
        return _Kept(_readonly(image), lb)
    return _readonly(b[:lb].copy())


def _mul_fixed(mod: Modulus, a, fixed, out_len, transposed=False):
    """The first out_len coefficients of a times the operand b kept by
    _fixed_operand, mod x^size - 1 where b is kept as an image at size: one
    forward and one inverse transform, whose bound charges the lengths of a
    and b.  transposed: of the middle product, a times b read backwards from
    x^(len(b) - 1) on (the product by b of mul_trunc_t), read from the
    product of a reversed by b's image."""
    if isinstance(fixed, np.ndarray):
        # the product reads b below out_len (transposed: below len(a)) only
        if transposed:
            b = fixed[: len(a)]
            return _fit(_convolve(mod, a, b[::-1])[len(b) - 1 :], out_len)
        return _fit(_convolve(mod, a, fixed[:out_len]), out_len)
    Y, lengths = fixed.image, (len(a), fixed.length)
    if transposed:
        # coefficient k, sum_j a_(k+j) b_j, is coefficient len(a) - 1 - k of
        # Rev(a) b; Rev(a) needs no zero-padded row of the size
        X = _image_by(mod, a[None, ::-1], Y)
        product = _image_mul(mod, X, Y, lengths=lengths)
        return _fit(_image_coeffs(mod, product, len(a))[0, ::-1], out_len)
    X = _image_by(mod, a[None], Y)
    return _image_coeffs(mod, _image_mul(mod, X, Y, lengths=lengths), out_len)[0]


def _mul_cyclic(mod: Modulus, a, b, size, out_len):
    """The first out_len coefficients of a b mod x^size - 1 for 1-D a and b
    of length <= size: through images at size, one of a where b is a (a
    square), or where _by_transform picks the schoolbook, the linear product
    folded."""
    if _by_transform(mod, len(a), len(b)):
        X = _image(mod, a[None], size, "image")
        Y = X if b is a else _image(mod, b[None], size, "image2")
        return _image_coeffs(mod, _image_mul(mod, X, Y), out_len)[0]
    c = _fit(_convolve(mod, a, b), 2 * size)
    return (c[:out_len] + c[size : size + out_len]) % mod.p


# -- the float kernel ------------------------------------------------------
#
# A residue a splits into L balanced limbs of w bits, a = sum_k a_k 2^(wk)
# with |a_k| <= 2^(w-1).  The image of a row is the rfft of each of its limb
# rows; a product image holds the spectra of the 2L - 1 classes
# c_k = sum_{i+j=k} a_i b_j, whose inverse transforms round to integers of
# magnitude below 2^47 (the bound admits no more), recombined to
# sum_k c_k 2^(wk) mod p.
#
# The layout (L, w) of a product follows from p and its size by one rule
# (_layouts): the fewest limbs L whose exactness bound admits the size, each
# of the narrowest width w that holds every residue below p in L limbs.  For
# float images the bound is fft_error_bound(size, MAX_SUMMED, L, w) <=
# FFT_ERROR_MAX, for _dense_mul at inner dimension b it is
# b 2^(w-1) (p - 1) < 2^53 (_dense_exact).  Fewer limbs take fewer
# transforms: L limbs cost L forward and 2L - 1 inverse FFTs and L^2 spectrum
# products.  For DEFAULT_PRIME the rule gives two 16-bit limbs for float
# images up to size 2^10 and for dense products up to b = 136, three 11-bit
# limbs up to 2^19 and b = 4369, four 8-bit limbs up to 2^24; for a 40-bit
# prime, three 14-bit limbs up to 2^13, four 11-bit ones up to 2^19 and five
# 9-bit ones up to 2^22.  One warm product by _convolve_rows of a row of
# size / 2 residues of DEFAULT_PRIME by another, or of 32 such pairs, in us,
# two 16-bit limbs / three 11-bit limbs (one product image: two limbs pass
# the bound at 2048 only for that), best of 300 interleaved on a 2-core
# x86-64 machine with numpy 2.4:
#
#    size        1 row            32 rows
#      64     80 /  121        243 /  450
#     128     85 /  127        380 /  666
#     256     95 /  137        636 / 1077
#     512    115 /  164       1290 / 2123
#    1024    150 /  210       2614 / 3545
#    2048    175 /  229       6182 / 8245
#
# so two limbs are faster wherever the bound admits them.
#
# A product by a scaled image (_kept_image) splits only the rows it
# multiplies, into the fewest L_x < L limbs of w_x bits for which
# fft_error_bound(size, MAX_SUMMED, L_x, w_x, w) <= FFT_ERROR_MAX
# (_scaled_layouts): L_x forward and L inverse FFTs and L_x L spectrum
# products, L classes of w bits.  For DEFAULT_PRIME that is two 16-bit limbs
# against three 11-bit ones from size 2^11 to 2^15 (the bound is 0.094 at
# 2^15, 0.20 at 2^16); for a 40-bit prime two 21-bit limbs against three
# 14-bit ones from 2^3 to 2^8 and three 14-bit limbs against four 11-bit ones
# from 2^14 to 2^16.  Past 2^19 it is three 11-bit limbs against four 8-bit
# ones from 2^20 to 2^22 for DEFAULT_PRIME, and four 11-bit limbs against five
# 9-bit ones at 2^20 for the 40-bit prime.
# The image of a fixed operand whose products never wrap is scaled where the
# bound admits one product of lengths size / 2 and size / 2 + 1, the largest
# such: fft_error_bound(size, 1, L_x, w_x, w, lengths), a quarter of the
# above (scaled_layout(size, linear=True)).  For DEFAULT_PRIME that adds two
# 16-bit limbs at 2^16 and 2^17 (the bound is 0.050 and 0.107; 0.226 at
# 2^18), and for the 40-bit prime two 21-bit limbs at 2^9 and three 14-bit
# ones at 2^17 and 2^18.  Each product by it asserts the bound for the
# lengths it is given (_mul_fixed), and its layout is read from the image's
# shape, its number of variants.  One warm product of rows
# of size / 2 residues of DEFAULT_PRIME by the kept image of as many rows,
# in us, plain / scaled, best of 100 to 300 (1 row) and 10 to 30 (32 rows)
# interleaved, same machine:
#
#    size         1 row              32 rows
#    2048     317 /  226         8885 /  5621
#    4096     312 /  213        12106 /  7686
#    8192     598 /  400        26928 / 17303
#   16384    1445 / 1003        60446 / 38786
#   32768    3282 / 2233       129563 / 84130


# Rounding to the nearest integer is exact while the error stays below 1/2;
# dispatch asks for a fourfold margin.
FFT_ERROR_MAX = 1 / 8

# The most product images summed before one inverse transform
# (_image_mul).
MAX_SUMMED = 2

# (size, L) of the one square image: where the bound admits no fewer limbs
# than the three of a fixed operand's image at 2^18 (DEFAULT_PRIME), the rows
# multiplied by it take three limbs too, and the image holds three variants
# (_scaled_layouts): 3 forward and 3 inverse FFTs in place of 3 and 5, for
# three times the memory of the image.  DEFAULT_PRIME, plain / square, best
# of 15 (5 at n = 2^17) on a 2-core x86-64 machine with numpy 2.4:
#
#    a row of 2^17 residues by a kept one, ms      32.5 / 25.3
#    its middle product, ms                        30.1 / 23.5
#
#    warm jacobi(alpha=3,beta=5)       n = 2^16            n = 2^17
#    to_monomial, ms               102-105 / 89-92     316-325 / 287-308
#    from_monomial, ms               57-58 / 57-58     213-216 / 181-189
#    the round trip's cache, MB      53.5 / 66.1         75.5 / 138.4
#    its ru_maxrss, MB                130 / 135           193 / 256
#
# At n = 2^16 only to_monomial's two Taylor shifts multiply at 2^18; at
# 2^17 so do the family's kept operands.  Other sizes and layouts keep plain
# images: none other was timed, and the memory grows with the size.
SQUARE = (1 << 18, 3)


def fft_error_bound(size, products, limbs, width, other=None, lengths=None):
    """A bound on the rounding error of every class coefficient of a sum of
    `products` float product images at size (a power of two), each class
    summing `limbs` products of a limb of `width` bits by one of `other` bits
    (default: width) per product image, of rows of at most size entries, or
    given lengths (la, lb), of at most la and lb entries.

    Percival (Math. Comp. 72, 2003): a cyclic convolution of real vectors
    x, y by a radix-2 FFT of size 2^n in IEEE doubles, with unit roundoff
    eps = 2^-53 and twiddle factors accurate to beta, errs by at most
    |x| |y| ((1 + eps)^(3n) (1 + eps sqrt 5)^(3n + 1) (1 + beta)^(3n) - 1)
    in every coefficient, |.| the Euclidean norm.  Limb rows of la and lb
    entries of magnitude <= 2^(w - 1) and 2^(v - 1) give |x| |y| <=
    2^(w + v - 2) sqrt(la lb), at most 2^(w + v - 2) size; a product that
    does not wrap, la + lb - 1 <= size, has sqrt(la lb) <= (size + 1) / 2.
    beta is taken as eps.  That numpy's FFT errs no more than this model is
    checked against exact products (oracle.kronecker_mul) and the closed
    form of constant rows (oracle.constant_rows_agree) by the tests and by
    basisconv selftest.
    """
    other = width if other is None else other
    norm = size if lengths is None else math.sqrt(lengths[0] * lengths[1])
    return limbs * products * 2.0 ** (width + other - 2) * norm * _growth(size)


@functools.cache
def _growth(size):
    """The relative error factor of fft_error_bound at size, computed once
    per size, so that a product's bound costs a few float operations."""
    n = size.bit_length() - 1
    eps = 2.0**-53
    return math.expm1(6 * n * math.log1p(eps) + (3 * n + 1) * math.log1p(eps * math.sqrt(5)))


def _width(p, L):
    """The narrowest width w whose L balanced limbs hold every residue below
    p: the top limb stays within 2^(w-1) like the others for residues below
    2^(wL - 1)."""
    return -(-((p - 1).bit_length() + 1) // L)


def _dense_exact(b, p, w):
    """Whether a row of b limbs of w bits (|limb| <= 2^(w-1)) times a column
    of b residues below p sums exactly in doubles: every partial sum stays
    below 2^53."""
    return b * (p - 1) << (w - 1) < 1 << 53


def _layouts(p):
    """(L, w, float size, dense size) for each limb count L from one to
    bits(p - 1) + 1, w = _width(p, L): the largest size of a float image the
    bound admits for L or fewer limbs (0 for none), searched upward from that
    of L - 1, and the largest inner dimension of _dense_mul for L limbs."""
    out, k = [], 0
    for L in range(1, (p - 1).bit_length() + 2):
        w = _width(p, L)
        while fft_error_bound(2 << k, MAX_SUMMED, L, w) <= FFT_ERROR_MAX:
            k += 1
        out.append((L, w, 1 << k if k else 0, ((1 << 53) - 1) // ((p - 1) << (w - 1))))
    return tuple(out)


def _scaled_layouts(p, layouts, linear=False):
    """{size: (L_x, w_x)} for each power-of-two size served by layouts at
    which rows multiplied by a scaled image, whose variants are in the size's
    layout (L, w), take fewer limbs: the fewest L_x < L, w_x = _width(p, L_x),
    for which fft_error_bound(size, MAX_SUMMED, L_x, w_x, w) <= FFT_ERROR_MAX,
    or, linear, the bound of one product of lengths size / 2 and
    size / 2 + 1, the largest of any product that does not wrap; searched
    from that of the size before in the same layout.  linear, at the size of
    SQUARE where no L_x < L is admitted against its L limbs, the rows take
    the size's own layout, L_x = L (a square image, admitted wherever the
    plain layout is)."""
    products, out, below = 1 if linear else MAX_SUMMED, {}, 1
    for L, w, top, _ in layouts:
        size, Lx = 2 * below, 1
        while size <= top and Lx < L:
            lengths = (size // 2, size // 2 + 1) if linear else None
            if fft_error_bound(size, products, Lx, _width(p, Lx), w, lengths) <= FFT_ERROR_MAX:
                out[size] = (Lx, _width(p, Lx))
                size *= 2
            else:
                Lx += 1
        if linear and L == SQUARE[1] and below < SQUARE[0] <= top:
            out.setdefault(SQUARE[0], (L, w))
        below = max(top, 1)
    return out


# Work arrays.  The transient arrays of a product, its limb rows, the spectra
# of its operands, its class spectra with their temporaries, its class
# coefficients and the quotients of their recombination, and the large rows
# of a schoolbook product on int64 rows (_convolve_schoolbook), are written
# into arrays each thread keeps (_work_array).  They grow only, to the
# largest product the thread has run, up to WORK_KEEP_MAX bytes for all of
# them, so repeated products reuse memory already mapped instead of faulting
# in fresh pages.  A slot names one kind of array and the buffer it lives
# in: slots on one buffer are never live at once within a product.  The
# limb rows are transformed before the class spectra are made, the first
# operand's spectra are read before its class coefficients are written, and
# the class spectra's temporary before the quotients.  Images that callers keep and every row
# array a product returns are fresh.
_WORK_SLOTS = {
    "limbs": (0, np.float64),
    "classes": (0, np.complex128),
    "image": (1, np.complex128),
    "coeffs": (1, np.float64),
    "image2": (2, np.complex128),
    "term": (3, np.complex128),
    "quot": (3, np.float64),
    "school": (4, np.int64),
}

# The most views a thread keeps at once; past it they are dropped and made
# again on use.
WORK_VIEWS_MAX = 256

# The most bytes the work arrays of one thread hold together.  A buffer
# that would take the total past it drops the thread's buffers first, so
# that a huge product leaves at most this much behind and the products
# after it grow buffers of their own size again; an array past it alone is
# made fresh for its one use.  Every product up to size 2^19 keeps its
# arrays: 56 MiB for the default prime at 2^19 (four buffers of 20, 20, 12
# and 4 MiB), 76 MiB for a 40-bit prime, which exceeds it.
WORK_KEEP_MAX = 64 << 20


class _Work(threading.local):
    """One thread's work buffers, by number, and its views of them, by (slot,
    shape)."""

    def __init__(self):
        self.buffers = {}
        self.views = {}


_work = _Work()


def _work_array(slot, shape):
    """The calling thread's work array of slot at shape, of the slot's dtype,
    with whatever content its last use left; a fresh array, kept nowhere,
    past WORK_KEEP_MAX bytes.  A buffer grown past the thread's total of
    WORK_KEEP_MAX drops the others first: arrays handed out before stay
    valid, each holding its own buffer."""
    try:
        return _work.views[slot, shape]
    except KeyError:
        pass
    number, dtype = _WORK_SLOTS[slot]
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    # 16-byte aligned, as complex128 needs
    kept = -(-nbytes // 16) * 16
    if kept > WORK_KEEP_MAX:
        return np.empty(shape, dtype)
    buf = _work.buffers.get(number)
    if buf is None or buf.nbytes < nbytes:
        if work_bytes() - (0 if buf is None else buf.nbytes) + kept > WORK_KEEP_MAX:
            _work.buffers, _work.views = {}, {}
        _work.buffers[number] = buf = np.empty(kept // 16, np.complex128).view(np.uint8)
        old = _work.views.items()
        _work.views = {k: v for k, v in old if _WORK_SLOTS[k[0]][0] != number}
    if len(_work.views) >= WORK_VIEWS_MAX:
        _work.views.clear()
    view = _work.views[slot, shape] = buf[:nbytes].view(dtype).reshape(shape)
    return view


def work_bytes():
    """The bytes the calling thread's work arrays hold."""
    return sum(buf.nbytes for buf in _work.buffers.values())


def _limbs(A, L, w):
    """The L balanced limb rows of w bits of the residue rows A, the input of
    a float image (_transform): shape (rows, L, A.shape[1]), a work array.
    Residues of dtype object enter in chunks of whole limbs, each below 2^53
    and so exact in doubles."""
    limbs = _work_array("limbs", (A.shape[0], L, A.shape[1]))
    inv_base, base = 1.0 / (1 << w), float(1 << w)
    chunks, per_chunk = [A], 53 // w
    if A.dtype == object:
        bits = per_chunk * w
        chunks = [(A >> s & (1 << bits) - 1).astype(np.float64) for s in range(0, L * w, bits)]
    np.copyto(limbs[:, 0], chunks[0])
    for k in range(L - 1):
        # exact in doubles: limb k is f minus the nearest multiple hi 2^w of
        # f, and hi, the next f, goes to row k + 1, where the next chunk of a
        # residue of dtype object joins it
        f, hi = limbs[:, k], limbs[:, k + 1]
        np.multiply(f, inv_base, out=hi)
        np.rint(hi, out=hi)
        hi *= base
        f -= hi
        hi *= inv_base
        if (k + 1) % per_chunk == 0:
            hi += chunks[(k + 1) // per_chunk]
    return limbs


# The recombination of products over p < 2^31 runs Horner in int64
# (_recombine) on at most this many coefficients per class, rows times
# out_len, and in doubles on more, where numpy's int64 remainder costs more
# than the four calls per step of the float reduction.  Time in us, int64 /
# doubles, best of 200 or more on a 2-core x86-64 machine with numpy 2.4:
#
#   rows x out_len   3 classes   5 classes
#      1 x 512         22/29       42/51
#      8 x 128         36/53       67/107
#      1 x 1024        31/33       58/57
#     32 x 128         87/101     185/147
#      8 x 512         94/85      147/124
#      1 x 4096        89/53      123/57
#     32 x 1024      2078/551    1364/751
RECOMBINE_INT64_MAX = 2048


def _limb_coeffs(p, Z, size, out_len, w, top):
    """The first out_len coefficients mod p of the rows of the float class
    spectra Z: classes c_k of weight 2^(w k) and magnitude at most top,
    sum_k c_k 2^(w k) mod p, of dtype object for p >= 2^31."""
    c = np.fft.irfft(Z, size, axis=-1, out=_work_array("coeffs", Z.shape[:2] + (size,)))
    c = c[..., :out_len]
    np.rint(c, out=c)
    if p >> 31:
        # Horner in Python ints over words of g classes c_k 2^(w i), i < g,
        # added in int64: g - 1 = (62 - bits(top)) // w keeps them below 2^63
        g = (62 - top.bit_length()) // w + 1
        ci = c.astype(np.int64)
        words = [
            sum(ci[:, k + i] << w * i for i in range(min(g, c.shape[1] - k)))
            for k in range(0, c.shape[1], g)
        ]
        acc = words[-1].astype(object)
        for word in words[-2::-1]:
            acc = (acc << g * w) + word
        return acc % p
    if c[:, 0].size <= RECOMBINE_INT64_MAX:
        return _recombine(c.astype(np.int64).swapaxes(0, 1), w, p)
    # Horner in doubles, in place on the top class, reduced first: acc <= p
    # keeps every step below p 2^w + top < 2^52, where floor(t / p) is off by
    # one only where p divides t, which leaves acc = p, mapped to 0 at the end
    assert (p << w) + top < 1 << 52, (p, w, top)
    pinv, base = 1.0 / p, float(1 << w)
    acc, t = c[:, -1], _work_array("quot", (c.shape[0], out_len))
    for k in range(c.shape[1] - 1, -1, -1):
        if k < c.shape[1] - 1:
            acc *= base
            acc += c[:, k]
        np.multiply(acc, pinv, out=t)
        np.floor(t, out=t)
        t *= p
        acc -= t
    out = acc.astype(np.int64)
    out[out == p] = 0
    return out


def _recombine(c, w, p):
    """sum_k c[k] 2^(wk) mod p for int64 classes c[0..] below 2^53 in
    magnitude and p < 2^31, by Horner in int64: each step stays below
    2^(31 + w) + 2^53 < 2^63."""
    out = c[-1] % p
    for k in range(len(c) - 2, -1, -1):
        out = ((out << w) + c[k]) % p
    return out


def _dense_mul(mod: Modulus, A, M):
    """The int64 rows A times the float64 matrix M of residues, mod p, as
    int64 rows of residues: one GEMM of the balanced limbs of A (_limbs), in
    the layout mod.layout gives for inner dimension b = len(M), by M, exact
    while _dense_exact holds (asserted), rounded and recombined mod p in
    int64 (_recombine).  The limbs are split from A read as one row, so that
    each limb of all rows is one contiguous block: limb-major rows, where the
    limb rows of many rows of A would each be a short strided slice."""
    p, (r, b) = mod.p, A.shape
    layout = mod.layout(b, dense=True)
    assert layout and _dense_exact(b, p, layout[1]), (b, p)
    L, w = layout
    limbs = _limbs(A.reshape(1, r * b), L, w).reshape(L * r, b)
    c = np.rint(np.matmul(limbs, M)).astype(np.int64).reshape(L, r, M.shape[1])
    return _recombine(c, w, p)


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


def _integers(values):
    """values, a sequence or 1-D array of integers, as an int64 array where
    all fit, else as Python ints in an object array; DomainViolation for no
    sequence (a Poly, a number), an array that is not 1-D, or at the first
    float, string or bool.  A list of Python ints takes one type scan in
    place of dtype inference."""
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise DomainViolation(f"expected a 1-D row of integers, got shape {values.shape}")
        if values.dtype.kind in "iu" and np.can_cast(values.dtype, np.int64):   # all but uint64
            return values.astype(np.int64, copy=False)
    if not hasattr(values, "__len__"):
        raise DomainViolation(f"expected a sequence of integers, got {type(values).__name__}")
    if set(map(type, values)) <= {int}:
        try:
            return np.fromiter(values, np.int64, len(values))
        except OverflowError:
            pass    # entries beyond int64, read below
    out = []
    for j, v in enumerate(values):
        try:
            if type(v) is bool:
                raise TypeError
            out.append(operator.index(v))
        except TypeError:
            raise DomainViolation(f"coefficient {j} = {v!r} is not an integer") from None
    return np.array(out, dtype=object)


def _residues(mod: Modulus, values):
    """values (_integers) reduced mod p into a fresh array of mod.dtype."""
    a = _integers(values)
    if a.dtype != object:
        a = a.astype(mod.dtype, copy=False)
    return (a % mod.p).astype(mod.dtype, copy=False)


def _strict_row(mod: Modulus, values, n):
    """values, at most n integers in [0, p) (_integers), as a fresh array of
    mod.dtype zero-padded to n, for n that check_precision admits; raises
    DimensionMismatch for more entries and DomainViolation at an entry outside."""
    n = mod.check_precision(n)
    a = _integers(values)
    if len(a) > n:
        raise DimensionMismatch(f"{len(a)} coefficients exceed dimension {n}")
    if len(a) and (a.min() < 0 or a.max() >= mod.p):    # two reductions
        j = int(np.flatnonzero((a < 0) | (a >= mod.p))[0])
        raise DomainViolation(f"coefficient {j} = {a[j]} lies outside [0, {mod.p})")
    return _fit(a.astype(mod.dtype, copy=False), n)


def _check_poly(A, mod=None):
    """A.mod; raises DomainViolation unless A is a Poly, over mod's prime
    where mod is given."""
    if not isinstance(A, Poly):
        raise DomainViolation(f"expected a Poly, got {type(A).__name__}")
    if mod is not None and A.mod.p != mod.p:
        raise DomainViolation(f"polynomial over p = {A.mod.p}, conversion over p = {mod.p}")
    return A.mod


def _dimension(n):
    """n, an integer >= 1 (not a bool), as a Python int; DimensionMismatch
    otherwise."""
    try:
        if type(n) is bool:
            raise TypeError
        n = operator.index(n)
    except TypeError:
        raise DimensionMismatch(f"dimension {n!r} is not an integer") from None
    if n < 1:
        raise DimensionMismatch(f"dimension {n} is below 1")
    return n


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


# Running products of arrays of more than PREFIX_SCAN_MAX entries take the
# blocked scan (_prefix_products), in blocks of PREFIX_BLOCK entries; smaller
# ones the doubling scan (_scan) alone.  Time in us of the running products
# of n residues of DEFAULT_PRIME (and of 32 rows of 256), best of 15
# interleaved on a 2-core x86-64 machine with numpy 2.4:
#
#   n                               256   1024   4096  16384  32768  32 x 256
#   doubling scan                    41     90    283   1143   2488       464
#   blocks of sqrt(n), doubling      59    100    267    883   1994       414
#   blocks of 8, swept by column     53     92    161    399    698       282
#   blocks of 16, swept by column    73     98    193    421    773       296
PREFIX_SCAN_MAX = 1024
PREFIX_BLOCK = 8


def _prefix_products(values, p):
    """Running products v_0 ... v_i mod p along the last axis of an array, a
    fresh array (or a view of one).  A blocked scan past PREFIX_SCAN_MAX
    entries: each row, padded with ones, cut into blocks of b = PREFIX_BLOCK
    entries; the running products within every block by one sweep over the
    b columns (b - 1 steps, each over all blocks at once); the running
    products of the block totals, by this function on an array b times
    shorter; and one pass that multiplies each block by the total of the
    blocks before it.  About two passes over the array where the doubling
    scan (_scan), which takes the smaller ones, makes log2(n)."""
    n = values.shape[-1]
    if values.size <= PREFIX_SCAN_MAX:
        return _scan(values % p, p)
    lead, b = values.shape[:-1], PREFIX_BLOCK
    rows = -(-n // b)
    out = np.ones(lead + (rows * b,), dtype=values.dtype)
    np.remainder(values, p, out=out[..., :n])
    blocks = out.reshape(lead + (rows, b))
    for j in range(1, b):
        col = blocks[..., j]
        np.multiply(col, blocks[..., j - 1], out=col)
        np.remainder(col, p, out=col)
    carry = _prefix_products(blocks[..., :-1, -1], p)
    rest = blocks[..., 1:, :]
    np.multiply(rest, carry[..., None], out=rest)
    np.remainder(rest, p, out=rest)
    return out[..., :n]


def _scan(out, p):
    """The running products mod p along the last axis of out, in place, in
    log2 of its length doubling steps (the Hillis-Steele scan)."""
    k, t = 1, np.empty_like(out)
    while k < out.shape[-1]:
        # the products are read whole before any entry is replaced
        np.multiply(out[..., k:], out[..., :-k], out=t[..., k:])
        np.remainder(t[..., k:], p, out=out[..., k:])
        k *= 2
    return out


class Poly:
    """Dense polynomial in K[x]_dim: a read-only array of exactly dim
    coefficients in [0, p), of dtype mod.dtype."""

    __slots__ = ("mod", "arr")

    def __init__(self, mod: Modulus, coeffs, dim=None):
        """From a sequence of integers (_integers), reduced mod p and
        truncated or zero-padded to dim (default: its length, at least 1)."""
        a = _residues(mod, coeffs)
        dim = max(1, len(a)) if dim is None else _dimension(dim)
        self.mod = mod
        self.arr = _readonly(_fit(a, dim))

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
    """Exact product of two Polys over one prime; result dim = dim(a) + dim(b) - 1."""
    mod = _check_poly(b, _check_poly(a))
    return Poly.of(mod, _convolve(mod, a.arr, b.arr))


def mul_trunc(a: Poly, P, n: int) -> Poly:
    """a * P mod x^n, result dim n.  P is a Poly over a's prime, or an
    operand kept by _fixed_operand for products of length <= n."""
    if isinstance(P, (_Kept, np.ndarray)):
        return Poly.of(a.mod, _mul_fixed(a.mod, a.arr[:n], P, n))
    mod, n = _check_poly(P, _check_poly(a)), _dimension(n)
    da, dp = a.degree(), P.degree()
    if da < 0 or dp < 0:
        return Poly.zero(mod, n)
    # truncating the inputs to n first keeps the transform size at O(n)
    prod = _convolve(mod, a.arr[: min(da + 1, n)], P.arr[: min(dp + 1, n)])
    return Poly.of(mod, _fit(prod, n))


def mul_trunc_t(a: Poly, P, m: int) -> Poly:
    """Transpose of mul_trunc(., P, n) for n = dim(a); result dim m.  P is
    read as mul_trunc reads it.

    Realized as the middle product (a * Rev(P) mod x^(m+e)) div x^e, e the
    degree of P, which reads a below x^(m+e) only.
    """
    if isinstance(P, (_Kept, np.ndarray)):
        return Poly.of(a.mod, _mul_fixed(a.mod, a.arr, P, m, transposed=True))
    mod, m = _check_poly(P, _check_poly(a)), _dimension(m)
    e = P.degree()
    if a.degree() < 0 or e < 0:
        return Poly.zero(mod, m)
    prod = _convolve(mod, a.arr[: m + e], P.arr[e::-1])
    return Poly.of(mod, _fit(prod[e:], m))
