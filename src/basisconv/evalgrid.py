"""Multipoint evaluation and interpolation at the grid 0..n-1, their
transposes, and the four maps evaluating polynomials at exp(x)-1 / log(1+x).

Evaluation and interpolation use a subproduct tree with Newton-inverse
remaindering, O(M(n) log n), worked one level at a time.  Level k holds the
products of (x - p_i) over the blocks [j s, (j+1) s) ∩ [0, n), s = 2^k: all
monic of degree s but at most one ragged last node.  The full nodes are the
rows of one (n // s, s) array of their coefficients below x^s, so a level is
built, reduced by or combined through with a few batched transforms (the row
images of modfield); the ragged node goes through the 1-D _convolve.  Grid
and reciprocal trees are kept per n in Modulus.cached with their nodes'
images, but for float images past modfield.FIXED_IMAGE_BYTES; data derived
from a tree is computed on first use and kept on it.

The transposed maps use the generating-series identity
sum_i v_i / (1 - p_i x) = N(x) / D(x), where D is the reversal of the root
polynomial and N that of the interpolation combine; the transposed
interpolation recovers the partial-fraction data by evaluating at the
reciprocal points.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .modfield import (
    Modulus,
    Poly,
    _arange,
    _convolve,
    _fit,
    _image,
    _image_coeffs,
    _image_mul,
    _image_mul_add,
    _image_size,
    _keeps_image,
    _residues,
)
from .polyops import diagonal, taylor_shift, taylor_shift_t, truncate
from .seriesops import series_inv


def _pairs(rows, nf):
    # the left and right children of the first nf nodes of the level above
    return rows[0 : 2 * nf : 2], rows[1 : 2 * nf : 2]


def _monic(low):
    """The coefficients of x^len(low) + low."""
    return np.concatenate([low, np.ones(1, dtype=low.dtype)])


def _kept(mod, rows, img):
    """What a tree keeps of the fixed rows whose image is img: img, or the
    rows themselves where modfield keeps no image (_keeps_image)."""
    return img if _keeps_image(mod, len(rows), _image_size(img)) else rows


def _as_image(mod, kept, size):
    """The image at size of what _kept kept."""
    return kept if _keeps_image(mod, len(kept), size) else _image(mod, kept, size)


class SubproductTree:
    """Subproduct tree over an array of distinct points, stored level by
    level.

    low[k]: the full nodes of level k without their leading x^s; img[k]:
    their images at size 2s, below the top level, or low[k] itself where
    modfield keeps no image (_kept); rag[k]: the coefficients of the ragged
    node of level k, or None.
    """

    def __init__(self, mod: Modulus, points):
        self.mod = mod
        self.n = n = len(points)
        self.dtype = mod.dtype
        self.depth = (n - 1).bit_length()      # the top level has one node
        p = mod.p
        self.low = [((-_residues(mod, points)) % p).reshape(n, 1)]
        self.img, self.rag = [], [None]
        for k in range(1, self.depth + 1):
            s, h, nf = 1 << k, 1 << (k - 1), n >> k
            (a, b), img = _pairs(self.low[-1], nf), _image(mod, self.low[-1], s)
            self.img.append(_kept(mod, self.low[-1], img))
            # (x^h + a)(x^h + b) = x^s + x^h (a + b) + a b
            cur = _image_coeffs(mod, _image_mul(mod, *_pairs(img, nf)), s)
            cur[:, h:] += a + b
            self.low.append(cur % p)
            r, rag = n % s, self.rag[-1]
            if r >= h:
                full = _monic(self.low[k - 1][2 * nf])
                rag = full if r == h else _convolve(mod, full, rag)
            self.rag.append(rag if r else None)
        top = self.rag[-1]
        self.root = top if top is not None else _monic(self.low[-1][0])

    @cached_property
    def _inverses(self):
        # 1/rev(node) mod x^s for the full nodes of each level below the top,
        # as _kept keeps them beside their images at size 2s; per level,
        # 1/rev(node) mod x^s for a ragged node that is the right child of
        # its parent
        mod, p, n, dt = self.mod, self.mod.p, self.n, self.dtype
        img = _image(mod, np.ones((n, 1), dtype=dt), 2)
        iimg = [img]
        for k in range(1, self.depth):
            s, h, nf = 1 << k, 1 << (k - 1), n >> k
            # the children's inverses multiply to y0, the node's mod x^h;
            # with g y0 = 1 + x^h e mod x^s, one Newton step gives y0 - x^h y0 e
            y0 = _image_coeffs(mod, _image_mul(mod, *_pairs(img, nf)), h)
            g = np.concatenate([np.ones((nf, 1), dtype=dt), self.low[k][:, :0:-1]], axis=1)
            y0_img = _image(mod, y0, s)
            e = _image_coeffs(mod, _image_mul(mod, _image(mod, g, s), y0_img), s)[:, h:]
            d = _image_coeffs(mod, _image_mul(mod, y0_img, _image(mod, e, s)), h)
            inv = np.concatenate([y0, (-d) % p], axis=1)
            img = _image(mod, inv, 2 * s)
            iimg.append(_kept(mod, inv, img))
        rinv = [
            series_inv(Poly.of(mod, _fit(rag[::-1], 1 << k)), 1 << k).arr
            if rag is not None and (n >> k) & 1 else None
            for k, rag in enumerate(self.rag)
        ]
        return iimg, rinv

    def multieval(self, cs):
        """Values at every point of the polynomial with coefficients cs (an
        array of residues, len(cs) <= number of points), in point order."""
        mod, p, n = self.mod, self.mod.p, self.n
        iimg, rinv = self._inverses
        rem = np.zeros((1, 1 << self.depth), dtype=self.dtype)
        rem[0, : len(cs)] = cs
        for k in range(self.depth - 1, -1, -1):
            # remainders one level down: by the nodes of level k, of size h
            h, nf = 1 << k, n >> k
            par = np.repeat(rem, 2, axis=0)[:nf]
            q_rev = _image_mul(
                mod, _image(mod, par[:, : h - 1 : -1], 2 * h), _as_image(mod, iimg[k], 2 * h)
            )
            q = _image(mod, _image_coeffs(mod, q_rev, h)[:, ::-1], 2 * h)
            node = _as_image(mod, self.img[k], 2 * h)
            nxt = (par[:, :h] - _image_coeffs(mod, _image_mul(mod, q, node), h)) % p
            r = n % h
            if r:
                last = rem[nf >> 1, :h]
                if nf & 1:
                    # the ragged parent has degree h + r; divide by its right child
                    a = rem[nf >> 1, : h + r]
                    q = _convolve(mod, a[: r - 1 : -1], rinv[k])[:h][::-1]
                    last = _fit((a[:r] - _convolve(mod, q, self.rag[k])[:r]) % p, h)
                nxt = np.vstack([nxt, last])
            rem = nxt
        return rem[:, 0]

    @cached_property
    def weights(self):
        """1 / M'(p_i) for every point."""
        mod, root = self.mod, self.root
        return mod.inv_array(self.multieval(root[1:] * _arange(mod, 1, len(root)) % mod.p))

    def combine(self, cs):
        """sum_i c_i prod_{j != i} (x - p_j) for an array of residues c_i,
        as an array of length n."""
        mod, p, n = self.mod, self.mod.p, self.n
        v = cs.reshape(n, 1)
        for k in range(1, self.depth + 1):
            s, h, nf = 1 << k, 1 << (k - 1), n >> k
            il, ir = _pairs(_as_image(mod, self.img[k - 1], s), nf)
            vl, vr = _pairs(_image(mod, v[: 2 * nf], s), nf)
            # V = V_L low_R + V_R low_L + x^h (V_L + V_R)
            cur = _image_coeffs(mod, _image_mul_add(mod, vl, ir, vr, il), s)
            cur[:, h:] += np.add(*_pairs(v, nf))
            cur %= p
            r = n % s
            if r:
                last = v[2 * nf]      # the ragged node's only child, if r <= h
                if r > h:
                    full = _monic(self.low[k - 1][2 * nf])
                    left = _convolve(mod, last, self.rag[k - 1])
                    right = _convolve(mod, v[2 * nf + 1][: r - h], full)
                    last = (left + right) % p
                cur = np.vstack([cur, _fit(last, s)])
            v = cur
        return v[0, :n]

    def interp(self, values) -> Poly:
        """The unique polynomial of dim n taking the given values."""
        cs = _residues(self.mod, values) * self.weights % self.mod.p
        return Poly.of(self.mod, self.combine(cs).copy())

    @cached_property
    def den_inv(self):
        """1 / prod(1 - p_i x) mod x^n."""
        return series_inv(Poly.of(self.mod, _fit(self.root[::-1], self.n)), self.n).arr

    @cached_property
    def interp_t_data(self):
        """Of the grid tree: D = prod_{i=1}^{n-1} (1 - i x), 1 / D[n-1],
        and -i / D'(1/i) for i = 1..n-1."""
        mod, p, n = self.mod, self.mod.p, self.n
        D = _fit(self.root[::-1], n)      # the x - 0 factor of the root reverses into 1
        Dprime = D[1:] * _arange(mod, 1, n) % p
        dinvs = mod.inv_array(_recip_tree(mod, n).multieval(Dprime))
        scale = (-_arange(mod, 1, n)) * dinvs % p
        return D, mod.inv(int(D[n - 1])), scale


def _grid_tree(mod: Modulus, n: int) -> SubproductTree:
    return mod.cached(("grid", n), lambda: SubproductTree(mod, _arange(mod, 0, n)))


def _recip_tree(mod: Modulus, n: int) -> SubproductTree:
    """Tree over the points 1/1, 1/2, ..., 1/(n-1)."""
    return mod.cached(("recip", n), lambda: SubproductTree(mod, mod.table("inverses", n)[1:]))


def multieval_grid(A: Poly):
    """(A(0), ..., A(n-1)) for A of dim n, as an array; requires n < p."""
    n = A.dim
    A.mod.check_precision(n)
    if n == 1:
        return A.arr.copy()
    return _grid_tree(A.mod, n).multieval(A.arr)


def interp_grid(mod: Modulus, values) -> Poly:
    """The unique A of dim n with A(i) = values[i]; requires n < p."""
    n = len(values)
    mod.check_precision(n)
    if n == 1:
        return Poly(mod, values, 1)
    return _grid_tree(mod, n).interp(values)


def multieval_grid_t(mod: Modulus, values) -> Poly:
    """Transposed multipoint evaluation: coefficient j of the result is
    sum_i values[i] * i^j."""
    n = len(values)
    mod.check_precision(n)
    if n == 1:
        return Poly(mod, values, 1)
    tree = _grid_tree(mod, n)
    # N = sum_i v_i prod_{j != i} (1 - p_j x) is the combine read backwards
    num = tree.combine(_residues(mod, values))[::-1]
    return Poly.of(mod, _fit(_convolve(mod, num, tree.den_inv), n))


def interp_grid_t(A: Poly):
    """Transposed interpolation: the unique y with multieval_grid_t(y) = A,
    as an array."""
    mod, n = A.mod, A.dim
    mod.check_precision(n)
    if n == 1:
        return A.arr.copy()
    D, lead_inv, scale = _grid_tree(mod, n).interp_t_data
    N = _convolve(mod, A.arr, D)[:n]
    y0 = int(N[n - 1]) * lead_inv % mod.p
    # y0 clears coefficient n - 1, so the rest has fewer terms than points
    Nred = (N[: n - 1] - y0 * D[: n - 1]) % mod.p
    out = np.empty(n, dtype=D.dtype)
    out[0] = y0
    out[1:] = _recip_tree(mod, n).multieval(Nred) * scale % mod.p
    return out


# -- evaluation at exp(x)-1 and log(1+x) ----------------------------------


def exp_map(A: Poly, n: int) -> Poly:
    """A(exp(x) - 1) mod x^n."""
    mod = A.mod
    mod.check_precision(n)
    B = taylor_shift(truncate(A, n), mod.p - 1)
    C = multieval_grid_t(mod, B.arr)
    return diagonal(C, mod.table("inv_factorials", n))


def log_map(A: Poly, n: int) -> Poly:
    """A(log(1 + x)) mod x^n."""
    mod = A.mod
    mod.check_precision(n)
    B = diagonal(truncate(A, n), mod.table("factorials", n))
    return taylor_shift(Poly.of(mod, interp_grid_t(B)), 1)


def exp_map_t(A: Poly, m: int) -> Poly:
    """Transpose of exp_map: K[x]_n -> K[x]_m for n = dim(A)."""
    mod = A.mod
    n = A.dim
    mod.check_precision(n)
    B = diagonal(A, mod.table("inv_factorials", n))
    C = taylor_shift_t(Poly.of(mod, multieval_grid(B)), mod.p - 1)
    return truncate(C, m)


def log_map_t(A: Poly, m: int) -> Poly:
    """Transpose of log_map: K[x]_n -> K[x]_m for n = dim(A)."""
    mod = A.mod
    n = A.dim
    mod.check_precision(n)
    B = taylor_shift_t(A, 1)
    C = interp_grid(mod, B.arr)
    return truncate(diagonal(C, mod.table("factorials", n)), m)
