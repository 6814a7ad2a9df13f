"""Multipoint evaluation and interpolation at the grid 0..n-1, their
transposes, and the four maps evaluating polynomials at exp(x)-1 / log(1+x).

On K[x]_n with n <= LEAF_SIZE, on int64 rows, each of the four exp/log maps is
one exact GEMM (modfield._dense_mul) by the top-left n x n block of a matrix
kept once per modulus and kind, E[j, k] = [x^k] (e^x - 1)^j or
L[j, k] = [x^k] log(1 + x)^j, built from the Stirling numbers (_stirling), and
their transposes read its transpose.  From n = LEAF_SIZE + 1, and on
dtype-object rows, they are a Taylor shift, a product by 1/D and a pass over
the grid tree below (Bostan & Schost, J. Complexity 21, 2005).

The four grid maps run on one subproduct tree per n, O(M(n) log n), worked one
level at a time.  Level k holds the products of (x - i) over the blocks
[j s, (j+1) s) ∩ [0, n), s = 2^k: all monic of degree s but at most one ragged
last node.  The full nodes, as the rows of one (n // s, s) array of their
coefficients below x^s, are built or passed through with a few batched
transforms (the row images of modfield); the ragged node goes through the 1-D
_convolve.  Trees are kept per n in Modulus.cached with the images of their
levels, float limb spectra in the layout of their size.  An image at size s,
of nodes of degree h = s / 2, is kept for the charge s and scaled where that
admits fewer limbs of the rows (modfield._kept_image: from size 2^11 to 2^16
for DEFAULT_PRIME).  Each pass states its charge: combine sums two products
of rows of h entries, 2 h = s; combine_t's wrapping middle product takes rows
of s entries by a node of h, sqrt(s h); the build multiplies two nodes, h.
Of their coefficients a tree keeps only the ragged nodes and the full left
child of each; data derived from a tree is computed on first use and kept on
it.

A tree serves two passes, each the transpose of the other (Tellegen's
principle; Bostan, Lecerf & Schost, ISSAC 2003):
- combine, bottom-up, c -> sum_i c_i prod_{j != i} (x - j): a node of
  degree s = 2h takes V_L low_R + V_R low_L + x^h (V_L + V_R) from its
  children's values, low the nodes without their leading x^h;
- combine_t, top-down: a child takes W[j + h] + sum_t low_S[t] W[t + j], j < h,
  from its parent's W, S its sibling.  That middle product wraps into none of
  the coefficients it reads at cyclic size s, where W read backwards
  cyclically from W[h - 1] times the sibling's kept image gives it reversed;
  one image of W meets the images of both children.

Both passes stop at the leaf level K = log2 b, b = min(LEAF_SIZE, 2^depth), on
int64 rows; on dtype-object rows b = 1 and they run to the points.  On the
grid the node of block j of level K is a translate of that of block 0,
N_j(x) = N_0(x - jb) (Bostan & Schost, J. Complexity 21, 2005), so the leaf
map c -> sum_i c_i N_j(x) / (x - jb - i) of block j is one b x b matrix,
M_j = M0 diag(a^t) B diag(a^-s), a = -jb: M0 holds in row i the coefficients
of N_0(x) / (x - i), and B, the Pascal matrix C(t, s) mod p, with the two
diagonals makes the Taylor shift by a.  The leaf of combine is
((C M0) ⊙ a^t) B ⊙ a^-s on the rows C of all blocks at once, block 0
unshifted, and that of combine_t its transpose; a ragged last block of r
points has its own r x r matrix.  M0 is kept once per modulus and b; the
product by B between the two diagonals is the dense Taylor shift
(polyops._dense_shift) with one a per row; the powers a^t and a^-s (2n
residues) are kept on the tree, and no level below K is ever made: the build takes
N_0 = prod_{i < b} (x - i) by halving (_falling), and the other nodes of
level K from it by the same Pascal product, plus a^b C(b, t) a^-t from the
leading x^b.
Each product by a leaf matrix is one float64 GEMM of the balanced limbs of
the rows (modfield._dense_mul), in the fewest limbs of w bits for which every
partial sum, at most b 2^(w-1) (p - 1) in magnitude, stays below 2^53, which
each product asserts: for DEFAULT_PRIME two 16-bit limbs up to b = 136 and
three 11-bit ones up to b = 4369.

With D = prod_i (1 - i x), the reversal of the root, and the weights
w_i = 1 / M'(i) = (-1)^(n-1-i) / (i! (n-1-i)!), the identity
sum_i v_i / (1 - i x) = rev(combine(v)) / D gives multieval_t(v) =
rev(combine(v)) / D mod x^n and interp(v) = combine(w v), and by transposition
- multieval(A) = combine_t(rev(mul_trunc_t(A, 1/D, n)));
- interp_t(A) = w combine_t(A).
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .modfield import (
    Modulus,
    Poly,
    _arange,
    _check_poly,
    _convolve,
    _dense_mul,
    _fit,
    _fixed_operand,
    _image_by,
    _image_mul,
    _kept_image,
    _middle_products,
    _mul_fixed,
    _plain,
    _prefix_products,
    _readonly,
    _residues,
)
from .polyops import (
    LEAF_SIZE,
    _dense_shift,
    _pascal,
    diagonal,
    taylor_shift,
    taylor_shift_t,
    truncate,
)
from .seriesops import series_inv


def _pairs(rows, nf):
    # the left and right children of the first nf nodes of the level above
    return rows[0 : 2 * nf : 2], rows[1 : 2 * nf : 2]


def _monic(low):
    """The coefficients of x^len(low) + low."""
    return np.concatenate([low, np.ones(1, dtype=low.dtype)])


def _quotients(mod: Modulus, node, points):
    """The float64 matrix whose row i holds the coefficients of
    node / (x - points[i]), for the monic node whose roots are the points:
    the synthetic divisions of all rows at once, one column per step."""
    p, m = mod.p, len(points)
    Qt, q = np.empty((m, m)), np.ones(m, dtype=np.int64)
    Qt[m - 1] = q
    for k in range(m - 1, 0, -1):
        q = (node[k] + points * q) % p
        Qt[k - 1] = q
    return Qt.T


def _falling(mod: Modulus, r):
    """The r + 1 coefficients of prod_{i < r} (x - i) mod p, r >= 1: the
    product of its lower half and of the lower half's Taylor shift by -h."""
    if r == 1:
        return np.array([0, 1], dtype=mod.dtype)
    h = r // 2
    half = _falling(mod, h)
    node = _convolve(mod, half, taylor_shift(Poly.of(mod, half), -h).arr)
    if r % 2:
        # times x - (r - 1)
        node = (np.append(0, node) - (r - 1) * np.append(node, 0)) % mod.p
    return node


def _power_rows(mod: Modulus, base, m):
    """Row j: base[j]^0 .. base[j]^(m-1) mod p."""
    rows = np.ones((len(base), m), dtype=mod.dtype)
    rows[:, 1:] = base[:, None]
    return _prefix_products(rows, mod.p)


class SubproductTree:
    """Subproduct tree over the grid 0..n-1, stored level by level from the
    leaf level K = leaf up.

    img[k]: the images at size 2s of the full nodes of level k without
    their leading x^s, below the top level, read by both passes, scaled
    where modfield admits it (the build reads their plain variant 0);
    full[k]:
    the coefficients of the last full node of level k where it is the left
    child of a ragged node with more points, the one full node whose
    coefficients the passes read, or None; rag[k]: the coefficients of the
    ragged node of level k, or None.  All three are None below K.  The leaf
    of the blocks of b = 2^K points: m0 (M0) for the first of them, pows,
    the powers a^t and a^-s of a = -jb as rows, for blocks j >= 1, and
    rag_mat for a ragged last block.
    """

    def __init__(self, mod: Modulus, n: int):
        self.mod = mod
        self.n = n
        self.dtype = mod.dtype
        self.depth = (n - 1).bit_length()      # the top level has one node
        p = mod.p
        b = 1 if mod.dtype is object else min(LEAF_SIZE, 1 << self.depth)
        self.leaf = K = b.bit_length() - 1
        self.blocks, r = divmod(n, b)
        if K:
            low, rag = self._leaf_level(b, r)
        else:
            low, rag = ((-_arange(mod, 0, n)) % p).reshape(n, 1), None
        self.img, self.full, self.rag = [None] * K, [None] * K, [None] * K + [rag]
        for k in range(K + 1, self.depth + 1):
            s, h, nf = 1 << k, 1 << (k - 1), n >> k
            # kept for combine's charge, two summed products of h by h
            img = _kept_image(mod, low, s, s)
            self.img.append(img)
            # (x^h + l)(x^h + r) = x^s + x^h (l + r) + l r, of charge h
            cur = _image_mul(mod, *_pairs(_plain(img), nf), h, s)
            cur[:, h:] += np.add(*_pairs(low, nf))
            r, rag = n % s, self.rag[-1]
            full = _monic(low[2 * nf]) if r >= h else None
            self.full.append(full if r > h else None)
            if full is not None:
                rag = full if r == h else _convolve(mod, full, rag)
            self.rag.append(rag if r else None)
            low = cur % p
        top = self.rag[-1]
        self.root = top if top is not None else _monic(low[0])

    def _leaf_level(self, b, r):
        """The full nodes of level K without their leading x^b, as rows, and
        its ragged node or None; also the leaf's matrices and powers.  Node j
        is N_j(x) = N0(x + a), a = -jb, N0 = prod_{i < b} (x - i): below x^b,
        ((N0 ⊙ a^s) B) ⊙ a^-t, the Taylor shift of N0's low part, plus
        a^b C(b, t) a^-t from its x^b."""
        mod, p, n, nb = self.mod, self.mod.p, self.n, self.blocks
        low = np.empty((nb, b), dtype=self.dtype)
        if nb:
            N0, pts = _falling(mod, b), _arange(mod, 0, b)
            low[0] = N0[:b]
            self.m0 = mod.cached(("grid leaf", b), lambda: _quotients(mod, N0, pts))
        if nb > 1:
            a = (-b * _arange(mod, 1, nb)) % p
            self.pows = at, a_s = [_power_rows(mod, base, b) for base in (a, mod.inv_array(a))]
            # C(b, t) = C(b - 1, t) + C(b - 1, t - 1), t < b
            last = _pascal(mod, b)[b - 1].astype(np.int64)
            binom = (last + np.append(0, last[:-1])) % p
            lead = at[:, -1] * a % p
            shifted = _dense_shift(mod, low[0], at, a_s, False)
            low[1:] = (shifted + lead[:, None] * binom % p * a_s) % p
        if not r:
            return low, None
        rag = taylor_shift(Poly.of(mod, _falling(mod, r)), r - n).arr
        self.rag_mat = _quotients(mod, rag, _arange(mod, n - r, n))
        return low, rag

    def multieval(self, cs):
        """Values at every point of the polynomial with coefficients cs (an
        array of residues, len(cs) <= n), in point order.

        The transpose of multieval_t(v) = rev(combine(v)) / D mod x^n: the
        transposed product by 1/D, a middle product, read backwards into
        combine_t."""
        n = self.n
        mid = _middle_products(self.mod, cs, (self.den_fixed,), n)[0]
        return self.combine_t(mid[::-1])

    @cached_property
    def weights(self):
        """1 / M'(i) = (-1)^(n-1-i) / (i! (n-1-i)!) for every point i."""
        p, inv_fact = self.mod.p, self.mod.table("inv_factorials", self.n)
        w = inv_fact * inv_fact[::-1] % p
        w[-2::-2] = (-w[-2::-2]) % p
        return w

    def _leaf_rows(self, cs):
        """combine at level K: the values of every block as the rows of the
        level, c_j M_j with M_j = M0 diag(a^t) B diag(a^-s) for block j >= 1
        (a = -jb), c_j M0 for block 0 and c M_r for a ragged last block."""
        mod, nb, b = self.mod, self.blocks, 1 << self.leaf
        r = self.n - nb * b
        C = _fit(cs, -(-self.n // b) * b).reshape(-1, b)
        if b == 1:
            return C
        if nb:
            C[:nb] = _dense_mul(mod, C[:nb], self.m0)
        if nb > 1:
            C[1:nb] = _dense_shift(mod, C[1:nb], *self.pows, False)
        if r:
            C[nb, :r] = _dense_mul(mod, C[nb:, :r], self.rag_mat)[0]
        return C

    def _leaf_t(self, w):
        """The transpose of _leaf_rows: the coefficients M_j w_j of every
        block, from the rows w of level K, as an array of length n."""
        mod, nb, b = self.mod, self.blocks, 1 << self.leaf
        r = self.n - nb * b
        if b == 1:
            return w[:, 0]
        out = np.empty(self.n, dtype=self.dtype)
        if nb > 1:
            w[1:nb] = _dense_shift(mod, w[1:nb], *self.pows, True)
        if nb:
            out[: nb * b] = _dense_mul(mod, w[:nb], self.m0.T).reshape(-1)
        if r:
            out[nb * b :] = _dense_mul(mod, w[nb:, :r], self.rag_mat.T)[0]
        return out

    def combine(self, cs):
        """sum_i c_i prod_{j != i} (x - i) for an array of residues c_i,
        as an array of length n."""
        mod, p, n = self.mod, self.mod.p, self.n
        v = self._leaf_rows(cs)
        for k in range(self.leaf + 1, self.depth + 1):
            s, h, nf = 1 << k, 1 << (k - 1), n >> k
            il, ir = _pairs(self.img[k - 1], nf)
            vl, vr = _pairs(_image_by(mod, v[: 2 * nf], self.img[k - 1]), nf)
            # V = V_L low_R + V_R low_L + x^h (V_L + V_R), of charge 2 h = s
            cur = _image_mul(mod, vl, ir, s, s, vr, il)
            cur[:, h:] += np.add(*_pairs(v, nf))
            cur %= p
            r = n % s
            if r:
                last = v[2 * nf]      # the ragged node's only child, if r <= h
                if r > h:
                    left = _convolve(mod, last, self.rag[k - 1])
                    right = _convolve(mod, v[2 * nf + 1][: r - h], self.full[k - 1])
                    last = (left + right) % p
                cur = np.vstack([cur, _fit(last, s)])
            v = cur
        return v[0, :n]

    def combine_t(self, W):
        """The transpose of combine: coefficient i of the result is
        sum_j W[j] [x^j] prod_{l != i} (x - l), for an array W of n
        residues."""
        mod, p, n = self.mod, self.mod.p, self.n
        w = _fit(W, 1 << self.depth).reshape(1, -1)
        for k in range(self.depth, self.leaf, -1):
            s, h, nf = 1 << k, 1 << (k - 1), n >> k
            nxt = np.empty((-(-n // h), h), dtype=self.dtype)
            if nf:
                # W[h - 1], ..., W[0], W[s - 1], ..., W[h]: coefficient
                # h - 1 - j of its product by S mod x^s - 1 is
                # sum_t S[t] W[j + t], j < h
                wimg = _image_by(mod, np.roll(w[:nf, ::-1], -h, axis=1), self.img[k - 1])
                # row i of wimg meets both children of node i, and row 2i of
                # the product, with the left child, is W_R of node i; of
                # charge sqrt(s h), s entries of W by h of a child
                charge = math.sqrt(s * h)
                mid = _image_mul(mod, wimg, self.img[k - 1][: 2 * nf], charge, h)[:, ::-1]
                nxt[0 : 2 * nf : 2] = mid[1::2] + w[:nf, h:]
                nxt[1 : 2 * nf : 2] = mid[0::2] + w[:nf, h:]
            r = n % s
            if r:
                last = w[nf]     # to the ragged node's only child, if r <= h
                if r <= h:
                    nxt[2 * nf :] = last[:h]
                else:
                    nxt[2 * nf] = _convolve(mod, last[:r], self.rag[k - 1][::-1])[r - h : r]
                    nxt[2 * nf + 1] = _fit(_convolve(mod, last[:r], self.full[k - 1][::-1])[h:r], h)
            nxt %= p
            w = nxt
        return self._leaf_t(w)

    @cached_property
    def den_inv(self):
        """1 / prod(1 - p_i x) mod x^n."""
        return series_inv(Poly.of(self.mod, _fit(self.root[::-1], self.n)), self.n).arr

    @cached_property
    def den_fixed(self):
        """What products of length-n arrays by den_inv keep of it
        (modfield._fixed_operand), scaled where modfield admits it."""
        return _fixed_operand(self.mod, self.den_inv, self.n)


def _grid_tree(mod: Modulus, n: int) -> SubproductTree:
    return mod.cached(("grid", n), lambda: SubproductTree(mod, n))


def multieval_grid(A: Poly):
    """(A(0), ..., A(n-1)) for A of dim n, as an array; requires n < p."""
    n = _check_poly(A).check_precision(A.dim)
    if n == 1:
        return A.arr.copy()
    return _grid_tree(A.mod, n).multieval(A.arr)


def interp_grid(mod: Modulus, values) -> Poly:
    """The unique A of dim n with A(i) = values[i] mod p
    (modfield._residues); requires n < p."""
    a = _residues(mod, values)
    n = mod.check_precision(len(a))
    if n == 1:
        return Poly.of(mod, a)
    tree = _grid_tree(mod, n)
    return Poly.of(mod, tree.combine(a * tree.weights % mod.p).copy())


def multieval_grid_t(mod: Modulus, values) -> Poly:
    """Transposed multipoint evaluation: coefficient j of the result is
    sum_i values[i] * i^j mod p (modfield._residues); requires n < p."""
    a = _residues(mod, values)
    n = mod.check_precision(len(a))
    if n == 1:
        return Poly.of(mod, a)
    tree = _grid_tree(mod, n)
    # N = sum_i v_i prod_{j != i} (1 - p_j x) is the combine read backwards
    num = tree.combine(a)[::-1]
    return Poly.of(mod, _mul_fixed(mod, num, tree.den_fixed, n))


def interp_grid_t(A: Poly):
    """Transposed interpolation: the unique y with multieval_grid_t(y) = A,
    as an array."""
    mod = _check_poly(A)
    n = mod.check_precision(A.dim)
    if n == 1:
        return A.arr.copy()
    tree = _grid_tree(mod, n)
    return tree.weights * tree.combine_t(A.arr) % mod.p


# -- evaluation at exp(x)-1 and log(1+x) ----------------------------------


def _stirling(mod: Modulus, kind, n):
    """The top-left n x n block, read-only, of the float64 matrix of exp_map
    (kind "exp"), E[j, k] = [x^k] (e^x - 1)^j = j! S(k, j) / k!, or of log_map
    ("log"), L[j, k] = [x^k] log(1 + x)^j = j! s(k, j) / k!, with S and s the
    Stirling numbers of the second and signed first kind: one kept per kind at
    b = min(LEAF_SIZE, p), so that the factorials below b exist."""

    def build():
        p, b = mod.p, min(LEAF_SIZE, mod.p)
        j = np.arange(b)
        S = np.zeros((b, b), dtype=np.int64)
        S[0, 0] = 1
        for k in range(1, b):
            # S(k, j) = S(k-1, j-1) + j S(k-1, j), s(k, j) = s(k-1, j-1) - (k-1) s(k-1, j)
            S[k, 1:] = S[k - 1, :-1]
            S[k] = (S[k] + (j if kind == "exp" else 1 - k) * S[k - 1]) % p
        fact, inv_fact = mod.table("factorials", b), mod.table("inv_factorials", b)
        return _readonly((fact[:, None] * S.T % p * inv_fact % p).astype(np.float64))

    return mod.cached(("stirling", kind), build)[:n, :n]


def _dense(mod: Modulus, n):
    """Whether the maps on K[x]_n are one product by a block of a kept Stirling
    matrix (_stirling): on int64 rows with n <= LEAF_SIZE."""
    return mod.dtype is not object and n <= LEAF_SIZE


def _stirling_mul(A: Poly, kind, transposed):
    """A times the matrix _stirling(kind) of dim(A), or its transpose: one
    exact GEMM (modfield._dense_mul)."""
    M = _stirling(A.mod, kind, A.dim)
    return Poly.of(A.mod, _dense_mul(A.mod, A.arr[None], M.T if transposed else M)[0])


def exp_map(A: Poly, n: int) -> Poly:
    """A(exp(x) - 1) mod x^n."""
    mod = _check_poly(A)
    n = mod.check_precision(n)
    if _dense(mod, n):
        return _stirling_mul(truncate(A, n), "exp", False)
    B = taylor_shift(truncate(A, n), mod.p - 1)
    C = multieval_grid_t(mod, B.arr)
    return diagonal(C, mod.table("inv_factorials", n))


def log_map(A: Poly, n: int) -> Poly:
    """A(log(1 + x)) mod x^n."""
    mod = _check_poly(A)
    n = mod.check_precision(n)
    if _dense(mod, n):
        return _stirling_mul(truncate(A, n), "log", False)
    B = diagonal(truncate(A, n), mod.table("factorials", n))
    return taylor_shift(Poly.of(mod, interp_grid_t(B)), 1)


def exp_map_t(A: Poly, m: int) -> Poly:
    """Transpose of exp_map: K[x]_n -> K[x]_m for n = dim(A)."""
    mod = _check_poly(A)
    n = mod.check_precision(A.dim)
    if _dense(mod, n):
        return truncate(_stirling_mul(A, "exp", True), m)
    B = diagonal(A, mod.table("inv_factorials", n))
    C = taylor_shift_t(Poly.of(mod, multieval_grid(B)), mod.p - 1)
    return truncate(C, m)


def log_map_t(A: Poly, m: int) -> Poly:
    """Transpose of log_map: K[x]_n -> K[x]_m for n = dim(A)."""
    mod = _check_poly(A)
    n = mod.check_precision(A.dim)
    if _dense(mod, n):
        return truncate(_stirling_mul(A, "log", True), m)
    B = taylor_shift_t(A, 1)
    C = interp_grid(mod, B.arr)
    return truncate(diagonal(C, mod.table("factorials", n)), m)
