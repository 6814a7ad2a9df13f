"""Composition sequences and their evaluation maps.

A composition sequence is a list of power-series operators (add, mul, power,
root, inverse, exp, log) that, applied in order starting from the identity
series x, builds a target series g.  This module computes the staggered
truncations of every intermediate series, evaluates the linear map
A -> A(g) mod x^n, and provides the transposed and inverse maps.  The inverse
evaluates the reversed sequence, which computes the compositional inverse of
g - g(0) from the truncations of g, and then shifts by -g(0): no other
reduction is needed.

The first evaluation of a sequence at a precision (_prepare) compiles the map
A -> T_shift(A(g)) into linear steps over numbered rows (_compile), each a
function of polyops, modfield or evalgrid paired with its transpose.  Two
rules fold steps: adjacent Taylor shifts into one, and a product (an Inv's or
a Root's) of the row another product made into one lincomb, by the two
products' series multiplied at compile time, so that nested Roots flatten
into one lincomb of all their parts; its transpose transforms its input once
for all its operands (polyops.lincomb_t).  Each of the four maps runs one
such program (_evaluate): eval_seq and eval_seq_inv, at the reversed
sequence and the shift by -g(0), run its steps in order, eval_seq_t and
eval_inv_transposed their transposes last first, as the transposition
principle gives it (Bostan, Lecerf & Schost, "Tellegen's principle into
practice", ISSAC 2003).  The steps read the truncations only through
input-independent operands, the unit powers of Inv and the root powers of
Root and their products, built from one set of truncations, which is then
dropped.  The leading coefficients and the inverse
reduction are kept apart (_lead_info), so that the inverse alone builds no
operand of the forward evaluation.
"""

from __future__ import annotations

import re
from dataclasses import astuple, dataclass
from functools import partial

import numpy as np

from .errors import (
    AmbiguousValuation,
    DomainViolation,
    InvalidOperatorParam,
    NotInvertible,
    NotTangentToIdentity,
)
from .evalgrid import exp_map, exp_map_t, log_map, log_map_t
from .modfield import (
    Modulus,
    Poly,
    _check_poly,
    _dense_mul,
    _fixed_operand,
    _toeplitz,
    mul_trunc,
    mul_trunc_t,
)
from .polyops import (
    _dense_shift,
    _power_row,
    find_degrees,
    lincomb,
    lincomb_t,
    power_subst,
    power_subst_t,
    reverse,
    scale,
    split,
    split_t,
    taylor_shift,
    taylor_shift_t,
    truncate,
)
from .seriesops import (
    series_add_const,
    series_exp,
    series_inv,
    series_log,
    series_mul_const,
    series_pow,
    series_root,
    unit_pow,
)


@dataclass(frozen=True)
class Add:
    a: int


@dataclass(frozen=True)
class Mul:
    lam: int


@dataclass(frozen=True)
class Pow:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InvalidOperatorParam("Pow needs k >= 1")


@dataclass(frozen=True)
class Root:
    k: int
    alpha: int
    r: int

    def __post_init__(self):
        if self.k < 1 or self.r < 0:
            raise InvalidOperatorParam("Root needs k >= 1 and r >= 0")


@dataclass(frozen=True)
class Inv:
    pass


@dataclass(frozen=True)
class Exp:
    pass


@dataclass(frozen=True)
class Log:
    pass


CompositionOp = Add | Mul | Pow | Root | Inv | Exp | Log


def _check_op(op: CompositionOp, mod: Modulus):
    if isinstance(op, Mul) and op.lam % mod.p == 0:
        raise InvalidOperatorParam("Mul needs a nonzero constant")
    if isinstance(op, Root) and op.alpha % mod.p == 0:
        raise InvalidOperatorParam("Root needs alpha != 0")


@dataclass(frozen=True)
class CompositionSequence:
    ops: tuple
    cost_class: str  # "M" or "MlogM"

    def __len__(self):
        return len(self.ops)


def cost_class_of(ops) -> str:
    return "MlogM" if any(isinstance(o, (Exp, Log)) for o in ops) else "M"


@dataclass(frozen=True)
class SequenceTruncations:
    """g_1..g_L at the staggered precisions of the root-aware schedule."""

    g: tuple          # tuple of Poly; g[i] is g_{i+1} at precision schedule[i]
    schedule: tuple   # n_1..n_L with n_L = n


def precision_schedule(ops, n):
    """n_L = n and n_{i-1} = n_i + r(k-1) across each root operator."""
    sched = [0] * (len(ops) + 1)
    sched[len(ops)] = n
    for i in range(len(ops), 0, -1):
        op = ops[i - 1]
        eps = op.r * (op.k - 1) if isinstance(op, Root) else 0
        sched[i - 1] = sched[i] + eps
    return sched


def _apply_op(op, g: Poly, n_out: int, step: int) -> Poly:
    """One operator applied to a truncation, with its domain check."""
    mod = g.mod
    if isinstance(op, Add):
        return truncate(series_add_const(g, op.a), n_out)
    if isinstance(op, Mul):
        return truncate(series_mul_const(g, op.lam), n_out)
    if isinstance(op, Pow):
        return series_pow(g, op.k, n_out)
    if isinstance(op, Inv):
        if g.constant() == 0:
            raise DomainViolation(f"step {step}: Inv needs g(0) != 0")
        return series_inv(g, n_out)
    if isinstance(op, Exp):
        if g.constant() != 0:
            raise DomainViolation(f"step {step}: Exp needs g(0) = 0")
        return series_exp(truncate(g, n_out), n_out)
    if isinstance(op, Log):
        if g.constant() != 0:
            raise DomainViolation(f"step {step}: Log needs g(0) = 0")
        return series_log(truncate(g, n_out), n_out)
    if isinstance(op, Root):
        if g.valuation() is None:
            raise AmbiguousValuation(
                f"step {step}: truncation is zero, valuation unknown"
            )
        try:
            return series_root(g, op.k, op.alpha, op.r, n_out)
        except DomainViolation as exc:
            raise DomainViolation(f"step {step}: {exc}") from None
    raise TypeError(f"unknown operator {op!r}")


def compute_g(ops, n: int, mod: Modulus) -> SequenceTruncations:
    """Truncations of every intermediate series, following the schedule;
    made afresh on each call and not cached (see _prepare)."""
    n = mod.check_precision(n)
    return _truncations(ops, n, mod)


def _truncations(ops, n, mod):
    for op in ops:
        _check_op(op, mod)
    sched = precision_schedule(ops, n)
    g = Poly.x(mod, max(sched[0], 1))
    out = []
    for i, op in enumerate(ops):
        g = _apply_op(op, g, sched[i + 1], i + 1)
        out.append(g)
    return SequenceTruncations(tuple(out), tuple(sched[1:]))


def validate(ops, n: int, mod: Modulus) -> CompositionSequence:
    """Check the sequence is defined at x (via its truncations) and tag it."""
    compute_g(ops, n, mod)
    return CompositionSequence(tuple(ops), cost_class_of(ops))


def _series_at(truncs: SequenceTruncations, mod, ell, n) -> Poly:
    """g_ell mod x^n (g_0 = x)."""
    if ell == 0:
        return Poly.x(mod, n)
    return truncate(truncs.g[ell - 1], n)


def _prepare(ops, n: int, mod: Modulus, shift=0):
    """The program of A -> T_shift(A(g)) mod x^n for the output g of ops and
    of its transpose (_compile), kept as the one entry ("seq", ops, n, shift).
    The first call builds it from one set of truncations at precision
    max(n, 2), which is then dropped; _lead_info at n comes from the same set
    where it is not kept yet.  Raises as compute_g does where ops is not
    defined at max(n, 2): at n = 1 a truncation at precision 1 before a Root
    can be zero where the series is not."""
    ops, prec = tuple(ops), max(n, 2)

    def build():
        truncs = compute_g(ops, prec, mod)
        program = _compile(ops, n, shift, truncs, mod)
        mod.cached(("lead", ops, prec), partial(_lead_summary, ops, truncs, mod))
        return program

    return mod.cached(("seq", ops, n, shift), build)


def _compile(ops, n, shift, truncs, mod):
    """(steps, dims): A -> T_shift(A(g)) mod x^n for the output g of ops, as
    linear steps over rows numbered as they are made, row 0 the input, the
    last row the output and dims[r] the dimension of row r (a row a fold
    took away is made by no step).  A step is the pair ((f, src, dst, args),
    (f_t, dst, src, args_t)): rows dst = f(rows src, *args) and its
    transpose rows src = f_t(rows dst, *args_t), src and dst each a row or a
    tuple of rows (_run), f and f_t as this module's namespace binds them
    now.  The Inv at step ell on K[x]_m multiplies by the unit power
    g^(1 - m) mod x^n of its input g, the Root at step ell by the root
    powers (1, h, ..., h^(k-1)) mod x^n of its output h, each built once per
    (ell, m) or ell: a Root whose parts have equal dimensions reaches the
    steps below it twice.  Two rules fold steps as they are made, exactly:
    a Taylor shift of the row a Taylor shift made is one shift by the sum,
    T_a T_b = T_(a + b), and none where that is 0 mod p; a product of the
    row a product made is one lincomb of that product's rows, by its series
    times this one's mod x^n, each such pair multiplied once, for every row
    is read by one step and every product maps K[x]_n to K[x]_n.  The
    products keep their series for products of length <= n
    (_fixed_operand)."""
    steps, dims, series, fused, made = [], [n], {}, {}, {}

    def step(f, f_t, src, out, args=(), args_t=()):
        # out: the dimension of the row made, or a tuple of them
        if isinstance(out, tuple):
            dst = tuple(range(len(dims), len(dims) + len(out)))
            dims.extend(out)
        else:
            dst = len(dims)
            dims.append(out)
        steps.append(((f, src, dst, args), (f_t, dst, src, args_t)))
        return dst

    def shift_step(src, a):
        if steps and steps[-1][0][0] is taylor_shift and steps[-1][0][2] == src:
            (_, src, _, (b,)), _ = steps.pop()
            dims.pop()
            a += b
        a %= mod.p
        return step(taylor_shift, taylor_shift_t, src, dims[src], (a,), (a,)) if a else src

    def times(G, H):
        # G H mod x^n, kept with its factors so that their ids stay theirs
        if (id(G), id(H)) not in fused:
            GH = H if _is_one(G) else G if _is_one(H) else mul_trunc(G, H, n)
            fused[id(G), id(H)] = G, H, GH
        return fused[id(G), id(H)][2]

    def product(src, G):
        """The product of the row src (an Inv) or the rows src (a Root) by
        the series G, with the rows a product made replaced by its terms;
        its row.  Its step is made at the end of _compile, once no product
        reads its row."""
        terms = []
        for row, g in zip(src, G) if isinstance(src, tuple) else [(src, G[0])]:
            if row in made:
                i, inner = made.pop(row)
                steps[i] = None
                terms += [(r, times(h, g)) for r, h in inner]
            else:
                terms.append((row, g))
        dst = step(None, None, src, n)
        made[dst] = len(steps) - 1, terms
        return dst

    def walk(src, ell):
        """The steps from row src, the input of operator ell, to its image
        in K[x]_n; that row."""
        m = dims[src]
        if ell == 0:
            return src if m == n else step(truncate, truncate, src, n, (n,), (m,))
        op = ops[ell - 1]
        if isinstance(op, Mul):
            return walk(step(scale, scale, src, m, (op.lam,), (op.lam,)), ell - 1)
        if isinstance(op, Add):
            return walk(shift_step(src, op.a), ell - 1)
        if isinstance(op, Pow):
            k = op.k
            return walk(
                step(power_subst, power_subst_t, src, k * (m - 1) + 1, (k,), (k, m)), ell - 1
            )
        if isinstance(op, Exp):
            return walk(step(exp_map, exp_map_t, src, n, (n,), (m,)), ell - 1)
        if isinstance(op, Log):
            return walk(step(log_map, log_map_t, src, n, (n,), (m,)), ell - 1)
        if isinstance(op, Inv):
            if (ell, m) not in series:
                g = _series_at(truncs, mod, ell - 1, n)
                series[ell, m] = (unit_pow(g, 1 - m, n),)
            return product(walk(step(reverse, reverse, src, m), ell - 1), series[ell, m])
        if isinstance(op, Root):
            if ell not in series:
                h, powers = _series_at(truncs, mod, ell, n), [Poly(mod, [1], n)]
                for _ in range(1, op.k):
                    powers.append(mul_trunc(powers[-1], h, n))
                series[ell] = tuple(powers)
            dims_out = tuple(max(d, 1) for d in find_degrees(m, op.k))
            parts = step(split, split_t, src, dims_out, (op.k,), (m,))
            return product(tuple(walk(part, ell - 1) for part in parts), series[ell])
        raise TypeError(f"unknown operator {op!r}")

    try:
        shift_step(walk(0, len(ops)), shift)
    finally:
        del walk  # it refers to itself: that cycle would keep truncs until a collection
    kept = {}
    for dst, (i, terms) in made.items():
        rows, G = zip(*terms)
        for g in G:
            if id(g) not in kept:
                kept[id(g)] = _fixed_operand(mod, g.arr, n)
        G = tuple(kept[id(g)] for g in G)
        if isinstance(steps[i][0][1], tuple) or len(rows) > 1:
            steps[i] = ((lincomb, rows, dst, (G, n)), (lincomb_t, dst, rows, (G,)))
        else:
            steps[i] = ((mul_trunc, rows[0], dst, (G[0], n)), (mul_trunc_t, dst, rows[0], (G[0], n)))
    return tuple(s for s in steps if s is not None), tuple(dims)


def _is_one(G: Poly):
    """Whether the series G is the constant 1."""
    return G.arr[0] == 1 and not G.arr[1:].any()


def _run(steps, rows, side):
    """Runs side 0 (forward) or 1 (transposed) of each of steps (_compile),
    in the order given, on the dict {row: Poly} rows; each row is read by
    one step, which drops it."""
    pop = rows.pop
    for step in steps:
        f, src, dst, args = step[side]
        out = f(pop(src) if src.__class__ is int else [pop(i) for i in src], *args)
        if dst.__class__ is int:
            rows[dst] = out
        else:
            rows.update(zip(dst, out))
    return rows


def _lead_info(ops, n, mod):
    """(lead, reduction) for ops at precision max(n, 2), cached, from one set
    of truncations made for it alone where no evaluation at that precision
    has made it (_prepare): raises as compute_g does where ops is not
    defined there.  lead is (g(0), g'(0)) of the output g and reduction the
    value of _inverse_reduction, or the exception it raises."""
    ops, prec = tuple(ops), max(n, 2)

    def build():
        return _lead_summary(ops, compute_g(ops, prec, mod), mod)

    return mod.cached(("lead", ops, prec), build)


def _lead_summary(ops, truncs, mod):
    """_lead_info from the truncations of ops at a precision >= 2."""
    out = truncs.g[-1] if ops else Poly.x(mod, 2)
    try:
        reduction = _reduction(ops, truncs, mod)
    except (NotInvertible, AmbiguousValuation) as exc:
        reduction = exc.with_traceback(None)
    return (int(out.arr[0]), int(out.arr[1])), reduction


def _leads(ops, n, mod):
    """(g(0), g'(0)) of the output g of ops."""
    return _lead_info(ops, n, mod)[0]


def _evaluate(A: Poly, ops, n: int, inverse, transposed) -> Poly:
    """eval_seq, eval_seq_t, eval_seq_inv or eval_inv_transposed of A: the
    program (_prepare) of ops, or with inverse of the reversed sequence with
    the shift by -g(0) (_inverse_reduction), its steps run in order, or with
    transposed their transposes last first."""
    mod = _check_poly(A)
    n = mod.check_precision(n)
    g0, ops = _inverse_reduction(ops, n, mod) if inverse else (0, ops)
    steps, dims = _prepare(ops, n, mod, -g0 % mod.p)
    first, last = 0, len(dims) - 1
    if transposed:
        steps, first, last = reversed(steps), last, first
    return _run(steps, {first: truncate(A, n)}, int(transposed))[last]


def eval_seq(A: Poly, ops, n: int) -> Poly:
    """A(g) mod x^n where g is the series output by the sequence; raises as
    compute_g does where the sequence is not defined at precision n."""
    return _evaluate(A, ops, n, False, False)


def eval_seq_t(A: Poly, ops, n: int) -> Poly:
    """Transpose of eval_seq(., ops, n)."""
    return _evaluate(A, ops, n, False, True)


def reverse_sequence(ops, truncs: SequenceTruncations, mod: Modulus):
    """The sequence computing the compositional inverse of the output series.

    Requires the output g to have valuation exactly 1 (g(0)=0, g'(0)!=0);
    the compositional inverse exists precisely then.
    """
    if not ops:
        return ()
    out = truncs.g[-1]
    if out.dim < 2 or out.arr[0] != 0 or out.arr[1] == 0:
        raise NotTangentToIdentity(
            "sequence output has no compositional inverse (needs valuation 1); "
            "use eval_inv for the general linear-map inverse"
        )
    return _reversed_ops(ops, truncs, int(out.arr[1]), mod)


def _reversed_ops(ops, truncs, g1, mod):
    """The operators of ops inverted, last first, for the inverse of a series
    with g'(0) = g1.  Power operators reverse into roots: the intermediate
    the root acts on is the forward intermediate composed with the inverse
    series, which scales its leading coefficient by g1^(-val)."""
    g1_inv = mod.inv(g1)
    rev = []
    for i in range(len(ops), 0, -1):
        op = ops[i - 1]
        if isinstance(op, Add):
            rev.append(Add((-op.a) % mod.p))
        elif isinstance(op, Mul):
            rev.append(Mul(mod.inv(op.lam)))
        elif isinstance(op, Inv):
            rev.append(Inv())
        elif isinstance(op, Exp):
            rev.append(Log())
        elif isinstance(op, Log):
            rev.append(Exp())
        elif isinstance(op, Root):
            rev.append(Pow(op.k))
        elif isinstance(op, Pow):
            prec = truncs.schedule[i - 2] if i >= 2 else max(truncs.schedule[0], 2)
            prev = _series_at(truncs, mod, i - 1, prec)
            val = prev.valuation()
            if val is None:
                raise AmbiguousValuation(
                    f"step {i}: zero truncation, cannot reverse powering"
                )
            alpha = int(prev.arr[val]) * mod.pow(g1_inv, val) % mod.p
            rev.append(Root(op.k, alpha, val))
        else:
            raise TypeError(f"unknown operator {op!r}")
    return tuple(rev)


def _inverse_reduction(ops, n: int, mod: Modulus):
    """(g0, rev_ops) for the output g of ops: g0 = g(0) and the sequence of
    the compositional inverse of g - g0, led by Add(g0) where g0 != 0.  As
    A(g) is A(x + g0) evaluated at g - g0, the inverse of eval_seq is eval_seq
    at rev_ops and then one Taylor shift by -g0.  Raises NotInvertible if
    g'(0) = 0; kept by _lead_info."""
    reduction = _lead_info(ops, n, mod)[1]
    if isinstance(reduction, Exception):
        raise type(reduction)(*reduction.args)
    return reduction


def _reduction(ops, truncs, mod):
    """_inverse_reduction from the truncations of ops at a precision >= 2."""
    if not ops:
        return 0, ()
    g0, g1 = int(truncs.g[-1].arr[0]), int(truncs.g[-1].arr[1])
    if g1 == 0:
        raise NotInvertible("g'(0) = 0: evaluation map is singular")
    rev = _reversed_ops(ops, truncs, g1, mod)
    return g0, ((Add(g0),) + rev if g0 else rev)


def eval_seq_inv(A: Poly, ops, n: int) -> Poly:
    """Inverse of eval_seq(., ops, n); needs g'(0) != 0."""
    return _evaluate(A, ops, n, True, False)


def eval_inv_transposed(A: Poly, ops, n: int) -> Poly:
    """Transpose of eval_seq_inv(., ops, n)."""
    return _evaluate(A, ops, n, True, True)


# -- the matrices of the maps on int64 rows --------------------------------------

# A product of rows by an n x n matrix takes one _dense_mul per block of
# BLOCK_ROWS rows (_block_mul), whose limbs are L x BLOCK_ROWS x n doubles
# where all r rows' would be L r n.  Up to families.MATRIX_MAX every product
# is one block.  A strided matrix (the Toeplitz view of modfield._toeplitz) is
# copied once per product of more than one block, where each block's GEMM
# would copy it afresh.  The dense conversion matrix of jacobi(alpha=3,beta=5)
# at n = 2048 (densemat) peaked at 171 MB under tracemalloc in blocks of 64
# rows and at 453 MB in one product per factor (2-core x86-64, numpy 2.4).
BLOCK_ROWS = 64


def _block_mul(mod: Modulus, A, M, out):
    """The rows out = A M mod p (_dense_mul), BLOCK_ROWS rows of A at a time:
    block i of out reads block i of A alone, so out may be A."""
    if len(A) > BLOCK_ROWS and not (M.flags.c_contiguous or M.flags.f_contiguous):
        M = np.ascontiguousarray(M)
    for i in range(0, len(A), BLOCK_ROWS):
        out[i : i + BLOCK_ROWS] = _dense_mul(mod, A[i : i + BLOCK_ROWS], M)


def _seq_matrix(ops, n: int, mod: Modulus):
    """The int64 n x n matrix of eval_seq(., ops, n) on rows, the powers
    g^k mod x^n of the output g of ops whatever operators built it
    (_power_stack); raises as eval_seq does.  The truncations of ops at
    max(n, 2) give g and, as in _prepare, _lead_info at n."""
    ops, prec = tuple(ops), max(n, 2)
    truncs = compute_g(ops, prec, mod)
    mod.cached(("lead", ops, prec), partial(_lead_summary, ops, truncs, mod))
    return _power_stack(_series_at(truncs, mod, len(ops), n), n, mod)


def _inverse_seq_matrix(ops, n: int, mod: Modulus):
    """The int64 n x n matrix of eval_seq_inv(., ops, n) on rows: that of the
    reversed sequence (_inverse_reduction), its rows shifted by -g(0); raises
    as eval_seq_inv does."""
    g0, rev = _inverse_reduction(ops, n, mod)
    P = _seq_matrix(rev, n, mod)
    if not g0:
        return P
    a = -g0 % mod.p
    return _dense_shift(mod, P, _power_row(mod, a, n), _power_row(mod, a, n, -1), False)


def _power_stack(g: Poly, n: int, mod: Modulus):
    """The int64 (n, n) array of the powers g^k mod x^n, k < n, of the series
    g of dim n: rows 1..k times g^m give rows m + 1..m + k, one exact product
    (_block_mul) by the Toeplitz matrix of g^m."""
    P = np.zeros((n, n), dtype=np.int64)
    P[0, 0] = 1
    if n >= 2:
        P[1] = g.arr
    m = 1
    while m < n - 1:
        k = min(m, n - 1 - m)
        _block_mul(mod, P[1 : 1 + k], _toeplitz(P[m], n), P[m + 1 : m + 1 + k])
        m += k
    return P


# -- sequence mini-language ------------------------------------------------


_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_integer(text: str) -> int:
    """The integer of sequences, family parameters and the CLI's JSON input:
    ASCII digits after an optional sign and nothing else, where int() also
    takes blanks, underscores and other digits; ValueError otherwise."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"malformed integer {text!r}")
    return int(text)


def _parse_scalar(token: str, mod: Modulus) -> int:
    """An integer as written, or a fraction a/b as a residue mod p."""
    num, slash, den = token.partition("/")
    if slash:
        return parse_integer(num.strip()) * mod.inv(parse_integer(den.strip())) % mod.p
    return parse_integer(num.strip())


# token -> (op, the kind of each of its fields in order): "s" a scalar, an
# integer or a fraction a/b, reduced mod p; "i" a plain integer
_TOKENS = {
    "A": (Add, "s"),
    "M": (Mul, "s"),
    "P": (Pow, "i"),
    "R": (Root, "isi"),
    "Inv": (Inv, ""),
    "E": (Exp, ""),
    "L": (Log, ""),
}


def parse_sequence(text: str, mod: Modulus):
    """Parse the semicolon-separated mini-language, e.g. "A:1;Inv;M:-2".

    Tokens (_TOKENS): A:a  M:l  P:k  R:k,alpha,r  Inv  E  L, each with exactly
    its fields: Inv, E and L take none, and a token with a missing or extra
    field raises ValueError naming it.  Scalar fields are integers (or a/b
    fractions) reduced mod p; k and r are plain integers.
    """
    ops = []
    for raw in text.split(";"):
        tok = raw.strip()
        if not tok:
            continue
        head, colon, args = tok.partition(":")
        head = head.strip()
        if head not in _TOKENS:
            raise ValueError(f"unknown sequence token {tok!r}")
        op, kinds = _TOKENS[head]
        values = args.split(",") if colon else []
        if len(values) != len(kinds):
            raise ValueError(f"sequence token {head} takes {len(kinds)} field(s): {tok!r}")
        ops.append(op(*(
            _parse_scalar(x, mod) % mod.p if kind == "s" else parse_integer(x.strip())
            for kind, x in zip(kinds, values)
        )))
    for op in ops:
        _check_op(op, mod)
    return tuple(ops)


def format_sequence(ops) -> str:
    """The text of ops that parse_sequence reads back to ops."""
    heads = {op: head for head, (op, _) in _TOKENS.items()}
    parts = []
    for op in ops:
        values = ",".join(map(str, astuple(op)))
        parts.append(f"{heads[type(op)]}:{values}" if values else heads[type(op)])
    return ";".join(parts)
