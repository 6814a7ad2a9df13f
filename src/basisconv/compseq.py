"""Composition sequences and their evaluation maps.

A composition sequence is a list of power-series operators (add, mul, power,
root, inverse, exp, log) that, applied in order starting from the identity
series x, builds a target series g.  This module computes the staggered
truncations of every intermediate series, evaluates the linear map
A -> A(g) mod x^n by structural recursion over the sequence, and provides
the transposed and inverse maps.  The inverse evaluates the reversed
sequence, which computes the compositional inverse of g - g(0) from the
truncations of g, and then shifts by -g(0): no other reduction is needed.
Where that sequence is Add(g(0)) followed by Add, Mul, Exp and Log alone, the
shift undoes the leading Add exactly, and the evaluation starts after it.

The evaluation reads the truncations only through input-independent operands,
the unit powers of Inv and the root powers of Root: the first evaluation of a
sequence at a precision (_prepare) builds all of them from one set of
truncations, which it then drops.  The leading coefficients and the inverse
reduction are kept apart (_lead_info), so that the inverse alone builds no
operand of the forward evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    _dense_mul,
    _fixed_operand,
    _toeplitz,
    mul_trunc,
    mul_trunc_t,
)
from .polyops import (
    _dense_shift,
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
    mod.check_precision(n)
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


def _output_series(ops, n, mod) -> Poly:
    """The output of ops mod x^max(n, 2)."""
    if not ops:
        return Poly.x(mod, max(n, 2))
    return compute_g(ops, max(n, 2), mod).g[-1]


def _prepare(ops, n: int, mod: Modulus):
    """Build, on the first evaluation of ops at precision n, every operand it
    reads (the unit powers of Inv, the root powers of Root) from one set of
    truncations at precision max(n, 2), which is then dropped; _lead_info at
    n comes from the same set where it is not kept yet.  Raises as compute_g
    does where ops is not defined at max(n, 2): at n = 1 a truncation at
    precision 1 before a Root can be zero where the series is not."""
    ops, prec = tuple(ops), max(n, 2)

    def build():
        truncs = compute_g(ops, prec, mod)
        for ell, m in _steps(ops, n):
            op = ops[ell - 1]
            if isinstance(op, Inv):
                key = _unit_pow_key(ops, ell - 1, 1 - m, n)
                mod.cached(key, partial(_inv_unit_pow, truncs, ell - 1, 1 - m, n, mod))
            elif isinstance(op, Root):
                key = _root_powers_key(ops, ell, op.k, n)
                mod.cached(key, partial(_root_powers, truncs, ell, op.k, n, mod))
        mod.cached(("lead", ops, prec), partial(_lead_summary, ops, truncs, mod))
        return True

    mod.cached(("seq", ops, n), build)


def _steps(ops, n):
    """The pairs (ell, m), ell >= 1, at which the evaluation at precision n,
    forward or transposed, applies operator ell to K[x]_m."""
    seen, todo = set(), [(len(ops), n)]
    while todo:
        ell, m = todo.pop()
        if ell == 0 or (ell, m) in seen:
            continue
        seen.add((ell, m))
        op = ops[ell - 1]
        if isinstance(op, Pow):
            todo.append((ell - 1, op.k * (m - 1) + 1))
        elif isinstance(op, Root):
            todo += [(ell - 1, max(d, 1)) for d in find_degrees(m, op.k)]
        else:
            todo.append((ell - 1, n if isinstance(op, (Exp, Log)) else m))
    return seen


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


def _unit_pow_key(ops, lp, e, n):
    return "upow", tuple(ops[:lp]), e, n


def _root_powers_key(ops, ell, k, n):
    return "rootpow", tuple(ops[:ell]), k, n


def _inv_unit_pow(truncs, lp, e, n, mod):
    """g_lp^e mod x^n from the truncations, kept for products of length <= n
    (_fixed_operand)."""
    g = _series_at(truncs, mod, lp, n)
    return _fixed_operand(mod, unit_pow(g, e, n).arr, n)


def _root_powers(truncs, ell, k, n, mod):
    """(1, h, ..., h^(k-1)) mod x^n for the root series h = g_ell, from the
    truncations, kept as _inv_unit_pow."""
    h = _series_at(truncs, mod, ell, n)
    powers = [Poly(mod, [1], n)]
    for _ in range(1, k):
        powers.append(mul_trunc(powers[-1], h, n))
    return tuple(_fixed_operand(mod, P.arr, n) for P in powers)


def _kept(mod, key):
    """The operand _prepare built under key.  The evaluation reads only the
    pairs _steps lists, so a miss is an error of _steps, and raises."""

    def missing():
        raise LookupError(f"operand {key!r} not built by _prepare")

    return mod.cached(key, missing)


def _eval_aux(A, m, n, ell, ops, mod, start):
    if ell == start:
        return truncate(A, n)
    op = ops[ell - 1]
    lp = ell - 1
    if isinstance(op, Mul):
        return _eval_aux(scale(A, op.lam), m, n, lp, ops, mod, start)
    if isinstance(op, Add):
        return _eval_aux(taylor_shift(A, op.a), m, n, lp, ops, mod, start)
    if isinstance(op, Pow):
        B = power_subst(A, op.k)
        return _eval_aux(B, op.k * (m - 1) + 1, n, lp, ops, mod, start)
    if isinstance(op, Inv):
        B = reverse(A)
        C = _eval_aux(B, m, n, lp, ops, mod, start)
        return mul_trunc(C, _kept(mod, _unit_pow_key(ops, lp, 1 - m, n)), n)
    if isinstance(op, Root):
        dims = find_degrees(m, op.k)
        powers = _kept(mod, _root_powers_key(ops, ell, op.k, n))
        parts = split(A, op.k)
        outs = [
            _eval_aux(parts[i], max(dims[i], 1), n, lp, ops, mod, start)
            for i in range(op.k)
        ]
        return lincomb(outs, powers, n)
    if isinstance(op, Exp):
        return _eval_aux(exp_map(A, n), n, n, lp, ops, mod, start)
    if isinstance(op, Log):
        return _eval_aux(log_map(A, n), n, n, lp, ops, mod, start)
    raise TypeError(f"unknown operator {op!r}")


def eval_seq(A: Poly, ops, n: int, start=0) -> Poly:
    """A(g) mod x^n where g is the series output by the sequence; raises as
    compute_g does where the sequence is not defined at precision n.  With
    start = s, only the operators after the first s run, as though g_s
    were x: the B with B(g_s) = A(g) mod x^n where they are all Add, Mul, Exp
    or Log (compseq._shifts_cancel)."""
    mod = A.mod
    _prepare(ops, n, mod)
    return _eval_aux(truncate(A, n), n, n, len(ops), ops, mod, start)


def _eval_aux_t(A, m, n, ell, ops, mod, start):
    if ell == start:
        return truncate(A, m)
    op = ops[ell - 1]
    lp = ell - 1
    if isinstance(op, Mul):
        B = _eval_aux_t(A, m, n, lp, ops, mod, start)
        return scale(B, op.lam)
    if isinstance(op, Add):
        B = _eval_aux_t(A, m, n, lp, ops, mod, start)
        return taylor_shift_t(B, op.a)
    if isinstance(op, Pow):
        B = _eval_aux_t(A, op.k * (m - 1) + 1, n, lp, ops, mod, start)
        return power_subst_t(B, op.k, m)
    if isinstance(op, Inv):
        B = mul_trunc_t(A, _kept(mod, _unit_pow_key(ops, lp, 1 - m, n)), n)
        C = _eval_aux_t(B, m, n, lp, ops, mod, start)
        return reverse(C)
    if isinstance(op, Root):
        dims = find_degrees(m, op.k)
        powers = _kept(mod, _root_powers_key(ops, ell, op.k, n))
        parts = lincomb_t(A, powers)
        outs = [
            _eval_aux_t(parts[i], max(dims[i], 1), n, lp, ops, mod, start)
            for i in range(op.k)
        ]
        return split_t(outs, m)
    if isinstance(op, Exp):
        B = _eval_aux_t(A, n, n, lp, ops, mod, start)
        return exp_map_t(B, m)
    if isinstance(op, Log):
        B = _eval_aux_t(A, n, n, lp, ops, mod, start)
        return log_map_t(B, m)
    raise TypeError(f"unknown operator {op!r}")


def eval_seq_t(A: Poly, ops, n: int, start=0) -> Poly:
    """Transpose of eval_seq(., ops, n, start)."""
    mod = A.mod
    _prepare(ops, n, mod)
    return _eval_aux_t(truncate(A, n), n, n, len(ops), ops, mod, start)


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


def _shifts_cancel(g0, rev_ops):
    """Whether the shift by -g0 after rev_ops undoes its leading Add(g0)
    exactly, so that the evaluation can start after that Add (eval_seq's
    start = 1).  It does where every operator is Add, Mul, Exp or Log: each
    maps K[x]_n to itself before the inner evaluation, with no product after
    it (Inv, Root) and no change of dimension (Pow), so the evaluation is
    T_g0 of the one that starts after the Add, and T_-g0 T_g0 is the identity
    on K[x]_n."""
    return g0 != 0 and all(isinstance(op, (Add, Mul, Exp, Log)) for op in rev_ops)


def eval_seq_inv(A: Poly, ops, n: int) -> Poly:
    """Inverse of eval_seq(., ops, n); needs g'(0) != 0."""
    mod = A.mod
    mod.check_precision(n)
    g0, rev_ops = _inverse_reduction(ops, n, mod)
    if _shifts_cancel(g0, rev_ops):
        return eval_seq(A, rev_ops, n, start=1)
    return taylor_shift(eval_seq(truncate(A, n), rev_ops, n), -g0 % mod.p)


# -- the matrices of the maps on int64 rows, n <= LEAF_SIZE --------------------


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
    return _dense_shift(mod, P, -g0 % mod.p, False) if g0 else P


def _power_stack(g: Poly, n: int, mod: Modulus):
    """The int64 (n, n) array of the powers g^k mod x^n, k < n, of the series
    g of dim n: rows 1..k times g^m give rows m + 1..m + k, one exact product
    (modfield._dense_mul) by the Toeplitz matrix of g^m."""
    P = np.zeros((n, n), dtype=np.int64)
    P[0, 0] = 1
    if n >= 2:
        P[1] = g.arr
    m = 1
    while m < n - 1:
        k = min(m, n - 1 - m)
        P[m + 1 : m + 1 + k] = _dense_mul(mod, P[1 : 1 + k], _toeplitz(P[m], n))
        m += k
    return P


# -- sequence mini-language ------------------------------------------------


def _parse_scalar(token: str, mod: Modulus) -> int:
    """An integer as written, or a fraction a/b as a residue mod p."""
    token = token.strip()
    if "/" in token:
        num, den = token.split("/", 1)
        return int(num) * mod.inv(int(den)) % mod.p
    return int(token)


def parse_sequence(text: str, mod: Modulus):
    """Parse the semicolon-separated mini-language, e.g. "A:1;Inv;M:-2".

    Tokens: A:a  M:l  P:k  R:k,alpha,r  Inv  E  L.  Scalar parameters are
    integers (or a/b fractions) reduced mod p; k and r are plain integers.
    """
    ops = []
    for raw in text.split(";"):
        tok = raw.strip()
        if not tok:
            continue
        head, _, args = tok.partition(":")
        head = head.strip()
        if head == "A":
            ops.append(Add(_parse_scalar(args, mod) % mod.p))
        elif head == "M":
            ops.append(Mul(_parse_scalar(args, mod) % mod.p))
        elif head == "P":
            ops.append(Pow(int(args)))
        elif head == "R":
            k, alpha, r = args.split(",")
            ops.append(Root(int(k), _parse_scalar(alpha, mod) % mod.p, int(r)))
        elif head == "Inv":
            ops.append(Inv())
        elif head == "E":
            ops.append(Exp())
        elif head == "L":
            ops.append(Log())
        else:
            raise ValueError(f"unknown sequence token {tok!r}")
    for op in ops:
        _check_op(op, mod)
    return tuple(ops)


def format_sequence(ops) -> str:
    parts = []
    for op in ops:
        if isinstance(op, Add):
            parts.append(f"A:{op.a}")
        elif isinstance(op, Mul):
            parts.append(f"M:{op.lam}")
        elif isinstance(op, Pow):
            parts.append(f"P:{op.k}")
        elif isinstance(op, Root):
            parts.append(f"R:{op.k},{op.alpha},{op.r}")
        elif isinstance(op, Inv):
            parts.append("Inv")
        elif isinstance(op, Exp):
            parts.append("E")
        elif isinstance(op, Log):
            parts.append("L")
    return ";".join(parts)
