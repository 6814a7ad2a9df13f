"""Polynomial basis conversion over prime fields via composition sequences.

The package evaluates, transposes, and inverts the linear maps
A -> A(g) mod x^n in quasi-linear time when g is built by a short sequence
of series operators, and uses the structured bivariate factorization
u(x) v(t) f(g(x) h(t)) to convert between the monomial basis and twenty
classical polynomial families.
"""

from .bivariate import (
    BivariateSpec,
    check_spec,
    eval_bivariate,
    eval_bivariate_inv,
)
from .compseq import (
    Add,
    CompositionOp,
    CompositionSequence,
    Exp,
    Inv,
    Log,
    Mul,
    Pow,
    Root,
    SequenceTruncations,
    compute_g,
    cost_class_of,
    eval_inv_transposed,
    eval_seq,
    eval_seq_inv,
    eval_seq_t,
    format_sequence,
    parse_sequence,
    precision_schedule,
    reverse_sequence,
    validate,
)
from .errors import (
    AlgebraError,
    AmbiguousValuation,
    CapacityExceeded,
    DimensionMismatch,
    DivisionByZero,
    DomainViolation,
    InvalidOperatorParam,
    NotInvertible,
    NotTangentToIdentity,
    PrecisionExceedsModulus,
    SingularDiagonal,
    SpecViolation,
    ZeroCoefficient,
)
from .evalgrid import (
    exp_map,
    exp_map_t,
    interp_grid,
    interp_grid_t,
    log_map,
    log_map_t,
    multieval_grid,
    multieval_grid_t,
)
from .families import (
    FamilyDescriptor,
    family,
    family_names,
    from_monomial,
    parse_family,
    to_monomial,
)
from .modfield import DEFAULT_PRIME, Modulus, Poly, mul_trunc, mul_trunc_t, poly_mul
from .polyops import (
    diagonal,
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
    series_exp,
    series_inv,
    series_log,
    series_pow,
    series_root,
    unit_pow,
)

__version__ = "0.1.0"

__all__ = [
    "Add", "AlgebraError", "AmbiguousValuation", "BivariateSpec",
    "CapacityExceeded", "CompositionOp", "CompositionSequence",
    "DEFAULT_PRIME", "DimensionMismatch", "DivisionByZero", "DomainViolation",
    "Exp", "FamilyDescriptor", "Inv", "InvalidOperatorParam", "Log",
    "Modulus", "Mul", "NotInvertible", "NotTangentToIdentity", "Poly", "Pow",
    "PrecisionExceedsModulus", "Root", "SequenceTruncations",
    "SingularDiagonal", "SpecViolation", "ZeroCoefficient", "check_spec",
    "compute_g", "cost_class_of", "diagonal", "eval_bivariate",
    "eval_bivariate_inv", "eval_inv_transposed", "eval_seq", "eval_seq_inv",
    "eval_seq_t", "exp_map", "exp_map_t", "family", "family_names",
    "format_sequence", "from_monomial", "interp_grid", "interp_grid_t",
    "lincomb", "lincomb_t", "log_map", "log_map_t", "mul_trunc",
    "mul_trunc_t", "multieval_grid", "multieval_grid_t", "parse_family",
    "parse_sequence", "poly_mul", "power_subst", "power_subst_t",
    "precision_schedule", "reverse", "reverse_sequence", "scale",
    "series_exp", "series_inv", "series_log", "series_pow", "series_root",
    "split", "split_t", "taylor_shift", "taylor_shift_t", "to_monomial",
    "truncate", "unit_pow", "validate",
]
