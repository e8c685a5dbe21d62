"""rthy: exact-arithmetic toolkit for finite resource theories.

Resource theories are modeled as finite quantale modules (transformations
acting on resources, with a designated free subset); the flagship concrete
theory is statistical distinguishability of finite encodings under matrix
majorization.  Everything is exact: rationals throughout, LP answers ship
machine-checkable certificates, enumerations are exhaustive or guarded.
"""

from .errors import (
    BadStratumBounds,
    DimensionMismatch,
    EnumerationTooLarge,
    FormatError,
    GuardError,
    HypothesisMismatch,
    IndexOutOfRange,
    InvalidModule,
    LengthMismatch,
    NotLeftInvariant,
    NotReflexiveTransitive,
    NotRightInvariant,
    RthyError,
    ShapeMismatch,
    WrongHypothesisCount,
    ZeroReference,
)
from .exactmath import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpOutcome,
    LpProblem,
    format_rational,
    lp_solve,
    parse_rational,
    verify_certificate,
)
from .order import (
    FinitePreorder,
    all_downsets,
    chain,
    down_closure,
)
from .quantale import (
    Augmentation,
    CommutativeQuantale,
    FiniteQuantaleModule,
    FunctionAction,
    PermutationAction,
    Violation,
    action_from_names,
    augment,
    catalytic_order,
    covariant_transformations,
    is_g_compatible,
    is_left_invariant,
    is_right_invariant,
    reachability,
    ucrt_order,
    validate,
    validate_quantale,
)
from .monotone import (
    MINUS_INF,
    PLUS_INF,
    PartialValuation,
    cost,
    cost_witness,
    value_from_json,
    value_to_json,
    yield_,
    yield_witness,
)
from .majorize import (
    Convertible,
    Encoding,
    NotConvertible,
    StochasticMap,
    ZonotopeCertificate,
    enumeration_guard,
    lorenz,
    majorizes,
    markotope_contains,
    relative_majorizes,
    zonotope,
    zonotope_certificate,
    zonotope_includes,
)
from .measures import (
    free_robustness,
    nonconvexity,
    robustness,
    weight,
    weight_fmk,
)
from .possibilistic import (
    BoolEncoding,
    BoolStochasticMap,
    bool_majorizes,
    ceil,
    to_hypergraph,
)
from .channels import (
    ChannelEncoding,
    ChannelYield,
    apply_input,
    channel_equivalent,
    channel_yield,
    check_comb_witness,
    comb_simulates,
    delta_input,
)

__version__ = "0.1.0"

__all__ = [
    "BadStratumBounds", "DimensionMismatch", "EnumerationTooLarge",
    "FormatError", "GuardError", "HypothesisMismatch", "IndexOutOfRange",
    "InvalidModule", "LengthMismatch", "NotLeftInvariant",
    "NotReflexiveTransitive", "NotRightInvariant", "RthyError",
    "ShapeMismatch", "WrongHypothesisCount", "ZeroReference",
    "INFEASIBLE", "OPTIMAL", "UNBOUNDED", "LpOutcome", "LpProblem",
    "format_rational", "lp_solve", "parse_rational", "verify_certificate",
    "FinitePreorder", "all_downsets", "chain", "down_closure",
    "Augmentation", "CommutativeQuantale", "FiniteQuantaleModule",
    "FunctionAction", "PermutationAction", "Violation", "action_from_names",
    "augment", "catalytic_order", "covariant_transformations",
    "is_g_compatible", "is_left_invariant", "is_right_invariant",
    "reachability", "ucrt_order", "validate", "validate_quantale",
    "MINUS_INF", "PLUS_INF", "PartialValuation", "cost", "cost_witness",
    "value_from_json", "value_to_json", "yield_", "yield_witness",
    "Convertible", "Encoding", "NotConvertible", "StochasticMap",
    "ZonotopeCertificate", "enumeration_guard", "lorenz", "majorizes",
    "markotope_contains", "relative_majorizes", "zonotope",
    "zonotope_certificate", "zonotope_includes",
    "free_robustness", "nonconvexity", "robustness", "weight", "weight_fmk",
    "BoolEncoding", "BoolStochasticMap", "bool_majorizes", "ceil",
    "to_hypergraph",
    "ChannelEncoding", "ChannelYield", "apply_input",
    "channel_equivalent", "channel_yield", "check_comb_witness",
    "comb_simulates", "delta_input",
]
