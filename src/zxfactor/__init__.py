"""Reducibility and explicit factorization in Z[[x]] for quadratic-headed
series with prime-power constant term, driven by p-adic square tests."""

from .classify import (
    QuadInput,
    RULE_INFO,
    Verdict,
    VerdictKind,
    classify_general,
    classify_quadratic,
    discriminant,
    discriminant_square_class,
)
from .factor import (
    EngineInvariantError,
    factor_coprime_constant,
    factor_m_eq_nu,
    factor_p2_m_eq_nu1,
    factor_p2_scaled,
    factor_simple_root,
    factor_tail,
)
from .limits import LIMITS
from .oracle import verify_factorization
from .padics import (
    PROVEN_PRIME_BOUND,
    SquareClass,
    is_prime,
    is_square_zp,
    root_classes,
)
from .series import (
    TruncSeries,
    from_decimal_strings,
    normalize_head,
    poly_mul,
    to_decimal_strings,
)

__version__ = "0.1.0"

__all__ = [
    "EngineInvariantError",
    "LIMITS",
    "PROVEN_PRIME_BOUND",
    "QuadInput",
    "RULE_INFO",
    "SquareClass",
    "TruncSeries",
    "Verdict",
    "VerdictKind",
    "classify_general",
    "classify_quadratic",
    "discriminant",
    "discriminant_square_class",
    "factor_coprime_constant",
    "factor_m_eq_nu",
    "factor_p2_m_eq_nu1",
    "factor_p2_scaled",
    "factor_simple_root",
    "factor_tail",
    "from_decimal_strings",
    "is_prime",
    "is_square_zp",
    "normalize_head",
    "poly_mul",
    "root_classes",
    "to_decimal_strings",
    "verify_factorization",
]
