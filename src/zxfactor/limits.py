"""Input limits: the sizes beyond which zxfactor refuses an input up front.

The limits are one frozen constant, ``LIMITS``, not a setting: an input
beyond a limit is refused with ``ValueError`` (exit code 2 in the CLI)
before any work is done, where the work would otherwise grow without
bound in time or memory.

==================  =======  ===============================================
field               value    bounds
==================  =======  ===============================================
``max_terms``       4096     the order of a series that is built, factored
                             or read from decimal strings
``max_pn_bits``     2^17     the bits of p^n and p^m, the prime powers in the
                             first two coefficients (so the discriminant has
                             at most twice as many), of the modulus p^k of
                             ``root_classes``, and of what is left of a
                             constant term after the primes up to 37
``max_p_bits``      512      the bits of p (also in ``is_square_zp`` and
                             ``root_classes``), and of each cofactor of a
                             constant term that the factor search tests or
                             splits (a perfect power's root is taken first)
``factor_steps``    2^17     the Brent rho iterations of the constant-term
                             factor search on one cofactor
==================  =======  ===============================================

A decision that builds neither p^n nor a series, such as
``classify_quadratic(q, attach_factors=False)`` at n = 10^6, is not
limited by ``max_pn_bits``.
"""

from __future__ import annotations

from math import log2
from typing import NamedTuple

__all__ = ["LIMITS"]


class Limits(NamedTuple):  # a tuple, so frozen, and cheaper to define than a dataclass
    max_terms: int
    max_pn_bits: int
    max_p_bits: int
    factor_steps: int


LIMITS = Limits(max_terms=4096, max_pn_bits=1 << 17, max_p_bits=512, factor_steps=1 << 17)


def require_terms(terms: int) -> None:
    """ValueError unless a series of order ``terms`` is within the limits."""
    if terms > LIMITS.max_terms:
        raise ValueError(f"order {terms} is beyond the limit of {LIMITS.max_terms} terms")


def require_series(p: int, n: int, m: int | None, terms: int) -> None:
    """ValueError unless p^n + p^m*beta*x + ... through order ``terms`` is
    within the limits (``m is None`` for the beta = 0 form)."""
    require_terms(terms)
    require_power(p, max(n, m or 0))


def require_power(p: int, e: int) -> None:
    """ValueError unless p^e, for p >= 2, has at most ``max_pn_bits`` bits."""
    if e >= 1 << 64:
        # log2(p) >= 1, so p^e has at least e bits; decided in integers,
        # since e * log2(p) overflows a float once e passes about 2^1024
        k = e.bit_length() - 1
        raise ValueError(
            f"{p}^e with e >= 2^{k} has more than 2^{k} bits, beyond the limit of {LIMITS.max_pn_bits}"
        )
    if e * log2(p) > LIMITS.max_pn_bits:
        raise ValueError(
            f"{p}^{e} has about {int(e * log2(p))} bits, beyond the limit of {LIMITS.max_pn_bits}"
        )
