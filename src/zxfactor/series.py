"""Truncated formal power series over exact integers.

A :class:`TruncSeries` stores coefficients 0..N of a power series; the
coefficients beyond N are unknown, not zero.  The factor engines and the
verifier read its ``coeffs`` and do their own arithmetic; the one product
here, ``poly_mul``, is the full (polynomial) product ``normalize_head``
needs.

``normalize_head`` implements the associate-replacement step behind the
CLI's ``normalize`` command (no factorization engine uses it): for a
series a with a_0 = p prime and a_1 a unit, it builds a unit polynomial
u with q = u*a = p + lam*x + O(x^(t+1)).  Such an a has Weierstrass
degree one, so it has one root r in pZ_p; q vanishes there too, which
fixes lam = -p/r mod p^t.  One Newton lift of r gives lam, and one pass
of the triangular head system (``solve_head_system``) gives u.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd

from .limits import require_terms
from .padics import _hensel_lift, _require_prime

__all__ = [
    "TruncSeries",
    "poly_mul",
    "normalize_head",
    "solve_head_system",
    "to_decimal_strings",
    "from_decimal_strings",
]


@dataclass(frozen=True)
class TruncSeries:
    """A power series known through order ``len(coeffs) - 1``.

    A dataclass, not a NamedTuple like the per-answer values: a series
    equals only a series with the same coefficients, never the plain
    1-tuple of its field.  It is read through ``coeffs`` and ``order``.
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs) -> None:
        coeffs = tuple(map(operator.index, coeffs))
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant term")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def _require_order(s: TruncSeries, n: int, who: str) -> None:
    if s.order < n:
        raise ValueError(f"{who}: input known only through order {s.order}, need {n}")


def poly_mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """Full product of two finite coefficient lists (polynomial view)."""
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        for j, bj in enumerate(b.coeffs):
            out[i + j] += ai * bj
    return TruncSeries(out)


def solve_head_system(a: TruncSeries, p: int, lam: int, t: int) -> list[int] | None:
    """Forward-substitute the t x t triangular head system for a given lam.

    Returns [u_1, ..., u_t], or None as soon as a division by p is not
    exact (the system has no integer solution for this lam).
    """
    _require_order(a, t, "solve_head_system")
    us: list[int] = []
    for i in range(1, t + 1):
        rhs = lam if i == 1 else 0
        acc = a.coeffs[i] + sum(a.coeffs[j] * us[i - 1 - j] for j in range(1, i))
        num = rhs - acc
        if num % p != 0:
            return None
        us.append(num // p)
    return us


def normalize_head(a: TruncSeries, p: int, t: int) -> tuple[TruncSeries, TruncSeries]:
    """Zero the coefficients 2..t of an associate of ``a``.

    Requires a_0 = p, a prime within ``LIMITS``, gcd(p, a_1) = 1 and t
    within ``LIMITS.max_terms``.  Returns (u, q) where u is a unit
    polynomial (u_0 = 1, degree at most t) and q = u * a satisfies
    q_0 = p, q_1 = lam = a_1 (mod p) and q_2 = ... = q_t = 0.

    The head a_0 + a_1*y + ... + a_t*y^t has a root r = 0 mod p, simple as
    a_1 is a unit; it is lifted to mod p^(t+1), and v_p(r) = 1.  The terms
    of q beyond x^t are 0 mod p^(t+1) at r, so q(r) = u(r)*a(r) = 0 gives
    lam = -p/r (mod p^t): the one class that makes the head system
    solvable over Z.  Its member with first digit in [0, p) and the higher
    digits balanced (in [-(p-1)/2, (p-1)/2], or {0, 1} for p = 2) is lam.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    require_terms(t)
    _require_order(a, t, "normalize_head")
    if a.coeffs[0] != p:
        raise ValueError(f"constant term must equal p = {p}")
    _require_prime(p)
    a1 = a.coeffs[1]
    if gcd(a1, p) != 1:
        raise ValueError("need gcd(p, a_1) = 1")

    pt = p**t
    r = _hensel_lift(a.coeffs[: t + 1], 0, p, t + 1)
    h = (pt - p) // 2 if p > 2 else 0  # the digit (p-1)/2 at p^1..p^(t-1): balances them
    lam = (h - pow(r // p, -1, pt)) % pt - h
    us = solve_head_system(a, p, lam, t)
    if us is None:
        raise AssertionError(f"the head system has no integer solution at lam = -p/r = {lam}")
    while us and us[-1] == 0:
        us.pop()
    u = TruncSeries([1] + us)
    q = poly_mul(u, a)
    if q.coeffs[0] != p or (q.coeffs[1] - a1) % p != 0 or any(q.coeffs[2 : t + 1]):
        raise AssertionError("head normalization postcondition failed")
    return u, q


def to_decimal_strings(s: TruncSeries) -> list[str]:
    """Serialize as decimal strings, index 0 first (arbitrary-precision safe)."""
    return [str(c) for c in s.coeffs]


def from_decimal_strings(items) -> TruncSeries:
    """The inverse of :func:`to_decimal_strings`: ValueError on anything but a list of strings."""
    if not isinstance(items, list) or not all(isinstance(x, str) for x in items):
        raise ValueError("a series must be a JSON array of decimal strings")
    return TruncSeries([int(x, 10) for x in items])
