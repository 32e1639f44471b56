"""Truncated formal power series over exact integers.

A :class:`TruncSeries` stores coefficients 0..N of a power series; the
coefficients beyond N are unknown, not zero.  The factor engines and the
verifier read its ``coeffs`` and do their own arithmetic; the one product
here, ``poly_mul``, is the full (polynomial) product ``normalize_head``
needs.

``normalize_head`` implements the associate-replacement step behind the
CLI's ``normalize`` command (no factorization engine uses it): given a
series with constant term a prime p and a unit linear coefficient, it
produces a unit multiplier u(x) that zeroes the coefficients 2..t of the
product while only moving the linear coefficient within its class mod p.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .limits import require_terms
from .padics import _require_prime

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
        coeffs = tuple(map(int, coeffs))
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant term")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


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


def _balanced(x: int, p: int) -> int:
    r = x % p
    return r - p if r > p // 2 else r


def normalize_head(a: TruncSeries, p: int, t: int) -> tuple[TruncSeries, TruncSeries]:
    """Zero the coefficients 2..t of an associate of ``a``.

    Requires a_0 = p, a prime within ``LIMITS``, gcd(p, a_1) = 1 and t
    within ``LIMITS.max_terms``.  Returns (u, q) where u is a unit
    polynomial (u_0 = 1, degree at most t) and q = u * a satisfies
    q_0 = p, q_1 = a_1 (mod p) and q_2 = ... = q_t = 0.

    The target lam starts at the representative of a_1 mod p in [0, p).
    At each stage the next equation either already divides out, or lam is
    shifted by k * p^j for the unique class of k mod p that repairs it;
    k is taken as the balanced representative and the triangular system
    is re-solved exactly.
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

    lam = a1 % p
    us = [(lam - a1) // p]
    for j in range(1, t):
        residual = a.coeffs[j + 1] + sum(a.coeffs[i] * us[j - i] for i in range(1, j + 1))
        if residual % p != 0:
            # Shifting lam by k*p^j moves this residual by (-1)^(j+1) * k * a1^j mod p.
            coef = (-1) ** (j + 1) * pow(a1, j, p)
            k = _balanced(-residual * pow(coef, -1, p), p)
            lam += k * p**j
            solved = solve_head_system(a, p, lam, j)
            if solved is None:
                raise AssertionError("refined head system lost integrality")
            us = solved
            residual = a.coeffs[j + 1] + sum(a.coeffs[i] * us[j - i] for i in range(1, j + 1))
            if residual % p != 0:
                raise AssertionError("lam refinement failed to clear the residual")
        us.append(-residual // p)

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
    return TruncSeries([int(x, 10) for x in items])
