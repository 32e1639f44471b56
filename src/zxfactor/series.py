"""Truncated formal power series over exact integers.

A :class:`TruncSeries` stores coefficients 0..N of a power series; the
coefficients beyond N are unknown, not zero.  The factor engines and the
verifier read its ``coeffs`` and do their own arithmetic; the one product
here, ``poly_mul``, is the full (polynomial) product ``normalize_head``
needs, and the one division, ``_quotient``, is h = f/g for a g whose
constant term need not be a unit; ``normalize_head`` is its one caller
(``factor._lift`` completes its seeds, b = f/a, with the same loop
written out).

``normalize_head`` implements the associate-replacement step behind the
CLI's ``normalize`` command (no factorization engine uses it): for a
series a with a_0 = p prime and a_1 a unit, it builds a unit polynomial
u with q = u*a = p + lam*x + O(x^(t+1)).  Such an a has Weierstrass
degree one, so it has one root r in pZ_p; q vanishes there too, which
fixes lam = -p/r mod p^t.  One Newton lift of r gives lam, and u is the
quotient (p + lam*x)/a.
"""

from __future__ import annotations

import operator
from math import gcd

from .limits import require_terms
from .padics import _hensel_lift, _require_prime

__all__ = [
    "TruncSeries",
    "poly_mul",
    "normalize_head",
    "to_decimal_strings",
    "from_decimal_strings",
]


class TruncSeries:
    """A power series known through order ``len(coeffs) - 1``.

    Frozen, and not a NamedTuple like the per-answer values: a series
    equals only a series with the same coefficients, never the plain
    1-tuple of its field.  It is read through ``coeffs`` and ``order``.
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs) -> None:
        coeffs = tuple(map(operator.index, coeffs))
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant term")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __repr__(self) -> str:
        return f"TruncSeries(coeffs={self.coeffs!r})"

    def __reduce__(self):
        return TruncSeries, (self.coeffs,)

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


def _quotient(f, g, n: int) -> list[int] | None:
    """h_0..h_n with g*h = f through x^n, or None at the first inexact division.

    f and g are coefficient sequences, f known through n; g_0 != 0 need not
    be a unit, and the coefficients of g past its end count as zero.
    """
    g0, g1, h = g[0], g[1:], []
    for k in range(n + 1):  # g_1*h_(k-1) + g_2*h_(k-2) + ..., to the end of g or of h
        hk, rem = divmod(f[k] - sum(map(operator.mul, g1, reversed(h))), g0)
        if rem:
            return None
        h.append(hk)
    return h


def normalize_head(a: TruncSeries, p: int, t: int) -> tuple[TruncSeries, TruncSeries]:
    """Zero the coefficients 2..t of an associate of ``a``.

    Requires a_0 = p, a prime within ``LIMITS``, gcd(p, a_1) = 1 and t
    within ``LIMITS.max_terms``.  Returns (u, q) where u is a unit
    polynomial (u_0 = 1, degree at most t) and q = u * a satisfies
    q_0 = p, q_1 = lam = a_1 (mod p) and q_2 = ... = q_t = 0.

    The head a_0 + a_1*y + ... + a_t*y^t has a root r = 0 mod p, simple as
    a_1 is a unit; it is lifted to mod p^(t+1), and v_p(r) = 1.  The terms
    of q beyond x^t are 0 mod p^(t+1) at r, so q(r) = u(r)*a(r) = 0 gives
    lam = -p/r (mod p^t): the one class that makes u = (p + lam*x)/a
    integral through x^t.  Its member with first digit in [0, p) and the
    higher digits balanced (in [-(p-1)/2, (p-1)/2], or {0, 1} for p = 2)
    is lam.
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
    us = _quotient((p, lam) + (0,) * (t - 1), a.coeffs, t)
    if us is None:
        raise AssertionError(f"(p + lam*x)/a is not integral at lam = -p/r = {lam}")
    while us[-1] == 0:  # u_0 = p/a_0 = 1
        us.pop()
    u = TruncSeries(us)
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
