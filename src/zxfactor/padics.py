"""Exact p-adic arithmetic over the integers.

Everything here works with ordinary (arbitrary-precision) integers viewed
as elements of Z_p: valuations and unit parts, quadratic-residue tests,
classification of squares in Z_p, and the roots of quadratic congruences
modulo prime powers.  Root sets are residue classes r + p^j*Z, found by
Tonelli-Shanks square roots mod p and Hensel lifting, so the cost grows
with the bit size of p and K, not with p^K.  Negative integers are
handled exactly; no residue is taken until one is explicitly requested.

All functions are pure and all returned values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

__all__ = [
    "Valuation",
    "SquareClass",
    "RootCertificate",
    "is_prime",
    "valuation",
    "is_qr_mod_p",
    "is_square_zp",
    "square_class",
    "root_classes",
    "lift_roots_mod_pk",
    "root_certificate",
    "prime_power_decompose",
    "smallest_prime_power_split",
]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the twelve prime bases up to 37.

    Exact for every n below 3.18e23 (318665857834031151167461, the least
    strong pseudoprime to all twelve bases).  Above that bound it can
    accept composites, 3317044064679887385961981 among them; ROADMAP item
    1 replaces it with a Baillie-PSW test there.
    """
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    if any(n % q == 0 for q in _MR_BASES):
        return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


@dataclass(frozen=True)
class Valuation:
    """Exact decomposition d = p^t * u with gcd(p, u) = 1."""

    t: int
    u: int


def valuation(d: int, p: int) -> Valuation:
    """Split a nonzero integer as d = p^t * u with u coprime to p."""
    if d == 0:
        raise ValueError("valuation undefined for zero")
    _require_prime(p)
    return Valuation(*_valuation(d, p))


def _valuation(d: int, p: int) -> tuple[int, int]:
    """(t, u) with d = p^t * u and u not divisible by p, for d != 0.

    Takes out the largest power of p^2 first, recursively, then at most
    one more p: p, p^2, p^4, ... are each tried once on the way in and
    divided out once on the way back, so the cost is O(log t) divisions.
    """
    if d % p:
        return 0, d
    s, e = _valuation(d, p * p)
    if e % p:
        return 2 * s, e
    return 2 * s + 1, e // p


def is_qr_mod_p(u: int, p: int) -> bool:
    """Euler's criterion: is u a square modulo the odd prime p?"""
    _require_prime(p)
    if p == 2:
        raise ValueError("use the mod-8 unit rule for p = 2, not Euler's criterion")
    if gcd(u, p) != 1:
        raise ValueError(f"u = {u} is not coprime to p = {p}")
    return pow(u, (p - 1) // 2, p) == 1


@dataclass(frozen=True)
class SquareClass:
    """Whether an integer is a square in Z_p, with the deciding evidence.

    For nonzero d = p^t * u the decision is: t even and u a quadratic
    residue mod p (odd p), or t even and u = 1 mod 8 (p = 2).  Zero is a
    square and is flagged separately via ``is_zero``.
    """

    is_square: bool
    is_zero: bool
    valuation: int | None = None
    unit_residue: int | None = None


def is_square_zp(d: int, p: int) -> SquareClass:
    """Classify d as a square or non-square in the ring Z_p."""
    _require_prime(p)
    if d == 0:
        return SquareClass(is_square=True, is_zero=True)
    return square_class(*_valuation(d, p), p)


def square_class(t: int, u: int, p: int) -> SquareClass:
    """The class of p^t * u in Z_p, for u coprime to the prime p."""
    _require_prime(p)
    if u % p == 0:
        raise ValueError(f"u = {u} is not coprime to p = {p}")
    if p == 2:
        residue = u % 8
        square = t % 2 == 0 and residue == 1
    else:
        residue = u % p
        square = t % 2 == 0 and pow(residue, (p - 1) // 2, p) == 1  # Euler's criterion
    return SquareClass(is_square=square, is_zero=False, valuation=t, unit_residue=residue)


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a modulo the odd prime p, or None (Tonelli-Shanks).

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 1.5.1.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, e = p - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    x = pow(a, (q + 1) // 2, p)
    b = pow(a, q, p)
    if b != 1:  # a generator y of the 2-Sylow subgroup, from a non-residue
        z = 2
        while pow(z, (p - 1) // 2, p) == 1:
            z += 1
        y = pow(z, q, p)
    while b != 1:
        # the least m with b^(2^m) = 1; then y^(2^(e-m-1)) fixes the order of b
        m, b2 = 0, b
        while b2 != 1:
            b2 = b2 * b2 % p
            m += 1
        t = pow(y, 1 << (e - m - 1), p)
        y = t * t % p
        e = m
        x = x * t % p
        b = b * y % p
    return x


def _roots_mod_p(a: int, b: int, c: int, p: int) -> list[int]:
    """The roots in [0, p) of a*t^2 + b*t + c, not all coefficients 0 mod p."""
    if p == 2:
        return [t for t in (0, 1) if (a * t * t + b * t + c) % 2 == 0]
    if a % p == 0:
        return [] if b % p == 0 else [-c * pow(b, -1, p) % p]
    s = _sqrt_mod_prime(b * b - 4 * a * c, p)
    if s is None:
        return []
    inv = pow(2 * a, -1, p)
    return sorted({(-b + s) * inv % p, (-b - s) * inv % p})


def _hensel_lift(a: int, b: int, c: int, t: int, p: int, e: int) -> int:
    """Lift a simple root t mod p of a*t^2 + b*t + c to the root mod p^e."""
    k = 1
    while k < e:
        k = min(2 * k, e)
        mod = p**k
        t = (t - (a * t * t + b * t + c) * pow(2 * a * t + b, -1, mod)) % mod
    return t


def root_classes(A: int, B: int, C: int, p: int, K: int) -> list[tuple[int, int]]:
    """The roots of f(y) = A*y^2 + B*y + C mod p^K as residue classes.

    Returns sorted pairs (r, j) with 1 <= j <= K and 0 <= r < p^j: every y
    in [0, p^K) with y = r mod p^j is a root, and every root lies in
    exactly one class, so r is the smallest member of its class.  From a
    class (r, j) the polynomial g(t) = f(r + p^j*t) is stripped of its
    content p^w.  If w >= K the whole class consists of roots; otherwise
    each root t0 mod p of g/p^w either is simple and lifts by Hensel's
    lemma to one class mod p^(j+K-w), or refines the class to
    (r + p^j*t0, j + 1).  A quadratic has at most two roots mod p and at
    most one non-simple one, so the work grows with K, not with p^K.
    """
    _require_prime(p)
    if K < 1:
        raise ValueError("K must be a positive integer")
    pK = p**K
    if A % pK == 0 and B % pK == 0 and C % pK == 0:
        raise ValueError("all coefficients vanish mod p^K; every residue is a root")
    classes = []
    pending = [(0, 0)]
    while pending:
        r, j = pending.pop()
        pj = p**j
        a, b, c = A * pj * pj, (2 * A * r + B) * pj, (A * r + B) * r + C
        w = _valuation(gcd(a, b, c), p)[0]
        if w >= K:
            classes.append((r, j))
            continue
        pw = p**w
        a, b, c = a // pw, b // pw, c // pw
        for t0 in _roots_mod_p(a, b, c, p):
            if (2 * a * t0 + b) % p:
                e = K - w
                classes.append((r + pj * _hensel_lift(a, b, c, t0, p, e), j + e))
            else:
                pending.append((r + pj * t0, j + 1))
    return sorted(classes)


def lift_roots_mod_pk(A: int, B: int, C: int, p: int, K: int) -> list[int]:
    """All y in [0, p^K) with A*y^2 + B*y + C = 0 mod p^K, in order.

    The expansion of :func:`root_classes`; a class (r, j) contributes
    p^(K-j) roots, so only ask for the list when that count is small.
    """
    pK = p**K
    return sorted(y for r, j in root_classes(A, B, C, p, K) for y in range(r, pK, p**j))


@dataclass(frozen=True)
class RootCertificate:
    """A lifted root a of y^2 - beta*y + alpha modulo p^K, with evidence.

    ``mu`` is the exact valuation of g(a) and ``r`` its cofactor, so that
    g(a) = p^mu * r with gcd(p, r) = 1; ``mu is None`` is the infinite
    sentinel for an exact integer root (then r = 0).  ``ell``/``t_unit``
    decompose beta - 2a = p^ell * t_unit the same way (``ell is None``
    when beta - 2a = 0).
    """

    a: int
    K: int
    mu: int | None
    r: int
    ell: int | None
    t_unit: int


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    import random

    rng = random.Random(0xC0FFEE ^ n)
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d


def _smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise ValueError("need n >= 2")
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return q
    if is_prime(n):
        return n
    q = 41
    while q * q <= n and q < 10**6:
        if n % q == 0:
            return q
        q += 2
    if q * q > n:
        return n
    d = _pollard_rho(n)
    return min(_smallest_prime_factor(d), _smallest_prime_factor(n // d))


def prime_power_decompose(x: int) -> tuple[int, int] | None:
    """(p, n) with x = p^n and n >= 1, or None if x is not a prime power."""
    if x < 2:
        return None
    p = _smallest_prime_factor(x)
    n, rest = _valuation(x, p)
    return (p, n) if rest == 1 else None


def smallest_prime_power_split(f0: int) -> tuple[int, int]:
    """Split f0 = u * v with u the smallest full prime-power block of |f0|.

    Requires |f0| to have at least two distinct prime factors; the sign
    of f0 travels with the cofactor v.
    """
    mag = abs(f0)
    if mag < 2 or prime_power_decompose(mag) is not None:
        raise ValueError("constant term must be composite with two distinct primes")
    blocks = []
    rest = mag
    while rest > 1:
        p = _smallest_prime_factor(rest)
        block = 1
        while rest % p == 0:
            rest //= p
            block *= p
        blocks.append(block)
    u = min(blocks)
    return u, f0 // u


def root_certificate(beta: int, alpha: int, p: int, K: int) -> RootCertificate | None:
    """Certificate for a root of g(y) = y^2 - beta*y + alpha mod p^K.

    Returns None when g has no root mod p^K.  Otherwise picks the
    smallest non-negative root mod p^K whose value g(a) is nonzero (so
    the valuation data is finite); only when every root is an exact
    integer root of g does the certificate carry the infinite-mu
    sentinel.  g has at most two integer roots, so the pick is among the
    three smallest members of each root class of :func:`root_classes`.
    """
    classes = root_classes(1, -beta, alpha, p, K)
    if not classes:
        return None
    pK = p**K
    roots = sorted(y for r, j in classes for y in (r, r + p**j, r + 2 * p**j) if y < pK)

    def g(y: int) -> int:
        return y * y - beta * y + alpha

    a = next((y for y in roots if g(y) != 0), None)
    if a is None:
        a = roots[0]
        mu: int | None = None
        r = 0
    else:
        mu, r = _valuation(g(a), p)
    d = beta - 2 * a
    if d == 0:
        ell: int | None = None
        t_unit = 0
    else:
        ell, t_unit = _valuation(d, p)
    return RootCertificate(a=a, K=K, mu=mu, r=r, ell=ell, t_unit=t_unit)
