"""Exact p-adic arithmetic over the integers, and the prime layer under it.

Everything here works with ordinary (arbitrary-precision) integers viewed
as elements of Z_p: valuations and unit parts, classification of squares
in Z_p, and the roots of quadratic congruences modulo prime powers.  Root
sets are residue classes r + p^j*Z, found by square roots mod p (one
power unless p = 1 mod 8, Tonelli-Shanks there) and Hensel lifting, so
the cost grows with the bit size of p and K, not with p^K.  Negative
integers are handled exactly; no residue is taken until one is
explicitly requested.
One Newton lifter, ``_hensel_lift``, takes a simple root mod p of any
integer polynomial to mod p^e: the quadratics of ``_root_classes`` and
the degree-t head of ``series.normalize_head``.  Each Newton step reads
f(t) and f'(t) from one Horner pass.

The prime layer is :func:`is_prime` (a sieve built at import below
37^2, Miller-Rabin with as many bases as the size of n needs above it,
Baillie-PSW from ``PROVEN_PRIME_BOUND`` on) and one bounded factor
search of a constant term, ``_smallest_block``.  The two
public functions that take a prime p, :func:`is_square_zp` and
:func:`root_classes`, refuse a p beyond ``LIMITS.max_p_bits`` and prove
it with :func:`is_prime`.  The classifier and the engines prove p once
per answer and then call the private helpers (``_valuation``,
``_square_class``, ``_root_classes``), which do not test p again: the
one square test in Z_p and the one root finder mod p^K that both use.

All functions are pure and all returned values are immutable: the value
type ``SquareClass`` is a NamedTuple, compared and hashed as a tuple.
``_square_class``, which every answer with a square test runs, builds it
with ``tuple.__new__``, past the NamedTuple's Python-level constructor.
"""

from __future__ import annotations

from math import gcd, isqrt, log2, prod
from typing import NamedTuple

from .limits import LIMITS, require_power

__all__ = [
    "PROVEN_PRIME_BOUND",
    "SquareClass",
    "is_prime",
    "is_square_zp",
    "root_classes",
]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _sieve(m: int) -> bytearray:
    """prime[i] == 1 exactly when i < m is a prime (Eratosthenes)."""
    prime = bytearray([1]) * m
    prime[:2] = b"\0\0"
    for i in range(2, isqrt(m - 1) + 1):
        if prime[i]:
            prime[i * i :: i] = bytes(len(range(i * i, m, i)))
    return prime


# is_prime answers n < 37^2 from this table: no strong test runs below it
_PRIME_BELOW_1369 = bytes(_sieve(1369))

#: is_prime proves primality below this bound; at and above it, a True
#: answer is a Baillie-PSW probable prime (no counterexample is known).
PROVEN_PRIME_BOUND = 318665857834031151167461

# (psi_k, k) for the rows of the table in the docstring of is_prime
_MR_TABLE = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (PROVEN_PRIME_BOUND, 12),
)


def is_prime(n: int) -> bool:
    """Primality with the number of Miller-Rabin bases matched to n.

    n < 37^2 = 1369 is looked up in a sieve built once at import; a
    larger n is first divided by the primes up to 37.  Below psi_k, the
    least strong pseudoprime to the first k prime bases, the strong tests
    to those k bases decide exactly:

    ============================  =========  ==============================
    n below                       bases      psi_k from
    ============================  =========  ==============================
    2,047                         2          PSW, Math. Comp. 35, 1980
    1,373,653                     2, 3       PSW 1980
    25,326,001                    2 .. 5     PSW 1980
    3,215,031,751                 2 .. 7     PSW 1980
    2,152,302,898,747             2 .. 11    Jaeschke, Math. Comp. 61, 1993
    3,474,749,660,383             2 .. 13    Jaeschke 1993
    341,550,071,728,321           2 .. 17    Jaeschke 1993
    3,825,123,056,546,413,051     2 .. 23    Jiang & Deng, Math. Comp. 83,
                                             2014
    3.18e23 (PROVEN_PRIME_BOUND)  2 .. 37    Sorenson & Webster, Math.
                                             Comp. 86, 2017
    ============================  =========  ==============================

    (PSW is Pomerance, Selfridge & Wagstaff.)  From PROVEN_PRIME_BOUND
    on, n is tested by Baillie-PSW: a strong test to base 2 and a strong
    Lucas test with Selfridge's parameters (Baillie & Wagstaff, Math.
    Comp. 35, 1980).  No composite is known to pass it, but none is
    proven not to, so a verdict that rests on such a prime says so.
    """
    if n < 1369:
        return n >= 2 and _PRIME_BELOW_1369[n] == 1
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return False
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for bound, k in _MR_TABLE:
        if n < bound:
            return all(_strong_probable_prime(n, a, d, s) for a in _SMALL_PRIMES[:k])
    return _strong_probable_prime(n, 2, d, s) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, a: int, d: int, s: int) -> bool:
    """The strong (Miller-Rabin) test of the odd n = d*2^s + 1 to base a."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test of the odd n > 1 with Selfridge's parameters.

    D is the first of 5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1
    (a perfect square has none, so it is rejected first), P = 1 and
    Q = (1 - D)/4.  With n + 1 = d*2^s, d odd, n passes when U_d = 0 or
    V_(d*2^r) = 0 mod n for some 0 <= r < s.
    """
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return abs(D) == n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4

    def half(x: int) -> int:
        x %= n
        return (x + n) // 2 if x % 2 else x // 2

    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    U, V, Qk = 1, 1, Q % n  # U_1, V_1 and Q^1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":  # k -> k + 1, with P = 1
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _require_prime(p: int) -> None:
    if p.bit_length() > LIMITS.max_p_bits:
        raise ValueError(f"p has {p.bit_length()} bits, beyond the limit of {LIMITS.max_p_bits}")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def _valuation(d: int, p: int) -> tuple[int, int]:
    """(t, u) with d = p^t * u and u not divisible by p, for d != 0.

    Takes out the largest power of p^2 first, recursively, then at most
    one more p: p, p^2, p^4, ... are each tried once on the way in and
    divided out once on the way back, so the cost is O(log t) divisions.
    """
    if d == 0:
        raise ValueError("valuation undefined for zero")
    if d % p:
        return 0, d
    s, e = _valuation(d, p * p)
    if e % p:
        return 2 * s, e
    return 2 * s + 1, e // p


class SquareClass(NamedTuple):
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
        return SquareClass(True, True)
    return _square_class(*_valuation(d, p), p)


def _square_class(t: int, u: int, p: int) -> SquareClass:
    """The class of p^t * u in Z_p, for u coprime to the prime p."""
    if u % p == 0:
        raise ValueError(f"u = {u} is not coprime to p = {p}")
    if p == 2:
        residue = u % 8
        square = t % 2 == 0 and residue == 1
    else:
        residue = u % p
        square = t % 2 == 0 and pow(residue, (p - 1) // 2, p) == 1  # Euler's criterion
    return tuple.__new__(SquareClass, (square, False, t, residue))


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a modulo the odd prime p, or None.

    One power each: x = a^((p+1)/4) for p = 3 mod 4, and Atkin's
    x = a*v*(2a*v^2 - 1) with v = (2a)^((p-5)/8) for p = 5 mod 8; either
    x is a root exactly when a is a residue, so x^2 = a is the test.  For
    p = 1 mod 8, Tonelli-Shanks (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 1.5.1), with x = a^((q+1)/2) and
    b = a^q from one power; a non-residue shows as a b of order 2^e, so
    it costs that one power: the non-residue z that gives the generator
    y = z^q is searched for only on the way to a root.
    """
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        x = pow(a, (p + 1) // 4, p)
    elif p % 8 == 5:
        v = pow(2 * a, (p - 5) // 8, p)
        x = a * v * (2 * a * v * v - 1) % p
    else:
        q, e = p - 1, 0
        while q % 2 == 0:
            q //= 2
            e += 1
        c = pow(a, q // 2, p)
        x, b, y = c * a % p, c * c * a % p, 0
        while b != 1:
            # the least m with b^(2^m) = 1; then y^(2^(e-m-1)) fixes the order of b
            m, b2 = 0, b
            while b2 != 1:
                b2 = b2 * b2 % p
                m += 1
            if m == e:  # b = a^q has the order of a generator: a is a non-residue
                return None
            if not y:  # a generator y of the 2-Sylow subgroup, from a non-residue
                z = 3  # 2 is a residue mod p = 1 mod 8, and the least non-residue is an odd prime
                while pow(z, (p - 1) // 2, p) == 1:
                    z += 2
                y = pow(z, q, p)
            t = pow(y, 1 << (e - m - 1), p)
            y = t * t % p
            e = m
            x = x * t % p
            b = b * y % p
    return x if x * x % p == a else None


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


def _hensel_lift(f: tuple[int, ...], t: int, p: int, e: int) -> int:
    """Lift a simple root t mod p of the integer polynomial f (coefficients
    lowest first) to the root mod p^e by Newton steps.

    A step from a root t mod p^k to mod p^2k takes f(t) mod p^2k and
    f'(t) mod p^k from one Horner pass.  It carries inv = 1/f'(t) along:
    the first step inverts f'(t) mod p; later, inv from the step before is
    correct mod p^(k/2) at the current t, and one Newton step
    inv*(2 - f'(t)*inv) against f'(t) at this t makes it correct mod p^k,
    all that t - f(t)*inv needs to be a root mod p^2k.
    """
    k, low, inv = 1, p, None
    while k < e:
        k = min(2 * k, e)
        mod = p**k
        v = d = 0
        for c in reversed(f):
            d = (d * t + v) % low
            v = (v * t + c) % mod
        inv = pow(d, -1, p) if inv is None else inv * (2 - d * inv) % low
        t = (t - v * inv) % mod
        low = mod
    return t


def root_classes(A: int, B: int, C: int, p: int, K: int) -> list[tuple[int, int]]:
    """The roots of f(y) = A*y^2 + B*y + C mod p^K as residue classes.

    Returns sorted pairs (r, j) with 1 <= j <= K and 0 <= r < p^j: every y
    in [0, p^K) with y = r mod p^j is a root, and every root lies in
    exactly one class, so r is the smallest member of its class.  From a
    class (r, j) the polynomial g(t) = f(r + p^j*t) is stripped of its
    content p^w (w = 0, with no search, when a coefficient is a unit).
    If w >= K the whole class consists of roots; otherwise each root t0
    mod p of g/p^w either is simple and lifts by Hensel's
    lemma to one class mod p^(j+K-w), or refines the class to
    (r + p^j*t0, j + 1).  Of two roots mod p, both simple, only the first
    is lifted: the leading coefficient is then a unit, and the second
    lifts to -b/a minus the first.  A quadratic has at most two roots mod p and at
    most one non-simple one, so the work grows with K, not with p^K.
    Refuses a p^K beyond ``LIMITS.max_pn_bits`` before building it.
    """
    _require_prime(p)
    require_power(p, K)
    return _root_classes(A, B, C, p, K)


def _root_classes(A: int, B: int, C: int, p: int, K: int) -> list[tuple[int, int]]:
    """:func:`root_classes` for a p already known to be prime."""
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
        w = 0 if c % p or b % p or a % p else _valuation(gcd(a, b, c), p)[0]  # the content is p^w
        if w >= K:
            classes.append((r, j))
            continue
        pw = p**w
        a, b, c = a // pw, b // pw, c // pw
        e = K - w
        roots = _roots_mod_p(a, b, c, p)
        if len(roots) == 2:  # two simple roots, so a is a unit: they sum to -b/a mod p^e
            pe = p**e
            t = _hensel_lift((c, b, a), roots[0], p, e)
            s = (-b - t if a == 1 else -b * pow(a, -1, pe) - t) % pe
            classes += [(r + pj * t, j + e), (r + pj * s, j + e)]
            continue
        for t0 in roots:
            if (2 * a * t0 + b) % p:
                classes.append((r + pj * _hensel_lift((c, b, a), t0, p, e), j + e))
            else:
                pending.append((r + pj * t0, j + 1))
    return sorted(classes)


# ---------------------------------------------------------------------------
# the constant-term factor search

_FIRST_RHO_STEPS = 1 << 10
_HART_STEPS = 4096
# The close pass: Hart's method on each cofactor not proven prime, at one
# place in the search, ahead of the Baillie-PSW test (from PROVEN_PRIME_BOUND
# on), the perfect-power test, the trial proof and _split; both parts it
# finds go back to the search, as a split's do.  9, 17 and 23 us for 16
# multipliers at 80, 135 and 256 bits, against 340, 470 and 820 us for a
# first rho stage that finds nothing, as on two primes of 40 bits or more.
# On the 12- and 13-base strong pseudoprimes and a product of two 21-digit
# primes, all above the bound, it splits each in 3 to 7 us and saves 33 to
# 90 us of Baillie-PSW and 11 to 18 us of perfect-power test.  Below the
# bound it splits a close pair such as 664177*1327877 in microseconds,
# where the trial proof would divide it by every odd number up to a known
# block (12 ms up to 542197).
_CLOSE_STEPS = 16
_GCD_BATCH = 128
_TRIAL_LIMIT = 10**6


def _smallest_block(x: int) -> tuple[int, int]:
    """(p, e) with p^e the smallest full prime-power block of x >= 2.

    x is a prime power exactly when p^e == x.  The primes up to 37 are
    divided out first.  Each cofactor r left, smallest first, then goes
    through one order of steps until one of them settles it:

    1. refused beyond ``LIMITS.max_pn_bits`` bits;
    2. below ``PROVEN_PRIME_BOUND``, taken when :func:`is_prime` proves it
       prime;
    3. the close pass;
    4. from the bound on, taken when :func:`is_prime` (Baillie-PSW) passes;
    5. a perfect power: its root goes back to the search;
    6. the trial proof, when a block below ``_TRIAL_LIMIT`` is known;
    7. refused beyond ``LIMITS.max_p_bits`` bits;
    8. split by :func:`_split`, both parts back to the search.

    Only steps 2 to 4 and 8 need r to have at most ``LIMITS.max_p_bits``
    bits, so p^n passes whenever p does.  Each prime found takes its
    whole block out of x.

    The close pass is Hart's method (:func:`_hart`) with the multipliers
    1 .. ``_CLOSE_STEPS``: it splits r = a*b when a/b lies very near u/v,
    for odd u and v with u*v <= 16 or any u and v with 4*u*v <= 16.  Its
    factor d and r // d go back to the search like the two parts of any
    split, so a prime is taken only through :func:`is_prime` or the
    trial proof.  It runs at most once on r, and never on a prime below
    the bound.  From the bound on, a product of two close primes is split
    without a Baillie-PSW test or a perfect-power test of r, and a prime r
    pays one pass that finds nothing; below it, a close pair is split
    before the trial proof, and a perfect power that is no square pays
    one pass that finds nothing.

    The search stops once the smallest block found is provably the
    smallest: when it is at most ``floor``, below which no cofactor left
    has a prime factor.  The trial proof shows a smallest block below
    ``_TRIAL_LIMIT`` to be so by dividing the cofactors by every odd
    number up to it.  The search is deterministic, and raises ValueError
    beyond a limit or when a cofactor outlasts the rho budget.
    """
    blocks = []  # (p^e, p, e) for each prime p of x found
    rest = x
    for q in _SMALL_PRIMES:
        if rest % q == 0:
            e, rest = _valuation(rest, q)
            blocks.append((q**e, q, e))
    pending = [rest] if rest > 1 else []  # cofactors of x, with no prime factor in blocks
    floor = 41  # no cofactor left has a prime factor below floor

    def take(q: int) -> None:  # q is a prime factor of x
        nonlocal pending
        e = _valuation(x, q)[0]
        blocks.append((q**e, q, e))
        pending = [t for t in (_valuation(t, q)[1] for t in pending) if t > 1]

    while pending and not (blocks and min(blocks)[0] <= floor):
        r = min(pending)  # small factors first: they settle the search soonest
        pending.remove(r)
        bits = r.bit_length()
        if bits > LIMITS.max_pn_bits:
            raise ValueError(
                f"the constant term has a {bits}-bit cofactor, beyond the limit of {LIMITS.max_pn_bits}"
            )
        if bits <= LIMITS.max_p_bits and r < PROVEN_PRIME_BOUND and is_prime(r):
            take(r)  # a proof, so no close pass runs on a prime below the bound
        elif bits <= LIMITS.max_p_bits and (d := _hart(r, _CLOSE_STEPS)):
            pending += [d, r // d]  # the close pass, once on each cofactor
        elif bits <= LIMITS.max_p_bits and PROVEN_PRIME_BOUND <= r and is_prime(r):
            take(r)
        elif (root := _perfect_power_root(r)) is not None:
            pending.append(root)
        elif blocks and min(blocks)[0] < _TRIAL_LIMIT:
            pending.append(r)
            d = floor
            while d < (u := min(blocks)[0]):
                left = prod(pending)
                d = next((t for t in range(d, u, 2) if left % t == 0), u)
                if d < u:
                    take(d)  # a prime: no odd number from floor up to d divides
            floor = d
        elif bits > LIMITS.max_p_bits:
            raise ValueError(
                f"the constant term has a {bits}-bit cofactor that is no perfect power, "
                f"beyond the limit of {LIMITS.max_p_bits}"
            )
        else:
            d = _split(r)
            pending += [d, r // d]
    _, p, e = min(blocks)
    return p, e


def _perfect_power_root(n: int) -> int | None:
    """r with n = r^k for a prime k, or None; n has no prime factor below 41.

    A k-th power is a k-th power modulo every prime q = 1 mod k, which
    only about 1/k of the units mod q are, so two such q rule out almost
    every k before a root is taken.  One sieve gives the primes k and q.
    """
    kmax = int(n.bit_length() / 5.35)  # r >= 41 > 2^5.35
    prime = _sieve(64 * kmax + 2)
    for k in range(2, kmax + 1):
        if prime[k] and _may_be_power(n, k, prime):
            r = _iroot(n, k)
            if r**k == n:
                return r
    return None


def _may_be_power(n: int, k: int, prime: bytearray) -> bool:
    """False when n is no k-th power modulo one of the two least primes
    q = 1 mod k; True also when the sieve holds fewer than two such q."""
    found = 0
    for q in range(2 * k + 1, len(prime), 2 * k):
        if prime[q]:
            a = n % q
            if a and pow(a, (q - 1) // k, q) != 1:
                return False
            found += 1
            if found == 2:
                break
    return True


def _iroot(n: int, k: int) -> int:
    """The integer part of the k-th root of n >= 1, for k >= 2.

    Newton's method from above, started within a factor 1 + 2^-30 of the
    root: log2(n) in floating point is off by far less, so the start is
    above the root and a few steps reach it, whatever k is.
    """
    if k == 2:
        return isqrt(n)
    e = log2(n) / k
    s = max(int(e) - 60, 0)
    r = (int(2.0 ** (e - s) * (1 + 2.0**-30)) + 1) << s
    while True:
        t = ((k - 1) * r + n // r ** (k - 1)) // k
        if t >= r:
            return r
        r = t


def _split(n: int) -> int:
    """A proper factor of n, which is composite, odd and not a perfect power.

    Three stages, each cheap on the factors it finds first:

    1. Brent's rho with batched gcds (Brent, BIT 20, 1980) for
       ``_FIRST_RHO_STEPS`` iterations: a prime factor up to about 10^5;
    2. Hart's one-line method (J. Aust. Math. Soc. 92, 2012) for
       ``_HART_STEPS`` steps: for i = 1, 2, ... it tests whether
       s^2 - i*n is a square t^2 for s = ceil(sqrt(i*n)), and then
       gcd(s - t, n) splits n.  It finds two factors of any size whose
       ratio is near a fraction with a small numerator and denominator;
    3. rho again, from the start, for ``LIMITS.factor_steps`` iterations.

    Past that budget it raises ValueError.
    """
    d = _rho(n, _FIRST_RHO_STEPS) or _hart(n, _HART_STEPS) or _rho(n, LIMITS.factor_steps)
    if d is None:
        raise ValueError(
            f"no factor of the {n.bit_length()}-bit cofactor {n} within the "
            f"factor-search budget of {LIMITS.factor_steps} rho steps"
        )
    return d


def _hart(n: int, steps: int) -> int | None:
    """A proper factor of n by Hart's one-line method with the multipliers
    1 .. ``steps``, or None."""
    for i in range(1, steps + 1):
        s = isqrt(i * n - 1) + 1
        m = s * s - i * n
        t = isqrt(m)
        if t * t == m:
            g = gcd(s - t, n)
            if 1 < g < n:
                return g
    return None


def _rho(n: int, budget: int) -> int | None:
    """A proper factor of n by Brent's rho on x -> x^2 + c from x = 2, for
    c = 1, 2, ..., or None after ``budget`` iterations."""
    steps, c = 0, 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps + 2 * r > budget:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_GCD_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _GCD_BATCH
            steps += 2 * r
            r *= 2
        if g == n:  # the batch overshot: replay it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
