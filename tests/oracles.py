"""Brute-force references the tests compare the fast paths against.

These deliberately re-derive everything by exhaustive scan, so that
agreement with the padics and factor modules is meaningful evidence;
nothing in the package calls them.  The only concessions to speed are a
cached square table per modulus and, in the irreducibility probe,
solving each order for b_k instead of scanning it and scanning each a_k
only modulo the power of p that the later orders can see.  Both keep the
answers exact.
"""

from functools import lru_cache
from math import isqrt

from zxfactor.classify import QuadInput

_SQUARE_CAP = 10**7
_ROOTS_CAP = 10**6
_PROBE_BUDGET = 10**6


@lru_cache(maxsize=8)
def _square_table(modulus: int) -> bytes:
    table = bytearray(modulus)
    for y in range(modulus):
        table[y * y % modulus] = 1
    return bytes(table)


def trial_division_is_prime(n: int) -> bool:
    """Is n prime?  Divides by every d with 2 <= d <= sqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def brute_square_mod(d: int, p: int, k: int) -> bool:
    """Is there y in [0, p^k) with y^2 = d mod p^k?  Exhaustive."""
    modulus = p**k
    if modulus > _SQUARE_CAP:
        raise ValueError(f"modulus {modulus} exceeds the brute-force cap {_SQUARE_CAP}")
    return _square_table(modulus)[d % modulus] == 1


def brute_roots_mod(A: int, B: int, C: int, p: int, k: int) -> list[int]:
    """All roots of A*y^2 + B*y + C mod p^k by full scan."""
    modulus = p**k
    if modulus > _ROOTS_CAP:
        raise ValueError(f"modulus {modulus} exceeds the brute-force cap {_ROOTS_CAP}")
    return [y for y in range(modulus) if (A * y * y + B * y + C) % modulus == 0]


def exhaustive_irreducibility_probe(q: QuadInput, depth: int = 2) -> bool:
    """Exact finite search for a factorization of the input through ``depth``.

    True means no integers a_1..a_depth, b_1..b_depth extend non-unit heads
    a_0 * b_0 = p^n to a product a*b that agrees with the input through
    x^depth; then the input has no factorization in Z[[x]], which
    corroborates irreducibility.  False means such integers exist, which is
    inconclusive: a factorization through x^depth need not extend further.

    Up to swapping the factors and negating both, the heads are a_0 = p^s,
    b_0 = p^t with s + t = n and s <= t.  Order k then reads
    p^s*b_k + p^t*a_k = f_k - sum_{0<j<k} a_j*b_{k-j}; it is solvable iff
    p^s divides the right side, and then a_k forces b_k.  Orders k+1 ..
    depth see a_k only modulo p^((depth-k)*s), so each a_k runs over that
    range and the search is exact at every depth.  Raises ValueError when
    p^n > 10^4, outside depths 1..4, or when the search would try more
    than 10^6 values of the a_k (which only depth 4 can reach).
    """
    p, n = q.p, q.n
    if p**n > 10**4:
        raise ValueError("probe bound exceeded: need p^n <= 10^4")
    if not 1 <= depth <= 4:
        raise ValueError("probe depth must be between 1 and 4")
    f = [p**n, 0 if q.beta is None else p**q.m * q.beta, q.alpha]
    f += [q.tail[i] if i < len(q.tail) else 0 for i in range(depth - 2)]
    budget = [_PROBE_BUDGET]
    return not any(_split_admits(p, s, n - s, f, depth, budget) for s in range(1, n // 2 + 1))


def _split_admits(p: int, s: int, t: int, f: list[int], depth: int, budget: list[int]) -> bool:
    """Do integers a_1..a_depth, b_1..b_depth extend a_0 = p^s, b_0 = p^t?"""
    ps, pt = p**s, p**t
    a, b = [ps], [pt]

    def rec(k: int) -> bool:
        rest = f[k] - sum(a[j] * b[k - j] for j in range(1, k))
        if rest % ps:
            return False
        if k == depth:
            return True
        width = p ** ((depth - k) * s)
        budget[0] -= width
        if budget[0] < 0:
            raise ValueError(f"probe search exceeds {_PROBE_BUDGET} assignments at depth {depth}")
        for ak in range(width):
            a.append(ak)
            b.append((rest - pt * ak) // ps)
            if rec(k + 1):
                return True
            a.pop()
            b.pop()
        return False

    return rec(1)


def canonical_simple_root_pair(q: QuadInput, order: int) -> tuple[list[int], list[int]]:
    """The pair a, b through ``order`` that the A = 1 row (2m < n) must give.

    The heads are a_0 = p^s with s = m and b_0 = p^(n-s).  a_1 is the
    smallest root mod p^s of g(y) = p^(n-2s)*y^2 - beta*y + alpha, found by
    scan.  The input through ``order``, zero beyond, has one root
    r = p^s*y in pZ_p with y = -1/a_1 mod p: Newton's method finds y on
    F(y) = f(p^s*y)/p^(2s), whose derivative at y is g'(a_1), a unit.
    Then a is the base-r expansion of r with digits in [0, a_0):
    a_k = -(S_(k-1)/r^k) mod a_0 for S_(k-1) = sum_(j<k) a_j*r^j, so
    a(r) = 0, and b = f/a by exact division, order by order.
    """
    p, n, s = q.p, q.n, q.m
    if not 2 * s < n:
        raise ValueError("the A = 1 oracle covers 2m < n only")
    f = [p**n, p**s * q.beta, q.alpha, *q.tail][: order + 1]
    f += [0] * (order + 1 - len(f))
    a = [p**s, brute_roots_mod(p ** (n - 2 * s), -q.beta, q.alpha, p, s)[0]]
    modulus = p ** (s * (order + 2))  # r to this precision fixes every digit through order
    F = [c * p ** (s * k) // p ** (2 * s) for k, c in enumerate(f)]
    y = -pow(a[1], -1, p) % p
    for _ in range(modulus.bit_length().bit_length() + 1):  # precision doubles per step
        value = sum(c * pow(y, k, modulus) for k, c in enumerate(F))
        slope = sum(k * c * pow(y, k - 1, modulus) for k, c in enumerate(F) if k)
        y = (y - value * pow(slope, -1, modulus)) % modulus
    assert sum(c * pow(y, k, modulus) for k, c in enumerate(F)) % modulus == 0
    r = p**s * y
    S = a[0] + a[1] * r
    for k in range(2, order + 1):
        rk = p ** (s * k)
        assert S % rk == 0, "a(r) = 0 to the order so far"
        a.append(-(S // rk) * pow(y, -k, modulus) % a[0])
        S = (S + a[k] * pow(r, k, modulus)) % modulus
    b = []
    for k in range(order + 1):
        rest = f[k] - sum(a[j] * b[k - j] for j in range(1, k + 1))
        b.append(rest // a[0])
        assert rest % a[0] == 0, "a divides f"
    return a[: order + 1], b
