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
