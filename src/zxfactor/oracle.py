"""Brute-force verifiers, kept independent of the fast paths.

These deliberately re-derive everything by exhaustive scan so that
agreement with the padics/factor modules is meaningful evidence; the
factor engines call ``verify_factorization`` as the one check of each
finished pair, and nothing here imports them.  The only concessions to
speed are a cached square table per modulus; in the irreducibility
probe, solving each order for b_k instead of scanning it and scanning
each a_k only modulo the power of p that the later orders can see; and
in ``verify_factorization``, deciding a pair that passes with one exact
big-integer product (Kronecker substitution) where that is cheaper than
the convolution.  All three keep the answers exact.  A
``VerificationReport`` is a NamedTuple, so a check builds one tuple.

Only ``verify_factorization`` and its report are exported.
``brute_square_mod``, ``brute_roots_mod`` and
``exhaustive_irreducibility_probe`` are the reference implementations the
tests compare the fast paths against; nothing in the package calls them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import add, mul
from typing import TYPE_CHECKING, NamedTuple

from .series import TruncSeries

if TYPE_CHECKING:  # pragma: no cover
    from .classify import QuadInput

__all__ = ["VerificationReport", "verify_factorization"]

_SQUARE_CAP = 10**7
_ROOTS_CAP = 10**6
_PROBE_BUDGET = 10**6

# The product check runs from order _PACKED_MIN_ORDER on, while
# slot_bits^4 < _PACKED_CROSSOVER * (N + 1), slot_bits being 8 times the
# slot width in bytes: below about 240 bits at N = 64, 340 at 256 and 480
# at 1024.  The product costs about (N * slot_bits)^1.6 (Karatsuba); the
# convolution N^2 / 2 coefficient products, whose cost is interpreter
# overhead until they are hundreds of bits long.  The constant is the
# crossover for pairs whose heights grow linearly with the order while a
# stays small: the shape m=nu produces, and the one least favourable to
# the product, since most slots of the packed a are padding.  Convolution
# time over product time (CPython 3.11, shared 2-vCPU machine, two runs),
# with slot_bits^4 / (N + 1) in brackets:
#   m=nu at 5.64 bits per order: 1.02-1.07 at N = 24 (3.2e7), 1.02-1.08
#     at 32 (5.7e7), 0.97 at 36 (7.8e7), 0.70-0.80 at 40 (1.1e8);
#   m=nu at 2.84 bits per order: 1.09-1.42 at N = 80 (4.7e7), 0.96-1.18
#     at 96 (7.9e7), 0.84-0.87 at 128 (1.7e8), 0.58 at 192 (5.4e8);
#   a of 6 bits, b uniform: 1.13 at N = 64 (8.5e7), 1.43 at 1024 (8.0e7),
#     0.63 at 1024 (1.2e9).
# On the 78 lines of the cli-deep benchmark at seeds 3 to 5 whose heights
# grow (m=nu and p=2 m=nu+1, N = 64 to 256), the rule takes the faster
# path on 73; the other five are within 0.98 to 1.38.  Small heights gain
# the most: 3x at N = 64 and 8 to 11x at N = 256 for 24- to 80-bit
# slots.  At N = 16 the two are even (0.8 to 1.4), so shorter pairs keep
# the convolution.
_PACKED_MIN_ORDER = 16
_PACKED_CROSSOVER = 5 * 10**7


@lru_cache(maxsize=8)
def _square_table(modulus: int) -> bytes:
    table = bytearray(modulus)
    for y in range(modulus):
        table[y * y % modulus] = 1
    return bytes(table)


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


class VerificationReport(NamedTuple):
    residuals: tuple[int, ...]
    a0_proper: bool
    b0_proper: bool

    @property
    def passed(self) -> bool:
        return self.a0_proper and self.b0_proper and not any(self.residuals)


def verify_factorization(f: TruncSeries, a: TruncSeries, b: TruncSeries) -> VerificationReport:
    """Per-order residuals of a*b - f plus non-unit checks on the heads.

    A pair that :func:`_product_vanishes` passes has every residual zero;
    every other pair gets its residuals from the convolution.
    """
    ac, bc, fc = a.coeffs, b.coeffs, f.coeffs
    if not (len(fc) == len(ac) == len(bc)):
        raise ValueError(
            f"order mismatch: f through {f.order}, a through {a.order}, b through {b.order}"
        )
    if _product_vanishes(fc, ac, bc):
        residuals = (0,) * len(fc)
    else:
        residuals = tuple(sum(map(mul, ac[: k + 1], bc[k::-1])) - fk for k, fk in enumerate(fc))
    return VerificationReport(residuals, abs(ac[0]) != 1, abs(bc[0]) != 1)


def _product_vanishes(fc: tuple[int, ...], ac: tuple[int, ...], bc: tuple[int, ...]) -> bool:
    """Is a*b - f zero through order N, decided by one exact product?

    False also when the pair is below ``_PACKED_MIN_ORDER`` or above the
    crossover, where the convolution is cheaper.  With X = 2^(8w), the
    series packed at X give d = A*B - F = sum_k d_k X^k, where d_k is the
    residual of order k for k <= N.  w is chosen so that every
    |d_k| <= (N+1) * 2^(h_a+h_b) + 2^(h_f) < 2^(8w-1) < X; then d_j, for
    the first nonzero d_j with j <= N, survives modulo X^(j+1), so the pair
    passes exactly when X^(N+1) divides d.  No probability is involved.
    """
    size = len(fc)
    if size - 1 < _PACKED_MIN_ORDER:
        return False
    height_ab = max(map(int.bit_length, ac)) + max(map(int.bit_length, bc))
    w = (max(height_ab + size.bit_length(), max(map(int.bit_length, fc))) + 9) // 8
    if (8 * w) ** 4 >= _PACKED_CROSSOVER * size:
        return False
    d = _packed(ac, w) * _packed(bc, w) - _packed(fc, w)
    return not d & ((1 << (8 * w * size)) - 1)


def _packed(coeffs: tuple[int, ...], w: int) -> int:
    """sum_k c_k * 2^(8wk) for |c_k| < 2^(8w-1): each c_k plus 2^(8w-1)
    fills one w-byte slot, and the biases come off in one subtraction."""
    bias = 1 << (8 * w - 1)
    slots = b"".join(map(int.to_bytes, map(add, coeffs, repeat(bias)), repeat(w), repeat("little")))
    biases = (bytes(w - 1) + b"\x80") * len(coeffs)
    return int.from_bytes(slots, "little") - int.from_bytes(biases, "little")


def exhaustive_irreducibility_probe(q: "QuadInput", depth: int = 2) -> bool:
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
