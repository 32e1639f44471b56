"""The independent check of a factor pair: ``verify_factorization``.

The factor engines call it as the one check of each finished pair, and
nothing here imports them.  It re-derives every residual of a*b - f by
convolution, except that a pair which passes may instead be decided by
one exact big-integer product (Kronecker substitution) where that is
cheaper than the convolution; both keep the answer exact.  Below
``_PACKED_MIN_ORDER``, where a single answer's pair usually lies, every
pair takes the convolution, which slices b once per order (``map`` stops
at the shorter operand), and a passing pair costs that and one tuple: a
``VerificationReport`` is a NamedTuple built with ``tuple.__new__``.
This module holds the check and its packed product only; the brute-force
references that the tests compare the fast paths against live in
``tests/oracles.py``.
"""

from __future__ import annotations

import sys
from array import array
from itertools import repeat
from operator import add, mul
from typing import NamedTuple

from .series import TruncSeries

__all__ = ["VerificationReport", "verify_factorization"]

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
# slots.  Slots of up to 8 bytes come from machine words in 0.34-0.63 of
# the time of to_bytes at N = 256 and 0.52-0.85 at 64 (timeit, best of 5).
# The lift's running product (factor._cross_sums) shares the floor.  At
# N = 16 the convolution takes 0.8 to 1.4 of the check's time, but the
# packed lift is slower than the lift on plain sums just above the floor:
# packed over plain, with the floor raised on factor._PACKED_MIN_ORDER
# alone (best of 9 in process), 1.07 at N = 16 at lag zero (a 10*7
# coprime split), 1.13 at 16 at lag one (QuadInput(5, 4, 1, 3, 7)), and
# 1.34 at 16, 1.17 at 24, 1.02 at 32 and 0.90 at 48 at lag two
# (QuadInput(7, 2, 1, 3, 51), m = nu).  No benchmark workload has orders
# 16 to 48, so none can resolve another floor, and the lift keeps this
# one; on the 150 cli-deep lines of order 64 at seeds 21-25 (best of 7)
# it takes 0.94 of plain sums at N = 32 and 0.86 at 64.  Below the
# floor, the product check on one-word slots (w <= 8, packed without a
# byte shuffle) against the convolution, on the large-p
# pairs of padic-wide seeds 11-12 (CPython 3.11, shared 2-vCPU machine,
# best of 15, heights included): 1.68x at N = 4, 1.27x at 6, 1.02x at 8,
# 0.87x at 10, 0.62x at 15, and 1.14-1.47x on the pairs too wide for one
# word, which pay for the heights and then convolve.  It does not pay at
# N = 4..8, so the floor stays for both.
_PACKED_MIN_ORDER = 16
_PACKED_CROSSOVER = 5 * 10**7


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
        residuals = tuple([sum(map(mul, ac, bc[k::-1])) - fk for k, fk in enumerate(fc)])
    return tuple.__new__(VerificationReport, (residuals, abs(ac[0]) != 1, abs(bc[0]) != 1))


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
    """sum_k c_k * 2^(8wk) for |c_k| < 2^(8w-1).  Up to 8 bytes a slot keeps
    the low w bytes of the machine word c_k, and a slot with its top bit set
    gives 2^(8w) back to the next; a wider slot takes c_k + 2^(8w-1)."""
    if w <= 8 and sys.byteorder == "little":
        raw, slots = array("q", coeffs).tobytes(), bytearray(w * len(coeffs))
        for j in range(w):
            slots[j::w] = raw[j::8]
        u = int.from_bytes(slots, "little")
        ones = int.from_bytes((b"\x01" + bytes(w - 1)) * len(coeffs), "little")
        return u - (((u >> (8 * w - 1)) & ones) << (8 * w))
    bias = 1 << (8 * w - 1)
    slots = b"".join(map(int.to_bytes, map(add, coeffs, repeat(bias)), repeat(w), repeat("little")))
    biases = (bytes(w - 1) + b"\x80") * len(coeffs)
    return int.from_bytes(slots, "little") - int.from_bytes(biases, "little")
