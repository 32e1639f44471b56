"""The seeded corpora of factor pairs that the digest tests pin.

Each sweep is a generator of ``(key, line, pair)``:

- ``key`` is ``(row, input)``: the row the input was drawn for (a rule
  tag, an engine, a lag) and the input with its order;
- ``line`` is the text that ``tests/test_factor.py`` hashes, one sha256
  over a sweep's lines joined by newlines;
- ``pair`` holds the coefficient tuples of a and b, or is None for an
  answer without factors.

The digests pin the seeds and the draw order, so a change that moves one
draw changes them.  This module does not import pytest: the same lines
are replayed against another revision of the package by
``tools/pair_diff.py``.

``sample_inputs`` draws the quadratic inputs of acceptance criterion 2,
which the acceptance, classify and golden tests share at ``SWEEP_SIZE``
draws from ``SWEEP_SEED``.
"""

import random
from functools import cache
from itertools import product
from math import gcd, isqrt

from oracles import residue, trial_division_is_prime
from zxfactor.classify import QuadInput, classify_general, classify_quadratic
from zxfactor.factor import (
    EngineInvariantError,
    factor_coprime_constant,
    factor_m_eq_nu,
    factor_p2_m_eq_nu1,
    factor_p2_scaled,
    factor_simple_root,
    factor_tail,
)
from zxfactor.series import TruncSeries


@cache
def _units(p, bound):
    return [x for x in range(-bound, bound + 1) if x % p]


def unit(rng, p, bound):
    """A draw from [-bound, bound] that p does not divide."""
    return rng.choice(_units(p, bound))


def discriminant_p2l(rng, p, ell):
    """beta, alpha with beta^2 - 4*alpha = p^(2*ell) * w for a unit w."""
    while True:
        beta = unit(rng, p, 30)
        alpha, rem = divmod(beta * beta - p ** (2 * ell) * unit(rng, p, 40), 4)
        if rem == 0 and alpha % p:
            return beta, alpha


SWEEP_SEED = 20260811
SWEEP_SIZE = 1000


def sample_inputs(count, seed):
    """``count`` seeded tail-free quadratics: p up to 11, n and m in 1..8,
    beta and alpha units in [-50, 50]."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = rng.choice((2, 3, 5, 7, 11))
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        beta = rng.choice([b for b in range(-50, 51) if b and b % p])
        alpha = rng.choice([a for a in range(-50, 51) if a and a % p])
        out.append(QuadInput(p, n, m, beta, alpha))
    return out


def rows_sweep():
    """2,000 seeded answers, by rule: tail-free quadratics at order 8 and
    series with a nonzero or an all-zero tail through order 8, m drawn near
    n/2 so that every row, the integer-root heads among them, comes up."""
    rng = random.Random(2024)
    for _ in range(2000):
        p = rng.choice((2, 3, 5, 7))
        n = rng.randint(2, 6)
        m = beta = None
        if rng.random() >= 0.2:
            m = rng.choice((n // 2 or 1, n // 2 + 1, n // 2 + 2, rng.randint(1, 5)))
            beta = unit(rng, p, 9)
        alpha = unit(rng, p, 20)
        zeros, digits = (0,) * rng.randint(1, 4), tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 4)))
        tail = rng.choice(((), zeros, digits))
        if tail:
            f1 = 0 if beta is None else p**m * beta
            v = classify_general(TruncSeries((p**n, f1, alpha) + tail + (0,) * (6 - len(tail))))
        else:
            v = classify_quadratic(QuadInput(p, n, m, beta, alpha), terms=8)
        pair = None if v.factors is None else tuple(s.coeffs for s in v.factors)
        head = (p, n, m, beta, alpha, tail)
        yield (v.rule, head), repr((*head, v.kind.value, v.rule, pair)), pair


def engines_sweep():
    """6,000 seeded calls of the three engines that test a discriminant
    themselves, by (engine index, outcome): factor_m_eq_nu,
    factor_p2_m_eq_nu1 and factor_tail, a third each.  Half the inputs aim
    the discriminant at p^(2l) times a unit, so that every check fails on
    some of them and the rest split; an outcome is the pair or the class of
    the error raised."""
    rng = random.Random(14)
    engines = (factor_m_eq_nu, factor_p2_m_eq_nu1, factor_tail)
    for i in range(6000):
        kind = i % 3
        p = (rng.choice((3, 5, 7, 11, 13)), 2, rng.choice((2, 3, 5, 7)))[kind]
        nu = 1 if kind == 2 else rng.randint(1, 4)
        beta, alpha = unit(rng, p, 60), unit(rng, p, 300)
        if rng.random() < 0.5:
            ell = 1 if kind == 2 else rng.randint(0, 3)
            w = unit(rng, p, 40)
            core = beta * beta - p ** (2 * ell + rng.choice((0, 0, 1))) * w
            a = core if kind == 1 else core // 4 if core % 4 == 0 else 0
            alpha = a if a % p else alpha
        tail = ()
        if kind == 2 and rng.random() < 0.7:
            tail = tuple(rng.randint(-4, 4) * rng.choice((p * p,) * 9 + (1,)) for _ in range(rng.randint(1, 4)))
        order = rng.randint(2, 12)
        q = QuadInput(p, 2 * nu, nu + 1 if kind == 1 else nu, beta, alpha, tail)
        try:
            outcome = pair = tuple(s.coeffs for s in engines[kind](q, order))
        except (ValueError, EngineInvariantError) as e:
            outcome, pair = type(e).__name__, None
        yield ((kind, outcome if pair is None else "pair"), (q, order)), repr((q, order, outcome)), pair


def lag_one_sweep():
    """Seeded pairs of the five lag-one rows, by engine, at orders around the
    running product's minimum order and up to 256: factor_simple_root (tails
    included), factor_p2_scaled, factor_p2_m_eq_nu1, factor_m_eq_nu with
    nu <= l and factor_tail.  Each row draws inputs until six of them split
    at each order; the heights range from a few bits, which stay packed, to
    hundreds, which fall back to plain sums."""
    rng = random.Random(18)

    def simple_root():
        p, n = rng.choice((3, 5, 7)), rng.randint(2, 5)
        if rng.random() < 0.2:
            return QuadInput(p, 2 * (n // 2), None, None, unit(rng, p, 40))
        tail = tuple(rng.randint(-20, 20) for _ in range(rng.randint(0, 3)))
        return QuadInput(p, n, rng.randint(1, 3), unit(rng, p, 20), unit(rng, p, 40), tail)

    def p2_scaled():
        nu = rng.randint(1, 2)
        if rng.random() < 0.3:
            return QuadInput(2, 2 * nu, None, None, 8 * rng.randint(-5, 5) - 1)
        return QuadInput(2, 2 * nu, nu + rng.randint(2, 3), unit(rng, 2, 11), 8 * rng.randint(-5, 5) + rng.choice((3, 7)))

    def p2_m_eq_nu1():
        nu, beta = rng.randint(1, 2), unit(rng, 2, 11)
        return QuadInput(2, 2 * nu, nu + 1, beta, beta * beta - 4 ** rng.randint(1, 3) * (8 * rng.randint(-4, 4) + 1))

    def m_eq_nu_small_nu():
        p, nu = rng.choice((3, 5, 7)), rng.randint(1, 2)
        return QuadInput(p, 2 * nu, nu, *discriminant_p2l(rng, p, rng.randint(nu, 2)))

    def tail():
        p = rng.choice((3, 5, 7))
        tail = tuple(p * p * rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
        return QuadInput(p, 2, 1, *discriminant_p2l(rng, p, 1), tail)

    rows = {
        factor_simple_root: simple_root,
        factor_p2_scaled: p2_scaled,
        factor_p2_m_eq_nu1: p2_m_eq_nu1,
        factor_m_eq_nu: m_eq_nu_small_nu,
        factor_tail: tail,
    }
    for order in (31, 32, 33, 64, 128, 256):
        for engine, draw in rows.items():
            done = 0
            while done < 6:
                q = draw()
                try:
                    pair = tuple(s.coeffs for s in engine(q, order))
                except ValueError:
                    continue
                done += 1
                yield (engine.__name__, (q, order)), repr((q, order, pair)), pair


def large_p_sweep():
    """Seeded large-p answers, by rule: classify_quadratic(...,
    attach_factors=True) on every large-p row at each order 2..15 (m > nu,
    2m < n, beta = 0, and m = nu with a discriminant that is a nonzero
    residue, which lifts at lag two), for primes drawn from [10^4, 3*10^5]
    and the primes 2^31 - 1 and 2^61 - 1; then factor_coprime_constant at
    each order 2..15."""
    rng = random.Random(27)

    def prime():
        pick = rng.random()
        if pick < 0.15:
            return 2**31 - 1
        if pick < 0.3:
            return 2**61 - 1
        p = rng.randrange(10**4, 3 * 10**5) | 1
        while not trial_division_is_prime(p):
            p += 2
        return p

    def draw(row, p):
        while True:
            beta, alpha = rng.randrange(1, p), rng.choice((1, -1)) * rng.randrange(1, p)
            if row == 0 and residue(-alpha, p):  # m > nu
                return QuadInput(p, 2, rng.randint(2, 3), beta, alpha)
            if row == 1:  # 2m < n
                return QuadInput(p, rng.randint(3, 4), 1, beta, alpha)
            if row == 2 and residue(-alpha, p):  # beta = 0
                return QuadInput(p, 2, None, None, alpha)
            if row == 3 and residue(beta * beta - 4 * alpha, p):  # m = nu, l = 0 < nu
                return QuadInput(p, 2, 1, beta, alpha)

    for order in range(2, 16):
        for row in range(4):
            for _ in range(10):
                q = draw(row, prime())
                v = classify_quadratic(q, terms=order, attach_factors=True)
                pair = tuple(s.coeffs for s in v.factors)
                yield (v.rule, (q, order)), repr((row, q, order, v.rule, pair)), pair
        for _ in range(4):
            u, v = rng.choice((2, 3, 5, 7, 10**4 + 7)), rng.choice((11, 13, 2**31 - 1))
            tail = tuple(rng.randint(-(10**6), 10**6) for _ in range(order))
            pair = tuple(s.coeffs for s in factor_coprime_constant(TruncSeries((u * v,) + tail), u, v, order))
            yield ("coprime constant", (u, v, order)), repr((u, v, order, pair)), pair


def packed_orders_sweep(
    orders=(16, 17, 31, 64, 129, 256),
    splits=tuple(product((2, 9, 10007, 2**31 - 1), (1, -1))),
    primes=(3, 7, 2**31 - 1),
    lifted=False,
):
    """Seeded pairs at the packed orders, by lag: per order, the coprime
    split for each (u, sign of v) of ``splits`` (lag zero), factor_m_eq_nu
    with nu > l at each p of ``primes`` (lag two), and one pair of each
    lag-one row, drawn again while the engine refuses the input or, when
    ``lifted``, while it answers with polynomial factors (the integer-root
    shortcut).  The tail of a coprime split (after u*v) is drawn, so its
    input names only u, v and the order."""
    rng = random.Random(31)

    def m_eq_nu_wide_nu(p):
        nu = 1 if p > 7 else 2
        ell = 1 if p == 3 else rng.randint(0, nu - 1)  # mod 3, w = beta^2 would make alpha = 0
        while True:  # beta^2 - 4*alpha = p^(2l)*w, w a unit square mod p but not in Z
            beta, w = rng.randrange(1, min(p, 60)), rng.randrange(2, 10**4)
            alpha, rem = divmod(beta * beta - p ** (2 * ell) * w, 4)
            if not rem and alpha % p and residue(w, p) and isqrt(w) ** 2 != w:
                return QuadInput(p, 2 * nu, nu, beta, alpha)

    def simple_root():
        p = rng.choice((3, 5, 7))
        return QuadInput(p, 3, 1, unit(rng, p, 20), unit(rng, p, 40), (rng.randint(-9, 9),))

    lag_one = {
        factor_simple_root: simple_root,
        factor_p2_scaled: lambda: QuadInput(2, 2, 4, unit(rng, 2, 11), 8 * rng.randint(-5, 5) + 7),
        factor_p2_m_eq_nu1: lambda: QuadInput(2, 2, 2, 3, 9 - 4 ** rng.randint(1, 3) * (8 * rng.randint(1, 4) + 1)),
        factor_m_eq_nu: lambda: QuadInput(5, 2, 1, *discriminant_p2l(rng, 5, 2)),
        factor_tail: lambda: QuadInput(7, 2, 1, *discriminant_p2l(rng, 7, 1), (49 * rng.randint(-3, 3),)),
    }

    def entry(lag, key, pair):  # hex, not repr: the lag-two pairs pass 4,300 digits
        pair = tuple(s.coeffs for s in pair)
        return (lag, tuple(key)), repr(key) + "|".join(",".join(map(hex, c)) for c in pair), pair

    for order in orders:
        for u, sign in splits:
            v = sign * next(v for v in iter(lambda: rng.randrange(3, 10**6), 0) if gcd(u, v) == 1)
            f = TruncSeries([u * v] + [rng.randint(-(10**6), 10**6) for _ in range(order)])
            yield entry(0, [u, v, order], factor_coprime_constant(f, u, v, order))
        for p in primes:
            q = m_eq_nu_wide_nu(p)
            yield entry(2, [q, order], factor_m_eq_nu(q, order))
        for engine, draw in lag_one.items():
            while True:
                try:
                    q = draw()
                    pair = engine(q, order)
                except ValueError:
                    continue
                if lifted and not any(pair[0].coeffs[2:] + pair[1].coeffs[2:]):
                    continue
                yield entry(1, [q, order], pair)
                break


#: the five pinned sweeps, by name
SWEEPS = {
    "rows": rows_sweep,
    "engines": engines_sweep,
    "lag one": lag_one_sweep,
    "large p": large_p_sweep,
    "packed orders": packed_orders_sweep,
}
