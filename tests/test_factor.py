import contextlib
import hashlib
import json
import random
import runpy
from collections import Counter
from math import isqrt
from operator import mul
from pathlib import Path

import pytest

import zxfactor.factor as factor_module
from zxfactor.classify import QuadInput, classify_general, classify_quadratic
from zxfactor.factor import (
    EngineInvariantError,
    _cross_sums,
    factor_coprime_constant,
    factor_m_eq_nu,
    factor_p2_m_eq_nu1,
    factor_p2_scaled,
    factor_simple_root,
    factor_tail,
)
from zxfactor.padics import _square_class, _valuation, is_square_zp
from zxfactor.series import TruncSeries

from oracles import canonical_simple_root_pair, check_pair, spy
from pair_sweeps import engines_sweep, lag_one_sweep, large_p_sweep, packed_orders_sweep, rows_sweep

RNG_SEED = 42
TRACE = "a pinned pair moved: python tools/pair_diff.py --parent <rev> names the first line that differs"


def _pinned(sweep):
    """The sha256 over a sweep's lines joined by newlines, and its lines per row."""
    keys, lines = zip(*((key, line) for key, line, _ in sweep))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), Counter(row for row, _ in keys)


def test_unit_inverse_rejects_non_unit():
    with pytest.raises(EngineInvariantError):
        factor_module._unit_inverse(9, 3)


def test_engine_check_fires_on_a_wrong_step(monkeypatch):
    # The pair is checked once, after the last stage.  One more than the
    # canonical a_(k+2), the coefficient of the third stage, put in its
    # place before the check leaves every order below k + 2 alone and order
    # k + 2 off by b_0, whatever the core derives from it.  One engine per
    # lag: the coprime split (k = 1), a simple root (k = 2) and m = nu with
    # nu > l (k = 3).
    stages = []
    lift, verified = factor_module._lift, factor_module._verified

    class Counted(list):
        def append(self, a_m):
            stages.append(a_m)
            super().append(a_m)

    def lift_counted(tag, targets, n, seeds, *rest):
        return lift(tag, targets, n, Counted(seeds), *rest)

    def off_at_the_third_stage(tag, targets, a, b, n):
        a[len(a) - len(stages) + 2] += 1
        return verified(tag, targets, a, b, n)

    monkeypatch.setattr(factor_module, "_lift", lift_counted)
    monkeypatch.setattr(factor_module, "_verified", off_at_the_third_stage)
    for engine, args, tag, k in [
        (factor_coprime_constant, (TruncSeries([70] + [1] * 16), 10, 7, 16), "coprime constant", 1),
        (factor_simple_root, (QuadInput(3, 5, 2, 2, 1), 16), "simple root", 2),
        (factor_m_eq_nu, (QuadInput(7, 2, 1, 3, 51), 16), "m=nu nu>l", 3),
    ]:
        stages.clear()
        with pytest.raises(EngineInvariantError, match=f"{tag}: first nonzero residual at product order {k + 2};"):
            engine(*args)
        assert len(stages) == 16 - k + 1


def test_tail_free_engines_reject_a_tail():
    with pytest.raises(ValueError, match="no tail"):
        factor_p2_scaled(QuadInput(2, 4, 9, 13, 183, tail=(-5,)), 2)
    with pytest.raises(ValueError, match="no tail"):
        factor_simple_root(QuadInput(11, 2, None, None, -16, tail=(-18, 30)), 33)
    with pytest.raises(ValueError, match="no tail"):
        factor_m_eq_nu(QuadInput(7, 2, 1, 3, 51, tail=(7,)), 8)
    with pytest.raises(ValueError, match="no tail"):
        factor_p2_m_eq_nu1(QuadInput(2, 2, 2, 1, -67, tail=(4,)), 8)


#: worked examples of the engines, as (engine, input, order, a, b): a and b
#: are prefixes of the factors' coefficients (the whole factor at order + 1
#: terms), () where nothing is pinned.  The input is a QuadInput, or
#: (coefficients, u, v) for the coprime split f_0 = u*v.
ENGINE_EXAMPLES = [
    (factor_simple_root, QuadInput(5, 3, 1, 1, 1), 2, (5, 1, 4), (25, -4, -19)),
    (factor_simple_root, QuadInput(5, 3, 1, 1, 1, tail=(7, -2, 0, 11)), 10, (), ()),
    # m > nu: (3 + x)(3 + 2x) is a polynomial pair
    (factor_simple_root, QuadInput(3, 2, 2, 1, 2), 4, (3, 1, 0, 0, 0), (3, 2, 0, 0, 0)),
    (factor_simple_root, QuadInput(3, 2, 2, 1, 11), 3, (3, 1, 0, 1), (3, 2, 3, -2)),
    # disc = 7^4 * 37 with 37 = 2 a residue mod 7, so this is reducible
    (factor_simple_root, QuadInput(7, 4, 3, 1, 3), 16, (), ()),
    (factor_m_eq_nu, QuadInput(7, 2, 1, 3, 2), 3, (7, 1, 0, 0), (7, 2, 0, 0)),
    # the seed is the smallest root of y^2 - 3y + 51 mod 7^3, with g(50) = 7^4
    (factor_m_eq_nu, QuadInput(7, 2, 1, 3, 51), 32, (7, 50, 0), ()),
    # nu > l >= 1
    (factor_m_eq_nu, QuadInput(3, 4, 2, 1, -29), 24, (), ()),  # disc 117 = 9 * 13, 13 a residue mod 3
    (factor_m_eq_nu, QuadInput(3, 6, 3, 1, -29), 24, (), ()),  # nu = 3 > l = 1
    # nu <= l
    (factor_m_eq_nu, QuadInput(3, 2, 1, 1, -29), 24, (), ()),  # l = 1 >= nu = 1
    # disc 1053 = 81 * 13: l = 2 > nu = 1
    (factor_m_eq_nu, QuadInput(3, 2, 1, 1, -263), 24, (3, 32, 864, 54, 54, 0), (3, -31, -621, 15498, 14040, -4601448)),
    (factor_simple_root, QuadInput(5, 2, None, None, -1), 4, (5, -1), (5, 1)),  # a difference of squares
    (factor_simple_root, QuadInput(5, 2, None, None, 1), 3, (5, 2, 3, 2), (5, -2, -2, 0)),
    (factor_p2_scaled, QuadInput(2, 4, None, None, 7), 16, (), ()),  # -7 = 1 mod 8
    (factor_p2_scaled, QuadInput(2, 2, 3, 1, 3), 8, (2, 1), (2, 3)),  # 4 + 8x + 3x^2 = (2 + x)(2 + 3x)
    (factor_p2_m_eq_nu1, QuadInput(2, 2, 2, 1, -3), 8, (2, -1), (2, 3)),  # 4 + 4x - 3x^2 = (2 - x)(2 + 3x)
    (factor_p2_m_eq_nu1, QuadInput(2, 4, 3, 3, -7), 16, (), ()),  # beta^2 - alpha = 16
    (factor_p2_m_eq_nu1, QuadInput(2, 2, 2, 1, -67), 24, (), ()),  # beta^2 - alpha = 68 = 4 * 17
    (factor_coprime_constant, ((6, 2, 1), 2, 3), 2, (2, 0, 1), (3, 1, -1)),
    (factor_coprime_constant, ((15, 0, 0), 3, 5), 2, (3, 0, 0), (5, 0, 0)),
    (factor_coprime_constant, ((10, 1, 0, 0, 0), 2, 5), 4, (), ()),
    (factor_tail, QuadInput(3, 2, 1, 1, -2, tail=(9, 0, 0)), 5, (3, 29, 6), (3, -28, 264)),
    # p = 5: beta = 1, alpha = -6 gives beta^2 - 4*alpha = 25 = 5^2 * 1
    (factor_tail, QuadInput(5, 2, 1, 1, -6, tail=(25,) + (0,) * 5), 8, (), ()),
    (factor_simple_root, QuadInput(7, 2, 1, 3, 2, tail=(7,) + (0,) * 5), 8, (), ()),
]

#: inputs the engines refuse, as (engine, input, order, message)
ENGINE_REFUSALS = [
    # beta^2 - 4*alpha = 8 = 3 mod 5 is a non-residue
    (factor_m_eq_nu, QuadInput(5, 2, 1, 2, -1), 8, "beta^2 - 4*alpha is not a square in Z_5: input is irreducible"),
    (factor_simple_root, QuadInput(3, 2, None, None, 1), 8, "g has no simple root mod p"),  # -1 = 2 mod 3
    (factor_p2_scaled, QuadInput(2, 2, 4, 1, 3), 8, "mod-8 reducibility condition fails: input is irreducible"),
    # beta^2 - alpha = 8 = 2^3: no 2^(2l) * (1 mod 8) shape
    (factor_p2_m_eq_nu1, QuadInput(2, 2, 2, 3, 1), 8, "beta^2 - alpha is not a square in Z_2: input is irreducible"),
    (factor_tail, QuadInput(3, 2, 1, 1, -2, tail=(3, 0)), 4, "tail coefficients not divisible by p^2 at orders [3]"),
]


def _engine_id(row) -> str:
    engine, given, order = row[:3]
    return f"{engine.__name__}{tuple(given)}@{order}".replace(" ", "")


def _run(engine, given, order):
    """The series a row's pair must multiply to, and the engine's pair."""
    if isinstance(given, QuadInput):
        return given.head_series(order), engine(given, order)
    f = TruncSeries(given[0])
    return f, engine(f, *given[1:], order)


@pytest.mark.parametrize("engine, given, order, a, b", ENGINE_EXAMPLES, ids=map(_engine_id, ENGINE_EXAMPLES))
def test_engine_example(engine, given, order, a, b):
    f, pair = _run(engine, given, order)
    assert (pair[0].coeffs[: len(a)], pair[1].coeffs[: len(b)]) == (a, b)
    check_pair(f, pair)


@pytest.mark.parametrize("engine, given, order, message", ENGINE_REFUSALS, ids=map(_engine_id, ENGINE_REFUSALS))
def test_engine_refusal(engine, given, order, message):
    assert _refusal(engine, given, order) == message


def _refusal(engine, given, order) -> str:
    with pytest.raises(ValueError) as info:
        _run(engine, given, order)
    return str(info.value)


def test_2m_lt_n_deeper():
    for q in (QuadInput(2, 3, 1, 1, 1), QuadInput(3, 5, 2, 2, 1)):
        check_pair(q.head_series(16), factor_simple_root(q, 16))


def test_p2_m_gt_nu1_both_mod8_branches():
    # gap >= 2 needs alpha = 7 mod 8, gap = 1 needs alpha = 3 mod 8
    for q in (QuadInput(2, 2, 4, 1, 7), QuadInput(2, 4, 4, 3, 3)):
        check_pair(q.head_series(16), factor_p2_scaled(q, 16))


def test_coprime_constant_rejects_bad_split():
    assert _refusal(factor_coprime_constant, ((12, 0), 2, 6), 1) == "constant-term split must be coprime"
    # a unit part would make its factor a unit
    for u, v in ((1, 12), (-1, -12), (12, 1)):
        message = _refusal(factor_coprime_constant, ((12, 0), u, v), 1)
        assert message == "need f_0 = u*v with both parts of size at least 2"


def test_simple_root_tail_rejects_double_roots():
    for q in (QuadInput(3, 2, 1, 1, -2, tail=(0, 0)), QuadInput(5, 4, 2, 2, 1, tail=(0, 0))):
        assert _refusal(factor_simple_root, q, 4) == "g has no simple root mod p"


def test_refuses_to_factor_beyond_input_order():
    # a QuadInput's tail is exact (zero beyond its length), so the engines
    # factor through any order against the input's head series
    for engine, q in ((factor_tail, QuadInput(3, 2, 1, 1, -2, tail=(9,))), (factor_simple_root, QuadInput(7, 2, 1, 3, 2))):
        check_pair(q.head_series(5), engine(q, 5))
    # a truncated series is known only through its order
    message = _refusal(factor_coprime_constant, ((6, 2, 1), 2, 3), 3)
    assert message == "factoring beyond the input's order 2 is refused"


@pytest.mark.parametrize(
    "engine, q",
    [
        (factor_simple_root, QuadInput(5, 4, 1, 3, 7)),
        (factor_p2_scaled, QuadInput(2, 2, 4, 3, 7)),
        (factor_m_eq_nu, QuadInput(3, 2, 1, 1, -29)),
        (factor_p2_m_eq_nu1, QuadInput(2, 2, 2, 3, -519)),
        (factor_tail, QuadInput(7, 2, 1, 24, -52, (147, 0, 0))),
    ],
)
def test_engines_refuse_order_one_in_one_message(engine, q):
    check_pair(q.head_series(2), engine(q, 2))
    with pytest.raises(ValueError, match="^factor order must be at least 2$"):
        engine(q, 1)


def _random_reducible_inputs(count):
    rng = random.Random(RNG_SEED)
    out = []
    while len(out) < count:
        p = rng.choice((2, 3, 5, 7, 11))
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        beta = rng.choice([b for b in range(-30, 31) if b and b % p])
        alpha = rng.choice([a for a in range(-30, 31) if a and a % p])
        q = QuadInput(p, n, m, beta, alpha)
        delta = p ** (2 * m) * beta**2 - 4 * alpha * p**n
        if is_square_zp(delta, p).is_square:
            out.append(q)
    return out


def test_randomized_engines_verify_and_are_deterministic():
    for q in _random_reducible_inputs(120):
        first = classify_quadratic(q, terms=40).factors
        again = classify_quadratic(q, terms=40).factors
        assert first == again
        check_pair(q.head_series(40), first)


def test_beta_zero_randomized():
    rng = random.Random(RNG_SEED + 1)
    done = 0
    while done < 40:
        p = rng.choice((2, 3, 5, 7))
        nu = rng.randint(1, 4)
        alpha = rng.choice([a for a in range(-30, 31) if a and a % p])
        if not _square_class(0, -alpha, p).is_square:  # -alpha = 1 mod 8 when p = 2
            continue
        q = QuadInput(p, 2 * nu, None, None, alpha)
        engine = factor_p2_scaled if p == 2 else factor_simple_root
        check_pair(q.head_series(24), engine(q, 24))
        done += 1


#: the rows whose pairs factor_simple_root and factor_p2_scaled lift from a seed root
SEED_ROOT_ROWS = {
    "S3.2m-lt-n", "S4.2m-lt-n", "S3.disc-square", "S4.disc-square", "S3.beta0-reducible",
    "S4.beta0-reducible", "S5.2m-lt-n", "S5.2m-gt-n-even-qr", "S5.simple-root",
}


def test_simple_root_rows_keep_their_pairs():
    # n = 2m: the pair comes from the recurrence although 5y^2 + 15y + 10
    # has the integer roots -1 and -2
    v = classify_general(TruncSeries((25, -15, 2, 0, 0, 0)))
    assert v.rule == "S5.simple-root"
    assert v.factors[0].coeffs == (5, 3, 3, 3, 3, 3)
    assert v.factors[1].coeffs == (5, -6, 1, 0, 0, 0)
    digest, rules = _pinned(rows_sweep())
    assert rules.keys() >= SEED_ROOT_ROWS
    assert digest == "b344e0fd9bdb2aec6da8c1bc7009b7e273c6dfef58e4c9a2c57732b5040bf68b", TRACE


def test_simple_root_pairs_are_the_root_expansion():
    # the A = 1 row's pair, coefficient by coefficient, against the digits
    # of the root of f in pZ_p that tests/oracles.py finds without factor
    rng = random.Random(29)
    compared = 0
    for _ in range(240):
        p = rng.choice((2, 3, 5, 7, 11, 13))
        m = rng.randint(1, 4 if p < 5 else 2)
        n = rng.randint(2 * m + 1, 2 * m + 4)
        beta, alpha = (rng.choice([c for c in range(-40, 41) if c % p]) for _ in range(2))
        tail = tuple(rng.randint(-50, 50) for _ in range(rng.randint(1, 5))) if rng.random() < 0.5 else ()
        q, order = QuadInput(p, n, m, beta, alpha, tail), rng.randint(4, 24)
        if factor_module._integer_split(factor_module._targets(q, order), p**m, order, "shortcut"):
            continue
        a, b = factor_simple_root(q, order)
        for name, got, want in zip("ab", (a.coeffs, b.coeffs), canonical_simple_root_pair(q, order)):
            k = next((k for k, (u, v) in enumerate(zip(got, want)) if u != v), None)
            assert k is None, f"{q} at order {order}: {name}_{k} = {got[k]}, the root expansion gives {want[k]}"
        compared += 1
    assert compared >= 200


def test_integer_split_has_a_root_whenever_the_discriminant_is_square(monkeypatch):
    # Seeded polynomials (c_0 + c_1 x)(d_0 + d_1 x) with c_0 d_0 = p^n, so
    # that every discriminant is a perfect square, classified with factors
    # attached: on each of the four engine rows that try the shortcut, the
    # integer a_0 it is given makes one of (f_1 +- d)/(2 b_0) an integer.
    # The simple-root row meets both parities of n (2m < n at odd n).
    # Odd n with m > n/2 or beta = 0 never reaches the shortcut: the engine
    # finds no root of g mod p first.
    rng = random.Random(32)
    tags = ("simple root poly", "m=nu poly", "p2 scaled poly", "p2 m=nu+1 poly")
    squares = {(tag, odd): 0 for tag in tags for odd in (0, 1)}
    drawn = {"n": 0}
    integer_split = factor_module._integer_split

    def spy(targets, a0, n, tag):
        b0, f1, f2 = targets[0] // a0, targets[1], targets[2]
        disc = f1 * f1 - 4 * a0 * b0 * f2
        if disc >= 0 and not any(targets[3:]) and isqrt(disc) ** 2 == disc:
            squares[tag, drawn["n"] % 2] += 1
            assert any(num % (2 * b0) == 0 for num in (f1 - isqrt(disc), f1 + isqrt(disc))), (tag, targets, a0)
        return integer_split(targets, a0, n, tag)

    monkeypatch.setattr(factor_module, "_integer_split", spy)
    for _ in range(8000):
        p, n = rng.choice((2, 2, 2, 3, 5, 7, 11)), rng.randint(2, 8)
        j, sign = rng.randint(1, n - 1), rng.choice((1, -1))
        c0, d0, c1, d1 = sign * p**j, sign * p ** (n - j), rng.randint(-60, 60), rng.randint(-60, 60)
        f1 = c0 * d1 + c1 * d0
        m = beta = None
        if f1:
            m, beta = _valuation(f1, p)
        drawn["n"] = n
        with contextlib.suppress(ValueError):  # alpha = c_1 d_1 not a unit mod p
            classify_quadratic(QuadInput(p, n, m, beta, c1 * d1), terms=4)
    assert min(squares[tag, 0] + squares[tag, 1] for tag in tags) >= 100, squares
    assert min(squares["simple root poly", 0], squares["simple root poly", 1]) >= 100, squares
    monkeypatch.setattr(factor_module, "_integer_split", None)
    for _ in range(500):
        p, n = rng.choice((2, 3, 5, 7, 11)), rng.choice((3, 5, 7))
        m = rng.choice((None, *range((n + 1) // 2, n + 2)))
        beta = None if m is None else rng.choice((1, -1, p + 1))
        with pytest.raises(ValueError, match="no simple root"):
            factor_simple_root(QuadInput(p, n, m, beta, rng.choice((1, -1, p + 1, 2 * p - 1))), 5)


def test_discriminant_engines_keep_their_pairs():
    digest, seen = _pinned(engines_sweep())
    assert seen.keys() == {(kind, outcome) for kind in range(3) for outcome in ("pair", "ValueError")}
    assert digest == "095f6ce8af1632b62b4962f940ead62586efddf631aef32be6a35ad8a7deb1ca", TRACE


def test_lag_one_rows_keep_their_pairs():
    digest, split = _pinned(lag_one_sweep())
    assert split.keys() == {"factor_simple_root", "factor_p2_scaled", "factor_p2_m_eq_nu1", "factor_m_eq_nu", "factor_tail"}
    assert digest == "711e299c485fcb7ab2f7cafd26c014bb28374a4cf2384ae405421615fb780976", TRACE


@pytest.mark.parametrize(
    "engine, q, order, regime",
    [
        (factor_simple_root, QuadInput(5, 2, None, None, -11), 256, "packed throughout"),
        (factor_simple_root, QuadInput(5, 4, 1, 3, 7), 256, "widens late"),
        (factor_tail, QuadInput(7, 2, 1, 24, -52, (147, 0, 0)), 64, "falls back"),
        (factor_p2_m_eq_nu1, QuadInput(2, 2, 2, 3, -519), 64, "widens"),
        (factor_simple_root, QuadInput(5, 4, 1, 3, 7), 15, "plain sums"),
        (factor_simple_root, QuadInput(5, 4, 1, 3, 7), 32, "packed throughout"),
        (factor_p2_scaled, QuadInput(2, 2, 4, 3, 7), 32, "packed throughout"),
        (factor_simple_root, QuadInput(2**61 - 1, 4, 1, 3, 7), 64, "widens from the start"),
        (factor_simple_root, QuadInput(5, 4, 1, 3, 7), 16, "packed throughout"),
    ],
)
def test_running_product_gives_the_plain_sum_pair(monkeypatch, engine, q, order, regime):
    reslots = spy(monkeypatch, "_reslot", factor_module)
    pair = engine(q, order)
    widths = _widths(reslots)
    # The regime, read from the pair: the lift packs each pair while
    # h_a + bits(b_m) + bitlen(N+1) + 1 fits the slots, and the first b_m
    # that does not widens them (R, PA and PB each re-slotted once) unless
    # its extrapolated width passes the cap.  With p = 2^61 - 1, h_a alone
    # passes the start width: b_2 widens the empty product, and two later
    # b_m widen it again.  The h_a here, the height of a_0 and a_2, a_3,
    # ..., is at most the lift's (that of A*a_0): equal for A = 1, so a
    # break found here is one the lift takes.  The p = 2 case (A = 8) has
    # h_a one bit short of the lift's 5, and both reach 144 bits after
    # rounding: it widens at stage 23 of 64.
    a, b = (s.coeffs for s in pair)
    w, cap = factor_module._RUNNING_BITS, factor_module._RUNNING_MAX_BITS
    fixed = max(map(int.bit_length, [a[0], *a[2:]])) + (order + 1).bit_length() + 1
    first = next((m for m in range(2, order + 1) if fixed + b[m].bit_length() > w), None)
    wide = None
    if first is not None:
        h_b, gain = b[first].bit_length(), max(b[first].bit_length() - b[0].bit_length(), 0)
        wide = (fixed + h_b - (-gain * (order + 1 - first) // first) + 7) // 8 * 8
    holds = {
        "plain sums": order < factor_module._PACKED_MIN_ORDER,
        "packed throughout": first is None and not widths,
        "widens": first is not None and 2 * first <= order + 1 and widths == [wide] * 3,
        "widens late": first is not None and 2 * first > order + 1 and widths == [wide] * 3,
        "falls back": first is not None and fixed <= w < cap < wide and not widths,
        "widens from the start": fixed > w and first == 2 and widths[:3] == [wide] * 3 and len(widths) == 9,
    }
    assert holds[regime], (fixed, first, widths)
    monkeypatch.setattr(factor_module, "_PACKED_MIN_ORDER", order + 1)
    assert engine(q, order) == pair


def _driven_sums(a_all, b_all, h_a, k, lag=1):
    """The sums _cross_sums yields at the lag over the stages k..n
    (n = len(a_all) - 1) from the seeds a_0..a_(k-1) and b_0..b_(k-1), when
    the lists grow as in a lift, each stage appending a_m and b_m after its
    read; once the generator ends, the plain sums that the lift then takes."""
    n = len(a_all) - 1
    a, b = a_all[:k], b_all[:k]
    sums = _cross_sums(a, b, h_a, n, lag)
    out = []
    for m in range(k, n + 1):
        s = next(sums, None)
        out.append(sum(map(mul, a[lag + 1 :], b[m - 1 : lag : -1])) if s is None else s)
        a.append(a_all[m])
        b.append(b_all[m])
    return out


def _plain_sums(a, b, k, lag=1):
    """C(m+lag) = sum_(j=lag+1..m-1) a_j*b_(m+lag-j) for the stages m = k..len(a) - 1."""
    return [sum(map(mul, a[lag + 1 : m], b[m - 1 : lag : -1])) for m in range(k, len(a))]


# (lag, k) of the lifts: the first stage at k = lag + 1, and k = 3 at lag one,
# the m=nu nu<=l row, whose seed pair a_2, b_2 is pushed before the first read
_SHAPES = ((0, 1), (1, 2), (1, 3), (2, 3))


def _widths(reslots):
    """The widths _cross_sums widened to, read from the recorded _reslot
    calls: one entry per integer re-slotted, three (R, PA and PB) per
    widening."""
    return [wide for _, _, wide in reslots]


@pytest.mark.parametrize(
    "h_a, h_b",
    [(10, 15), (20, 20), (3, 40), (40, 72), (20, 28), (20, 29), (3, 45), (3, 46), (20, 36), (20, 37), (3, 53), (3, 54)],
)
@pytest.mark.parametrize("sign", [1, -1])
def test_cross_sums_stay_exact_at_the_width_bound(h_a, h_b, sign):
    # every a_j and b_i past index 1 at its full height and of one sign:
    # C(s) is as large as the heights allow.  At N = 126, bitlen(N+1) = 7
    # and the last sum, C(126 + lag), holds up to 124 such terms, above
    # 2^(h_a+h_b+6): h_a + h_b = 48 is the most that the 56-bit start slots
    # hold.  From 49 on, the first of them, b_2 or b_3, breaks the bound, and
    # its height extrapolated from there to order N + lag passes the cap:
    # the sums must be plain sums, which a bound one bit short would read
    # from the slots.  (56 and 57 were the bound of 64-bit slots.)
    n = 126
    a = [9, 1] + [2**h_a - 1] * (n - 1)
    b = [9, 1] + [sign * (2**h_b - 1)] * (n - 1)
    for lag, k in _SHAPES:
        assert _driven_sums(a, b, h_a, k, lag) == _plain_sums(a, b, k, lag)


def test_cross_sums_fall_back_from_a_seed_past_the_bound():
    # one seed pair, b_(lag+1) alone past the bound (20 + 40 + 7 + 1 > 56),
    # its extrapolated width past the cap, and every later b_i small: the
    # sums stay plain to the end, since packing the later pairs without
    # a_(lag+1)*b_(lag+1) would read every sum without its terms.  k = 3 at
    # lag one is the m=nu nu<=l row; lags zero and two take the same shape.
    n = 126
    a = [9, 1] + [2**20 - 1] * (n - 1)
    for lag in (0, 1, 2):
        b = [9, 1, 1][: lag + 1] + [2**40 - 1] + [-(2**10 - 1)] * (n - lag - 1)
        assert _driven_sums(a, b, 20, lag + 2, lag) == _plain_sums(a, b, lag + 2, lag)


@pytest.mark.parametrize("n", [32, 33, 126, 127])
def test_cross_sums_freeze_past_the_middle_order(n):
    # From the first stage with 2m > N + lag a pair enters R but not PA and
    # PB: it meets no later pair below order N + lag + 1.  When N + lag is
    # even the pair m = (N+lag)/2 still meets itself at order N + lag, in
    # the last sum read, so freezing from 2m >= N + lag would lose a_m*b_m
    # there; the four N and three lags give both parities.  Mixed signs,
    # heights 21 and 26 bits: packed throughout in the 56-bit start slots.
    rng = random.Random(n)
    a = [9, 1] + [rng.randint(-(2**20), 2**20) for _ in range(n - 1)]
    b = [9, 1] + [rng.randint(-(2**25), 2**25) for _ in range(n - 1)]
    for lag, k in _SHAPES:
        assert _driven_sums(a, b, 21, k, lag) == _plain_sums(a, b, k, lag)


def test_cross_sums_fall_back_past_the_middle_order():
    # b_100 alone past the bound, after the middle order of N = 127, and its
    # width extrapolated to order N + lag past the cap (29 + 250 + 69 > 320):
    # a stage past the middle still adds b_m*PA to R, so it checks the bound
    # first and the sums from there on are plain
    n = 127
    a = [9, 1] + [2**20 - 1] * (n - 1)
    b = [9, 1] + [-(2**10 - 1)] * (n - 1)
    b[100] = 2**250 - 1
    for lag, k in _SHAPES:
        assert _driven_sums(a, b, 20, k, lag) == _plain_sums(a, b, k, lag)


def test_cross_sums_match_plain_sums_on_drawn_sequences():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # Heights on both sides of the read bound (h_b may pass 56 - h_a -
    # bitlen(N+1) - 1), b heights that grow with the order by up to 300
    # bits, so that the slots widen once or more or pass the cap, mixed
    # signs or every value at full height, N of both parities, every lag
    # with its seeds, and one b_i that may spike past the bound at any
    # stage, before or after the middle order.
    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        h_a=st.integers(1, 24),
        h_b=st.integers(1, 45),
        growth=st.sampled_from((0, 0, 30, 100, 300)),
        n=st.integers(32, 160),
        shape=st.sampled_from(_SHAPES),
        full=st.booleans(),
        spike=st.tuples(st.floats(0, 1), st.integers(0, 64)),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(h_a, h_b, growth, n, shape, full, spike, seed):
        rng, (lag, k) = random.Random(seed), shape

        def draw(h):
            return rng.choice((-1, 1)) * (2**h - 1 if full else rng.randint(0, 2**h - 1))

        a = [9, 1] + [draw(h_a) for _ in range(n - 1)]
        b = [9, 1] + [draw(h_b + growth * i // n) for i in range(2, n + 1)]
        at, height = spike
        b[lag + 1 + int(at * (n - lag - 1))] = draw(height)
        assert _driven_sums(a, b, h_a, k, lag) == _plain_sums(a, b, k, lag)

    check()


# The three widening tests draw a of 20 bits and b of 10 bits, both at full
# height, with b stepping up to larger heights at given stages, b of one
# sign or of alternating signs: the re-slotted digits are then all of one
# sign or of both, and the late sums as large as their heights allow.
def _stepped(n, steps, sign):
    a = [9, 1] + [2**20 - 1] * (n - 1)
    b = [9, 1] + [(2**10 - 1) * sign**i for i in range(2, n + 1)]
    for at, h in steps:
        b[at:] = [(2**h - 1) * sign**i for i in range(at, n + 1)]
    return a, b


@pytest.mark.parametrize("n, at, wide", [(126, 40, 152), (127, 40, 152), (126, 100, 80), (127, 100, 80)])
@pytest.mark.parametrize("sign", [1, -1])
def test_cross_sums_widen_at_a_break(monkeypatch, n, at, wide, sign):
    # b steps from 10 to 40 bits at stage 40, before the middle order, or at
    # stage 100, after it: 20 + 40 + bitlen(N+1) + 1 > 56.  b_at has gained
    # 36 bits over b_0 = 9 in `at` orders, so the slots widen to
    # 20 + bitlen(N+1) + 1 + 40 + ceil(36*(N+lag-at)/at), rounded up to
    # bytes, and hold every later sum exactly, R, PA and PB re-slotted once
    # each.  These rows round to one width at every lag.
    a, b = _stepped(n, [(at, 40)], sign)
    for lag, k in _SHAPES:
        reslots = spy(monkeypatch, "_reslot", factor_module)
        assert _driven_sums(a, b, 20, k, lag) == _plain_sums(a, b, k, lag)
        assert _widths(reslots) == [wide] * 3


@pytest.mark.parametrize("sign", [1, -1])
def test_cross_sums_widen_twice(monkeypatch, sign):
    # 40 bits from stage 30 widen the slots to 29 + 40 + ceil(36*(97+lag)/30)
    # = 186 / 187 / 188 -> 192 bits at lags 0 / 1 / 2, which 180 bits from
    # stage 80 break again: 29 + 180 + ceil(176*(47+lag)/80) = 313 / 315 /
    # 317 rounds up to the cap, 320, which still packs.  32 bits from stage
    # 30 widen to 29 + 32 + ceil(28*(97+lag)/30) = 152 / 153 / 154 bits, and
    # 133 bits from stage 80 break them again: 29 + 133 +
    # ceil(129*(47+lag)/80) = 238 / 240 / 242.  In bytes, lag zero takes
    # 152 bits where order N + 1 would give 160, and lag two 248 where
    # N + 1 would give 240.
    cases = [
        ([(30, 40), (80, 180)], [[192] * 3 + [320] * 3] * 3),
        ([(30, 32), (80, 133)], [[first] * 3 + [then] * 3 for first, then in ((152, 240), (160, 240), (160, 248))]),
    ]
    for steps, by_lag in cases:
        a, b = _stepped(127, steps, sign)
        for lag, k in _SHAPES:
            reslots = spy(monkeypatch, "_reslot", factor_module)
            assert _driven_sums(a, b, 20, k, lag) == _plain_sums(a, b, k, lag)
            assert _widths(reslots) == by_lag[lag]


@pytest.mark.parametrize("sign", [1, -1])
def test_cross_sums_stay_plain_past_the_cap(monkeypatch, sign):
    # 60 bits from stage 20 extrapolate to 29 + 60 + ceil(56*(107+lag)/20)
    # >= 389 bits, past the cap: nothing is re-slotted and the sums from
    # stage 20 on are plain, also once b falls back to 10 bits at stage 40
    a, b = _stepped(127, [(20, 60), (40, 10)], sign)
    for lag, k in _SHAPES:
        reslots = spy(monkeypatch, "_reslot", factor_module)
        assert _driven_sums(a, b, 20, k, lag) == _plain_sums(a, b, k, lag)
        assert _widths(reslots) == []


@pytest.mark.parametrize("sign", [1, -1])
def test_cross_sums_widen_at_the_third_seed(monkeypatch, sign):
    # a of 40 bits and b of 10 at N = 32 and 33: every b_m breaks the
    # bound (40 + 10 + 6 + 1 > 56).  In the three-seed shape of the m=nu
    # nu<=l row, b_2 widens the empty product before the first read, to
    # 47 + 10 + ceil(6*(N-1)/2) = 150 / 153 -> 152 / 160 bits, as at lag
    # one with two seeds; at lag zero b_2 comes after the first read and
    # extrapolates to order N: 147 / 150 -> 152 bits.  Lag two pushes no
    # b_2: b_3 widens to 57 + ceil(6*(N-1)/3) = 119 / 121 -> 120 / 128
    # bits.  At N = 33 lags zero and two round otherwise than order N + 1
    # would (160 and 120).  The later pairs fit.
    for n, by_lag in ((32, [152, 152, 120]), (33, [152, 160, 128])):
        a = [9, 1] + [2**40 - 1] * (n - 1)
        b = [9, 1] + [(2**10 - 1) * sign**i for i in range(2, n + 1)]
        for lag, k in _SHAPES:
            reslots = spy(monkeypatch, "_reslot", factor_module)
            assert _driven_sums(a, b, 40, k, lag) == _plain_sums(a, b, k, lag)
            assert _widths(reslots) == [by_lag[lag]] * 3


@pytest.mark.parametrize("w, wide", [(8, 16), (56, 64), (64, 72)])
def test_reslot_keeps_a_half_slot_in_the_high_slot(w, wide):
    # 2^(2w-1) - 1 = -1 + 2^(w-1) * 2^w: its low slot is -1 and its high
    # slot exactly 2^(w-1), where the bias carries one slot further up.
    # The second spare slot holds that carry; with one, the biased value
    # would not fit its bytes.
    v = factor_module._reslot(2 ** (2 * w - 1) - 1, w, wide)
    assert v % 2**wide == 2**wide - 1


def test_large_p_rows_keep_their_pairs():
    digest, rules = _pinned(large_p_sweep())
    assert rules.keys() == {"S3.2m-lt-n", "S3.disc-square", "S3.beta0-reducible", "coprime constant"}
    assert digest == "47838806eadeb6117a08502057449418cdb539d1affb8b876b29ab88752bc359", TRACE


def test_packed_orders_keep_their_pairs_at_every_lag():
    digest, lags = _pinned(packed_orders_sweep())
    assert lags == {0: 48, 1: 30, 2: 18}
    assert digest == "2037830be8c77aec1fa4ca4ec4a986d04dec974d4807346a838e9a8207e84eba", TRACE


def test_pair_diff_replays_every_pinned_line(capsys):
    # tools/pair_diff.py's worker, in process, with the high orders cut to
    # one: a line per sweep line (2,000 + 6,000 + 180 + 616 + 96) and per
    # lifting-table row of that order (coprime, m = nu with nu > l, and
    # the five lag-one rows), none of them an error.
    runpy.run_path(str(Path(__file__).parents[1] / "tools" / "pair_diff.py"))["worker"]([20])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    sweeps = Counter(rec["key"][0] for rec in records)
    assert sweeps == {"rows": 2000, "engines": 6000, "lag one": 180, "large p": 616, "packed orders": 96, "high orders": 7}
    assert all(rec["digest"] for rec in records)
