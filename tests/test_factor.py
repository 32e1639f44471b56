import contextlib
import hashlib
import random
from math import gcd, isqrt
from operator import mul

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
from zxfactor.oracle import verify_factorization
from zxfactor.padics import _square_class, _valuation, is_square_zp
from zxfactor.series import TruncSeries

from oracles import canonical_simple_root_pair, trial_division_is_prime

RNG_SEED = 42


def check_pair(q: QuadInput, pair, n: int) -> None:
    report = verify_factorization(q.head_series(n), *pair)
    assert report.passed, report
    a, b = pair
    # seed identity: the head coefficients are reproduced exactly
    assert a.coeffs[0] * b.coeffs[0] == q.p**q.n
    assert abs(a.coeffs[0]) >= 2 and abs(b.coeffs[0]) >= 2


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


def test_2m_lt_n_walkthrough():
    q = QuadInput(5, 3, 1, 1, 1)
    a, b = factor_simple_root(q, 2)
    assert a.coeffs == (5, 1, 4)
    assert b.coeffs == (25, -4, -19)
    check_pair(q, (a, b), 2)


def test_2m_lt_n_deeper():
    for q in (QuadInput(2, 3, 1, 1, 1), QuadInput(3, 5, 2, 2, 1)):
        n = 16
        pair = factor_simple_root(q, n)
        check_pair(q, pair, n)


def test_2m_lt_n_with_tail():
    q = QuadInput(5, 3, 1, 1, 1, tail=(7, -2, 0, 11))
    pair = factor_simple_root(q, 10)
    check_pair(q, pair, 10)


def test_m_gt_nu_degenerate_polynomial():
    q = QuadInput(3, 2, 2, 1, 2)
    a, b = factor_simple_root(q, 4)
    assert a.coeffs[:2] == (3, 1) and b.coeffs[:2] == (3, 2)
    assert set(a.coeffs[2:]) == {0} and set(b.coeffs[2:]) == {0}


def test_m_gt_nu_walkthrough():
    q = QuadInput(3, 2, 2, 1, 11)
    a, b = factor_simple_root(q, 3)
    assert a.coeffs == (3, 1, 0, 1)
    assert b.coeffs == (3, 2, 3, -2)
    check_pair(q, (a, b), 3)


def test_m_gt_nu_deeper():
    # disc = 7^4 * 37 with 37 = 2 a residue mod 7, so this is reducible
    q = QuadInput(7, 4, 3, 1, 3)
    assert is_square_zp(7**6 - 4 * 3 * 7**4, 7).is_square
    pair = factor_simple_root(q, 16)
    check_pair(q, pair, 16)


def test_m_eq_nu_degenerate():
    q = QuadInput(7, 2, 1, 3, 2)
    a, b = factor_m_eq_nu(q, 3)
    assert a.coeffs == (7, 1, 0, 0) and b.coeffs == (7, 2, 0, 0)


def test_m_eq_nu_certificate_case():
    q = QuadInput(7, 2, 1, 3, 51)
    pair = factor_m_eq_nu(q, 32)
    check_pair(q, pair, 32)
    # the seed is the smallest root of y^2 - 3y + 51 mod 7^3, with g(50) = 7^4
    assert pair[0].coeffs[:3] == (7, 50, 0)


def test_m_eq_nu_rejects_nonsquare_disc():
    # beta^2 - 4*alpha = 8 = 3 mod 5 is a non-residue: the engine must refuse
    with pytest.raises(ValueError):
        factor_m_eq_nu(QuadInput(5, 2, 1, 2, -1), 8)


def test_m_eq_nu_scaled_subcases():
    # nu > l >= 1
    q = QuadInput(3, 4, 2, 1, -29)  # disc 117 = 9 * 13, 13 a residue mod 3
    check_pair(q, factor_m_eq_nu(q, 24), 24)
    q = QuadInput(3, 6, 3, 1, -29)  # nu = 3 > l = 1
    check_pair(q, factor_m_eq_nu(q, 24), 24)
    # nu <= l
    q = QuadInput(3, 2, 1, 1, -29)  # l = 1 >= nu = 1
    check_pair(q, factor_m_eq_nu(q, 24), 24)
    q = QuadInput(3, 2, 1, 1, -263)  # disc 1053 = 81 * 13: l = 2 > nu = 1
    a, b = factor_m_eq_nu(q, 24)
    assert a.coeffs[:6] == (3, 32, 864, 54, 54, 0)
    assert b.coeffs[:6] == (3, -31, -621, 15498, 14040, -4601448)
    check_pair(q, (a, b), 24)


def test_beta_zero_difference_of_squares():
    q = QuadInput(5, 2, None, None, -1)
    a, b = factor_simple_root(q, 4)
    assert a.coeffs[:2] == (5, -1) and b.coeffs[:2] == (5, 1)


def test_beta_zero_walkthrough():
    q = QuadInput(5, 2, None, None, 1)
    a, b = factor_simple_root(q, 3)
    assert a.coeffs == (5, 2, 3, 2)
    assert b.coeffs == (5, -2, -2, 0)
    check_pair(q, (a, b), 3)


def test_beta_zero_p2():
    q = QuadInput(2, 4, None, None, 7)  # -7 = 1 mod 8
    pair = factor_p2_scaled(q, 16)
    check_pair(q, pair, 16)


def test_beta_zero_rejects_nonresidue():
    with pytest.raises(ValueError):
        factor_simple_root(QuadInput(3, 2, None, None, 1), 8)  # -1 = 2 mod 3


def test_p2_m_gt_nu1_shortcut_matches_expansion():
    q = QuadInput(2, 2, 3, 1, 3)  # 4 + 8x + 3x^2 = (2 + x)(2 + 3x)
    a, b = factor_p2_scaled(q, 8)
    assert a.coeffs[:2] == (2, 1) and b.coeffs[:2] == (2, 3)
    check_pair(q, (a, b), 8)


def test_p2_m_gt_nu1_both_mod8_branches():
    q = QuadInput(2, 2, 4, 1, 7)  # gap >= 2 needs alpha = 7 mod 8
    check_pair(q, factor_p2_scaled(q, 16), 16)
    q = QuadInput(2, 4, 4, 3, 3)  # gap = 1 needs alpha = 3 mod 8
    check_pair(q, factor_p2_scaled(q, 16), 16)


def test_p2_m_gt_nu1_rejects_wrong_residue():
    with pytest.raises(ValueError):
        factor_p2_scaled(QuadInput(2, 2, 4, 1, 3), 8)


def test_p2_m_eq_nu1_degenerate():
    q = QuadInput(2, 2, 2, 1, -3)  # (2 + 3x)(2 - x) up to ordering
    a, b = factor_p2_m_eq_nu1(q, 8)
    assert {(a.coeffs[0], a.coeffs[1]), (b.coeffs[0], b.coeffs[1])} == {(2, -1), (2, 3)}
    check_pair(q, (a, b), 8)


def test_p2_m_eq_nu1_perfect_square_core():
    q = QuadInput(2, 4, 3, 3, -7)  # beta^2 - alpha = 16
    pair = factor_p2_m_eq_nu1(q, 16)
    check_pair(q, pair, 16)


def test_p2_m_eq_nu1_nondegenerate():
    q = QuadInput(2, 2, 2, 1, -67)  # beta^2 - alpha = 68 = 4 * 17
    pair = factor_p2_m_eq_nu1(q, 24)
    check_pair(q, pair, 24)


def test_p2_m_eq_nu1_rejects_odd_valuation():
    # beta^2 - alpha = 8 = 2^3: no 2^(2l) * (1 mod 8) shape
    with pytest.raises(ValueError):
        factor_p2_m_eq_nu1(QuadInput(2, 2, 2, 3, 1), 8)


def test_coprime_constant_walkthrough():
    f = TruncSeries((6, 2, 1))
    a, b = factor_coprime_constant(f, 2, 3, 2)
    assert a.coeffs == (2, 0, 1)
    assert b.coeffs == (3, 1, -1)


def test_coprime_constant_more():
    a, b = factor_coprime_constant(TruncSeries((15, 0, 0)), 3, 5, 2)
    assert a.coeffs == (3, 0, 0) and b.coeffs == (5, 0, 0)
    f = TruncSeries((10, 1, 0, 0, 0))
    pair = factor_coprime_constant(f, 2, 5, 4)
    assert verify_factorization(f, *pair).passed


def test_coprime_constant_rejects_bad_split():
    with pytest.raises(ValueError):
        factor_coprime_constant(TruncSeries((12, 0)), 2, 6, 1)
    # a unit part would make its factor a unit
    for u, v in ((1, 12), (-1, -12), (12, 1)):
        with pytest.raises(ValueError, match="both parts of size at least 2"):
            factor_coprime_constant(TruncSeries((12, 0)), u, v, 1)


def test_tail_engine_walkthrough():
    q = QuadInput(3, 2, 1, 1, -2, tail=(9, 0, 0))
    a, b = factor_tail(q, 5)
    assert a.coeffs[:3] == (3, 29, 6)
    assert b.coeffs[:3] == (3, -28, 264)
    assert verify_factorization(q.head_series(5), a, b).passed


def test_tail_engine_rejects_underdivisible_tail():
    with pytest.raises(ValueError, match="not divisible"):
        factor_tail(QuadInput(3, 2, 1, 1, -2, tail=(3, 0)), 4)


def test_tail_engine_deeper():
    # p = 5: beta = 1, alpha = -6 gives beta^2 - 4*alpha = 25 = 5^2 * 1
    q = QuadInput(5, 2, 1, 1, -6, tail=(25,) + (0,) * 5)
    pair = factor_tail(q, 8)
    assert verify_factorization(q.head_series(8), *pair).passed


def test_simple_root_tail():
    q = QuadInput(7, 2, 1, 3, 2, tail=(7,) + (0,) * 5)
    pair = factor_simple_root(q, 8)
    assert verify_factorization(q.head_series(8), *pair).passed


def test_simple_root_tail_rejects_double_roots():
    with pytest.raises(ValueError, match="simple root"):
        factor_simple_root(QuadInput(3, 2, 1, 1, -2, tail=(0, 0)), 4)
    with pytest.raises(ValueError, match="simple root"):
        factor_simple_root(QuadInput(5, 4, 2, 2, 1, tail=(0, 0)), 4)


def test_refuses_to_factor_beyond_input_order():
    # a QuadInput's tail is exact (zero beyond its length), so the tail
    # engines factor through any order against the input's head series
    q = QuadInput(3, 2, 1, 1, -2, tail=(9,))
    assert verify_factorization(q.head_series(5), *factor_tail(q, 5)).passed
    q = QuadInput(7, 2, 1, 3, 2)
    assert verify_factorization(q.head_series(5), *factor_simple_root(q, 5)).passed
    # a truncated series is known only through its order
    with pytest.raises(ValueError, match="refused"):
        factor_coprime_constant(TruncSeries((6, 2, 1)), 2, 3, 3)


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
    check_pair(q, engine(q, 2), 2)
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
        check_pair(q, first, 40)


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
        check_pair(q, engine(q, 24), 24)
        done += 1


#: the rows whose pairs factor_simple_root and factor_p2_scaled lift from a seed root
SEED_ROOT_ROWS = {
    "S3.2m-lt-n", "S4.2m-lt-n", "S3.disc-square", "S4.disc-square", "S3.beta0-reducible",
    "S4.beta0-reducible", "S5.2m-lt-n", "S5.2m-gt-n-even-qr", "S5.simple-root",
}


def _rows_sweep():
    """(sha256 over every answer, rules seen) for 2,000 seeded inputs:
    tail-free quadratics at order 8 and series with a nonzero or an
    all-zero tail through order 8, m drawn near n/2 so that every row,
    the integer-root heads among them, comes up."""
    rng = random.Random(2024)
    lines, rules = [], set()
    for _ in range(2000):
        p = rng.choice((2, 3, 5, 7))
        n = rng.randint(2, 6)
        m = beta = None
        if rng.random() >= 0.2:
            m = rng.choice((n // 2 or 1, n // 2 + 1, n // 2 + 2, rng.randint(1, 5)))
            beta = rng.choice([b for b in range(-9, 10) if b % p])
        alpha = rng.choice([a for a in range(-20, 21) if a % p])
        zeros, digits = (0,) * rng.randint(1, 4), tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 4)))
        tail = rng.choice(((), zeros, digits))
        if tail:
            f1 = 0 if beta is None else p**m * beta
            v = classify_general(TruncSeries((p**n, f1, alpha) + tail + (0,) * (6 - len(tail))))
        else:
            v = classify_quadratic(QuadInput(p, n, m, beta, alpha), terms=8)
        rules.add(v.rule)
        pair = None if v.factors is None else tuple(s.coeffs for s in v.factors)
        lines.append(repr((p, n, m, beta, alpha, tail, v.kind.value, v.rule, pair)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), rules


def test_simple_root_rows_keep_their_pairs():
    # n = 2m: the pair comes from the recurrence although 5y^2 + 15y + 10
    # has the integer roots -1 and -2
    v = classify_general(TruncSeries((25, -15, 2, 0, 0, 0)))
    assert v.rule == "S5.simple-root"
    assert v.factors[0].coeffs == (5, 3, 3, 3, 3, 3)
    assert v.factors[1].coeffs == (5, -6, 1, 0, 0, 0)
    digest, rules = _rows_sweep()
    assert rules >= SEED_ROOT_ROWS
    assert digest == "b344e0fd9bdb2aec6da8c1bc7009b7e273c6dfef58e4c9a2c57732b5040bf68b"


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


def _engines_sweep():
    """(sha256 over every outcome, outcomes seen) for 6,000 seeded calls of
    the three engines that test a discriminant themselves: factor_m_eq_nu,
    factor_p2_m_eq_nu1 and factor_tail, a third each.  Half the inputs aim
    the discriminant at p^(2l) times a unit, so that every check fails on
    some of them and the rest split; an outcome is the pair or the class
    of the error raised."""
    rng = random.Random(14)
    lines, seen = [], set()
    engines = (factor_m_eq_nu, factor_p2_m_eq_nu1, factor_tail)
    for i in range(6000):
        kind = i % 3
        p = (rng.choice((3, 5, 7, 11, 13)), 2, rng.choice((2, 3, 5, 7)))[kind]
        nu = 1 if kind == 2 else rng.randint(1, 4)
        beta = rng.choice([b for b in range(-60, 61) if b % p])
        alpha = rng.choice([a for a in range(-300, 301) if a % p])
        if rng.random() < 0.5:
            ell = 1 if kind == 2 else rng.randint(0, 3)
            w = rng.choice([c for c in range(-40, 41) if c % p])
            core = beta * beta - p ** (2 * ell + rng.choice((0, 0, 1))) * w
            a = core if kind == 1 else core // 4 if core % 4 == 0 else 0
            alpha = a if a % p else alpha
        tail = ()
        if kind == 2 and rng.random() < 0.7:
            tail = tuple(rng.randint(-4, 4) * rng.choice((p * p,) * 9 + (1,)) for _ in range(rng.randint(1, 4)))
        order = rng.randint(2, 12)
        q = QuadInput(p, 2 * nu, nu + 1 if kind == 1 else nu, beta, alpha, tail)
        try:
            outcome = tuple(s.coeffs for s in engines[kind](q, order))
        except (ValueError, EngineInvariantError) as e:
            outcome = type(e).__name__
        seen.add((kind, outcome if isinstance(outcome, str) else "pair"))
        lines.append(repr((q, order, outcome)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), seen


def test_discriminant_engines_keep_their_pairs():
    digest, seen = _engines_sweep()
    assert seen == {(kind, outcome) for kind in range(3) for outcome in ("pair", "ValueError")}
    assert digest == "095f6ce8af1632b62b4962f940ead62586efddf631aef32be6a35ad8a7deb1ca"



def _lag_one_sweep():
    """(sha256 over every pair, rows that split) for seeded calls of the five
    lag-one rows at orders around the running product's minimum order and
    up to 256: factor_simple_root (tails included), factor_p2_scaled,
    factor_p2_m_eq_nu1, factor_m_eq_nu with nu <= l and factor_tail.  Each
    row draws inputs until six of them split at each order; the heights
    range from a few bits, which stay packed, to hundreds, which fall back
    to plain sums."""
    rng = random.Random(18)

    def unit(p, bound):
        return rng.choice([x for x in range(-bound, bound + 1) if x % p])

    def simple_root():
        p, n = rng.choice((3, 5, 7)), rng.randint(2, 5)
        if rng.random() < 0.2:
            return QuadInput(p, 2 * (n // 2), None, None, unit(p, 40))
        tail = tuple(rng.randint(-20, 20) for _ in range(rng.randint(0, 3)))
        return QuadInput(p, n, rng.randint(1, 3), unit(p, 20), unit(p, 40), tail)

    def p2_scaled():
        nu = rng.randint(1, 2)
        if rng.random() < 0.3:
            return QuadInput(2, 2 * nu, None, None, 8 * rng.randint(-5, 5) - 1)
        return QuadInput(2, 2 * nu, nu + rng.randint(2, 3), unit(2, 11), 8 * rng.randint(-5, 5) + rng.choice((3, 7)))

    def p2_m_eq_nu1():
        nu, beta = rng.randint(1, 2), unit(2, 11)
        return QuadInput(2, 2 * nu, nu + 1, beta, beta * beta - 4 ** rng.randint(1, 3) * (8 * rng.randint(-4, 4) + 1))

    def discriminant_p2l(p, ell):
        """beta, alpha with beta^2 - 4*alpha = p^(2*ell) * w for a unit w."""
        while True:
            beta = unit(p, 30)
            alpha, rem = divmod(beta * beta - p ** (2 * ell) * unit(p, 40), 4)
            if rem == 0 and alpha % p:
                return beta, alpha

    def m_eq_nu_small_nu():
        p, nu = rng.choice((3, 5, 7)), rng.randint(1, 2)
        return QuadInput(p, 2 * nu, nu, *discriminant_p2l(p, rng.randint(nu, 2)))

    def tail():
        p = rng.choice((3, 5, 7))
        tail = tuple(p * p * rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
        return QuadInput(p, 2, 1, *discriminant_p2l(p, 1), tail)

    rows = {
        factor_simple_root: simple_root,
        factor_p2_scaled: p2_scaled,
        factor_p2_m_eq_nu1: p2_m_eq_nu1,
        factor_m_eq_nu: m_eq_nu_small_nu,
        factor_tail: tail,
    }
    lines, split = [], set()
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
                split.add(engine.__name__)
                lines.append(repr((q, order, pair)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), split


def test_lag_one_rows_keep_their_pairs():
    digest, split = _lag_one_sweep()
    assert split == {"factor_simple_root", "factor_p2_scaled", "factor_p2_m_eq_nu1", "factor_m_eq_nu", "factor_tail"}
    assert digest == "711e299c485fcb7ab2f7cafd26c014bb28374a4cf2384ae405421615fb780976"


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
    widths = _widths(monkeypatch)
    pair = engine(q, order)
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


def _widths(monkeypatch):
    """The list of the widths _cross_sums widens to, filled as it runs: one
    entry per integer re-slotted, three (R, PA and PB) per widening."""
    widths = []
    reslot = factor_module._reslot

    def spy(v, w, wide):
        widths.append(wide)
        return reslot(v, w, wide)

    monkeypatch.setattr(factor_module, "_reslot", spy)
    return widths


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
        widths = _widths(monkeypatch)
        assert _driven_sums(a, b, 20, k, lag) == _plain_sums(a, b, k, lag)
        assert widths == [wide] * 3


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
            widths = _widths(monkeypatch)
            assert _driven_sums(a, b, 20, k, lag) == _plain_sums(a, b, k, lag)
            assert widths == by_lag[lag]


@pytest.mark.parametrize("sign", [1, -1])
def test_cross_sums_stay_plain_past_the_cap(monkeypatch, sign):
    # 60 bits from stage 20 extrapolate to 29 + 60 + ceil(56*(107+lag)/20)
    # >= 389 bits, past the cap: nothing is re-slotted and the sums from
    # stage 20 on are plain, also once b falls back to 10 bits at stage 40
    a, b = _stepped(127, [(20, 60), (40, 10)], sign)
    for lag, k in _SHAPES:
        widths = _widths(monkeypatch)
        assert _driven_sums(a, b, 20, k, lag) == _plain_sums(a, b, k, lag)
        assert widths == []


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
            widths = _widths(monkeypatch)
            assert _driven_sums(a, b, 40, k, lag) == _plain_sums(a, b, k, lag)
            assert widths == [by_lag[lag]] * 3


@pytest.mark.parametrize("w, wide", [(8, 16), (56, 64), (64, 72)])
def test_reslot_keeps_a_half_slot_in_the_high_slot(w, wide):
    # 2^(2w-1) - 1 = -1 + 2^(w-1) * 2^w: its low slot is -1 and its high
    # slot exactly 2^(w-1), where the bias carries one slot further up.
    # The second spare slot holds that carry; with one, the biased value
    # would not fit its bytes.
    v = factor_module._reslot(2 ** (2 * w - 1) - 1, w, wide)
    assert v % 2**wide == 2**wide - 1


def _large_p_sweep():
    """(sha256 over every pair, rules seen) for seeded large-p answers:
    classify_quadratic(..., attach_factors=True) on every large-p row at
    each order 2..15 (m > nu, 2m < n, beta = 0, and m = nu with a
    discriminant that is a nonzero residue, which lifts at lag two), for
    primes drawn from [10^4, 3*10^5] and the primes 2^31 - 1 and 2^61 - 1;
    then factor_coprime_constant at each order 2..15."""
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

    def residue(x, p):
        return pow(x % p, (p - 1) // 2, p) == 1

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

    lines, rules = [], set()
    for order in range(2, 16):
        for row in range(4):
            for _ in range(10):
                q = draw(row, prime())
                v = classify_quadratic(q, terms=order, attach_factors=True)
                rules.add(v.rule)
                lines.append(repr((row, q, order, v.rule, tuple(s.coeffs for s in v.factors))))
        for _ in range(4):
            u, v = rng.choice((2, 3, 5, 7, 10**4 + 7)), rng.choice((11, 13, 2**31 - 1))
            tail = tuple(rng.randint(-(10**6), 10**6) for _ in range(order))
            pair = factor_coprime_constant(TruncSeries((u * v,) + tail), u, v, order)
            lines.append(repr((u, v, order, tuple(s.coeffs for s in pair))))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), rules


def test_large_p_rows_keep_their_pairs():
    digest, rules = _large_p_sweep()
    assert rules == {"S3.2m-lt-n", "S3.disc-square", "S3.beta0-reducible"}
    assert digest == "47838806eadeb6117a08502057449418cdb539d1affb8b876b29ab88752bc359"


def _packed_orders_sweep():
    """(sha256 over every pair, lines per lag) for seeded pairs at the packed
    orders 16, 17, 31, 64, 129 and 256: per order, the coprime split with
    u in {2, 9, 10007, 2^31 - 1} and v of both signs (lag zero),
    factor_m_eq_nu with nu > l at p in {3, 7, 2^31 - 1} (lag two), and one
    pair of each lag-one row."""
    rng = random.Random(31)

    def unit(p, bound):
        return rng.choice([x for x in range(-bound, bound + 1) if x % p])

    def residue(x, p):
        return x % p and pow(x % p, (p - 1) // 2, p) == 1

    def m_eq_nu_wide_nu(p):
        nu = 1 if p > 7 else 2
        ell = 1 if p == 3 else rng.randint(0, nu - 1)  # mod 3, w = beta^2 would make alpha = 0
        while True:  # beta^2 - 4*alpha = p^(2l)*w, w a unit square mod p but not in Z
            beta, w = rng.randrange(1, min(p, 60)), rng.randrange(2, 10**4)
            alpha, rem = divmod(beta * beta - p ** (2 * ell) * w, 4)
            if not rem and alpha % p and residue(w, p) and isqrt(w) ** 2 != w:
                return QuadInput(p, 2 * nu, nu, beta, alpha)

    def discriminant_p2l(p, ell):
        while True:
            beta = unit(p, 30)
            alpha, rem = divmod(beta * beta - p ** (2 * ell) * unit(p, 40), 4)
            if rem == 0 and alpha % p:
                return beta, alpha

    def simple_root():
        p = rng.choice((3, 5, 7))
        return QuadInput(p, 3, 1, unit(p, 20), unit(p, 40), (rng.randint(-9, 9),))

    lag_one = {
        factor_simple_root: simple_root,
        factor_p2_scaled: lambda: QuadInput(2, 2, 4, unit(2, 11), 8 * rng.randint(-5, 5) + 7),
        factor_p2_m_eq_nu1: lambda: QuadInput(2, 2, 2, 3, 9 - 4 ** rng.randint(1, 3) * (8 * rng.randint(1, 4) + 1)),
        factor_m_eq_nu: lambda: QuadInput(5, 2, 1, *discriminant_p2l(5, 2)),
        factor_tail: lambda: QuadInput(7, 2, 1, *discriminant_p2l(7, 1), (49 * rng.randint(-3, 3),)),
    }

    def line(*key_and_pair):  # hex, not repr: the lag-two pairs pass 4,300 digits
        *key, pair = key_and_pair
        return repr(key) + "|".join(",".join(map(hex, s.coeffs)) for s in pair)

    lines, lags = [], {0: 0, 1: 0, 2: 0}
    for order in (16, 17, 31, 64, 129, 256):
        for u in (2, 9, 10007, 2**31 - 1):
            for sign in (1, -1):
                v = sign * next(v for v in iter(lambda: rng.randrange(3, 10**6), 0) if gcd(u, v) == 1)
                f = TruncSeries([u * v] + [rng.randint(-(10**6), 10**6) for _ in range(order)])
                lines.append(line(u, v, order, factor_coprime_constant(f, u, v, order)))
                lags[0] += 1
        for p in (3, 7, 2**31 - 1):
            q = m_eq_nu_wide_nu(p)
            lines.append(line(q, order, factor_m_eq_nu(q, order)))
            lags[2] += 1
        for engine, draw in lag_one.items():
            while True:
                try:
                    q = draw()
                    pair = engine(q, order)
                except ValueError:
                    continue
                lines.append(line(q, order, pair))
                lags[1] += 1
                break
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), lags


def test_packed_orders_keep_their_pairs_at_every_lag():
    digest, lags = _packed_orders_sweep()
    assert lags == {0: 48, 1: 30, 2: 18}
    assert digest == "2037830be8c77aec1fa4ca4ec4a986d04dec974d4807346a838e9a8207e84eba"
