import hashlib
import random
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
from zxfactor.padics import _square_class, is_square_zp
from zxfactor.series import TruncSeries

RNG_SEED = 42


def check_pair(q: QuadInput, pair, n: int) -> None:
    report = verify_factorization(q.head_series(n), *pair)
    assert report.passed, report
    a, b = pair
    # seed identity: the head coefficients are reproduced exactly
    assert a.coeffs[0] * b.coeffs[0] == q.p**q.n
    assert abs(a.coeffs[0]) >= 2 and abs(b.coeffs[0]) >= 2


def test_unit_step_examples():
    # a_N = r * c^-1 mod the modulus, and the exact quotient (r - c*a_N) / modulus
    assert factor_module._step(5, 3, factor_module._unit_inverse(5, 3), 0) == (0, 0)
    assert factor_module._step(5, -4, factor_module._unit_inverse(5, -4), -2) == (3, 2)
    assert factor_module._step(3, 1, factor_module._unit_inverse(3, 1), -3) == (0, -1)


def test_unit_inverse_rejects_non_unit():
    with pytest.raises(EngineInvariantError):
        factor_module._unit_inverse(9, 3)


def test_engine_check_fires_on_a_wrong_step(monkeypatch):
    # the third stage of the lag-one core solves a_4; one more than the
    # canonical a_4 leaves order 5 of the product off its target
    stages = []
    step = factor_module._step

    def off_by_one(*args):
        a_n, s_next = step(*args)
        stages.append(a_n)
        return (a_n + 1 if len(stages) == 3 else a_n), s_next

    monkeypatch.setattr(factor_module, "_step", off_by_one)
    message = "simple root: first nonzero residual at product order 5;"
    with pytest.raises(EngineInvariantError, match=message):
        factor_simple_root(QuadInput(3, 5, 2, 2, 1), 16)
    assert len(stages) == 15


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
        (factor_simple_root, QuadInput(5, 4, 1, 3, 7), 256, "falls back late"),
        (factor_tail, QuadInput(7, 2, 1, 24, -52, (147, 0, 0)), 64, "falls back"),
        (factor_p2_m_eq_nu1, QuadInput(2, 2, 2, 3, -519), 64, "falls back"),
        (factor_simple_root, QuadInput(5, 4, 1, 3, 7), 31, "plain sums"),
        (factor_simple_root, QuadInput(5, 4, 1, 3, 7), 32, "packed throughout"),
        (factor_p2_scaled, QuadInput(2, 2, 4, 3, 7), 32, "packed throughout"),
        (factor_simple_root, QuadInput(2**61 - 1, 4, 1, 3, 7), 64, "never packs"),
    ],
)
def test_running_product_gives_the_plain_sum_pair(monkeypatch, engine, q, order, regime):
    pair = engine(q, order)
    # The regime, read from the pair: the lift packs each pair while
    # h_a + bits(b_m) + bitlen(N+1) + 1 fits the slots.  The h_a here, the
    # height of a_0 and a_2, a_3, ..., is at most the lift's (that of
    # A*a_0): equal for A = 1, so a fallback found here is one the lift
    # takes, and the packed p = 2 case (A = 2) needs 19 of the 64 bits.
    a, b = (s.coeffs for s in pair)
    w = factor_module._RUNNING_BITS
    fixed = max(map(int.bit_length, [a[0], *a[2:]])) + (order + 1).bit_length() + 1
    first = next((m for m in range(2, order + 1) if fixed + b[m].bit_length() > w), None)
    holds = {
        "plain sums": order < factor_module._RUNNING_MIN_ORDER,
        "packed throughout": first is None,
        "falls back": first is not None and fixed <= w,
        "falls back late": first is not None and first > order // 2,
        "never packs": fixed > w,
    }
    assert holds[regime], (fixed, first)
    monkeypatch.setattr(factor_module, "_RUNNING_MIN_ORDER", order + 1)
    assert engine(q, order) == pair


def _driven_sums(a_all, b_all, h_a, k):
    """The sums _cross_sums yields over the stages k..n (n = len(a_all) - 1)
    from the seeds a_0..a_(k-1) and b_0..b_(k-1), when the lists grow as in
    a lift, each stage appending a_m and b_m after its read."""
    n = len(a_all) - 1
    a, b = a_all[:k], b_all[:k]
    sums = _cross_sums(a, b, h_a, n)
    out = []
    for m in range(k, n + 1):
        out.append(next(sums))
        a.append(a_all[m])
        b.append(b_all[m])
    return out


def _plain_sums(a, b, k):
    return [sum(map(mul, a[2:m], b[m - 1 : 1 : -1])) for m in range(k, len(a))]


@pytest.mark.parametrize("h_a, h_b", [(10, 15), (20, 20), (3, 40), (40, 72), (20, 36), (20, 37), (3, 53), (3, 54)])
@pytest.mark.parametrize("sign", [1, -1])
def test_cross_sums_stay_exact_at_the_width_bound(h_a, h_b, sign):
    # every a_j and b_i at its full height and of one sign: C(s) = (s-3) *
    # (2^h_a - 1) * (2^h_b - 1) is as large as the heights allow.  At
    # N = 126, bitlen(N+1) = 7 and the last sum, C(127), holds 124 terms,
    # above 2^(h_a+h_b+6): h_a + h_b = 56 is the most that 64-bit slots
    # hold, and 57 must fall back to plain sums, which a bound one bit
    # short would read from the slots.  Two seeds, and three as in the
    # m=nu nu<=l row, whose seed pair a_2, b_2 is pushed before the first
    # read.
    n = 126
    a = [9, 1] + [2**h_a - 1] * (n - 1)
    b = [9, 1] + [sign * (2**h_b - 1)] * (n - 1)
    for k in (2, 3):
        assert _driven_sums(a, b, h_a, k) == _plain_sums(a, b, k)


def test_cross_sums_fall_back_from_a_seed_past_the_bound():
    # three seeds, b_2 alone past the bound (20 + 40 + 7 + 1 > 64) and every
    # later b_i small: the sums stay plain to the end, since packing the
    # later pairs without a_2*b_2 would read every sum without its terms
    n = 126
    a = [9, 1] + [2**20 - 1] * (n - 1)
    b = [9, 1, 2**40 - 1] + [-(2**10 - 1)] * (n - 2)
    assert _driven_sums(a, b, 20, 3) == _plain_sums(a, b, 3)


@pytest.mark.parametrize("n", [32, 33, 126, 127])
def test_cross_sums_freeze_past_the_middle_order(n):
    # From the first stage with 2m > N + 1 a pair enters R but not PA and
    # PB: it meets no later pair below order N + 2.  At odd N the pair
    # m = (N+1)/2 still meets itself at order N + 1, in the last sum read,
    # so freezing from 2m > N would lose a_m*b_m there.  Mixed signs, heights
    # 21 and 31 bits: packed throughout.
    rng = random.Random(n)
    a = [9, 1] + [rng.randint(-(2**20), 2**20) for _ in range(n - 1)]
    b = [9, 1] + [rng.randint(-(2**30), 2**30) for _ in range(n - 1)]
    for k in (2, 3):
        assert _driven_sums(a, b, 21, k) == _plain_sums(a, b, k)


def test_cross_sums_fall_back_past_the_middle_order():
    # b_100 alone past the bound (20 + 50 + 8 + 1 > 64), after the middle
    # order of N = 127: a stage past the middle still adds b_m*PA to R, so
    # it checks the bound first and the sums from there on are plain
    n = 127
    a = [9, 1] + [2**20 - 1] * (n - 1)
    b = [9, 1] + [-(2**10 - 1)] * (n - 1)
    b[100] = 2**50 - 1
    for k in (2, 3):
        assert _driven_sums(a, b, 20, k) == _plain_sums(a, b, k)


def test_cross_sums_match_plain_sums_on_drawn_sequences():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # Heights on both sides of the read bound (h_b may pass 64 - h_a -
    # bitlen(N+1) - 1), mixed signs or every value at full height, N of both
    # parities, two or three seeds, and one b_i that may spike past the
    # bound at any stage, before or after the middle order.
    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        h_a=st.integers(1, 24),
        h_b=st.integers(1, 45),
        n=st.integers(32, 160),
        k=st.sampled_from((2, 3)),
        full=st.booleans(),
        spike=st.tuples(st.floats(0, 1), st.integers(0, 64)),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(h_a, h_b, n, k, full, spike, seed):
        rng = random.Random(seed)

        def draw(h):
            return rng.choice((-1, 1)) * (2**h - 1 if full else rng.randint(0, 2**h - 1))

        a = [9, 1] + [draw(h_a) for _ in range(n - 1)]
        b = [9, 1] + [draw(h_b) for _ in range(n - 1)]
        at, height = spike
        b[2 + int(at * (n - 2))] = draw(height)
        assert _driven_sums(a, b, h_a, k) == _plain_sums(a, b, k)

    check()
