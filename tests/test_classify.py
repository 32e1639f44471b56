import random
import time

import pytest

from zxfactor.classify import (
    QuadInput,
    RULE_INFO,
    VerdictKind,
    classify_general,
    classify_quadratic,
    discriminant,
    discriminant_square_class,
)
from zxfactor.oracle import verify_factorization
from zxfactor.padics import is_square_zp
from zxfactor.series import TruncSeries


def test_quad_input_validation():
    with pytest.raises(ValueError, match="not prime"):
        QuadInput(6, 2, 1, 1, 1)
    with pytest.raises(ValueError, match="m = 0"):
        QuadInput(5, 2, 0, 1, 1)
    with pytest.raises(ValueError, match="beta"):
        QuadInput(5, 2, 1, 5, 1)
    with pytest.raises(ValueError, match="alpha"):
        QuadInput(5, 2, 1, 1, 10)
    # beta = 0 normalizes to the sentinel form
    q = QuadInput(5, 2, 1, 0, 1)
    assert q.beta is None and q.m is None


def test_classify_rejects_tail():
    with pytest.raises(ValueError, match="classify_general"):
        classify_quadratic(QuadInput(5, 2, 1, 1, 1, tail=(1,)))


def test_branch_2m_gt_n_odd():
    v = classify_quadratic(QuadInput(3, 3, 2, 1, 1))
    assert v.kind is VerdictKind.IRREDUCIBLE and v.rule == "S3.2m-gt-n-odd"
    assert v.zp_reducible is False


def test_branch_p2_n_eq_2m():
    v = classify_quadratic(QuadInput(2, 2, 1, 1, 1))
    assert v.kind is VerdictKind.IRREDUCIBLE and v.rule == "S4.n-eq-2m"


def test_branch_disc_square_with_factors():
    v = classify_quadratic(QuadInput(7, 2, 1, 3, 2), terms=8)
    assert v.kind is VerdictKind.REDUCIBLE and v.rule == "S3.disc-square"
    a, b = v.factors
    assert {a.coeffs[:2], b.coeffs[:2]} == {(7, 1), (7, 2)}
    assert v.verified_order == 8


def test_branch_p2_m_gt_nu1():
    q = QuadInput(2, 2, 3, 1, 3)
    v = classify_quadratic(q, terms=8)
    assert v.kind is VerdictKind.REDUCIBLE
    assert verify_factorization(q.head_series(8), *v.factors).passed


def test_branch_beta_zero():
    v = classify_quadratic(QuadInput(5, 2, None, None, 1), terms=8)
    assert v.kind is VerdictKind.REDUCIBLE and v.rule == "S3.beta0-reducible"
    v = classify_quadratic(QuadInput(3, 2, None, None, 1))
    assert v.kind is VerdictKind.IRREDUCIBLE and v.rule == "S3.beta0-irreducible"
    v = classify_quadratic(QuadInput(2, 3, None, None, 7))
    assert v.kind is VerdictKind.IRREDUCIBLE and v.rule == "S4.beta0-irreducible"


def test_branch_2m_lt_n():
    q = QuadInput(2, 3, 1, 1, 1)
    v = classify_quadratic(q, terms=12)
    assert v.kind is VerdictKind.REDUCIBLE and v.rule == "S4.2m-lt-n"
    assert verify_factorization(q.head_series(12), *v.factors).passed


def test_main_theorem_consistency_sample():
    rng = random.Random(11)
    for _ in range(250):
        p = rng.choice((2, 3, 5, 7, 11))
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        beta = rng.choice([b for b in range(-50, 51) if b and b % p])
        alpha = rng.choice([a for a in range(-50, 51) if a and a % p])
        q = QuadInput(p, n, m, beta, alpha)
        v = classify_quadratic(q, attach_factors=False)
        assert (v.kind is VerdictKind.REDUCIBLE) == is_square_zp(discriminant(q), p).is_square


def test_every_rule_has_a_citation():
    assert all(isinstance(text, str) and text for text in RULE_INFO.values())


def test_general_unit():
    assert classify_general(TruncSeries((1, 7, 9))).kind is VerdictKind.UNIT
    assert classify_general(TruncSeries((-1, 3))).kind is VerdictKind.UNIT


def test_general_prime_constant():
    v = classify_general(TruncSeries((7, 4, 4)))
    assert v.kind is VerdictKind.IRREDUCIBLE and v.rule == "S2.prime"
    assert classify_general(TruncSeries((-3, 9, 9))).kind is VerdictKind.IRREDUCIBLE


def test_general_zero_and_x_rules():
    assert classify_general(TruncSeries((0, 0, 0))).kind is VerdictKind.ZERO_SERIES
    assert classify_general(TruncSeries((0, 1, 7))).rule == "S2.x-associate"
    v = classify_general(TruncSeries((0, 2, 7)))
    assert v.kind is VerdictKind.REDUCIBLE and v.rule == "S2.x-factor"
    assert v.factors[0].coeffs[1] == 1 and v.factors[1].coeffs[0] == 2
    # x^2 * unit is still reducible: the cofactor x*(unit) is a non-unit
    assert classify_general(TruncSeries((0, 0, 1, 5))).kind is VerdictKind.REDUCIBLE


def test_general_coprime_split():
    f = TruncSeries((6, 2, 1))
    v = classify_general(f)
    assert v.kind is VerdictKind.REDUCIBLE and v.rule == "S2.coprime-split"
    assert v.factors[0].coeffs == (2, 0, 1) and v.factors[1].coeffs == (3, 1, -1)
    assert verify_factorization(f, *v.factors).passed


def test_general_rule5_power_head():
    for p in (2, 3, 5, 7):
        v = classify_general(TruncSeries((p * p, 1, 1)))
        assert v.kind is VerdictKind.IRREDUCIBLE and v.rule == "S3.remark-m0"
        assert v.zp_reducible is True


def test_rule5_fires_exactly_on_unit_linear_coefficient():
    # flipping f_1 to a multiple of p must leave the rule-5 branch
    v_unit = classify_general(TruncSeries((9, 1, 1, 0)))
    assert v_unit.rule == "S3.remark-m0"
    v_mult = classify_general(TruncSeries((9, 3, 1, 0)))
    assert v_mult.rule != "S3.remark-m0"


def test_general_double_root_dichotomy():
    assert classify_general(TruncSeries((9, 3, -2, 1))).rule == "S5.double-root-c3-unit"
    v = classify_general(TruncSeries((9, 3, -2, 3)))
    assert v.kind is VerdictKind.UNKNOWN and v.assumption
    f = TruncSeries((9, 3, -2, 9, 0, 0, 18))
    v = classify_general(f)
    assert v.kind is VerdictKind.REDUCIBLE and v.rule == "S5.double-root-divisible-tail"
    assert v.conditional_on_truncation
    assert verify_factorization(f, *v.factors).passed


def test_general_simple_root_tail():
    f = TruncSeries((49, 21, 2, 7, 0, 0))
    v = classify_general(f)
    assert v.kind is VerdictKind.REDUCIBLE and v.rule == "S5.simple-root"
    assert verify_factorization(f, *v.factors).passed


def test_general_no_root_is_irreducible():
    # 9 - 3x - x^2: y^2 + y - 1 has no root mod 3
    v = classify_general(TruncSeries((9, -3, -1, 5)))
    assert v.kind is VerdictKind.IRREDUCIBLE and v.rule == "S5.no-root"


def test_general_tail_head_cases():
    f = TruncSeries((8, 2, 1, 5, 0))
    v = classify_general(f)
    assert v.rule == "S5.2m-lt-n" and verify_factorization(f, *v.factors).passed
    v = classify_general(TruncSeries((27, 9, 1, 1)))
    assert v.rule == "S5.2m-gt-n-odd" and v.kind is VerdictKind.IRREDUCIBLE
    f = TruncSeries((9, 27, -1, 4, 0, 0))
    v = classify_general(f)
    assert v.rule == "S5.2m-gt-n-even-qr" and verify_factorization(f, *v.factors).passed
    v = classify_general(TruncSeries((9, 27, 1, 4)))
    assert v.rule == "S5.2m-gt-n-even-nonqr" and v.kind is VerdictKind.IRREDUCIBLE


def test_general_p2_n_eq_2m_with_tail():
    v = classify_general(TruncSeries((4, 2, 1, 9, 3)))
    assert v.kind is VerdictKind.IRREDUCIBLE and v.rule == "S4.n-eq-2m"


def test_general_p2_tail_unknown_vs_fallback():
    assert classify_general(TruncSeries((4, 8, 3, 1))).kind is VerdictKind.UNKNOWN
    f = TruncSeries((4, 8, 3, 0, 0, 0))
    v = classify_general(f)
    assert v.kind is VerdictKind.REDUCIBLE and v.conditional_on_truncation
    assert verify_factorization(f, *v.factors).passed


def test_general_beta_zero_tail():
    assert classify_general(TruncSeries((25, 0, 1, 5))).kind is VerdictKind.UNKNOWN
    v = classify_general(TruncSeries((25, 0, 1, 0, 0)))
    assert v.kind is VerdictKind.REDUCIBLE and v.rule == "S3.beta0-reducible"
    assert v.conditional_on_truncation


def test_general_content_rule():
    f = TruncSeries((9, 3, 6))
    v = classify_general(f)
    assert v.kind is VerdictKind.REDUCIBLE and v.rule == "S2.content-p"
    assert v.factors[0].coeffs[0] == 3
    assert verify_factorization(f, *v.factors).passed
    assert v.conditional_on_truncation


def test_general_gap_is_unknown():
    v = classify_general(TruncSeries((9, 3, 3, 1)))
    assert v.kind is VerdictKind.UNKNOWN and v.rule == "unknown.no-rule"


def test_general_negative_prime_power_head():
    f = TruncSeries((-49, -21, -2, 0, 0))
    v = classify_general(f)
    assert v.kind is VerdictKind.REDUCIBLE
    assert verify_factorization(f, *v.factors).passed


def test_reducible_factors_have_non_unit_heads():
    rng = random.Random(3)
    seen = 0
    while seen < 40:
        p = rng.choice((2, 3, 5, 7))
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        beta = rng.choice([b for b in range(-20, 21) if b and b % p])
        alpha = rng.choice([a for a in range(-20, 21) if a and a % p])
        q = QuadInput(p, n, m, beta, alpha)
        v = classify_quadratic(q, terms=24)
        if v.kind is not VerdictKind.REDUCIBLE:
            continue
        seen += 1
        a, b = v.factors
        assert abs(a.coeffs[0]) >= 2 and abs(b.coeffs[0]) >= 2
        assert verify_factorization(q.head_series(24), *v.factors).passed


def _sweep(count, seed):
    """The quadratic sweep of acceptance criteria 2 and 4 (same seed and draws)."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice((2, 3, 5, 7, 11))
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        beta = rng.choice([b for b in range(-50, 51) if b and b % p])
        alpha = rng.choice([a for a in range(-50, 51) if a and a % p])
        yield QuadInput(p, n, m, beta, alpha)


def test_discriminant_square_class_matches_square_test():
    inputs = list(_sweep(1000, 20260811))
    for p in (3, 5, 7, 10007):
        for n in range(1, 20):
            for alpha in (1, -1, 2, -3, 6, -7):
                if alpha % p:
                    inputs.append(QuadInput(p, n, None, None, alpha))
                    inputs += [QuadInput(p, n, m, b, alpha) for m in range(1, 20) for b in (1, -2, 4)]
    for q in inputs:
        assert discriminant_square_class(q) == is_square_zp(discriminant(q), q.p), q


def test_discriminant_square_class_p2_every_gap():
    # 2m - n in -3..6 moves the lower term of the discriminant through
    # every position relative to the 4*alpha term, including cancellation
    for gap in range(-3, 7):
        for n in range(1, 12):
            if (n + gap) % 2 or n + gap < 2:
                continue
            m = (n + gap) // 2
            for beta in range(-15, 16, 2):
                for alpha in list(range(-31, 32, 2)) + [beta * beta, beta * beta - 8, beta * beta + 16]:
                    if alpha % 2 == 0:
                        continue
                    q = QuadInput(2, n, m, beta, alpha)
                    assert discriminant_square_class(q) == is_square_zp(discriminant(q), 2), q


def _timed(call):
    started = time.perf_counter()
    result = call()
    return result, time.perf_counter() - started


def test_large_p_factorization_is_fast():
    # the cost must grow with the bit size of p, not with p
    q = QuadInput(10**12 + 39, 2, 3, 1, 10**12 + 38)
    v, elapsed = _timed(lambda: classify_quadratic(q, terms=8))
    assert v.kind is VerdictKind.REDUCIBLE
    assert verify_factorization(q.head_series(8), *v.factors).passed
    assert elapsed < 2.0, f"{elapsed:.3f}s"


def test_repeated_root_family_p101_is_fast():
    # two root classes mod p^9 with p^3 members each: none may be listed
    q = QuadInput(101, 2, 1, 2, 1 - 5 * 101**6)
    v, elapsed = _timed(lambda: classify_quadratic(q, terms=8))
    assert v.kind is VerdictKind.REDUCIBLE
    assert verify_factorization(q.head_series(8), *v.factors).passed
    assert elapsed < 2.0, f"{elapsed:.3f}s"


def test_decision_at_huge_n_is_fast():
    # the decision never builds p^n (about 1.6 million bits here)
    for q, rule in (
        (QuadInput(3, 10**6, 5 * 10**5 + 1, 1, 2), "S3.disc-square"),
        (QuadInput(3, 10**6, None, None, 1), "S3.beta0-irreducible"),
        (QuadInput(2, 10**6, 5 * 10**5 + 3, 1, 7), "S4.disc-square"),
    ):
        v, elapsed = _timed(lambda: classify_quadratic(q, attach_factors=False))
        assert v.rule == rule
        assert elapsed < 2.0, f"{elapsed:.3f}s"


def test_general_huge_prime_power_head_is_fast():
    # valuations of 3^12000 must take O(log n) divisions, not n
    f = TruncSeries([3**12000, 2 * 3**6001, 5, 1, 1])
    v, elapsed = _timed(lambda: classify_general(f))
    assert v.rule == "S5.2m-gt-n-even-qr"
    assert verify_factorization(f, *v.factors).passed
    assert elapsed < 2.0, f"{elapsed:.3f}s"
