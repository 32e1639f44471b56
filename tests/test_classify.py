import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import zxfactor.classify
import zxfactor.factor
import zxfactor.padics
from oracles import DECISION_ROWS, spy
from pair_sweeps import SWEEP_SEED, SWEEP_SIZE, sample_inputs
from zxfactor.classify import (
    QuadInput,
    RULE_INFO,
    VerdictKind,
    classify_general,
    classify_quadratic,
    discriminant,
    discriminant_square_class,
)
from zxfactor.limits import LIMITS
from zxfactor.oracle import verify_factorization
from zxfactor.padics import PROVEN_PRIME_BOUND, _smallest_block, is_prime, is_square_zp
from zxfactor.series import TruncSeries

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_every_rule_has_a_citation():
    assert all(isinstance(text, str) and text for text in RULE_INFO.values())


def test_general_unit():
    assert classify_general(TruncSeries((1, 7, 9))).kind is VerdictKind.UNIT
    assert classify_general(TruncSeries((-1, 3))).kind is VerdictKind.UNIT


def test_general_prime_constant():
    v = classify_general(TruncSeries((7, 4, 4)))
    assert v.kind is VerdictKind.IRREDUCIBLE and v.rule == "S2.prime"
    assert classify_general(TruncSeries((-3, 9, 9))).kind is VerdictKind.IRREDUCIBLE


def test_general_constant_prime_power():
    # a constant +-p^n with n >= 2 splits as p times p^(n-1), for the zero extension
    for c, pair in ((8, ((2,), (4,))), (-8, ((-2,), (4,))), (9, ((3,), (3,)))):
        f = TruncSeries([c])
        v = classify_general(f)
        assert v.kind is VerdictKind.REDUCIBLE and v.rule == "S2.constant"
        assert v.conditional_on_truncation
        assert tuple(s.coeffs for s in v.factors) == pair
        assert verify_factorization(f, *v.factors).passed


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


def test_discriminant_square_class_matches_square_test():
    inputs = sample_inputs(SWEEP_SIZE, SWEEP_SEED)
    for p in (3, 5, 7, 10007):
        for n in range(1, 20):
            for alpha in (1, -1, 2, -3, 6, -7):
                if alpha % p:
                    inputs.append(QuadInput(p, n, None, None, alpha))
                    inputs += [QuadInput(p, n, m, b, alpha) for m in range(1, 20) for b in (1, -2, 4)]
    for q in inputs:
        assert discriminant_square_class(q) == is_square_zp(discriminant(q), q.p), q


def test_discriminant_square_class_p2_every_gap():
    # 2m - n in -8..8 moves the lower term of the discriminant through
    # every position relative to the 4*alpha term, including cancellation,
    # and past the p^5 cap on either side
    for gap in range(-8, 9):
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


# constant terms that a 12-base Miller-Rabin test called prime, and the
# semiprime nextprime(10^20) * nextprime(3*10^20)
DEFECT_CONSTANTS = (
    318665857834031151167461,
    3317044064679887385961981,
    100000000000000000039 * 300000000000000000053,
)


@pytest.mark.parametrize("c", DEFECT_CONSTANTS)
def test_defect_constants_split(c):
    sympy = pytest.importorskip("sympy")
    f = TruncSeries((c, 1, 1))
    v, elapsed = _timed(lambda: classify_general(f))
    assert v.kind is VerdictKind.REDUCIBLE and v.rule == "S2.coprime-split"
    assert verify_factorization(f, *v.factors).passed
    u, w = v.factors[0].coeffs[0], v.factors[1].coeffs[0]
    # each is a product of two primes, so this is sympy.factorint's answer
    # (which takes seconds on the semiprime)
    assert u * w == c and u < w and sympy.isprime(u) and sympy.isprime(w)
    assert v.assumption is None
    assert elapsed < 1.0, f"{elapsed:.3f}s"


@pytest.mark.parametrize("c", DEFECT_CONSTANTS)
def test_defect_constants_split_in_the_close_pass(monkeypatch, c):
    # the ratio of the two primes is near 2 or 3, so Hart's first
    # multipliers split c: neither _split nor rho runs, and the verdict is
    # the one the search gives without the close pass
    f = TruncSeries((c, 1, 1))
    with monkeypatch.context() as m:
        m.setattr(zxfactor.padics, "_CLOSE_STEPS", 0)
        slow = classify_general(f)

    def refuse(*args):
        raise AssertionError("_split or rho ran")

    monkeypatch.setattr(zxfactor.padics, "_split", refuse)
    monkeypatch.setattr(zxfactor.padics, "_rho", refuse)
    v = classify_general(f)
    assert v._replace(factors=None) == slow._replace(factors=None)
    assert [s.coeffs for s in v.factors] == [s.coeffs for s in slow.factors]


@pytest.mark.parametrize("n, m", [(40, 19), (40, 20), (40, 21), (41, 30)])
def test_general_tailed_head_at_a_large_prime_power(n, m):
    # p^n has more bits than LIMITS.max_p_bits, p does not: the factor
    # search takes the root of p^n instead of refusing it
    f = QuadInput(10007, n, m, 1, 2, tail=(5,)).head_series(8)
    assert f.coeffs[0].bit_length() > LIMITS.max_p_bits
    v, elapsed = _timed(lambda: classify_general(f))
    assert v.kind is classify_quadratic(QuadInput(10007, n, m, 1, 2), terms=8).kind
    assert v.rule.startswith("S5.")
    if v.factors is not None:
        assert verify_factorization(f, *v.factors).passed
    assert elapsed < 1.0, f"{elapsed:.3f}s"


def test_general_finds_a_small_prime_before_hart(monkeypatch):
    # 41 * (10^18 + 9): the factor ratio is near no fraction with small
    # terms, so the short close pass finds nothing, and the short rho
    # ahead of the long Hart stage finds 41 at once
    hart = zxfactor.padics._hart

    def short_hart_only(n, steps):
        if steps > zxfactor.padics._CLOSE_STEPS:
            raise AssertionError("the long Hart stage ran")
        return hart(n, steps)

    monkeypatch.setattr(zxfactor.padics, "_hart", short_hart_only)
    c = 41 * (10**18 + 9)
    f = TruncSeries((c, 1, 1))
    v, elapsed = _timed(lambda: classify_general(f))
    assert v.rule == "S2.coprime-split" and v.factors[0].coeffs[0] == 41
    assert verify_factorization(f, *v.factors).passed
    assert elapsed < 0.1, f"{elapsed:.3f}s"


def test_general_refuses_a_cofactor_past_the_budget():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(22)
    while True:  # two 21-digit primes whose ratio is far from a fraction with small terms
        p, q = (sympy.nextprime(rng.randrange(10**20, 10**21)) for _ in range(2))
        if all(abs(a * q - b * p) > 10**15 for a in range(1, 50) for b in range(1, 50)):
            break
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"factor-search budget of {LIMITS.factor_steps}"):
        classify_general(TruncSeries((p * q, 1, 1)))
    assert time.perf_counter() - started < 1.0
    with pytest.raises(ValueError, match="factor-search budget"):
        _smallest_block(p * q)


BPSW = "p is a BPSW probable prime"


def test_bpsw_prime_is_an_assumption():
    sympy = pytest.importorskip("sympy")
    p = sympy.nextprime(10**24)  # above the proven 12-base bound
    q = QuadInput(p, 3, 1, 5, 7)  # 2m < n
    v = classify_quadratic(q, terms=8)
    assert v.kind is VerdictKind.REDUCIBLE and v.rule == "S3.2m-lt-n"
    assert verify_factorization(q.head_series(8), *v.factors).passed
    assert v.assumption == BPSW
    f = TruncSeries(q.head_series(4).coeffs[:3] + (4, -1))
    v = classify_general(f)
    assert v.rule == "S5.2m-lt-n" and v.assumption == BPSW
    assert verify_factorization(f, *v.factors).passed
    assert classify_general(TruncSeries((-p, 1))).assumption == BPSW
    # joined to an assumption the verdict already carries
    f = TruncSeries((p * p, 0, -1, 0))
    v = classify_general(f)
    assert v.rule == "S3.beta0-reducible" and v.conditional_on_truncation
    assert v.assumption.endswith("is zero; " + BPSW)
    assert verify_factorization(f, *v.factors).passed
    # below the bound nothing is assumed
    assert classify_quadratic(QuadInput(10**12 + 39, 3, 1, 5, 7), terms=8).assumption is None


@pytest.mark.parametrize("p", (2**89 - 1, 2**127 - 1))
def test_mersenne_prime_constant_is_a_bpsw_prime(monkeypatch, p):
    # the close pass finds no factor, so the Baillie-PSW test decides
    lucas = spy(monkeypatch, "_strong_lucas_probable_prime", zxfactor.padics)
    assert p >= PROVEN_PRIME_BOUND
    for f0 in (p, -p):
        v = classify_general(TruncSeries((f0, 1, 1)))
        assert v.kind is VerdictKind.IRREDUCIBLE and v.rule == "S2.prime" and v.assumption == BPSW
    assert lucas == [(p,), (p,)]


def test_limits_refuse_before_building():
    with pytest.raises(ValueError, match="bits"):
        QuadInput(2**521 - 1, 2, 1, 1, 1)
    q = QuadInput(3, 10**6, 5 * 10**5 + 1, 1, 2)
    for call in (
        lambda: classify_quadratic(q),
        lambda: q.head_series(8),
        lambda: discriminant(q),
        lambda: classify_quadratic(QuadInput(7, 2, 1, 3, 2), terms=LIMITS.max_terms + 1),
        lambda: classify_general(TruncSeries([6] + [0] * (LIMITS.max_terms + 1))),
    ):
        _, elapsed = _timed(lambda: pytest.raises(ValueError, call))
        assert elapsed < 1.0, f"{elapsed:.3f}s"
    # a decision that builds nothing stays allowed
    assert classify_quadratic(q, attach_factors=False).rule == "S3.disc-square"


def test_exponents_past_a_float_are_refused_by_the_limit():
    # e * log2(p) overflows a float here; the limit decides in integers
    huge = 10**400
    for q in (QuadInput(3, huge, 1, 1, 1), QuadInput(3, 2, huge, 1, 1)):
        with pytest.raises(ValueError, match="beyond the limit"):
            discriminant(q)


def test_factors_at_the_term_limit():
    # integer-root inputs, so the pairs are finite polynomials: 2m<n with
    # (7 + x)(49 + x) and m=nu with (7 + x)(7 + 2x); the engines read the
    # input through the order asked for, not one or two orders beyond it
    for q in (QuadInput(7, 3, 1, 8, 1), QuadInput(7, 2, 1, 3, 2)):
        v = classify_quadratic(q, terms=LIMITS.max_terms)
        assert v.verified_order == LIMITS.max_terms
        assert verify_factorization(q.head_series(LIMITS.max_terms), *v.factors).passed
        with pytest.raises(ValueError, match="beyond the limit"):
            classify_quadratic(q, terms=LIMITS.max_terms + 1)


_RERUN = """
import json
from zxfactor import TruncSeries, classify_general
out = []
for c in %r:
    v = classify_general(TruncSeries((c, 1, 1)))
    out.append([v.rule, [[str(x) for x in s.coeffs] for s in v.factors]])
print(json.dumps(out))
"""


def test_factor_search_reruns_byte_identical():
    # criterion 8: a fresh process, with a different hash seed, prints the same bytes
    constants = DEFECT_CONSTANTS + (2**5 * 41**3 * 1000003, 1000003 * 1000033 * 7**2)
    outs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        res = subprocess.run(
            [sys.executable, "-c", _RERUN % (constants,)], env=env, capture_output=True, check=True, timeout=60
        )
        outs.append(res.stdout)
    assert outs[0] == outs[1]
    assert [rule for rule, _ in json.loads(outs[0])] == ["S2.coprime-split"] * len(constants)


def test_tail_engines_run_no_second_factor_search(monkeypatch):
    # the classifier's one search of the constant term proves p (p^2 is
    # above PROVEN_PRIME_BOUND, so its close pass splits it and only p is
    # tested); the tail engine it picks takes the QuadInput and does not
    # search again
    calls = spy(monkeypatch, "is_prime", zxfactor.padics, zxfactor.classify)
    p = 10**12 + 39
    f = TruncSeries((p * p, 3 * p, 2, 5, 7))
    v = classify_general(f)
    assert v.rule == "S5.simple-root" and verify_factorization(f, *v.factors).passed
    assert calls == [(p,)]


def test_simple_root_row_finds_the_root_classes_once(monkeypatch):
    # a unit discriminant core decides the row by Euler's criterion; only
    # the engine, picking its seed, asks for the root classes
    calls = spy(monkeypatch, "_root_classes", zxfactor.classify, zxfactor.factor)
    p = 10**12 + 39
    f = TruncSeries((p * p, 3 * p, 2, 5, 7))
    v = classify_general(f)
    assert v.rule == "S5.simple-root" and verify_factorization(f, *v.factors).passed
    assert calls == [(1, -3, 2, p, 1)]


def test_decision_table_names_known_rules_and_engines():
    from zxfactor import factor
    from zxfactor.classify import _decide

    rows, routed = set(), []
    for p in (2, 3, 5):
        for n in range(1, 5):
            for m in range(1, 5):
                for beta in (b for b in (0, 1, 2, 3) if b == 0 or b % p):
                    for alpha in (a for a in range(-12, 13) if a % p):
                        q = QuadInput(p, n, m, beta, alpha)
                        sq = discriminant_square_class(q)
                        row = _decide(q, sq)
                        rows.add(row)
                        routed.append((row[2], q))
                        for tail in ((), (0, 0), (1,), (p,), (p * p,)):
                            qt = QuadInput(p, n, m, beta, alpha, tail=tail)
                            row = _decide(qt, sq, qt.head_series(2 + len(tail)))
                            rows.add(row)
                            routed.append((row[2], qt))
    assert rows == DECISION_ROWS
    for kind, rule, engine in rows:
        assert ("S5.unknown" if kind is VerdictKind.UNKNOWN else rule) in RULE_INFO
        assert (engine is not None) == (kind is VerdictKind.REDUCIBLE)
        if engine is not None:
            assert engine in factor.__all__ and callable(getattr(factor, engine))
    # every input the table routes to an engine passes that engine's own check
    for engine, q in routed:
        if engine is not None:
            a, b = getattr(factor, engine)(q, 2)
            assert verify_factorization(q.head_series(2), a, b).passed


# 2^89 - 1 is prime and above PROVEN_PRIME_BOUND, so its verdicts carry the BPSW note
DECISION_PRIMES = (2, 3, 5, 7, 11, 13, 101, 2**61 - 1, 2**89 - 1)


def _fields(v) -> tuple:
    """The eight fields of a Verdict as plain values, as the sweeps hash them."""
    cert = None if v.certificate is None else tuple(v.certificate)
    factors = None if v.factors is None else tuple(s.coeffs for s in v.factors)
    return (v.kind.value, v.rule, v.zp_reducible, cert, factors, v.verified_order, v.assumption,
            v.conditional_on_truncation)


def _decisions_sweep():
    """(sha256 over every Verdict field, rules seen) for 20,000 seeded
    tail-free decisions without factors.  n and m run through 1..40, so
    2m - n passes both caps of discriminant_square_class; 10% of draws
    take beta = 0, and for odd p a tenth of the rest take n = 2m and aim
    4*alpha at beta^2 - p^k*u, for a core of valuation k or, with u = 0,
    a zero core."""
    rng = random.Random(2424)
    lines, rules = [], set()
    for _ in range(20000):
        p = rng.choice(DECISION_PRIMES)
        n = rng.randint(1, 40)
        m = beta = None
        alpha = rng.choice((1, -1)) * rng.randint(1, 10**6)
        if rng.random() >= 0.1:
            m = rng.randint(1, 40)
            beta = rng.choice((1, -1)) * rng.randint(1, 10**6)
            while beta % p == 0:
                beta += 1
            if p != 2 and rng.random() < 0.1:
                m = (m + 1) // 2
                n = 2 * m
                alpha = beta * beta - p ** rng.randint(1, 6) * rng.choice((0, 1, -1, 2, -3, 5))
                alpha = alpha // 4 if alpha % 4 == 0 else alpha
        while alpha % p == 0:
            alpha += 1
        v = classify_quadratic(QuadInput(p, n, m, beta, alpha), attach_factors=False)
        rules.add(v.rule)
        lines.append(repr((p, n, m, beta, alpha) + _fields(v)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), rules


def test_quadratic_decisions_keep_their_verdicts():
    assert is_prime(DECISION_PRIMES[-1]) and DECISION_PRIMES[-1] >= PROVEN_PRIME_BOUND
    digest, rules = _decisions_sweep()
    assert rules == {rule for rule in RULE_INFO if rule[:3] in ("S3.", "S4.") and rule != "S3.remark-m0"}
    assert digest == "f6495353dad448da45906a5ebcc427ea07e46c5761e45ccd2bad57dcd8e36c6c"


def _general_input(rng: random.Random) -> list[int]:
    """One seeded classify_general input.  Half the draws aim at a cascade
    row before the quadratic head (zero series, units, x-multiples, prime
    and coprime constants, a bare prime power, a unit f_1, content p and
    the no-rule gap); the rest are heads p^n + p^m*beta*x + alpha*x^2 with
    a tail of 0 to 4 terms, a tenth of them beta = 0 and, for odd p, a
    fifth aimed at the double-root rows (n = 2, m = 1, core 4*p^t*u).  The
    tail is random, all zero, all divisible by p^2, or, on the double-root
    draws, led by a c_3 that p divides once.  The constant term takes
    either sign, and 2^61 - 1 and 2^89 - 1 are among the primes."""
    p = rng.choice(DECISION_PRIMES)
    sign = rng.choice((1, -1))
    order = rng.randint(2, 6)

    def rand(k: int) -> list[int]:
        return [rng.randint(-60, 60) for _ in range(k)]

    def unit() -> int:
        while (x := rng.randint(-60, 60)) % p == 0:
            pass
        return x

    shape = rng.randrange(16)
    if shape == 0:
        return [0] * (order + 1)
    if shape == 1:
        return [rng.choice((1, -1))] + rand(order)
    if shape == 2:  # an x-multiple, an associate of x on a unit f_1
        return [0, rng.choice((1, -1, rng.randint(-60, 60)))] + rand(order - 1)
    if shape == 3:
        return [sign * p] + rand(order)
    if shape == 4:
        q = rng.choice([r for r in DECISION_PRIMES[:7] if r != p])
        return [sign * p ** rng.randint(1, 3) * q ** rng.randint(1, 3)] + rand(order)
    n = rng.randint(2, 5)
    if shape == 5:
        return [sign * p**n]
    if shape == 6:
        return [sign * p**n, unit()] + rand(order - 1)
    if shape == 7:  # content p, or with a unit last the gap no rule covers
        coeffs = [sign * p**n] + [p * x for x in rand(order)]
        if rng.random() < 0.5:
            coeffs[-1] = unit()
        return coeffs
    n, m, beta, alpha = rng.randint(1, 5), rng.randint(1, 5), unit(), unit()
    double = p != 2 and rng.random() < 0.2
    if double:  # alpha = h^2 - p^t*u and beta = 2h give the core 4*p^t*u
        h = unit()
        n, m, beta = 2, 1, 2 * h
        alpha = h * h - p ** rng.randint(2, 3) * rng.choice((0, 1, -1, 2, 3, 5))
    tail = rand(order - 2)
    fill = rng.randrange(4)
    if fill == 1:
        tail = [0] * len(tail)
    elif fill == 2:
        tail = [p * p * x for x in tail]
    elif fill == 3 and double and tail:
        tail = [p * unit()] + [p * p * x for x in tail[1:]]
    f1 = 0 if rng.random() < 0.1 else p**m * beta
    return [sign * p**n, f1, alpha] + tail


def _general_sweep():
    """(sha256 over every Verdict field of 4,000 seeded classify_general
    answers, factor coefficients included; rules seen; BPSW notes seen)."""
    rng = random.Random(3131)
    lines, rules, notes = [], set(), 0
    for _ in range(4000):
        coeffs = _general_input(rng)
        v = classify_general(TruncSeries(coeffs))
        rules.add(v.rule)
        notes += v.assumption is not None and v.assumption.endswith(BPSW)
        lines.append(repr((tuple(coeffs),) + _fields(v)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), rules, notes


def test_general_verdicts_keep_their_fields():
    digest, rules, notes = _general_sweep()
    cascade = {rule for rule in RULE_INFO if rule[:3] in ("S2.", "S5.")} | {"S3.remark-m0", "unknown.no-rule"}
    assert cascade - rules == set()
    assert notes > 0
    assert digest == "e59e22a0d47f9854c13452da454e9c800142c8ce466e66dea5dd1ea19f837511"
