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
from oracles import DECISION_ROWS, DEFECT_CONSTANTS, I, R, U, check_pair, spy
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


UNIT, ZERO = VerdictKind.UNIT, VerdictKind.ZERO_SERIES

#: one worked example per branch of the case analysis, as (input, terms,
#: kind, rule, pins).  A QuadInput is answered by classify_quadratic
#: through terms, a coefficient tuple (terms None) by classify_general.
#: A pin is a Verdict field and its value; "assumption" is a substring,
#: and "a" and "b" are prefixes of the factors' coefficients.
RULE_EXAMPLES = [
    (QuadInput(3, 3, 2, 1, 1), 64, I, "S3.2m-gt-n-odd", {"zp_reducible": False}),
    (QuadInput(2, 3, 2, 1, 1), 64, I, "S4.2m-gt-n-odd", {"zp_reducible": False}),
    (QuadInput(2, 2, 1, 1, 1), 64, I, "S4.n-eq-2m", {}),
    (QuadInput(7, 2, 1, 3, 2), 8, R, "S3.disc-square", {"a": (7, 1), "b": (7, 2), "verified_order": 8}),
    # disc = 7^4 * 37 with 37 = 2 a residue mod 7, so this is reducible
    (QuadInput(7, 4, 3, 1, 3), 8, R, "S3.disc-square", {"zp_reducible": True}),
    # beta^2 - 4*alpha = 8 = 3 mod 5 is a non-residue
    (QuadInput(5, 2, 1, 2, -1), 8, I, "S3.disc-nonsquare", {"zp_reducible": False}),
    (QuadInput(2, 2, 3, 1, 3), 8, R, "S4.disc-square", {}),
    (QuadInput(2, 2, 4, 1, 3), 8, I, "S4.disc-nonsquare", {"zp_reducible": False}),
    (QuadInput(5, 2, None, None, 1), 8, R, "S3.beta0-reducible", {}),
    (QuadInput(3, 2, None, None, 1), 64, I, "S3.beta0-irreducible", {}),
    (QuadInput(2, 4, None, None, 7), 8, R, "S4.beta0-reducible", {}),  # -7 = 1 mod 8
    (QuadInput(2, 3, None, None, 7), 64, I, "S4.beta0-irreducible", {}),
    (QuadInput(5, 3, 1, 1, 1), 8, R, "S3.2m-lt-n", {}),
    (QuadInput(2, 3, 1, 1, 1), 12, R, "S4.2m-lt-n", {}),
    ((0, 0, 0), None, ZERO, "S2.zero-series", {}),
    ((1, 7, 9), None, UNIT, "S2.unit", {}),
    ((-1, 3), None, UNIT, "S2.unit", {}),
    ((7, 4, 4), None, I, "S2.prime", {}),
    ((-3, 9, 9), None, I, "S2.prime", {}),
    # a constant +-p^n with n >= 2 splits as p times p^(n-1), for the zero extension
    ((8,), None, R, "S2.constant", {"a": (2,), "b": (4,), "conditional_on_truncation": True}),
    ((-8,), None, R, "S2.constant", {"a": (-2,), "b": (4,), "conditional_on_truncation": True}),
    ((9,), None, R, "S2.constant", {"a": (3,), "b": (3,), "conditional_on_truncation": True}),
    ((0, 1, 7), None, I, "S2.x-associate", {}),
    ((0, 2, 7), None, R, "S2.x-factor", {"a": (0, 1), "b": (2,)}),
    # x^2 * unit is still reducible: the cofactor x*(unit) is a non-unit
    ((0, 0, 1, 5), None, R, "S2.x-factor", {}),
    ((6, 2, 1), None, R, "S2.coprime-split", {"a": (2, 0, 1), "b": (3, 1, -1)}),
    ((9, 3, 6), None, R, "S2.content-p", {"a": (3,), "conditional_on_truncation": True}),
    ((9, 3, 3, 1), None, U, "unknown.no-rule", {}),
    ((4, 1, 1), None, I, "S3.remark-m0", {"zp_reducible": True}),
    ((9, 1, 1), None, I, "S3.remark-m0", {"zp_reducible": True}),
    ((25, 1, 1), None, I, "S3.remark-m0", {"zp_reducible": True}),
    ((49, 1, 1), None, I, "S3.remark-m0", {"zp_reducible": True}),
    ((8, 2, 1, 5, 0), None, R, "S5.2m-lt-n", {}),
    ((27, 9, 1, 1), None, I, "S5.2m-gt-n-odd", {}),
    ((9, 27, -1, 4, 0, 0), None, R, "S5.2m-gt-n-even-qr", {}),
    ((9, 27, 1, 4), None, I, "S5.2m-gt-n-even-nonqr", {}),
    ((4, 2, 1, 9, 3), None, I, "S4.n-eq-2m", {}),
    ((49, 21, 2, 7, 0, 0), None, R, "S5.simple-root", {}),
    ((9, -3, -1, 5), None, I, "S5.no-root", {}),  # y^2 + y - 1 has no root mod 3
    # the double root: a unit c_3 decides, p | c_3 alone does not, p^2 | c_k for every k does
    ((9, 3, -2, 1), None, I, "S5.double-root-c3-unit", {}),
    ((9, 3, -2, 3), None, U, "S5.unknown", {"assumption": "p^2 does not divide every provided c_k"}),
    ((9, 3, -2, 9, 0, 0, 18), None, R, "S5.double-root-divisible-tail", {"conditional_on_truncation": True}),
    # no tail criterion covers p = 2 with 2m > n even, or beta = 0: an all-zero
    # tail is answered for the zero extension, flagged
    ((4, 8, 3, 1), None, U, "S5.unknown", {"assumption": "p = 2 with 2m > n even"}),
    ((4, 8, 3, 0, 0, 0), None, R, "S4.disc-square", {"conditional_on_truncation": True}),
    ((25, 0, 1, 5), None, U, "S5.unknown", {"assumption": "beta = 0 with a nonzero tail"}),
    ((25, 0, 1, 0, 0), None, R, "S3.beta0-reducible", {"conditional_on_truncation": True}),
]


def _example_id(given, rule) -> str:
    shown = f"q{tuple(given[:5])}" if isinstance(given, QuadInput) else f"f{given}"
    return rule + "-" + shown.replace(" ", "")


@pytest.mark.parametrize(
    "given, terms, kind, rule, pins", RULE_EXAMPLES, ids=[_example_id(row[0], row[3]) for row in RULE_EXAMPLES]
)
def test_rule_example(given, terms, kind, rule, pins):
    if isinstance(given, QuadInput):
        f, v = given.head_series(terms), classify_quadratic(given, terms)
    else:
        f = TruncSeries(given)
        v = classify_general(f)
    assert (v.kind, v.rule) == (kind, rule)
    for field, want in pins.items():
        if field in ("a", "b"):
            assert v.factors["ab".index(field)].coeffs[: len(want)] == want, field
        elif field == "assumption":
            assert want in v.assumption
        else:
            assert getattr(v, field) == want, field
    if v.factors is not None:
        check_pair(f, v.factors)


def test_rule_examples_reach_every_tag():
    assert {rule for _, _, _, rule, _ in RULE_EXAMPLES} == set(RULE_INFO)


def test_every_rule_has_a_citation():
    assert all(isinstance(text, str) and text for text in RULE_INFO.values())


def test_rule5_fires_exactly_on_unit_linear_coefficient():
    # flipping f_1 to a multiple of p must leave the rule-5 branch
    assert classify_general(TruncSeries((9, 1, 1, 0))).rule == "S3.remark-m0"
    assert classify_general(TruncSeries((9, 3, 1, 0))).rule == "S3.disc-nonsquare"


def test_general_negative_prime_power_head():
    f = TruncSeries((-49, -21, -2, 0, 0))
    v = classify_general(f)
    assert (v.kind, v.rule) == (R, "S5.simple-root")
    check_pair(f, v.factors)


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
    constants = tuple(DEFECT_CONSTANTS) + (2**5 * 41**3 * 1000003, 1000003 * 1000033 * 7**2)
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
