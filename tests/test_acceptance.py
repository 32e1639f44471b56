"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Random sweeps use fixed seeds so that two runs produce
byte-identical outputs (criterion 8 checks this explicitly).
"""

import json
import random
import time

import pytest

from oracles import brute_roots_mod, brute_square_mod, exhaustive_irreducibility_probe
from zxfactor.classify import QuadInput, VerdictKind, classify_general, classify_quadratic, discriminant
from zxfactor.cli import main as cli_main
from zxfactor.oracle import verify_factorization
from zxfactor.padics import _valuation, is_square_zp, root_classes
from zxfactor.series import TruncSeries, normalize_head

SWEEP_SEED = 20260811
SWEEP_SIZE = 1000
SWEEP_ORDER = 64


def expand_roots(A: int, B: int, C: int, p: int, K: int) -> list[int]:
    """Every root of A*y^2 + B*y + C mod p^K, expanded from its residue classes."""
    return sorted(y for r, j in root_classes(A, B, C, p, K) for y in range(r, p**K, p**j))


def convolution(a, b, n: int) -> tuple[int, ...]:
    """Coefficients 0..n of the product of two coefficient sequences, each
    taken as zero beyond its length."""
    a, b = tuple(a) + (0,) * n, tuple(b) + (0,) * n
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1))


def _passed(num: int, started: float, detail: str = "") -> None:
    extra = f" {detail}" if detail else ""
    print(f"[acceptance] criterion {num}: PASS ({time.perf_counter() - started:.2f}s){extra}")


def _sample_inputs(count: int, seed: int):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = rng.choice((2, 3, 5, 7, 11))
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        beta = rng.choice([b for b in range(-50, 51) if b and b % p])
        alpha = rng.choice([a for a in range(-50, 51) if a and a % p])
        out.append(QuadInput(p, n, m, beta, alpha))
    return out


@pytest.fixture(scope="module")
def sweep_inputs():
    return _sample_inputs(SWEEP_SIZE, SWEEP_SEED)


def test_criterion_1_worked_examples():
    started = time.perf_counter()
    for p in (2, 3, 5, 7):
        v = classify_general(TruncSeries((p * p, 1, 1)))
        assert v.kind is VerdictKind.IRREDUCIBLE
        assert v.zp_reducible is True
    v = classify_general(TruncSeries((6, 2, 1)))
    assert v.kind is VerdictKind.REDUCIBLE and v.factors is not None
    assert verify_factorization(TruncSeries((6, 2, 1)), *v.factors).passed
    assert is_square_zp(-20, 3).is_square is True
    assert is_square_zp(-20, 2).is_square is False
    assert is_square_zp(-20, 5).is_square is False
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.3f}s"
    _passed(1, started)


def test_criterion_2_main_theorem_sweep(sweep_inputs):
    started = time.perf_counter()
    mismatches = []
    for q in sweep_inputs:
        v = classify_quadratic(q, attach_factors=False)
        if (v.kind is VerdictKind.REDUCIBLE) != is_square_zp(discriminant(q), q.p).is_square:
            mismatches.append((q, v.kind))
    assert not mismatches, mismatches[:5]
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s"
    reducible = sum(
        classify_quadratic(q, attach_factors=False).kind is VerdictKind.REDUCIBLE
        for q in sweep_inputs
    )
    _passed(2, started, f"({SWEEP_SIZE} inputs, {reducible} reducible)")


def test_criterion_3_factorization_soundness(sweep_inputs):
    started = time.perf_counter()
    checked = 0
    for q in sweep_inputs:
        v = classify_quadratic(q, terms=SWEEP_ORDER)
        if v.kind is not VerdictKind.REDUCIBLE:
            continue
        assert v.factors is not None and v.verified_order == SWEEP_ORDER
        report = verify_factorization(q.head_series(SWEEP_ORDER), *v.factors)
        assert report.passed, (q, report.residuals[:4])
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.2f}s"
    _passed(3, started, f"({checked} factor pairs through order {SWEEP_ORDER})")


def test_criterion_4_oracle_agreement():
    started = time.perf_counter()
    squares_checked = 0
    for d in range(-500, 501):
        if d == 0:
            continue
        for p in (2, 3, 5):
            if 10 < _valuation(d, p)[0] + 3:
                continue
            assert is_square_zp(d, p).is_square == brute_square_mod(d, p, 10), (d, p)
            squares_checked += 1
    rng = random.Random(SWEEP_SEED + 4)
    roots_checked = 0
    while roots_checked < 200:
        p = rng.choice((2, 3, 5, 7))
        k = rng.randint(1, 16)
        while p**k > 10**5:
            k -= 1
        A, B, C = (rng.randint(-40, 40) for _ in range(3))
        if A % p**k == 0 and B % p**k == 0 and C % p**k == 0:
            continue
        assert expand_roots(A, B, C, p, k) == brute_roots_mod(A, B, C, p, k)
        roots_checked += 1
    _passed(4, started, f"({squares_checked} square cases, {roots_checked} root grids)")


def test_criterion_5_head_normalization_suite():
    started = time.perf_counter()
    rng = random.Random(SWEEP_SEED + 5)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7, 11))
        t = rng.randint(2, 12)
        coeffs = [p] + [rng.randint(-40, 40) for _ in range(t + rng.randint(0, 3))]
        while coeffs[1] % p == 0:
            coeffs[1] = rng.randint(-40, 40)
        a = TruncSeries(coeffs)
        u, q = normalize_head(a, p, t)
        assert u.coeffs[0] == 1
        assert q.coeffs[0] == p
        assert (q.coeffs[1] - coeffs[1]) % p == 0
        assert all(c == 0 for c in q.coeffs[2 : t + 1])
        assert convolution(u.coeffs, a.coeffs, t) == q.coeffs[: t + 1]
    _passed(5, started)


def _depth2_witness(q: QuadInput):
    """A factor pair of q's head through x^2 with non-unit heads, or None.

    Found without the probe: for a_0 = p^s, b_0 = p^t, a_1 in range(p^n)
    (every residue class mod p^s), order 1 forces b_1, a_2 = 0 and order 2
    forces b_2 = (alpha - a_1*b_1)/a_0.  Returned only if
    verify_factorization passes it.
    """
    f = q.head_series(2)
    f0, f1, f2 = f.coeffs
    for s in range(1, q.n):
        a0, b0 = q.p**s, q.p ** (q.n - s)
        for a1 in range(f0):
            if (f1 - b0 * a1) % a0:
                continue
            b1 = (f1 - b0 * a1) // a0
            if (f2 - a1 * b1) % a0:
                continue
            a, b = TruncSeries((a0, a1, 0)), TruncSeries((b0, b1, (f2 - a1 * b1) // a0))
            if verify_factorization(f, a, b).passed:
                return a, b
    return None


def test_criterion_6_irreducibility_probes():
    """Criterion 6: the exact probe backs every irreducible verdict it can.

    Each of 100 irreducible draws is refuted by the probe at depth 2, or
    else its head really does factor through x^2, so that no depth-2
    search can refute it: for example 4 - 44x + 11x^2 is
    (2 - 31x + 145x^2)(2 + 9x) mod x^3.  Such a draw must carry a witness
    pair, built here without the probe and checked by verify_factorization,
    and the probe must refute it at depth 3.  The reducible draws met on
    the way really factor, so the probe must refute none of them.
    """
    started = time.perf_counter()
    rng = random.Random(SWEEP_SEED + 6)
    probed = witnessed = reducible = 0
    unsupported, refuted_reducible = [], []
    while probed < 100:
        p = rng.choice((2, 3, 5, 7, 11))
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        if p**n > 10**4:
            continue
        beta = rng.choice([b for b in range(-50, 51) if b and b % p])
        alpha = rng.choice([a for a in range(-50, 51) if a and a % p])
        q = QuadInput(p, n, m, beta, alpha)
        kind = classify_quadratic(q, attach_factors=False).kind
        if kind is VerdictKind.REDUCIBLE:
            reducible += 1
            if exhaustive_irreducibility_probe(q, depth=2) is not False:
                refuted_reducible.append((q.p, q.n, q.m, q.beta, q.alpha))
        if kind is not VerdictKind.IRREDUCIBLE:
            continue
        probed += 1
        if exhaustive_irreducibility_probe(q, depth=2) is True:
            continue
        if _depth2_witness(q) is not None and exhaustive_irreducibility_probe(q, depth=3) is True:
            witnessed += 1
        else:
            unsupported.append((q.p, q.n, q.m, q.beta, q.alpha))
    assert not refuted_reducible, (
        f"the probe refutes {len(refuted_reducible)} reducible inputs, "
        f"e.g. (p, n, m, beta, alpha) = {refuted_reducible[:5]}"
    )
    assert not unsupported, (
        f"{len(unsupported)} of 100 irreducible inputs are neither refuted at depth 2 "
        "nor shown to factor through x^2 and refuted at depth 3, "
        f"e.g. (p, n, m, beta, alpha) = {unsupported[:5]}"
    )
    _passed(
        6,
        started,
        f"({probed} probes: {probed - witnessed} refuted at depth 2, {witnessed} factor "
        f"through x^2 and are refuted at depth 3; {reducible} reducible draws unrefuted)",
    )


def test_criterion_7_tail_dichotomy():
    started = time.perf_counter()
    v = classify_general(TruncSeries((9, 3, -2, 1)))
    assert v.kind is VerdictKind.IRREDUCIBLE

    tail = [0] * 30  # coefficients c_3 .. c_32, all divisible by 9
    tail[0] = 9
    tail[3] = 27
    f = TruncSeries([9, 3, -2] + tail)
    assert f.order == 32
    v = classify_general(f)
    assert v.kind is VerdictKind.REDUCIBLE and v.verified_order == 32
    report = verify_factorization(f, *v.factors)
    assert report.passed and report.a0_proper and report.b0_proper

    v = classify_general(TruncSeries((9, 3, -2, 3)))
    assert v.kind is VerdictKind.UNKNOWN
    assert v.assumption and "p^2" in v.assumption
    _passed(7, started)


def test_criterion_8_byte_identical_reruns(capsys):
    started = time.perf_counter()
    args = [
        ["classify", "--p", "7", "--n", "2", "--m", "1", "--beta", "3", "--alpha", "51",
         "--format", "json", "--terms", "64"],
        ["classify", "--p", "3", "--n", "4", "--m", "2", "--beta", "1", "--alpha", "-29",
         "--format", "json", "--terms", "64"],
        ["classify", "--p", "2", "--n", "4", "--m", "3", "--beta", "3", "--alpha", "3",
         "--format", "json", "--terms", "64"],
        ["factor", "--p", "5", "--n", "2", "--beta-zero", "--alpha", "1",
         "--format", "json", "--terms", "64"],
    ]

    def run_all() -> str:
        chunks = []
        for argv in args:
            cli_main(argv)
            chunks.append(capsys.readouterr().out)
        return "".join(chunks)

    first, second = run_all(), run_all()
    assert first.encode() == second.encode()
    for line in first.splitlines():
        json.loads(line)

    # the randomized sweep is seed-pinned, so a fresh run reproduces itself too
    a = [classify_quadratic(q, terms=16) for q in _sample_inputs(50, SWEEP_SEED)]
    b = [classify_quadratic(q, terms=16) for q in _sample_inputs(50, SWEEP_SEED)]
    assert a == b
    _passed(8, started)
