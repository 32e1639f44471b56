import random

import pytest
from hypothesis import given, settings, strategies as st

import zxfactor.oracle
from oracles import brute_roots_mod, brute_square_mod, convolution, exhaustive_irreducibility_probe, spy
from zxfactor.classify import QuadInput, classify_quadratic
from zxfactor.oracle import _packed, _product_vanishes, verify_factorization
from zxfactor.series import TruncSeries


def test_brute_square_examples():
    assert brute_square_mod(-20, 3, 5) is True
    assert brute_square_mod(-20, 2, 6) is False
    assert brute_square_mod(0, 5, 4) is True


def test_brute_square_cap():
    with pytest.raises(ValueError):
        brute_square_mod(1, 11, 8)


def test_brute_roots_examples():
    assert brute_roots_mod(1, -3, 2, 7, 3) == [1, 2]
    assert brute_roots_mod(1, 0, 1, 5, 2) == [7, 18]
    assert brute_roots_mod(1, 0, 1, 3, 1) == []


def test_brute_roots_cap():
    with pytest.raises(ValueError):
        brute_roots_mod(1, 0, 1, 11, 7)


def test_verify_factorization_pass():
    f = TruncSeries((49, 21, 2))
    report = verify_factorization(f, TruncSeries((7, 2, 0)), TruncSeries((7, 1, 0)))
    assert report.passed and report.residuals == (0, 0, 0)


def test_verify_factorization_fail():
    f = TruncSeries((4, 2, 1))
    report = verify_factorization(f, TruncSeries((2, 1, 0)), TruncSeries((2, 1, 0)))
    assert not report.passed
    # (2 + x)^2 = 4 + 4x + x^2, so orders 1 is off by 2
    assert report.residuals == (0, 2, 0)


def test_verify_factorization_difference_of_squares():
    f = TruncSeries((25, 0, -1))
    report = verify_factorization(f, TruncSeries((5, -1, 0)), TruncSeries((5, 1, 0)))
    assert report.passed


def test_verify_factorization_order_mismatch():
    with pytest.raises(ValueError):
        verify_factorization(TruncSeries((1, 2)), TruncSeries((1,)), TruncSeries((1, 2)))


def test_verify_flags_unit_heads():
    f = TruncSeries((5, 0))
    report = verify_factorization(f, TruncSeries((1, 0)), TruncSeries((5, 0)))
    assert not report.a0_proper and not report.passed


def test_probe_corroborates_known_irreducibles():
    assert exhaustive_irreducibility_probe(QuadInput(2, 2, 1, 1, 1), depth=2) is True
    assert exhaustive_irreducibility_probe(QuadInput(3, 3, 2, 1, 1), depth=2) is True


def test_probe_inconclusive_on_reducible():
    assert exhaustive_irreducibility_probe(QuadInput(7, 2, 1, 3, 2), depth=2) is False


def test_probe_bounds():
    with pytest.raises(ValueError):
        exhaustive_irreducibility_probe(QuadInput(11, 5, 1, 1, 1), depth=2)
    with pytest.raises(ValueError):
        exhaustive_irreducibility_probe(QuadInput(3, 3, 2, 1, 1), depth=5)


def test_probe_exact_at_depth_2():
    # neither head factors through x^2 over Z, though each one's order-1 and order-2
    # congruences are solvable modulo p^(min(s,t)+1) for some head split
    assert exhaustive_irreducibility_probe(QuadInput(2, 6, 8, -31, 25), depth=2) is True
    assert exhaustive_irreducibility_probe(QuadInput(3, 6, 3, -40, 28), depth=2) is True


def test_probe_refutes_at_depth_3_a_head_that_factors_through_x2():
    q = QuadInput(2, 2, 2, -11, 11)
    # 4 - 44x + 11x^2 = (2 - 31x + 145x^2)(2 + 9x) mod x^3
    pair = TruncSeries((2, -31, 145)), TruncSeries((2, 9, 0))
    assert verify_factorization(q.head_series(2), *pair).passed
    assert exhaustive_irreducibility_probe(q, depth=2) is False
    assert exhaustive_irreducibility_probe(q, depth=3) is True


def test_probe_search_budget():
    with pytest.raises(ValueError, match="exceeds"):
        exhaustive_irreducibility_probe(QuadInput(2, 10, 6, -33, 17), depth=4)


def _convolution_report(f, a, b):
    """The report of the plain convolution, term by term."""
    f, a, b = f.coeffs, a.coeffs, b.coeffs
    residuals = tuple(c - fk for c, fk in zip(convolution(a, b, len(a) - 1), f))
    return residuals, abs(a[0]) != 1, abs(b[0]) != 1


def _signed(rng, order, height):
    bound = (1 << height) - 1
    return [rng.randint(-bound, bound) for _ in range(order + 1)]


_HEIGHT = st.one_of(st.integers(0, 48), st.integers(0, 600))  # small heights pack


@settings(max_examples=80, deadline=None)
@given(
    order=st.integers(0, 300),
    ha=_HEIGHT,
    hb=_HEIGHT,
    seed=st.integers(0, 2**32),
    corrupt=st.sampled_from((None, 0, 1, 2)),
    where=st.integers(0, 300),
    delta_bits=st.integers(0, 700),
)
def test_verify_matches_the_convolution(order, ha, hb, seed, corrupt, where, delta_bits):
    # one coefficient of f, a or b is corrupted in half of the draws, by
    # +-2^e plus a small offset, so that slot-sized errors are tried too
    rng = random.Random(seed)
    series = [None, _signed(rng, order, ha), _signed(rng, order, hb)]
    series[0] = list(convolution(series[1], series[2], order))
    if corrupt is not None:
        delta = rng.choice((-1, 1)) * ((1 << delta_bits) + rng.randint(-2, 2)) or 1
        series[corrupt][min(where, order)] += delta
    f, a, b = map(TruncSeries, series)
    report = verify_factorization(f, a, b)
    assert (report.residuals, report.a0_proper, report.b0_proper) == _convolution_report(f, a, b)


@pytest.mark.parametrize("signs", [(1, 1), (-1, -1), (1, -1)])
def test_verify_at_the_slot_bound(monkeypatch, signs):
    # every coefficient of a and b at +-(2^h - 1), all of one sign, so the
    # product coefficients reach (N + 1) * 2^(2h); at h = 39, N = 127 the
    # width rule leaves no rounding slack: 8w = 2h + bitlen(N + 1) + 2.
    # f is a*b written in balanced digits base 2^(8w - 8): it fits slots
    # one byte short of w, where it packs to A*B exactly, and must fail.
    order, h = 127, 39
    a = [signs[0] * ((1 << h) - 1)] * (order + 1)
    b = [signs[1] * ((1 << h) - 1)] * (order + 1)
    ab = convolution(a, b, order)
    w = (2 * h + (order + 1).bit_length() + 2) // 8
    assert 8 * w == 2 * h + (order + 1).bit_length() + 2
    short = 1 << (8 * w - 8)
    rest = sum(c * short**k for k, c in enumerate(a)) * sum(c * short**k for k, c in enumerate(b))
    digits = []
    for _ in range(order + 1):
        digit = (rest + short // 2) % short - short // 2
        digits.append(digit)
        rest = (rest - digit) // short
    packed = spy(monkeypatch, "_packed", zxfactor.oracle)
    pair = TruncSeries(a), TruncSeries(b)
    for f in (TruncSeries(digits), TruncSeries([-c for c in ab])):
        report = verify_factorization(f, *pair)
        assert not report.passed
        assert (report.residuals, report.a0_proper, report.b0_proper) == _convolution_report(f, *pair)
    assert verify_factorization(TruncSeries(ab), *pair).passed
    assert {width for _, width in packed} == {w} and len(packed) == 9


def test_verify_takes_the_cheaper_path():
    # at N = 1024 the m=nu pair has 2900-bit coefficients in b, which the
    # convolution checks faster; the 2m<n pair's 125 bits pack
    for q, packs in ((QuadInput(7, 4, 1, 3, 5), True), (QuadInput(7, 2, 1, 3, 51), False)):
        a, b = classify_quadratic(q, terms=1024).factors
        f = q.head_series(1024)
        assert _product_vanishes(f.coeffs, a.coeffs, b.coeffs) is packs
        assert verify_factorization(f, a, b).passed


@pytest.mark.parametrize("w", range(1, 10))
def test_packed_is_the_slot_sum(w):
    # up to 8 bytes a slot through machine words, from 9 through bytes
    top = (1 << (8 * w - 1)) - 1
    rng = random.Random(w)
    for coeffs in (
        [top] * 5,
        [-top] * 5,
        [0] * 5,
        [top, -top, 0, -1, 1, -top, top],
        [rng.randint(-top, top) for _ in range(40)],
    ):
        assert _packed(tuple(coeffs), w) == sum(c << (8 * w * k) for k, c in enumerate(coeffs))


@pytest.mark.parametrize("w", range(1, 10))
def test_verify_rejects_a_corruption_at_every_slot_width(monkeypatch, w):
    # At N = 16, bitlen(N + 1) = 5, so heights with h_a + h_b = 8w - 7 take
    # the width rule to exactly w bytes (at w = 1, b is 0 and a is +-1).
    # f = a*b, then f with one order moved one step toward zero, at each
    # order in turn, and for w >= 2 a or b with one coefficient's sign
    # flipped: every corrupted pair fails with the convolution's residuals,
    # checked through the product at width w.
    order = 16
    rng = random.Random(w)
    h_a = (8 * w - 6) // 2
    a = [rng.choice((-1, 1)) * ((1 << h_a) - 1) for _ in range(order + 1)]
    b = [rng.choice((-1, 1)) * ((1 << (8 * w - 7 - h_a)) - 1) for _ in range(order + 1)]
    ab = convolution(a, b, order)
    packed = spy(monkeypatch, "_packed", zxfactor.oracle)
    assert verify_factorization(*map(TruncSeries, (ab, a, b))).residuals == (0,) * (order + 1)
    corrupted = []
    for k in range(order + 1):
        f = list(ab)
        f[k] -= (f[k] > 0) - (f[k] < 0) or -1
        corrupted.append((f, a, b))
        if w >= 2 and k % 4 == 0:
            corrupted.append((ab, a[:k] + [-a[k]] + a[k + 1 :], b))
            corrupted.append((ab, a, b[:k] + [-b[k]] + b[k + 1 :]))
    for series in corrupted:
        f, a2, b2 = map(TruncSeries, series)
        report = verify_factorization(f, a2, b2)
        assert any(report.residuals)
        assert (report.residuals, report.a0_proper, report.b0_proper) == _convolution_report(f, a2, b2)
    assert {width for _, width in packed} == {w} and len(packed) == 3 * (1 + len(corrupted))
