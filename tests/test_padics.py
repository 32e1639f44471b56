import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from zxfactor.oracle import brute_roots_mod, brute_square_mod
from zxfactor.padics import (
    _sqrt_mod_prime,
    is_prime,
    is_qr_mod_p,
    is_square_zp,
    lift_roots_mod_pk,
    prime_power_decompose,
    root_certificate,
    root_classes,
    smallest_prime_power_split,
    square_class,
    valuation,
)

PRIMES = (2, 3, 5, 7, 11)


def test_valuation_examples():
    assert valuation(-20, 2) == valuation(-20, 2).__class__(t=2, u=-5)
    v = valuation(-20, 2)
    assert (v.t, v.u) == (2, -5)
    assert (valuation(49, 7).t, valuation(49, 7).u) == (2, 1)
    # derived by repeated exact division by 3
    assert (valuation(810, 3).t, valuation(810, 3).u) == (4, 10)


def test_valuation_errors():
    with pytest.raises(ValueError):
        valuation(0, 5)
    with pytest.raises(ValueError):
        valuation(12, 6)


@given(st.integers(min_value=-(10**12), max_value=10**12).filter(bool), st.sampled_from(PRIMES))
def test_valuation_reconstructs_exactly(d, p):
    v = valuation(d, p)
    assert p**v.t * v.u == d
    assert v.u % p != 0


def _valuation_by_single_division(d, p):
    t = 0
    while d % p == 0:
        d //= p
        t += 1
    return t, d


@given(
    st.integers(min_value=-(10**6), max_value=10**6).filter(bool),
    st.sampled_from(PRIMES + (13, 10007)),
    st.integers(min_value=0, max_value=3000),
)
def test_valuation_matches_single_division(u, p, t):
    # splitting by the powers p^(2^k) must agree with single divisions
    d = p**t * u
    v = valuation(d, p)
    assert (v.t, v.u) == _valuation_by_single_division(d, p)


def test_prime_power_decompose_large_exponent():
    assert prime_power_decompose(3**12000) == (3, 12000)
    assert prime_power_decompose(2 * 3**5000) is None


def test_qr_examples():
    assert is_qr_mod_p(1, 7) is True
    assert is_qr_mod_p(-1, 5) is True  # 2^2 = 4 = -1 mod 5
    assert is_qr_mod_p(-1, 3) is False  # squares mod 3 are {0, 1}


def test_qr_matches_enumeration():
    for p in (3, 5, 7, 11, 13):
        squares = {y * y % p for y in range(1, p)}
        for u in range(1, p):
            assert is_qr_mod_p(u, p) == (u in squares)


def test_qr_errors():
    with pytest.raises(ValueError):
        is_qr_mod_p(3, 2)
    with pytest.raises(ValueError):
        is_qr_mod_p(10, 5)


def test_square_zp_paper_discriminant():
    # the discriminant of 6 + 2x + x^2 is -20
    assert is_square_zp(-20, 3).is_square is True
    assert is_square_zp(-20, 3).unit_residue == 1
    s2 = is_square_zp(-20, 2)
    assert s2.is_square is False and s2.unit_residue == 3  # -5 = 3 mod 8
    s5 = is_square_zp(-20, 5)
    assert s5.is_square is False and s5.valuation == 1


def test_square_zp_zero():
    s = is_square_zp(0, 7)
    assert s.is_square and s.is_zero and s.valuation is None


def test_square_class_of_power_times_unit():
    assert square_class(4, -11, 5) == is_square_zp(-11 * 5**4, 5)
    assert square_class(3, 7, 2) == is_square_zp(56, 2)
    with pytest.raises(ValueError):
        square_class(0, 10, 5)


def test_square_zp_against_oracle_grid():
    ks = {2: 9, 3: 8, 5: 6, 7: 6}
    for p, k in ks.items():
        for d in range(-60, 61):
            if d == 0:
                continue
            if k < valuation(d, p).t + 3:
                continue
            assert is_square_zp(d, p).is_square == brute_square_mod(d, p, k), (d, p)


def test_lift_roots_examples():
    assert lift_roots_mod_pk(1, -3, 2, 7, 3) == [1, 2]
    assert lift_roots_mod_pk(1, 0, 1, 5, 2) == [7, 18]  # 7^2 = 49 = -1 mod 25
    assert lift_roots_mod_pk(1, 0, 1, 3, 1) == []


def test_lift_roots_rejects_vanishing_polynomial():
    with pytest.raises(ValueError):
        lift_roots_mod_pk(9, 27, 81, 3, 2)


def test_lift_roots_against_oracle():
    rng = random.Random(7)
    for _ in range(60):
        p = rng.choice((2, 3, 5, 7))
        k = rng.randint(1, 5)
        while p**k > 10**5:
            k -= 1
        A, B, C = (rng.randint(-30, 30) for _ in range(3))
        if A % p**k == 0 and B % p**k == 0 and C % p**k == 0:
            continue
        assert lift_roots_mod_pk(A, B, C, p, k) == brute_roots_mod(A, B, C, p, k)


@st.composite
def _quadratic_mod_pk(draw):
    """(A, B, C, p, K) with p^K <= 10^6, weighted towards the hard shapes:
    p = 2, p | A, double roots and content divisible by p."""
    p = draw(st.sampled_from((2, 2, 3, 5, 7, 11, 101)))
    K = draw(st.integers(min_value=1, max_value=6))
    while p**K > 10**6 or (p**K > 10**4 and draw(st.booleans())):
        K -= 1
    small = st.integers(min_value=-40, max_value=40)
    shape = draw(st.sampled_from(("free", "double", "content")))
    if shape == "double":  # s*(y - r)^2 + p^k*c: a repeated root mod p^k
        s = draw(st.sampled_from((1, -1, 3, p, 2 * p, p * p)))
        r, c = draw(small), draw(small)
        k = draw(st.integers(min_value=0, max_value=2 * K + 1))
        A, B, C = s, -2 * s * r, s * r * r + p**k * c
    elif shape == "content":  # p | A, and p^e divides B and C
        e = draw(st.integers(min_value=0, max_value=K))
        A = p ** draw(st.integers(min_value=1, max_value=3)) * draw(small)
        B, C = p**e * draw(small), p**e * draw(small)
    else:
        A, B, C = draw(small), draw(small), draw(small)
    pK = p**K
    assume(not (A % pK == 0 and B % pK == 0 and C % pK == 0))
    return A, B, C, p, K


@settings(max_examples=300, deadline=None)
@given(_quadratic_mod_pk())
def test_lift_roots_matches_brute_force(case):
    A, B, C, p, K = case
    roots = lift_roots_mod_pk(A, B, C, p, K)
    assert roots == brute_roots_mod(A, B, C, p, K)
    classes = root_classes(A, B, C, p, K)
    assert classes == sorted(classes)
    assert all(1 <= j <= K and 0 <= r < p**j for r, j in classes)
    assert sum(p ** (K - j) for _, j in classes) == len(roots)  # disjoint
    if classes:
        assert classes[0][0] == roots[0]


def test_root_classes_keep_repeated_roots_whole():
    # (y - 1)^2 = 5 * p^6 mod p^9: two classes mod p^6, p^3 roots in each
    for p in (31, 101, 10**12 + 39):
        classes = root_classes(1, -2, 1 - 5 * p**6, p, 9)
        assert [j for _, j in classes] == [6, 6]
        for r, _ in classes:
            assert (r - 1) % p**3 == 0
            assert ((r - 1) // p**3) ** 2 % p**3 == 5 % p**3
    assert root_classes(1, -2, 1 - 5 * 31**6, 31, 9)[0][0] == 188577031


@pytest.mark.parametrize("p", [3, 5, 7, 17, 41, 97, 65537, 998244353, 10**12 + 39])
def test_sqrt_mod_prime_examples(p):
    for a in range(min(p, 200)):
        s = _sqrt_mod_prime(a, p)
        if pow(a, (p - 1) // 2, p) in (0, 1):
            assert s is not None and s * s % p == a
        else:
            assert s is None


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=3, max_value=10**12), st.integers(min_value=0, max_value=10**12))
def test_sqrt_mod_prime_against_sympy(n, a):
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory import sqrt_mod

    p = sympy.prevprime(n + 1)
    s = _sqrt_mod_prime(a, p)
    expected = sqrt_mod(a, p, all_roots=True)
    if not expected:
        assert s is None
    else:
        assert s in expected


def test_root_certificate_nondegenerate():
    # y^2 - 3y + 51 mod 7^3 has roots {50, 296}; 50 is the canonical pick
    cert = root_certificate(3, 51, 7, 3)
    assert cert.a == 50 and cert.K == 3
    assert cert.mu == 4 and cert.r == 1  # g(50) = 2401 = 7^4
    assert cert.ell == 0 and cert.t_unit == -97


def test_root_certificate_exact_root_sentinel():
    cert = root_certificate(3, 2, 7, 1)  # (y-1)(y-2)
    assert cert.a in (1, 2) and cert.mu is None and cert.r == 0


def test_root_certificate_root_mod_p_exists_for_zero_disc_residue():
    # y^2 - y - 1 has the double root 3 mod 5 even though disc 5 has odd valuation
    cert = root_certificate(1, -1, 5, 1)
    assert cert is not None and cert.a == 3
    assert cert.mu == 1 and cert.r == 1
    assert root_certificate(1, -1, 5, 2) is None


def test_root_certificate_invariants_randomized():
    rng = random.Random(99)
    for _ in range(150):
        p = rng.choice(PRIMES)
        K = rng.randint(1, 4)
        beta, alpha = rng.randint(-40, 40), rng.randint(-40, 40)
        cert = root_certificate(beta, alpha, p, K)
        expect_roots = brute_roots_mod(1, -beta, alpha, p, K)
        if cert is None:
            assert not expect_roots
            continue
        assert cert.a % p**K in expect_roots
        g = cert.a**2 - beta * cert.a + alpha
        if cert.mu is None:
            assert g == 0 and cert.r == 0
        else:
            assert g == p**cert.mu * cert.r and cert.r % p != 0
            assert cert.mu >= K
        if cert.ell is None:
            assert beta - 2 * cert.a == 0
        else:
            assert beta - 2 * cert.a == p**cert.ell * cert.t_unit
            assert cert.t_unit % p != 0


def test_prime_power_decompose():
    assert prime_power_decompose(49) == (7, 2)
    assert prime_power_decompose(8) == (2, 3)
    assert prime_power_decompose(12) is None
    assert prime_power_decompose(1) is None
    assert prime_power_decompose(97) == (97, 1)


def test_smallest_prime_power_split():
    assert smallest_prime_power_split(6) == (2, 3)
    assert smallest_prime_power_split(12) == (3, 4)
    assert smallest_prime_power_split(-6) == (2, -3)
    with pytest.raises(ValueError):
        smallest_prime_power_split(8)


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in known)
