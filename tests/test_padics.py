import hashlib
import random
import time
from math import gcd, isqrt, log2

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import brute_roots_mod, brute_square_mod, trial_division_is_prime
from test_acceptance import expand_roots
from zxfactor import padics
from zxfactor.limits import LIMITS
from zxfactor.padics import (
    PROVEN_PRIME_BOUND,
    _CLOSE_STEPS,
    _hart,
    _hensel_lift,
    _iroot,
    _smallest_block,
    _sqrt_mod_prime,
    _square_class,
    _strong_lucas_probable_prime,
    _valuation,
    is_prime,
    is_square_zp,
    root_classes,
)

PRIMES = (2, 3, 5, 7, 11)


def test_valuation_examples():
    assert _valuation(-20, 2) == (2, -5)
    assert _valuation(49, 7) == (2, 1)
    # derived by repeated exact division by 3
    assert _valuation(810, 3) == (4, 10)


def test_valuation_errors():
    with pytest.raises(ValueError):
        _valuation(0, 5)


@given(st.integers(min_value=-(10**12), max_value=10**12).filter(bool), st.sampled_from(PRIMES))
def test_valuation_reconstructs_exactly(d, p):
    t, u = _valuation(d, p)
    assert p**t * u == d
    assert u % p != 0


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
    assert _valuation(d, p) == _valuation_by_single_division(d, p)


def test_prime_power_decompose_large_exponent():
    assert _smallest_block(3**12000) == (3, 12000)
    assert _smallest_block(2 * 3**5000) == (2, 1)


def test_qr_examples():
    # a unit is a square in Z_p exactly when it is a residue mod p (odd p)
    assert _square_class(0, 1, 7).is_square is True
    assert _square_class(0, -1, 5).is_square is True  # 2^2 = 4 = -1 mod 5
    assert _square_class(0, -1, 3).is_square is False  # squares mod 3 are {0, 1}


def test_qr_matches_enumeration():
    # the odd unit squares mod 8 are {1}: the p = 2 rule
    for p, mod in ((2, 8), (3, 3), (5, 5), (7, 7), (11, 11), (13, 13)):
        squares = {y * y % mod for y in range(1, mod) if y % p}
        for u in range(1, mod):
            if u % p:
                assert _square_class(0, u, p).is_square == (u in squares)
                assert _square_class(2, u, p).is_square == (u in squares)
                assert _square_class(1, u, p).is_square is False


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
    assert _square_class(4, -11, 5) == is_square_zp(-11 * 5**4, 5)
    assert _square_class(3, 7, 2) == is_square_zp(56, 2)
    with pytest.raises(ValueError):
        _square_class(0, 10, 5)


def test_square_zp_against_oracle_grid():
    ks = {2: 9, 3: 8, 5: 6, 7: 6}
    for p, k in ks.items():
        for d in range(-60, 61):
            if d == 0:
                continue
            if k < _valuation(d, p)[0] + 3:
                continue
            assert is_square_zp(d, p).is_square == brute_square_mod(d, p, k), (d, p)


def test_lift_roots_examples():
    assert expand_roots(1, -3, 2, 7, 3) == [1, 2]
    assert expand_roots(1, 0, 1, 5, 2) == [7, 18]  # 7^2 = 49 = -1 mod 25
    assert expand_roots(1, 0, 1, 3, 1) == []


def test_lift_roots_rejects_vanishing_polynomial():
    with pytest.raises(ValueError):
        root_classes(9, 27, 81, 3, 2)


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
        assert expand_roots(A, B, C, p, k) == brute_roots_mod(A, B, C, p, k)


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
    roots = expand_roots(A, B, C, p, K)
    assert roots == brute_roots_mod(A, B, C, p, K)
    classes = root_classes(A, B, C, p, K)
    assert classes == sorted(classes)
    assert all(1 <= j <= K and 0 <= r < p**j for r, j in classes)
    assert sum(p ** (K - j) for _, j in classes) == len(roots)  # disjoint
    if classes:
        assert classes[0][0] == roots[0]


def test_hensel_lift_of_a_cubic_matches_a_scan():
    # y^3 - 6 has the three simple roots 3, 5 and 6 mod 7
    f = (-6, 0, 0, 1)
    for k in range(1, 5):
        pk = 7**k
        scan = [y for y in range(pk) if (y**3 - 6) % pk == 0]
        assert sorted(_hensel_lift(f, t0, 7, k) for t0 in (3, 5, 6)) == scan


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


@pytest.mark.parametrize("bits", (17, 31, 61))
@pytest.mark.parametrize("residue", (1, 3, 5, 7))
def test_sqrt_mod_prime_against_sympy_in_each_class_mod_8(bits, residue):
    # p = 3 mod 4 and p = 5 mod 8 take one power each, p = 1 mod 8
    # Tonelli-Shanks; residues and non-residues alike, against sympy
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory import sqrt_mod

    rng = random.Random(bits * 8 + residue)
    primes = []
    while len(primes) < 4:
        p = sympy.nextprime(rng.getrandbits(bits) | 1 << (bits - 1))
        if p % 8 == residue and p.bit_length() == bits:
            primes.append(p)
    for p in primes:
        values = [0, 1, p - 1, 2, 3] + [rng.randrange(p) for _ in range(40)]
        non_residues = [a for a in values if not sympy.is_quad_residue(a, p)]
        assert len(non_residues) >= 5
        for a in values:
            s = _sqrt_mod_prime(a, p)
            expected = sqrt_mod(a, p, all_roots=True)
            assert (s is None) == (not expected)
            assert s is None or s in expected


@pytest.mark.parametrize("K", (1, 2, 3))
@pytest.mark.parametrize(
    "A, B, C, p, all_primitive",
    [
        (1, -3, 2, 5, True),  # (y - 1)(y - 2): two simple roots mod p
        (3, 1, -2, 7, True),  # (3y - 2)(y + 1)
        (1, -2, 1 - 9 * 2, 3, False),  # (y - 1)^2 - 18: the class 1 mod 3 has content 9
        (5, -15, 10, 5, False),  # 5*(y - 1)(y - 2)
        (9, 0, -9 * 4, 3, False),  # 9*(y^2 - 4), content 9
    ],
)
def test_root_classes_against_brute_force(monkeypatch, A, B, C, p, all_primitive, K):
    # where every class polynomial is primitive, as with simple roots mod
    # p, no content is searched and no valuation is taken
    calls = []
    monkeypatch.setattr(padics, "_valuation", lambda d, q: calls.append(d) or _valuation(d, q))
    pK = p**K
    if A % pK == 0 and B % pK == 0 and C % pK == 0:
        with pytest.raises(ValueError, match="every residue is a root"):
            padics._root_classes(A, B, C, p, K)
        return
    classes = padics._root_classes(A, B, C, p, K)
    roots = sorted(y for r, j in classes for y in range(r, pK, p**j))
    assert roots == brute_roots_mod(A, B, C, p, K)
    assert bool(calls) != all_primitive


def test_prime_power_decompose():
    # x is a prime power exactly when its smallest block is all of x
    assert _smallest_block(49) == (7, 2)
    assert _smallest_block(8) == (2, 3)
    assert _smallest_block(97) == (97, 1)


def test_smallest_prime_power_split():
    assert _smallest_block(6) == (2, 1)
    assert _smallest_block(12) == (3, 1)  # 3 < 2^2
    assert _smallest_block(2**3 * 3**2) == (2, 3)


def test_checked_entries_refuse_oversized_input_first():
    started = time.perf_counter()
    # p is refused by its size before any primality test, prime or not
    for p in (2**16383 + 1, 2**512 + 75):
        message = f"p has {p.bit_length()} bits, beyond the limit of {LIMITS.max_p_bits}"
        with pytest.raises(ValueError, match=message):
            is_square_zp(5, p)
        with pytest.raises(ValueError, match=message):
            root_classes(1, 0, -2, p, 1)
    assert is_square_zp(5, 2**512 - 569).valuation == 0  # the largest 512-bit prime
    # p^K is refused before it is built
    k = int(LIMITS.max_pn_bits / log2(7))
    assert root_classes(1, 0, -3, 7, k) == []  # 3 is no square mod 7
    for K in (k + 1, 10**5, 3 * 10**6):
        with pytest.raises(ValueError, match=f"beyond the limit of {LIMITS.max_pn_bits}"):
            root_classes(1, 0, -2, 7, K)
    assert time.perf_counter() - started < 1.0


def test_is_prime_small():
    # through the small-number table's edge at 37^2 = 1369 and past it
    for n in range(-3, 1400):
        assert is_prime(n) == trial_division_is_prime(n), n


# the row bounds psi_k of the base table: each is a strong pseudoprime to
# the bases of its own row, so only the next row's bases reject it
BASE_TABLE_BOUNDS = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051,
)
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971)
TWELVE_BASE_PSEUDOPRIMES = (318665857834031151167461, 3317044064679887385961981)


def test_is_prime_matches_sympy_below_2e5():
    sympy = pytest.importorskip("sympy")
    assert [n for n in range(2 * 10**5) if is_prime(n) != sympy.isprime(n)] == []


def test_is_prime_matches_sympy_on_a_sample_up_to_1e40():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(40)
    sample = [rng.randrange(10 ** rng.randint(2, 40)) for _ in range(3000)]
    sample += [sympy.nextprime(rng.randrange(10**20, 10**40)) for _ in range(100)]
    sample += [sympy.nextprime(rng.randrange(10**20)) * sympy.nextprime(rng.randrange(10**20)) for _ in range(100)]
    assert [n for n in sample if is_prime(n) != sympy.isprime(n)] == []
    assert sum(n >= PROVEN_PRIME_BOUND and is_prime(n) for n in sample) > 50


@pytest.mark.parametrize(
    "n", BASE_TABLE_BOUNDS + STRONG_LUCAS_PSEUDOPRIMES + (561, 41041) + TWELVE_BASE_PSEUDOPRIMES
)
def test_is_prime_rejects_pseudoprimes(n):
    sympy = pytest.importorskip("sympy")
    assert sympy.isprime(n) is False
    assert is_prime(n) is False


def test_strong_lucas_test_alone():
    # the Lucas half of BPSW only runs above the bound; check it below, where
    # its pseudoprimes are known: exactly these odd composites pass it
    sympy = pytest.importorskip("sympy")
    passed = [n for n in range(3, 20000, 2) if _strong_lucas_probable_prime(n)]
    assert [n for n in passed if not sympy.isprime(n)] == list(STRONG_LUCAS_PSEUDOPRIMES)
    assert len(passed) == sympy.primepi(20000) - 1 + len(STRONG_LUCAS_PSEUDOPRIMES)


def _factor_corpus(seed):
    """Products of prime powers of mixed sizes: at most one prime above
    10^6 (the budgeted rho finds the smaller ones quickly), and squares
    of such products."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    corpus = []
    for i in range(120):
        primes = set(rng.sample((2, 3, 5, 7, 11, 13, 37), rng.randint(0, 2)))
        primes |= {sympy.nextprime(rng.randrange(40, 10 ** rng.randint(2, 6))) for _ in range(rng.randint(0, 2))}
        if i % 2:
            primes.add(sympy.nextprime(rng.randrange(10**6, 10 ** rng.randint(7, 20))))
        x = 1
        for q in primes:
            x *= q ** rng.randint(1, 4)
        corpus.append(x ** (1 + (i % 10 == 0)) if x > 1 else 2)
    return corpus


def test_factor_search_matches_factorint():
    sympy = pytest.importorskip("sympy")
    for x in _factor_corpus(8):
        q, e = min(sympy.factorint(x).items(), key=lambda block: block[0] ** block[1])
        assert _smallest_block(x) == (q, e)


def test_factor_search_stops_once_the_smallest_block_is_proved():
    # two 21-digit primes that neither Hart's method nor the rho budget split
    hard = 919367361131264483681 * 443755074776162632957
    with pytest.raises(ValueError, match="budget"):
        _smallest_block(hard)
    # a block below 41 is the smallest without splitting the rest
    assert _smallest_block(2 * hard) == (2, 1)
    assert _smallest_block(37 * hard) == (37, 1)
    # a larger block below 10^6 is proved the smallest by trial division
    assert _smallest_block(64 * hard) == (2, 6)
    assert _smallest_block(37**2 * hard) == (37, 2)
    assert _smallest_block(3**5 * 41**2 * hard) == (3, 5)
    started = time.perf_counter()
    assert _smallest_block(999983 * hard) == (999983, 1)
    assert time.perf_counter() - started < 1.0
    # the short rho finds 41 before Hart's method or the full budget runs
    assert _smallest_block(41 * hard) == (41, 1)
    with pytest.raises(ValueError, match="budget"):  # 1009^2 is above 10^6
        _smallest_block(1009**2 * hard)


# Hart's first multipliers split each of these into two parts, and not
# both parts are prime: 1000003*3000017 times 2000107*1499933, and
# 1000003*1000033 = 1000036000099 times the prime just below it (the
# close pass gives that prime) or just above it (it gives 1000036000099)
CLOSE_BUT_COMPOSITE = {
    1000003 * 3000017 * 2000107 * 1499933: (3000026000051, 0),
    1000036000057 * 1000003 * 1000033: (1000036000057, 1),
    1000036000123 * 1000003 * 1000033: (1000036000099, 1),
}


@pytest.mark.parametrize("r", CLOSE_BUT_COMPOSITE)
def test_close_pass_parts_go_back_to_the_queue(monkeypatch, r):
    sympy = pytest.importorskip("sympy")
    import zxfactor.padics

    d, primes = CLOSE_BUT_COMPOSITE[r]
    assert _hart(r, _CLOSE_STEPS) == d
    assert is_prime(d) + is_prime(r // d) == primes
    split, calls = zxfactor.padics._split, []
    monkeypatch.setattr(zxfactor.padics, "_split", lambda n: calls.append(n) or split(n))
    q, e = min(sympy.factorint(r).items(), key=lambda block: block[0] ** block[1])
    assert _smallest_block(r) == (q, e)
    # d and r // d are searched on their own: the whole r is never split
    assert r not in calls


def test_factor_search_matches_factorint_on_close_primes():
    sympy = pytest.importorskip("sympy")
    for x in _factor_corpus(23) + _factor_corpus(24):
        q, e = min(sympy.factorint(x).items(), key=lambda block: block[0] ** block[1])
        assert _smallest_block(x) == (q, e)
    # two primes with ratio near u/v: the close pass splits some, the Hart
    # stage of _split the rest; factorint of p*q is {p: 1, q: 1}
    rng = random.Random(23)
    ratios = [(u, v) for u in range(1, 17) for v in range(1, 17) if u * v <= 16 and gcd(u, v) == 1]
    for bits in (40, 80, 120, 160, 200):
        for u, v in ratios:
            p = sympy.nextprime(rng.getrandbits(bits) | 1 << (bits - 1))
            q = sympy.nextprime(u * p // v + rng.randrange(bits))
            assert _smallest_block(p * q) == (min(p, q), 1)
    # the close pass splits these, and not both parts are prime
    cases = _close_but_composite(rng, sympy)
    assert min(cases)[0] < PROVEN_PRIME_BOUND < max(cases)[0]
    for x, primes in cases:
        d = _hart(x, _CLOSE_STEPS)
        assert d and not (sympy.isprime(d) and sympy.isprime(x // d))
        assert _smallest_block(x) == (min(primes), 1)


def _close_but_composite(rng, sympy):
    """Seeded (x, the primes of x) for x = c*c' with c a product of two
    primes with ratio near 3 and c' within sqrt(c) of c, so Hart's first
    multiplier splits x into c and c': c' is two primes with ratio near
    2, or the prime just below or above c."""
    cases = []
    for bits in (12, 16, 20, 28, 40):
        a = sympy.nextprime(rng.getrandbits(bits) | 1 << (bits - 1))
        a2 = sympy.nextprime(3 * a + rng.randrange(bits))
        c = a * a2
        b = sympy.nextprime(isqrt(c // 2))
        while abs(b * (b2 := sympy.nextprime(c // b)) - c) > isqrt(c):
            b = sympy.nextprime(b)
        cases.append((c * b * b2, (a, a2, b, b2)))
        cases += [(c * q, (a, a2, q)) for q in (sympy.prevprime(c), sympy.nextprime(c))]
    return cases


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 2**600), st.integers(3, 300), st.sampled_from((-1, 0, 1)))
def test_iroot_is_the_integer_part_of_the_root(b, k, shift):
    # around exact powers, where a start below the root would go wrong
    n = b**k + shift
    r = _iroot(n, k)
    assert r**k <= n < (r + 1) ** k


def test_factor_search_takes_roots_before_the_bit_limit():
    # p^n passes whenever p does; the limit is on what is tested or split
    big = 41 ** (LIMITS.max_p_bits // 5)
    assert big.bit_length() > LIMITS.max_p_bits
    assert _smallest_block(big) == (41, LIMITS.max_p_bits // 5)
    assert _smallest_block(10007**40 * 10009**40) == (10007, 40)
    with pytest.raises(ValueError, match="no perfect power, beyond the limit"):
        _smallest_block(big * 43)
    assert _smallest_block(64 * big * 43) == (43, 1)  # 43 < 64 < 41^102
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"beyond the limit of {LIMITS.max_pn_bits}"):
        _smallest_block(41 ** (LIMITS.max_pn_bits // 5 + 1))
    assert _smallest_block(41 ** (LIMITS.max_pn_bits // 6)) == (41, LIMITS.max_pn_bits // 6)
    # a prime exponent near the limit: every smaller prime k is tried first
    assert _smallest_block(41**24439) == (41, 24439)
    assert time.perf_counter() - started < 2.0


def _above_bound_corpus(sympy):
    """Seeded constants whose cofactors reach PROVEN_PRIME_BOUND or more:
    two close primes at each ratio u/v with u*v <= 16, q^2, q^3, primes,
    composites with a factor rho finds, two products of two primes that
    are close to each other, close pairs times a small block, and inputs
    the search refuses."""
    rng = random.Random(28)

    def prime(bits):
        return sympy.nextprime(rng.getrandbits(bits) | 1 << (bits - 1))

    corpus = []
    ratios = [(u, v) for u in range(1, 17) for v in range(1, 17) if u * v <= 16 and gcd(u, v) == 1]
    for bits in (48, 64, 100, 160, 250):
        for u, v in ratios:
            p = prime(bits)
            corpus.append(p * sympy.nextprime(u * p // v + rng.randrange(bits)))
    for bits in (40, 48, 80, 128, 170, 256):
        q = prime(bits)
        corpus += [q**2, q**3]
    corpus += [prime(bits) for bits in (79, 80, 89, 127, 200, 300, 400, 511, 512)]
    for _ in range(40):
        x = prime(rng.randint(80, 480))
        for _ in range(rng.randint(1, 3)):
            x *= prime(rng.randint(10, 24)) ** rng.randint(1, 2)
        corpus.append(x)
    for bits in (24, 40, 64):
        a, b, c = prime(bits), prime(bits), prime(bits)
        corpus.append(a * b * c * sympy.nextprime(a * b // c))
    for small in (2, 37, 41, 2**10, 43**3, 1009, 999983, 1000003, 2**20 + 7, 10**7 + 19):
        p = prime(rng.choice((48, 64, 120)))
        corpus.append(small * p * sympy.nextprime(3 * p + rng.randrange(64)))
    corpus += [prime(60) * prime(62) for _ in range(3)]  # no close pass, maybe past the rho budget
    corpus += [prime(200) * prime(320), prime(257) * sympy.nextprime(2**257), 1009**2 * prime(60) * prime(64)]
    corpus.append(43 * 41 ** (LIMITS.max_pn_bits // 5 + 1))
    return corpus


def _search_outcome(x):
    try:
        return repr(_smallest_block(x))
    except ValueError as err:
        return f"error: {err}"


@pytest.fixture(scope="module")
def above_bound_corpus():
    return _above_bound_corpus(pytest.importorskip("sympy"))


def test_factor_search_above_the_proven_bound_keeps_its_blocks(above_bound_corpus):
    corpus = above_bound_corpus
    lines = [f"{x:x} {_search_outcome(x)}" for x in corpus]
    assert len(lines) == 286 and sum(" error: " in line for line in lines) == 10
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "e3e15e60c6f305afbb68a821429a6ffce43182bd3e9323769268c7b711674ec1"


# padic-wide's known-defect constants: the 12- and 13-base strong
# pseudoprimes and nextprime(10^20) * nextprime(3 * 10^20), each a product
# of two primes with ratio near 2 or 3
DEFECT_CONSTANTS = {
    318665857834031151167461: (399165290221, 798330580441),
    3317044064679887385961981: (1287836182261, 2575672364521),
    100000000000000000039 * 300000000000000000053: (100000000000000000039, 300000000000000000053),
}


def _spy(monkeypatch, name):
    calls, real = [], getattr(padics, name)
    monkeypatch.setattr(padics, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_close_primes_above_the_bound_skip_the_probable_prime_test(monkeypatch):
    lucas = _spy(monkeypatch, "_strong_lucas_probable_prime")
    power = _spy(monkeypatch, "_perfect_power_root")
    hart = _spy(monkeypatch, "_hart")
    for c, parts in DEFECT_CONSTANTS.items():
        assert c >= PROVEN_PRIME_BOUND
        assert _smallest_block(c) == (min(parts), 1)
        assert hart == [(c, _CLOSE_STEPS)]
        hart.clear()
    assert lucas == [] and power == []


def test_close_pass_runs_once_per_cofactor(monkeypatch, above_bound_corpus):
    hart = _spy(monkeypatch, "_hart")
    for x in above_bound_corpus:
        _search_outcome(x)
        close = [n for n, steps in hart if steps == _CLOSE_STEPS]
        assert len(close) == len(set(close))
        hart.clear()


def test_square_above_the_bound_takes_its_root_once(monkeypatch):
    q = 10**12 + 39
    tested = _spy(monkeypatch, "is_prime")
    power = _spy(monkeypatch, "_perfect_power_root")
    for x, block in ((q * q, (q, 2)), (7**3 * q * q, (7, 3))):
        assert _smallest_block(x) == block
        assert tested == [(q,)] and power == []
        tested.clear()


def _below_bound_corpus(sympy):
    """Seeded constants whose cofactors stay below PROVEN_PRIME_BOUND:
    squares, cubes and fifth powers of primes, squares of products of two
    primes, two close primes at each ratio u/v with u*v <= 16, small
    blocks times two primes that are not close and times a close pair,
    products of two to four primes, and three products of a 38- and a
    39-bit prime, past the rho budget."""
    rng = random.Random(30)

    def prime(bits):
        return sympy.nextprime(rng.getrandbits(bits) | 1 << (bits - 1))

    corpus = []
    for bits in (6, 8, 12, 16, 20, 26, 38):
        q = prime(bits)
        corpus += [q**k for k in (2, 3, 5) if k * bits < 78]
        corpus.append((prime(bits // 2) * prime(bits // 2)) ** 2)
    ratios = [(u, v) for u in range(1, 17) for v in range(1, 17) if u * v <= 16 and gcd(u, v) == 1]
    for bits in (12, 24, 36):
        for u, v in ratios:
            p = prime(bits)
            corpus.append(p * sympy.nextprime(u * p // v + rng.randrange(bits)))
    for small in (2, 37, 41, 2**10, 43**3, 1009, 65537, 999983, 1000003):
        corpus.append(small * prime(rng.randint(10, 28)) * prime(rng.randint(29, 36)))
        p = prime(rng.randint(12, 28))
        corpus.append(small * p * sympy.nextprime(3 * p + rng.randrange(30)))
    for k in (2, 3, 4):
        for _ in range(12):
            x = 1
            for _ in range(k):
                x *= prime(rng.randint(6, 76 // k))
            corpus.append(x)
    corpus += [prime(38) * prime(39) for _ in range(3)]
    return corpus


@pytest.fixture(scope="module")
def below_bound_corpus():
    return _below_bound_corpus(pytest.importorskip("sympy"))


def test_factor_search_below_the_proven_bound_keeps_its_blocks(below_bound_corpus):
    corpus = below_bound_corpus
    for x in corpus:
        for q in padics._SMALL_PRIMES:
            x = _valuation(x, q)[1]
        assert x < PROVEN_PRIME_BOUND
    lines = [f"{x:x} {_search_outcome(x)}" for x in corpus]
    assert len(lines) == 202 and sum(" error: " in line for line in lines) == 3
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "072bec202314f55a4539aad3b9f803df91e354c216ae682c33339cad1e8be31f"


def test_close_pass_runs_once_per_cofactor_below_the_bound(monkeypatch, below_bound_corpus):
    test_close_pass_runs_once_per_cofactor(monkeypatch, below_bound_corpus)


def test_close_pass_comes_before_the_trial_proof(monkeypatch):
    # the close pass splits x into 542197*1626613 and 664177*1327877; once
    # 542197 is taken (below _TRIAL_LIMIT), the second part is split by the
    # close pass too, not shown free of factors below 542197 by dividing
    # it by every odd number up to there
    a, b = 542197 * 1626613, 664177 * 1327877
    hart = _spy(monkeypatch, "_hart")
    trial = _spy(monkeypatch, "prod")
    assert _smallest_block(a * b) == (542197, 1)
    assert (b, _CLOSE_STEPS) in hart and trial == []


def test_non_residue_mod_a_prime_1_mod_8_costs_one_power(monkeypatch):
    # Tonelli-Shanks sees a non-residue in b = a^q, before it searches for
    # the non-residue whose power q a root needs
    calls = []
    monkeypatch.setattr(padics, "pow", lambda *args: calls.append(args) or pow(*args), raising=False)
    for p in (17, 97, 65537, 998244353, 2013265921):
        assert p % 8 == 1
        non_residues = [a for a in range(2, 200) if pow(a, (p - 1) // 2, p) == p - 1][:5]
        for a in non_residues:
            assert _sqrt_mod_prime(a, p) is None
            assert len(calls) == 1
            calls.clear()


def _brute_or_sympy_roots(A, B, C, p, K):
    """Every root in [0, p^K) of A*y^2 + B*y + C: a scan while p^K <= 10^5,
    else, for odd p and a unit 2A, y = (z - B)/(2A) for each square root z
    of B^2 - 4AC mod p^K (sympy.sqrt_mod)."""
    pK = p**K
    if pK <= 10**5:
        return brute_roots_mod(A, B, C, p, K)
    sympy = pytest.importorskip("sympy")
    zs = sympy.sqrt_mod(B * B - 4 * A * C, pK, all_roots=True)
    inv = pow(2 * A, -1, pK)
    return sorted((z - B) * inv % pK for z in zs)


@pytest.mark.parametrize("p", (2, 3, 10007, 100003, 2**31 - 1))
def test_root_classes_with_two_simple_roots_against_sympy(p):
    # A*(y - s)*(y - t) with s != t mod p: two simple roots, each lifted
    # to a class mod p^K, for monic and non-monic A; at p = 2 a simple
    # root needs A and B odd, so only y*(y - 1)-shaped pairs qualify
    rng = random.Random(p)
    for K in range(1, 6):
        pK = p**K
        for _ in range(6):
            A = rng.choice((1, -1, 3, rng.randrange(1, pK)))
            while A % p == 0:
                A += 1
            s = rng.randrange(pK)
            t = s + rng.randrange(1, p) + p * rng.randrange(p ** (K - 1))
            A, B, C = A, -A * (s + t), A * s * t
            classes = padics._root_classes(A, B, C, p, K)
            assert classes == sorted([(s % pK, K), (t % pK, K)])
            roots = sorted(y for r, j in classes for y in range(r, pK, p**j))
            assert roots == _brute_or_sympy_roots(A, B, C, p, K)
            assert classes == root_classes(A, B, C, p, K)
