"""Brute-force references the tests compare the fast paths against, the
rows of the classifier's decision table, the inputs shared by more than
one test module, a pair check and a recording spy.

The references deliberately re-derive everything by exhaustive scan, so that
agreement with the padics and factor modules is meaningful evidence;
nothing in the package calls them.  The only concessions to speed are a
cached square table per modulus and, in the irreducibility probe,
solving each order for b_k instead of scanning it and scanning each a_k
only modulo the power of p that the later orders can see.  Both keep the
answers exact.
"""

from functools import lru_cache
from math import isqrt

from zxfactor.classify import QuadInput, VerdictKind
from zxfactor.oracle import verify_factorization
from zxfactor.padics import root_classes

_SQUARE_CAP = 10**7
_ROOTS_CAP = 10**6
_PROBE_BUDGET = 10**6


@lru_cache(maxsize=8)
def _square_table(modulus: int) -> bytes:
    table = bytearray(modulus)
    for y in range(modulus):
        table[y * y % modulus] = 1
    return bytes(table)


R, I, U = VerdictKind.REDUCIBLE, VerdictKind.IRREDUCIBLE, VerdictKind.UNKNOWN
#: every row of the decision table as (kind, rule, engine); an UNKNOWN row
#: carries its reason in place of the rule
DECISION_ROWS = {
    (R, "S3.beta0-reducible", "factor_simple_root"),
    (I, "S3.beta0-irreducible", None),
    (R, "S4.beta0-reducible", "factor_p2_scaled"),
    (I, "S4.beta0-irreducible", None),
    (R, "S3.2m-lt-n", "factor_simple_root"),
    (R, "S4.2m-lt-n", "factor_simple_root"),
    (I, "S3.2m-gt-n-odd", None),
    (I, "S4.2m-gt-n-odd", None),
    (I, "S4.n-eq-2m", None),
    (R, "S3.disc-square", "factor_m_eq_nu"),
    (R, "S3.disc-square", "factor_simple_root"),
    (I, "S3.disc-nonsquare", None),
    (R, "S4.disc-square", "factor_p2_m_eq_nu1"),
    (R, "S4.disc-square", "factor_p2_scaled"),
    (I, "S4.disc-nonsquare", None),
    # tailed
    (U, "beta = 0 with a nonzero tail has no covered criterion", None),
    (R, "S5.2m-lt-n", "factor_simple_root"),
    (I, "S5.2m-gt-n-odd", None),
    (U, "p = 2 with 2m > n even and a tail has no covered criterion", None),
    (R, "S5.2m-gt-n-even-qr", "factor_simple_root"),
    (I, "S5.2m-gt-n-even-nonqr", None),
    (I, "S5.no-root", None),
    (R, "S5.simple-root", "factor_simple_root"),
    (I, "S5.double-root-c3-unit", None),
    (R, "S5.double-root-divisible-tail", "factor_tail"),
    (
        U,
        "double root mod p with p | c_3 but p^2 does not divide every provided "
        "c_k: reducibility depends on deeper tail coefficients",
        None,
    ),
    (U, "n = 2m with only non-simple roots mod p^m and no covered tail criterion", None),
}


# padic-wide's known-defect constants: the 12- and 13-base strong
# pseudoprimes and nextprime(10^20) * nextprime(3 * 10^20), each a product
# of two primes with ratio near 2 or 3
DEFECT_CONSTANTS = {
    318665857834031151167461: (399165290221, 798330580441),
    3317044064679887385961981: (1287836182261, 2575672364521),
    100000000000000000039 * 300000000000000000053: (100000000000000000039, 300000000000000000053),
}


def check_pair(f, pair) -> None:
    """The pair multiplies to the series f through its order, and neither
    head is a unit; a_0*b_0 = f_0 is then p^n for a QuadInput's head."""
    report = verify_factorization(f, *pair)
    assert report.passed, report
    a0, b0 = pair[0].coeffs[0], pair[1].coeffs[0]
    assert a0 * b0 == f.coeffs[0] and abs(a0) != 1 and abs(b0) != 1


def expand_roots(A: int, B: int, C: int, p: int, K: int) -> list[int]:
    """Every root of A*y^2 + B*y + C mod p^K, expanded from its residue classes."""
    return sorted(y for r, j in root_classes(A, B, C, p, K) for y in range(r, p**K, p**j))


def spy(monkeypatch, name, *modules):
    """Bind one wrapper to ``name`` on each of ``modules``: it records the
    arguments of every call and calls what the first module bound there.
    Returns the list of argument tuples, filled as the calls come."""
    calls, real = [], getattr(modules[0], name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, recording)
    return calls


def trial_division_is_prime(n: int) -> bool:
    """Is n prime?  Divides by every d with 2 <= d <= sqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def convolution(a, b, n: int) -> tuple[int, ...]:
    """Coefficients 0..n of the product of two coefficient sequences, each
    taken as zero beyond its length."""
    a, b = tuple(a) + (0,) * n, tuple(b) + (0,) * n
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1))


def residue(x: int, p: int) -> bool:
    """Is x a nonzero square mod the odd prime p?  Euler's criterion."""
    return pow(x, (p - 1) // 2, p) == 1


def brute_square_mod(d: int, p: int, k: int) -> bool:
    """Is there y in [0, p^k) with y^2 = d mod p^k?  Exhaustive."""
    modulus = p**k
    if modulus > _SQUARE_CAP:
        raise ValueError(f"modulus {modulus} exceeds the brute-force cap {_SQUARE_CAP}")
    return _square_table(modulus)[d % modulus] == 1


def brute_roots_mod(A: int, B: int, C: int, p: int, k: int) -> list[int]:
    """All roots of A*y^2 + B*y + C mod p^k by full scan."""
    modulus = p**k
    if modulus > _ROOTS_CAP:
        raise ValueError(f"modulus {modulus} exceeds the brute-force cap {_ROOTS_CAP}")
    return [y for y in range(modulus) if (A * y * y + B * y + C) % modulus == 0]


def exhaustive_irreducibility_probe(q: QuadInput, depth: int = 2) -> bool:
    """Exact finite search for a factorization of the input through ``depth``.

    True means no integers a_1..a_depth, b_1..b_depth extend non-unit heads
    a_0 * b_0 = p^n to a product a*b that agrees with the input through
    x^depth; then the input has no factorization in Z[[x]], which
    corroborates irreducibility.  False means such integers exist, which is
    inconclusive: a factorization through x^depth need not extend further.

    Up to swapping the factors and negating both, the heads are a_0 = p^s,
    b_0 = p^t with s + t = n and s <= t.  Order k then reads
    p^s*b_k + p^t*a_k = f_k - sum_{0<j<k} a_j*b_{k-j}; it is solvable iff
    p^s divides the right side, and then a_k forces b_k.  Orders k+1 ..
    depth see a_k only modulo p^((depth-k)*s), so each a_k runs over that
    range and the search is exact at every depth.  Raises ValueError when
    p^n > 10^4, outside depths 1..4, or when the search would try more
    than 10^6 values of the a_k (which only depth 4 can reach).
    """
    p, n = q.p, q.n
    if p**n > 10**4:
        raise ValueError("probe bound exceeded: need p^n <= 10^4")
    if not 1 <= depth <= 4:
        raise ValueError("probe depth must be between 1 and 4")
    f = [p**n, 0 if q.beta is None else p**q.m * q.beta, q.alpha]
    f += [q.tail[i] if i < len(q.tail) else 0 for i in range(depth - 2)]
    budget = [_PROBE_BUDGET]
    return not any(_split_admits(p, s, n - s, f, depth, budget) for s in range(1, n // 2 + 1))


def _split_admits(p: int, s: int, t: int, f: list[int], depth: int, budget: list[int]) -> bool:
    """Do integers a_1..a_depth, b_1..b_depth extend a_0 = p^s, b_0 = p^t?"""
    ps, pt = p**s, p**t
    a, b = [ps], [pt]

    def rec(k: int) -> bool:
        rest = f[k] - sum(a[j] * b[k - j] for j in range(1, k))
        if rest % ps:
            return False
        if k == depth:
            return True
        width = p ** ((depth - k) * s)
        budget[0] -= width
        if budget[0] < 0:
            raise ValueError(f"probe search exceeds {_PROBE_BUDGET} assignments at depth {depth}")
        for ak in range(width):
            a.append(ak)
            b.append((rest - pt * ak) // ps)
            if rec(k + 1):
                return True
            a.pop()
            b.pop()
        return False

    return rec(1)


def canonical_simple_root_pair(q: QuadInput, order: int) -> tuple[list[int], list[int]]:
    """The pair a, b through ``order`` that the A = 1 row (2m < n) must give.

    The heads are a_0 = p^s with s = m and b_0 = p^(n-s).  a_1 is the
    smallest root mod p^s of g(y) = p^(n-2s)*y^2 - beta*y + alpha, found by
    scan.  The input through ``order``, zero beyond, has one root
    r = p^s*y in pZ_p with y = -1/a_1 mod p: Newton's method finds y on
    F(y) = f(p^s*y)/p^(2s), whose derivative at y is g'(a_1), a unit.
    Then a is the base-r expansion of r with digits in [0, a_0):
    a_k = -(S_(k-1)/r^k) mod a_0 for S_(k-1) = sum_(j<k) a_j*r^j, so
    a(r) = 0, and b = f/a by exact division, order by order.
    """
    p, n, s = q.p, q.n, q.m
    if not 2 * s < n:
        raise ValueError("the A = 1 oracle covers 2m < n only")
    f = [p**n, p**s * q.beta, q.alpha, *q.tail][: order + 1]
    f += [0] * (order + 1 - len(f))
    a = [p**s, brute_roots_mod(p ** (n - 2 * s), -q.beta, q.alpha, p, s)[0]]
    modulus = p ** (s * (order + 2))  # r to this precision fixes every digit through order
    F = [c * p ** (s * k) // p ** (2 * s) for k, c in enumerate(f)]
    y = -pow(a[1], -1, p) % p
    for _ in range(modulus.bit_length().bit_length() + 1):  # precision doubles per step
        value = sum(c * pow(y, k, modulus) for k, c in enumerate(F))
        slope = sum(k * c * pow(y, k - 1, modulus) for k, c in enumerate(F) if k)
        y = (y - value * pow(slope, -1, modulus)) % modulus
    assert sum(c * pow(y, k, modulus) for k, c in enumerate(F)) % modulus == 0
    r = p**s * y
    S = a[0] + a[1] * r
    for k in range(2, order + 1):
        rk = p ** (s * k)
        assert S % rk == 0, "a(r) = 0 to the order so far"
        a.append(-(S // rk) * pow(y, -k, modulus) % a[0])
        S = (S + a[k] * pow(r, k, modulus)) % modulus
    b = []
    for k in range(order + 1):
        rest = f[k] - sum(a[j] * b[k - j] for j in range(1, k + 1))
        b.append(rest // a[0])
        assert rest % a[0] == 0, "a divides f"
    return a[: order + 1], b
