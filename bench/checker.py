"""Independent answer checks for the benchmark.

Nothing here imports zxfactor: a change to the program must not be able
to approve its own output.  Expected verdicts come from the Z_p square
test and the constant-term rules, decided with the benchmark's own
arithmetic, and factor pairs are checked with an exact truncated product
computed by Kronecker substitution (one big-integer multiplication).
"""

from __future__ import annotations

from math import gcd, isqrt, prod

REDUCIBLE = "reducible"
IRREDUCIBLE = "irreducible"
UNIT = "unit"


def split_p(c: int, p: int) -> tuple[int, int]:
    """(u, v) with c = u * p**v and p not dividing u; c must be nonzero."""
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return c, v


def is_prime_small(n: int) -> bool:
    """Trial division; meant for n below about 10**12."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for q in range(3, isqrt(n) + 1, 2):
        if n % q == 0:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime_small(n):
        n += 1
    return n


def is_qr(u: int, p: int) -> bool:
    """Euler's criterion for a unit u modulo an odd prime p."""
    return pow(u % p, (p - 1) // 2, p) == 1


def is_square_zp_terms(p: int, terms) -> bool:
    """Is sum(c * p**e for c, e in terms) a square in Z_p?

    At most two terms.  The valuation and the unit residue (mod p, or mod
    8 for p = 2) are read off the exponents, so p**e is never built:
    decision-only inputs with n in the thousands stay cheap to check.
    """
    norm = []
    for c, e in terms:
        if c:
            u, v = split_p(c, p)
            norm.append((u, e + v))
    if len(norm) == 2 and norm[0][1] == norm[1][1]:
        s, e = norm[0][0] + norm[1][0], norm[0][1]
        norm = []
        if s:
            u, v = split_p(s, p)
            norm = [(u, e + v)]
    if not norm:
        return True  # zero is a square
    norm.sort(key=lambda t: t[1])
    u, v = norm[0]
    mod = 8 if p == 2 else p
    unit = u % mod
    if len(norm) == 2:
        u2, v2 = norm[1]
        unit = (u + u2 * pow(p, v2 - v, mod)) % mod
    if v % 2:
        return False
    return unit == 1 if p == 2 else is_qr(unit, p)


def expect_quadratic(p: int, n: int, m: int | None, beta: int | None, alpha: int) -> str:
    """p^n + p^m*beta*x + alpha*x^2 is reducible in Z[[x]] exactly when its
    discriminant p^(2m)*beta^2 - 4*alpha*p^n is a square in Z_p."""
    terms = [(-4 * alpha, n)]
    if beta is not None:
        terms.append((beta * beta, 2 * m))
    return REDUCIBLE if is_square_zp_terms(p, terms) else IRREDUCIBLE


def expect_quadratic_head(p: int, n: int, m: int, beta: int, alpha: int) -> str | None:
    """Verdict for p^n + p^m*beta*x + alpha*x^2 + (any tail), odd p, where
    the head alone decides; None where the tail can matter."""
    if 2 * m < n:
        return REDUCIBLE
    if 2 * m > n:
        if n % 2:
            return IRREDUCIBLE
        return REDUCIBLE if is_qr(-alpha, p) else IRREDUCIBLE
    mod = p**m
    roots = [y for y in range(mod) if (y * y - beta * y + alpha) % mod == 0]
    if not roots:
        return IRREDUCIBLE
    if any((2 * y - beta) % p for y in roots):
        return REDUCIBLE
    return None


def expect_constant(c0: int, c1: int, parts: tuple[int, ...] = ()) -> str | None:
    """Verdict decided by the constant term alone.

    ``parts`` is a known split of |c0| into pairwise coprime factors >= 2;
    two or more parts mean |c0| is not a prime power.
    """
    if c0 == 0:
        return IRREDUCIBLE if c1 in (1, -1) else REDUCIBLE
    if abs(c0) == 1:
        return UNIT
    if len(parts) >= 2:
        if any(x < 2 for x in parts) or prod(parts) != abs(c0):
            raise ValueError(f"bad split {parts} of {c0}")
        if any(gcd(x, y) != 1 for i, x in enumerate(parts) for y in parts[i + 1 :]):
            raise ValueError(f"split {parts} of {c0} is not coprime")
        return REDUCIBLE
    if is_prime_small(abs(c0)):
        return IRREDUCIBLE
    return None


def _pack(coeffs, width_bytes: int) -> int:
    """Signed Kronecker packing: sum(c_k * 2**(8*width_bytes*k))."""
    pos = b"".join((c if c > 0 else 0).to_bytes(width_bytes, "little") for c in coeffs)
    neg = b"".join((-c if c < 0 else 0).to_bytes(width_bytes, "little") for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def truncated_product(a, b, n: int) -> list[int]:
    """Coefficients 0..n of a*b, exactly, by Kronecker substitution.

    Slot k of the packed product holds c_k + 2**(w-1) for a slot width w
    wide enough that |c_k| < 2**(w-1), so no slot borrows from the next.
    """
    a, b = list(a[: n + 1]), list(b[: n + 1])
    bits = max(abs(c).bit_length() for c in a) + max(abs(c).bit_length() for c in b)
    width = (bits + (n + 1).bit_length() + 2) // 8 + 1
    slots = len(a) + len(b) - 1
    half = 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * slots, "little")
    raw = (_pack(a, width) * _pack(b, width) + bias).to_bytes(width * slots, "little")
    return [int.from_bytes(raw[k * width : (k + 1) * width], "little") - half for k in range(n + 1)]


def factor_failure(target, a, b) -> str | None:
    """Why (a, b) is not a proper factor pair of target through its order."""
    n = len(target) - 1
    if len(a) != n + 1 or len(b) != n + 1:
        return f"factor orders {len(a) - 1}/{len(b) - 1}, target order {n}"
    if abs(a[0]) == 1 or abs(b[0]) == 1:
        return "a factor has a unit constant term"
    prod = truncated_product(a, b, n)
    bad = next((k for k in range(n + 1) if prod[k] != target[k]), None)
    if bad is not None:
        return f"product differs from the input at order {bad}"
    return None


def verdict_failure(expect: str | None, kind: str, factors, target, factors_required: bool) -> str | None:
    """Why an answer (verdict kind plus optional factor pair) is wrong."""
    if expect is not None and kind != expect:
        return f"verdict {kind}, expected {expect}"
    if factors is not None:
        return factor_failure(target, factors[0], factors[1])
    if kind == REDUCIBLE and factors_required:
        return "reducible verdict without factors"
    return None


def bit_height(factors) -> int:
    return max(abs(c).bit_length() for s in factors for c in s)
