"""Constructive factorization engines.

Each engine turns a classified-reducible input into an explicit pair of
power-series factors a, b through a requested order N.  The engines
differ only in their hypothesis checks and their seeds, the first
coefficients of a; the input fixes b = f/a (``series._quotient``) up to
the first unknown a_k, so b_0 = f_0/a_0 = scale * a_0.  One core extends
the seeds order by order.  At stage m it sets a_m = A * ~a_m, where ~a_m is
the canonical residue modulo a_0 that keeps order m + lag of the product
divisible, and b_m then follows exactly from order m.  That residue is
c^-1 times the order's remainder, where c is a unit modulo a_0, which is
what makes the recurrence total.  At lag one the core derives each
order's divisor D = A*p^v(c0) from c0 = b_1 - scale*a_1; the seeds make
t_k a multiple of D, which divides A^2.  Each lift checks c and inverts
it once; a stage is then one multiplication, one reduction and one exact
division, after its cross sum sum_(i,j>=2) a_j*b_i over the order.  A
lag-one lift of order N >= _RUNNING_MIN_ORDER reads those sums from one
running Kronecker-packed product in slots of _RUNNING_BITS bits, pushing
a_m and b_m into it once each (past order (N+1)/2 into the unread sums
alone), while the heights fit the slots, and takes plain sums otherwise
(:func:`_cross_sums`).  The scale A per engine (l is half the valuation
of beta^2 - 4*alpha, of beta^2 - alpha when p = 2):

    engine                      A               lag
    factor_simple_root          1               1
    factor_p2_scaled            2^nu            1
    factor_p2_m_eq_nu1          2^(l+1)         1
    factor_m_eq_nu, nu<=l       p^(2l-nu)       1
    factor_tail                 p               1
    factor_m_eq_nu, nu>l        p^(nu-l)        2

Lag one is :func:`_lift`, lag two :func:`_lift2`.  The engines ask
their Z_p questions through the classifier's helpers: whether a
discriminant is a square (``padics._square_class``) and the roots of a
seed quadratic (``padics._root_classes``).  Every engine takes a
:class:`~zxfactor.classify.QuadInput` and the order, and checks its
finished pair once with :func:`~zxfactor.oracle.verify_factorization`
against the input through that order; a nonzero residual or a unit head
raises :class:`EngineInvariantError` (a bug, never an input condition).
Which engine splits which input is the classifier's decision table.

Whenever b_0*y^2 - f_1*y + a_0*f_2 has an integer root and every tail
coefficient is zero, every engine of the table but factor_tail emits
the finite polynomial factorization directly instead of running the
recurrence (the recurrence certificates degenerate there), except
factor_simple_root when n = 2m.
"""

from __future__ import annotations

from math import gcd, isqrt
from operator import mul
from typing import TYPE_CHECKING

from .limits import require_terms
from .oracle import verify_factorization
from .padics import _root_classes, _square_class, _valuation
from .series import TruncSeries, _quotient

if TYPE_CHECKING:  # pragma: no cover
    from .classify import QuadInput

__all__ = [
    "EngineInvariantError",
    "factor_simple_root",
    "factor_p2_scaled",
    "factor_m_eq_nu",
    "factor_p2_m_eq_nu1",
    "factor_coprime_constant",
    "factor_tail",
]


class EngineInvariantError(RuntimeError):
    """An internal step identity failed; indicates a bug, not bad input."""


def _unit_inverse(modulus: int, c: int) -> int:
    if gcd(c, modulus) != 1:
        raise EngineInvariantError(f"step coefficient {c} is not a unit mod {modulus}")
    return pow(c, -1, modulus)


def _step(modulus: int, c: int, c_inv: int, r: int) -> tuple[int, int]:
    """a_N = r * c^-1 mod modulus and the exact quotient (r - c*a_N) / modulus."""
    a_n = r * c_inv % modulus
    s_next, rem = divmod(r - c * a_n, modulus)
    if rem:
        raise EngineInvariantError("unit step division was not exact")
    return a_n, s_next


def _exact_div(num: int, den: int, what: str) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise EngineInvariantError(f"{what}: {num} is not divisible by {den}")
    return q


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _verified(tag: str, targets, a: list[int], b: list[int], n: int):
    """The pair a, b through order n, checked once against the targets."""
    pair = TruncSeries(a[: n + 1]), TruncSeries(b[: n + 1])
    report = verify_factorization(TruncSeries(targets[: n + 1]), *pair)
    if not report.passed:
        bad = next((k for k, r in enumerate(report.residuals) if r), None)
        raise EngineInvariantError(
            f"{tag}: first nonzero residual at product order {bad}; "
            f"unit head: a_0 {not report.a0_proper}, b_0 {not report.b0_proper}"
        )
    return pair


def _square_half_valuation(core: int, p: int, what: str) -> int:
    """l = v(core)/2 for a core that is a square in Z_p; ValueError otherwise."""
    sq = _square_class(*_valuation(core, p), p)
    _require(sq.is_square, f"{what} is not a square in Z_{p}: input is irreducible")
    return sq.valuation // 2


def _smallest_root(A: int, B: int, C: int, p: int, K: int, tag: str) -> int:
    classes = _root_classes(A, B, C, p, K)
    if not classes:
        raise EngineInvariantError(f"{tag}: no root mod {p}^{K} despite the reducible hypotheses")
    return classes[0][0]


# ---------------------------------------------------------------------------
# the integer-root shortcut and the lifting core

# A lag-one lift of order N reads its cross sums from the running product
# of :func:`_cross_sums` when N >= _RUNNING_MIN_ORDER, in slots of
# _RUNNING_BITS bits.  Measured on the cli-deep benchmark lines of seeds
# 21-25 (CPython 3.11, shared 2-vCPU machine; cli._classify per line, best
# of 7, the variants alternating in one process), as time with the running
# product over time with plain sums:
#   by order, packed at every order (the 150 lines of order 64, run at
#     N = 8 to 64): 1.04 at N = 8, 1.02 at 12, 1.01 at 16, 0.97 at 24, 0.94
#     at 32, 0.89 at 48 and 0.86 at 64; the lag-one rows 1.03-1.07 at 8 and
#     0.95-1.00 at 24.  No workload lifts to orders 9-31, so 32 stays.
#   by slot width 48 / 64 / 80 / 96 (the 460 lag-one lines): at N = 128 the
#     small-height rows (2m<n, m>nu, beta = 0 with odd p, S5.simple-root)
#     0.57-0.61 / 0.62-0.65 / 0.65-0.68 / 0.69-0.70 and the rest 0.66-1.01 /
#     0.65-1.01 / 0.64-0.99 / 0.68-1.00, all 0.81 / 0.80 / 0.79 / 0.79; at
#     N = 256 the small-height rows 0.53-0.61 / 0.50-0.54 / 0.54-0.56 /
#     0.58-0.61, all 0.85 / 0.81 / 0.80 / 0.80, and 48 bits falls back on 97
#     of their 215 lines, 64 on 19.  Per CLI line 48 bits makes the median
#     line 4% faster, the sum 2% slower and m>nu at N = 256 13% slower.
_RUNNING_MIN_ORDER = 32
_RUNNING_BITS = 64


def _integer_split(targets, a0: int, n: int, tag: str):
    """(a_0 + r1*x)(b_0 + r2*x) with b_0 = f_0/a_0 and r1 the smaller
    integer root of b_0*y^2 - f_1*y + a_0*f_2, when there is one and the
    targets have no tail; None otherwise.  Orders 1 and 2 give
    r2 = (f_1 - b_0*r1)/a_0."""
    b0, f1, f2 = targets[0] // a0, targets[1], targets[2]
    disc = f1 * f1 - 4 * a0 * b0 * f2
    if any(targets[3:]) or disc < 0:
        return None
    d = isqrt(disc)
    roots = [num // (2 * b0) for num in (f1 - d, f1 + d) if d * d == disc and num % (2 * b0) == 0]
    if not roots:
        return None
    pad = [0] * (n - 1)
    a, b = [a0, roots[0]] + pad, [b0, (f1 - b0 * roots[0]) // a0] + pad
    return _verified(tag, targets, a, b, n)


def _start(tag: str, targets, seeds: list[int], lag: int = 1):
    """Complete the seeds a_0..a_(k-1) from orders 0..k+lag-1.

    The quotient of the targets by the seeds (a_k, a_(k+1) taken as 0) is
    b_0..b_(k-1), then t_k = b_k + scale*a_k, which order k fixes before
    a_k is known, and for lag two the order-(k+1) sum u of :func:`_lift2`.
    Returns a (a copy of the seeds), b, scale = b_0/a_0 and that tail.
    """
    k = len(seeds)
    h = _quotient(targets, seeds, k + lag - 1)
    if h is None:
        raise EngineInvariantError(f"{tag}: the seeds do not divide the head")
    return list(seeds), h[:k], _exact_div(h[0], seeds[0], f"{tag}: head"), h[k:]


def _lift(tag: str, targets, n: int, a: list[int], A: int = 1):
    """Lag one.  With t_m = b_m + scale*a_m, order m + 1 reads

        f_(m+1) = a_0*t_(m+1) + c0*a_m + a_1*t_m + sum_(j=2..m-1) a_j*b_(m+1-j)

    where c0 = b_1 - scale*a_1.  Stage m takes a_m = A*~a_m with the ~a_m
    modulo a_0 that makes t_(m+1) a multiple of D = A*gcd(c0, A*a_0); the
    equation divided by D has the unit c = c0*A/D.  The seeds make t_k a
    multiple of D, which divides A*A, so every later division is exact.
    """
    a, b, scale, (t,) = _start(tag, targets, a)
    c0 = b[1] - scale * a[1]
    D = A * gcd(c0, A * a[0])
    c = c0 * A // D
    c_inv = _unit_inverse(a[0], c)
    cross = None  # below the minimum order the sums are taken here: no generator to set up
    if n >= _RUNNING_MIN_ORDER:
        cross = _cross_sums(a, b, max(map(int.bit_length, [A * a[0]] + a[2:])), n)
    for m in range(len(a), n + 1):
        v = a[1] * t + (next(cross) if cross else sum(map(mul, a[2:m], b[m - 1 : 1 : -1])))
        atil, t_next = _step(a[0], c, c_inv, _exact_div(targets[m + 1] - v, D, tag))
        a.append(A * atil)
        b.append(t - scale * a[m])
        t = D * t_next
    return _verified(tag, targets, a, b, n)


def _cross_sums(a: list[int], b: list[int], h_a: int, n: int):
    """Yield C(m+1) = sum_(j=2..m-1) a_j*b_(m+1-j) for the stages m = len(a)..n.

    The caller appends a_m and b_m before it asks for the next sum, and
    h_a bounds the bits of every a_j with j >= 2, present and future.
    The sums are read from a running product in slots of w =
    _RUNNING_BITS bits, X = 2^w: PA = sum a_j X^(j-2), PB likewise for b,
    and R holds the partial sums of the cross sums not yet read, the next
    one in slot 0.  A read takes the balanced residue of R mod X and
    shifts it off; a push adds a_m*PB + b_m*PA to R, the new pairs landing
    in the low slots.  The seeds are pushed before the first read.  From
    2m > N + 1 on, a_m and b_m stay out of PA and PB: they meet no later
    pair below order N + 2, and no stage reads past N + 1.  (The pair m, m
    lands at order 2m, so at odd N the middle pair still goes in.)  Every
    |C(s)| < (N+1) * 2^(h_a+h_b), so the read is exact while
    w >= h_a + h_b + bitlen(N+1) + 1.  From the first b_m that breaks that
    bound, on either side of the middle order, the rest of the sums are
    plain sums.
    """
    k, w = len(a), _RUNNING_BITS
    room = w - h_a - (n + 1).bit_length() - 1  # the bits b may reach
    half, mask = 1 << (w - 1), (1 << w) - 1
    pa = pb = r = 0
    for m in range(2, n + 1):
        if m >= k:  # a stage: read C(m+1)
            if room < 0:
                yield sum(map(mul, a[2:m], b[m - 1 : 1 : -1]))
                continue
            r += half
            yield (r & mask) - half
            r >>= w
        if b[m].bit_length() > room:  # a seed (m < k) or the pair just appended
            room = -1
            continue
        if 2 * m > n + 1:  # a_m and b_m meet no later pair below order n + 2
            r += a[m] * pb + b[m] * pa
            continue
        shift = (m - 2) * w
        pb += b[m] << shift
        r += a[m] * pb + b[m] * pa
        pa += a[m] << shift


def _lift2(tag: str, targets, n: int, a: list[int], A: int):
    """Lag two, for the seeds a_0, a_1, a_2 and f_0 = a_0^2 (so b_0 = a_0).

    With s_m = b_m + a_m, order m + 1 gives s_(m+1) = u_m - t*~a_m with
    t = (b_1 - a_1)*A/a_0 and u_m free of ~a_m, so it cannot fix ~a_m;
    order m + 2 does, modulo a_0, with the unit c below.  The quotient of
    that solve is u_(m+1), the order-(m+2) sum the next stage needs.
    """
    a, b, _, (s, u) = _start(tag, targets, a, 2)
    t = _exact_div((b[1] - a[1]) * A, a[0], f"{tag}: t")
    c = A * (b[2] - a[2]) - t * a[1]
    c_inv = _unit_inverse(a[0], c)
    for m in range(3, n + 1):
        v = a[1] * u + a[2] * s + sum(map(mul, a[3:m], b[m - 1 : 2 : -1]))
        atil, u_next = _step(a[0], c, c_inv, targets[m + 2] - v)
        a.append(A * atil)
        b.append(s - a[m])
        s, u = u - t * atil, u_next
    return _verified(tag, targets, a, b, n)


# ---------------------------------------------------------------------------
# engines


def factor_simple_root(q: "QuadInput", n: int) -> tuple[TruncSeries, TruncSeries]:
    """Split p^n + p^m*beta*x + alpha*x^2 (+ tail) from a simple root.

    With s = min(m, n/2) (n/2 when beta = 0) the factor heads are p^s and
    p^(n-s), so scale = p^(n-2s), and a_1 is the smallest root of
    g(y) = scale*y^2 - p^(m-s)*beta*y + alpha mod p^s.  The one hypothesis
    is Hensel's: a_1 is a simple root mod p.  The step unit is then
    -g'(a_1), and the recurrence absorbs any tail.  This covers 2m < n,
    odd p with n even and m > n/2 or beta = 0 (a beta = 0 input takes no
    tail), and n = 2m, whose pairs always come from the recurrence: the
    integer-root shortcut is not tried there.
    """
    _require(q.beta is not None or not q.tail, "beta = 0 engine takes no tail")
    _require(q.n >= 2, "needs n >= 2")
    _require(n >= 2, "factor order must be at least 2")
    targets = q.head_series(n).coeffs + (0,)
    p, s = q.p, q.n // 2 if q.beta is None else min(q.m, q.n // 2)
    ps, scale = p**s, p ** (q.n - 2 * s)
    b = 0 if q.beta is None else p ** (q.m - s) * q.beta
    classes = _root_classes(scale, -b, q.alpha, p, s)
    # g mod p has only simple roots, one double root or none: the smallest root speaks for all
    _require(bool(classes) and (2 * scale * classes[0][0] - b) % p != 0, "g has no simple root mod p")
    if q.beta is None or q.n != 2 * q.m:
        pair = _integer_split(targets, ps, n, "simple root poly")
        if pair is not None:
            return pair
    return _lift("simple root", targets, n, [ps, classes[0][0]])


def factor_m_eq_nu(q: "QuadInput", n: int) -> tuple[TruncSeries, TruncSeries]:
    """Split p^(2nu) + p^nu*beta*x + alpha*x^2 with p odd and m = nu.

    Needs beta^2 - 4*alpha = p^(2l) * q, a square in Z_p (a perfect
    integer square short-circuits to polynomial factors).  The seed a_1 = a
    is the smallest root of g(y) = y^2 - beta*y + alpha mod p^(3*max(l, nu)),
    with g(a) = p^mu * r and beta - 2a = p^l * t for units r, t: past the
    shortcut g has no integer root, and beta = 2a would give g(a) the
    valuation 2l, below the precision.  For nu > l the seed a_2 is 0 and
    the lag-two core runs with A = p^(nu-l); for nu <= l the seed is
    a_2 = p^(mu-nu-l) * z * a_1 with z = -r/t mod p^nu.
    """
    _require(not q.tail, "engine takes no tail")
    _require(q.beta is not None and q.n % 2 == 0 and q.m == q.n // 2, "engine needs m = n/2")
    _require(q.p != 2, "p = 2 is handled by the scaled engines")
    _require(n >= 2, "factor order must be at least 2")
    p, nu, beta, alpha = q.p, q.n // 2, q.beta, q.alpha
    pn = p**nu
    targets = q.head_series(n).coeffs + (0, 0)
    pair = _integer_split(targets, pn, n, "m=nu poly")
    if pair is not None:
        return pair
    ell = _square_half_valuation(beta * beta - 4 * alpha, p, "beta^2 - 4*alpha")
    a = _smallest_root(1, -beta, alpha, p, 3 * max(ell, nu), "m=nu")
    mu, r = _valuation(a * a - beta * a + alpha, p)
    ell_a, t_unit = _valuation(beta - 2 * a, p)
    if ell_a != ell:
        raise EngineInvariantError("m=nu: the seed root disagrees with the discriminant data")
    if nu > ell:
        return _lift2("m=nu nu>l", targets, n, [pn, a, 0], p ** (nu - ell))
    a2 = p ** (mu - nu - ell) * (-r * pow(t_unit, -1, pn) % pn) * a
    return _lift("m=nu nu<=l", targets, n, [pn, a, a2], p ** (2 * ell - nu))


def factor_p2_scaled(q: "QuadInput", n: int) -> tuple[TruncSeries, TruncSeries]:
    """Split 4^nu + 2^m*beta*x + alpha*x^2 for p = 2 and m > nu + 1 or beta = 0.

    Seeds from a root a_1 of y^2 - 2^(m-nu)*beta*y + alpha mod 2^(2nu+1)
    (no linear term when beta = 0); the odd step unit is
    2^(m-nu-1)*beta - a_1.  The root exists exactly when alpha = 7 mod 8,
    or alpha = 3 mod 8 when m = nu + 2.
    """
    _require(not q.tail, "engine takes no tail")
    nu = q.n // 2
    _require(
        q.p == 2 and q.n % 2 == 0 and (q.beta is None or q.m > nu + 1),
        "engine needs p = 2, even n and m > n/2 + 1 or beta = 0",
    )
    _require(n >= 2, "factor order must be at least 2")
    targets = q.head_series(n).coeffs + (0,)
    b = 0 if q.beta is None else 2 ** (q.m - nu) * q.beta
    classes = _root_classes(1, -b, q.alpha, 2, 2 * nu + 1)
    _require(bool(classes), "mod-8 reducibility condition fails: input is irreducible")
    pn = 2**nu
    pair = _integer_split(targets, pn, n, "p2 scaled poly")
    if pair is not None:
        return pair
    return _lift("p2 scaled", targets, n, [pn, classes[0][0]], pn)


def factor_p2_m_eq_nu1(q: "QuadInput", n: int) -> tuple[TruncSeries, TruncSeries]:
    """Split 4^nu + 2^(nu+1)*beta*x + alpha*x^2 for p = 2 and m = nu + 1.

    Needs beta^2 - alpha = 2^(2l) * q, a square in Z_2: q = 1 mod 8
    (perfect squares short-circuit).  Seeds from a root a_1 of
    y^2 - 2*beta*y + alpha mod 2^(2l+nu+2); the odd step unit is
    u = (beta - a_1)/2^l.
    """
    _require(not q.tail, "engine takes no tail")
    _require(q.beta is not None and q.n % 2 == 0, "engine needs beta != 0 and even n")
    nu = q.n // 2
    _require(q.p == 2 and q.m == nu + 1, "engine needs p = 2 and m = nu + 1")
    _require(n >= 2, "factor order must be at least 2")
    beta, alpha = q.beta, q.alpha
    pn = 2**nu
    targets = q.head_series(n).coeffs + (0,)
    pair = _integer_split(targets, pn, n, "p2 m=nu+1 poly")
    if pair is not None:
        return pair
    ell = _square_half_valuation(beta * beta - alpha, 2, "beta^2 - alpha")
    a1 = _smallest_root(1, -2 * beta, alpha, 2, 2 * ell + nu + 2, "p2 m=nu+1")
    return _lift("p2 m=nu+1", targets, n, [pn, a1], 2 ** (ell + 1))


def factor_coprime_constant(
    f: TruncSeries, u: int, v: int, n: int
) -> tuple[TruncSeries, TruncSeries]:
    """Lift a coprime split f_0 = u * v to a factorization through order n.

    Each coefficient equation f_k = u*b_k + v*a_k + (cross terms) has a
    Bezout solution; a_k is taken canonically in [0, |u|).
    """
    require_terms(n)
    if n > f.order:
        raise ValueError(f"factoring beyond the input's order {f.order} is refused")
    targets = f.coeffs[: n + 1] + (0,)
    if gcd(u, v) != 1:
        raise ValueError("constant-term split must be coprime")
    if abs(u) < 2 or abs(v) < 2 or u * v != f.coeffs[0]:
        raise ValueError("need f_0 = u*v with both parts of size at least 2")
    vinv = pow(v, -1, abs(u))
    a, b = [u], [v]
    for k in range(1, n + 1):
        rhs = targets[k] - sum(map(mul, a[1:k], b[k - 1 : 0 : -1]))
        a.append(rhs * vinv % abs(u))
        b.append(_exact_div(rhs - v * a[k], u, "coprime split"))
    return _verified("coprime constant", targets, a, b, n)


def factor_tail(q: "QuadInput", n: int) -> tuple[TruncSeries, TruncSeries]:
    """Split p^2 + p*beta*x + alpha*x^2 + (tail divisible by p^2).

    Preconditions checked here: beta^2 - 4*alpha = p^2 * u, a square in
    Z_p, and p^2 | c_k for every k >= 3.  The root a_1 of y^2 - beta*y +
    alpha mod p^3 is bumped past exact integer roots so that g(a_1) is
    nonzero; then beta - 2*a_1 = p*t with t the step unit, and the
    tail's divisibility by p^2 = D keeps every order divisible.
    """
    _require(q.beta is not None and q.n == 2 and q.m == 1, "engine needs n = 2 and m = 1")
    _require(n >= 2, "factor order must be at least 2")
    p, beta, alpha = q.p, q.beta, q.alpha
    core = beta * beta - 4 * alpha
    _require(core != 0, "zero discriminant is outside this engine")
    ell = _square_half_valuation(core, p, "beta^2 - 4*alpha")
    _require(ell == 1, "discriminant must be exactly p^2 * unit")
    bad = [k for k, c in enumerate(q.tail, 3) if c % (p * p)]
    _require(not bad, f"tail coefficients not divisible by p^2 at orders {bad}")
    a1 = _smallest_root(1, -beta, alpha, p, 3, "tail engine")
    while a1 * a1 - beta * a1 + alpha == 0:
        a1 += p**3
    return _lift("p^2-divisible tail", q.head_series(n).coeffs + (0,), n, [p, a1], p)
