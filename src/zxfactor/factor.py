"""Constructive factorization engines.

Each engine turns a classified-reducible input into an explicit pair of
power-series factors a, b through a requested order N.  The engines
differ only in their hypothesis checks and their seeds, the first
coefficients of a; the input fixes b = f/a up to the first unknown a_k,
so b_0 = f_0/a_0 = scale * a_0.  One core extends the seeds order by
order.  At stage m it sets a_m = A * ~a_m, where ~a_m is
the canonical residue modulo a_0 that keeps order m + lag of the product
divisible, and b_m then follows exactly from order m.  That residue is
c^-1 times the order's remainder, where c is a unit modulo a_0, which is
what makes the recurrence total.  The core derives the divisor D of
each order from the seeds, A*p^v(c0) with c0 = b_1 - scale*a_1 at lag
one and 1 at lags zero and two; the seeds make the last provisional
coefficient of b a multiple of D, which divides A^2.  Each lift checks c
and inverts it once; a stage is then one multiplication, one reduction
and one exact division, after its sum over the order.  A lift of order
N >= oracle._PACKED_MIN_ORDER, the floor of the product check, reads the
part of those sums past the lag from one running Kronecker-packed
product, pushing a_m and b_m into it once each (past order (N+lag)/2
into the unread sums alone), in slots that widen from _RUNNING_BITS bits
as b grows and, past _RUNNING_MAX_BITS, give way to plain sums
(:func:`_cross_sums`).  The scale A per engine (l is half
the valuation of beta^2 - 4*alpha, of beta^2 - alpha when p = 2):

    engine                      A               lag
    factor_coprime_constant     1               0
    factor_simple_root          1               1
    factor_p2_scaled            2^nu            1
    factor_p2_m_eq_nu1          2^(l+1)         1
    factor_m_eq_nu, nu<=l       p^(2l-nu)       1
    factor_tail                 p               1
    factor_m_eq_nu, nu>l        p^(nu-l)        2

One :func:`_lift` serves every lag, which it reads from the length of
the targets.  It completes the seeds itself, with the one division
b = f/a through order k + lag - 1, before its first stage.  The engines
ask their Z_p questions through the classifier's helpers: whether a
discriminant is a square (``padics._square_class``) and the roots of a
seed quadratic (``padics._root_classes``).  Every quadratic engine takes
a :class:`~zxfactor.classify.QuadInput` and the order N, builds its
targets once as a list (f_0..f_N from the input's head list, then the
zeros past N that a lift reads; :func:`_targets`); the coprime split
takes f_0..f_N of its series.  Each engine checks its finished pair once
with :func:`~zxfactor.oracle.verify_factorization` against the input
through that order; a nonzero residual or a unit head raises
:class:`EngineInvariantError` (a bug, never an input condition).
At the small orders of a single answer these fixed steps, not the stages,
are most of an engine's time, so none of them is taken twice.
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
from .oracle import _PACKED_MIN_ORDER, verify_factorization
from .padics import _root_classes, _square_class, _valuation
from .series import TruncSeries

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
    try:
        return pow(c, -1, modulus)
    except ValueError:  # c is not a unit
        raise EngineInvariantError(f"step coefficient {c} is not a unit mod {modulus}") from None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _targets(q: "QuadInput", n: int, lag: int = 1) -> list[int]:
    """f_0..f_n of the input, then the lag zeros past order n that a lift reads."""
    _require(n >= 2, "factor order must be at least 2")
    return q._coeffs(n) + [0] * lag


def _verified(tag: str, targets, a: list[int], b: list[int], n: int):
    """The pair a, b of orders 0..n, checked once against the targets."""
    pair = TruncSeries(a), TruncSeries(b)
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

# A lift of order N reads its cross sums from the running product
# of :func:`_cross_sums` from the check's floor, N >= _PACKED_MIN_ORDER
# (measured there), in slots that start at _RUNNING_BITS bits and widen up
# to _RUNNING_MAX_BITS, both whole bytes.  Measured on cli-deep benchmark
# lines (CPython 3.11, shared 2-vCPU machine; cli._answer or cli._classify
# per line, best of 7, the variants alternating in one process):
#   by start width 40 / 48 / 56 / 64 bits (seeds 76-80): the median line
#     0.707 / 0.713 / 0.712 / 0.736 ms; against 56, 64 bits takes 1.04-1.08
#     on the small-height rows at N >= 128, 48 and 40 bits up to 1.05 and
#     1.08 on rows whose early breaks extrapolate too wide.
#   by widest slot, a lift widened against the same lift on plain sums from
#     its first break (seeds 71-75): up to 128 bits 0.74 at N = 128 and 0.62
#     at 256, 257-320 bits 0.98 / 1.05, 321-512 bits 1.10-1.21 / 1.43.
#   the check's crossover, slot_bits^4 < 5e7 * (N + 1), as the cap instead:
#     it grows with N, widens classify --p 2 --n 2 --beta-zero --alpha -17
#     --terms 1024 to 416 bits at stage 104, and that line takes 1.41x
#     (109.3 against 77.3 ms, best of 9).  A fixed cap stays.
_RUNNING_BITS = 56
_RUNNING_MAX_BITS = 320


def _integer_split(targets, a0: int, n: int, tag: str):
    """(a_0 + r1*x)(b_0 + r2*x) with b_0 = f_0/a_0 and r1 the smaller
    integer root of b_0*y^2 - f_1*y + a_0*f_2, when the discriminant d^2
    is a perfect square and the targets have no tail; None otherwise.
    Orders 1 and 2 give r2 = (f_1 - b_0*r1)/a_0.

    On every engine row that calls it, a square discriminant gives an
    integer root (f_1 +- d)/(2*b_0).  For 2m < n the halves (f_1 +- d)/2
    sum to f_1, of valuation m, so one has valuation m and the other n - m,
    a multiple of b_0 = p^(n-m).  For a_0 = b_0, d = a_0*k and the roots
    read (beta +- k)/2 at m = nu, beta +- k at p = 2 and m = nu + 1,
    2^(m-nu-1)*beta +- k (+-k at beta = 0) on the scaled p = 2 rows, and
    (p^(m-s)*beta +- k)/2 for odd p, n even and m > n/2 or beta = 0:
    integers, by parity where they halve.  At odd n with m > n/2 or
    beta = 0, a_0 = p^((n-1)/2) and b_0 = p*a_0, but factor_simple_root
    refuses first (g = alpha mod p, a unit, has no root), and the
    discriminant is no square there: its valuation is odd, or, at p = 2
    and m = (n+1)/2, its odd part beta^2 - 2*alpha is 3 mod 4."""
    b0, f1, f2 = targets[0] // a0, targets[1], targets[2]
    disc = f1 * f1 - 4 * a0 * b0 * f2
    if disc < 0 or any(targets[3:]) or (d := isqrt(disc)) * d != disc:
        return None
    roots = [num // (2 * b0) for num in (f1 - d, f1 + d) if num % (2 * b0) == 0]
    pad = [0] * (n - 1)
    return _verified(tag, targets, [a0, roots[0], *pad], [b0, (f1 - b0 * roots[0]) // a0, *pad], n)


def _lift(tag: str, targets, n: int, a: list[int], A: int = 1):
    """From the seeds a_0..a_(k-1), which it extends in place, at the lag
    the targets carry past order n (k > lag): the x-adic linear Hensel step.

    The quotient of the targets through order k + lag - 1 by the seeds
    (a_k, a_(k+1), ... taken as 0) is b_0..b_(k-1), then the window
    q_k..q_(k+lag-1) of provisional coefficients.  Setting a_m changes the
    quotient at order m + i by -a_m*rho_i for rho = b/a.  The change is
    linear below order 2m, and m + lag < 2m holds from the first stage on,
    since k > lag.  With g_i = A*rho_i for i < lag and C = A*a_0*rho_lag,
    order m + lag of the product reads

        v = f_(m+lag) - sum_(i=1..lag) a_i*q_(m+lag-i) - sum_(j=lag+1..m-1) a_j*b_(m+lag-j),

    and a_m = A*~a_m makes q_(m+lag) = (v - C*~a_m)/a_0.  Stage m takes
    the ~a_m modulo |a_0| that makes that a multiple of D = gcd(C, A^2*a_0):
    ~a_m = (v/D)*c^-1 for the unit c = C/D.  It then appends q_(m+lag),
    takes g_i*~a_m off q_(m+i) for i < lag, and q_m is b_m.  At lag one
    C = A*c0 with c0 = b_1 - scale*a_1, so D = A*gcd(c0, A*a_0); at lags
    zero and two C is a unit modulo a_0 and D = 1.  The seeds make
    q_(k+lag-1) a multiple of D, which divides A^2, so every later division
    is exact.  No division tests its remainder: the one check of the
    finished pair certifies it.
    """
    k, a0, lag = len(a), a[0], len(targets) - n - 1
    b, seeds = [targets[0] // a0], a[1:]
    for f in targets[1 : k + lag]:  # b = f/a as series._quotient does, without its call
        b.append((f - sum(map(mul, seeds, reversed(b)))) // a0)
    g, C = [0, 0], A * b[0]  # g_i = A*rho_i for i < lag, zeros past it, then C
    for i in range(lag):
        g[i] = C // a0
        C = A * b[i + 1] - a[i + 1] * g[0] - a[i] * g[1]
    D = gcd(C, A * A * a0)
    c, mod = C // D, abs(a0)
    c_inv, Dm = _unit_inverse(mod, c), D * mod
    (g0, g1), l1 = g, lag - 1
    # below the floor the stage takes its sum itself: no generator to set up
    if n >= _PACKED_MIN_ORDER:
        h1, h2, *_ = a[1 : lag + 1] + [0, 0]  # a_1, a_2 against the window
        cross = _cross_sums(a, b, max(map(int.bit_length, [A * a0] + a[lag + 1 :])), n, lag)
    else:
        cross = None
    for m in range(k, n + 1):
        s = cross and next(cross, None)  # None below the floor and once the slots would pass the cap
        v = targets[m + lag] - (
            sum(map(mul, a[1:], reversed(b))) if s is None else s + h1 * b[m + l1] + h2 * b[m + l1 - 1]
        )
        atil = v % Dm // D * c_inv % mod  # (v/D)*c^-1 mod |a_0|, from v mod D*|a_0|
        a.append(A * atil)
        b.append((v - C * atil) // a0)
        b[m] -= g0 * atil
        b[m + l1] -= g1 * atil
    del b[n + 1 :]
    return _verified(tag, targets, a, b, n)


def _cross_sums(a: list[int], b: list[int], h_a: int, n: int, lag: int):
    """Yield C(m+lag) = sum_(j=lag+1..m-1) a_j*b_(m+lag-j) for the stages
    m = len(a)..n.

    A lift of order n >= _PACKED_MIN_ORDER, the floor it shares with the
    product check, takes its sums from here.  The caller sets a_m and b_m
    before it asks for the next sum, and h_a bounds the bits of every a_j
    with j > lag, present and future.  The sums are read from a running
    product in slots of w bits, X = 2^w: PA = sum a_j X^(j-lag-1), PB
    likewise for b, and R holds the partial sums of the cross sums not
    yet read, the next one in slot 0.  A read takes the balanced residue
    of R mod X and shifts it off; a push adds
    a_m*PB + b_m*PA to R, the new pairs landing in the low slots.  The
    seeds are pushed before the first read.  From 2m > N + lag on, a_m and
    b_m stay out of PA and PB: they meet no later pair below order
    N + lag + 1, and no stage reads past N + lag.  (The pair m, m lands at
    order 2m, so when N + lag is even the middle pair still goes in.)
    Every |C(s)| < (N+1) * 2^(h_a+h_b), so a read is exact, whatever the
    slots past order N + lag hold, while w >= h_a + h_b + bitlen(N+1) + 1.
    A b_m that breaks that bound, on either side of the middle order,
    widens the slots from _RUNNING_BITS to the bound at the height b
    reaches by order N + lag if it keeps gaining bits over b_0 at its rate
    so far, in whole bytes.  Every slot of R, PA and PB through order
    N + lag then holds a true sum or coefficient below X/2, so
    :func:`_reslot` moves them exactly before b_m is pushed.  A width past
    _RUNNING_MAX_BITS ends the generator instead: the lift takes plain sums
    for its remaining stages.
    """
    k, w = len(a), _RUNNING_BITS
    fixed = h_a + (n + 1).bit_length() + 1  # the bits a read needs beyond those of b
    half, mask = 1 << (w - 1), (1 << w) - 1
    pa = pb = r = 0
    for m in range(lag + 1, n + 1):
        if m >= k:  # a stage: read C(m+lag)
            r += half
            yield (r & mask) - half
            r >>= w
        h_b = b[m].bit_length()  # a seed (m < k) or the pair just appended
        if fixed + h_b > w:  # widen by the bits b gained over b_0 in m orders, per order left
            gain = max(h_b - b[0].bit_length(), 0)
            wide = (fixed + h_b - (-gain * (n + lag - m) // m) + 7) // 8 * 8
            if wide > _RUNNING_MAX_BITS:
                return  # the lift takes plain sums from here on
            pa, pb, r = (_reslot(v, w, wide) for v in (pa, pb, r))
            w, half, mask = wide, 1 << (wide - 1), (1 << wide) - 1
        if 2 * m > n + lag:  # a_m and b_m meet no later pair below order n + lag + 1
            r += a[m] * pb + b[m] * pa
            continue
        shift = (m - lag - 1) * w
        pb += b[m] << shift
        r += a[m] * pb + b[m] * pa
        pa += a[m] << shift


def _reslot(v: int, w: int, wide: int) -> int:
    """sum_s c_s 2^(wide*s) for v = sum_s c_s 2^(w*s) in whole bytes: c_s + 2^(w-1)
    moves bytewise, exact below the first |c_s| >= 2^(w-1).  Two spare slots
    keep v plus the biases positive."""
    step, size = w // 8, wide // 8
    slots = abs(v).bit_length() // w + 2
    bias = bytes(step - 1) + b"\x80"
    old = (v + int.from_bytes(bias * slots, "little")).to_bytes(step * slots, "little")
    new = bytearray(size * slots)
    for j in range(step):
        new[j::size] = old[j::step]
    return int.from_bytes(new, "little") - int.from_bytes((bias + bytes(size - step)) * slots, "little")


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
    targets = _targets(q, n)
    p, s = q.p, q.n // 2 if q.beta is None else min(q.m, q.n // 2)
    ps, scale = p**s, p ** (q.n - 2 * s)
    b = 0 if q.beta is None else p ** (q.m - s) * q.beta
    classes = _root_classes(scale, -b, q.alpha, p, s)
    # g mod p has only simple roots, one double root or none: the smallest root speaks for all
    _require(bool(classes) and (2 * scale * classes[0][0] - b) % p != 0, "g has no simple root mod p")
    pair = (q.beta is None or q.n != 2 * q.m) and _integer_split(targets, ps, n, "simple root poly")
    return pair or _lift("simple root", targets, n, [ps, classes[0][0]])


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
    targets = _targets(q, n, 2)
    p, nu, beta, alpha = q.p, q.n // 2, q.beta, q.alpha
    pn = p**nu
    if pair := _integer_split(targets, pn, n, "m=nu poly"):
        return pair
    ell = _square_half_valuation(beta * beta - 4 * alpha, p, "beta^2 - 4*alpha")
    a = _smallest_root(1, -beta, alpha, p, 3 * max(ell, nu), "m=nu")
    ell_a, t_unit = _valuation(beta - 2 * a, p)
    if ell_a != ell:
        raise EngineInvariantError("m=nu: the seed root disagrees with the discriminant data")
    if nu > ell:
        return _lift("m=nu nu>l", targets, n, [pn, a, 0], p ** (nu - ell))
    mu, r = _valuation(a * a - beta * a + alpha, p)
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
    targets = _targets(q, n)
    b = 0 if q.beta is None else 2 ** (q.m - nu) * q.beta
    classes = _root_classes(1, -b, q.alpha, 2, 2 * nu + 1)
    _require(bool(classes), "mod-8 reducibility condition fails: input is irreducible")
    pn = 2**nu
    pair = _integer_split(targets, pn, n, "p2 scaled poly")
    return pair or _lift("p2 scaled", targets, n, [pn, classes[0][0]], pn)


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
    targets = _targets(q, n)
    beta, alpha = q.beta, q.alpha
    pn = 2**nu
    if pair := _integer_split(targets, pn, n, "p2 m=nu+1 poly"):
        return pair
    ell = _square_half_valuation(beta * beta - alpha, 2, "beta^2 - alpha")
    a1 = _smallest_root(1, -2 * beta, alpha, 2, 2 * ell + nu + 2, "p2 m=nu+1")
    return _lift("p2 m=nu+1", targets, n, [pn, a1], 2 ** (ell + 1))


def factor_coprime_constant(
    f: TruncSeries, u: int, v: int, n: int
) -> tuple[TruncSeries, TruncSeries]:
    """Lift a coprime split f_0 = u * v to a factorization through order n.

    Each coefficient equation f_k = u*b_k + v*a_k + (cross terms) has a
    Bezout solution; a_k is taken canonically in [0, |u|).  This is the
    lift at lag zero, with A = 1.
    """
    require_terms(n)
    if n > f.order:
        raise ValueError(f"factoring beyond the input's order {f.order} is refused")
    if gcd(u, v) != 1:
        raise ValueError("constant-term split must be coprime")
    if abs(u) < 2 or abs(v) < 2 or u * v != f.coeffs[0]:
        raise ValueError("need f_0 = u*v with both parts of size at least 2")
    # a list like every engine's targets: the core's indexing stays on one type
    return _lift("coprime constant", list(f.coeffs[: n + 1]), n, [u])


def factor_tail(q: "QuadInput", n: int) -> tuple[TruncSeries, TruncSeries]:
    """Split p^2 + p*beta*x + alpha*x^2 + (tail divisible by p^2).

    Preconditions checked here: beta^2 - 4*alpha = p^2 * u, a square in
    Z_p, and p^2 | c_k for every k >= 3.  The root a_1 of y^2 - beta*y +
    alpha mod p^3 is bumped past exact integer roots so that g(a_1) is
    nonzero; then beta - 2*a_1 = p*t with t the step unit, and the
    tail's divisibility by p^2 = D keeps every order divisible.
    """
    _require(q.beta is not None and q.n == 2 and q.m == 1, "engine needs n = 2 and m = 1")
    targets = _targets(q, n)
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
    return _lift("p^2-divisible tail", targets, n, [p, a1], p)
