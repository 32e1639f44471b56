"""Constructive factorization engines.

Each engine turns a classified-reducible input into an explicit pair of
power-series factors through a requested order N, by solving the product
equations coefficient by coefficient.  Every step solves

    target = modulus * s_next + c * a_N + v

for the canonical residue a_N in [0, modulus) and the exact quotient
s_next; the coefficient c is a unit mod p in every engine, which is what
makes the recurrences total.  After every emitted order the running
product is checked against the target coefficients; a mismatch raises
:class:`EngineInvariantError` (a bug, never an input condition).

Whenever the auxiliary quadratic of an engine has an exact integer root
and the input has no tail, the engine emits the finite polynomial
factorization directly instead of running the recurrence (the recurrence
certificates degenerate there).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, isqrt
from typing import TYPE_CHECKING

from .padics import (
    is_prime,
    is_qr_mod_p,
    prime_power_decompose,
    root_certificate,
    root_classes,
    valuation,
)
from .series import TruncSeries

if TYPE_CHECKING:  # pragma: no cover
    from .classify import QuadInput

__all__ = [
    "EngineInvariantError",
    "FactorState",
    "solve_unit_step",
    "factor_2m_lt_n",
    "factor_m_gt_nu",
    "factor_m_eq_nu",
    "factor_beta_zero",
    "factor_p2_m_gt_nu1",
    "factor_p2_m_eq_nu1",
    "factor_coprime_constant",
    "factor_tail",
    "factor_simple_root_tail",
    "factor_reducible_quadratic",
]


class EngineInvariantError(RuntimeError):
    """An internal step identity failed; indicates a bug, not bad input."""


@dataclass
class FactorState:
    """Growing factor pair plus the case's auxiliary scaled sequences."""

    case_tag: str
    targets: tuple[int, ...]
    a: list[int]
    b: list[int]
    aux: dict[str, list[int]] = field(default_factory=dict)
    step: int = 0

    def check_order(self, k: int) -> None:
        acc = sum(self.a[j] * self.b[k - j] for j in range(k + 1))
        if acc != self.targets[k]:
            raise EngineInvariantError(
                f"{self.case_tag}: product coefficient {k} is {acc}, want {self.targets[k]}"
            )
        self.step = k

    def pair(self, n: int) -> tuple[TruncSeries, TruncSeries]:
        return TruncSeries(self.a[: n + 1]), TruncSeries(self.b[: n + 1])


def solve_unit_step(modulus: int, c: int, v: int, target: int) -> tuple[int, int]:
    """Solve target = modulus * s_next + c * a_N + v with canonical a_N.

    a_N is the representative of (target - v) * c^-1 in [0, modulus);
    s_next is then an exact integer quotient.  c must be a unit modulo
    the prime power ``modulus``.
    """
    if gcd(c, modulus) != 1:
        raise EngineInvariantError(f"step coefficient {c} is not a unit mod {modulus}")
    a_n = (target - v) * pow(c, -1, modulus) % modulus
    s_next, rem = divmod(target - v - c * a_n, modulus)
    if rem:
        raise EngineInvariantError("unit step division was not exact")
    return a_n, s_next


def _exact_div(num: int, den: int, what: str) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise EngineInvariantError(f"{what}: {num} is not divisible by {den}")
    return q


def _quad_targets(q: "QuadInput", n: int) -> list[int]:
    """Coefficients 0..n+1 of the input, absent tail entries taken as zero."""
    f = [0] * (n + 2)
    f[0] = q.p**q.n
    if q.beta is not None:
        f[1] = q.p**q.m * q.beta
    f[2] = q.alpha
    for i, c in enumerate(q.tail):
        if 3 + i < len(f):
            f[3 + i] = c
    return f


def _series_targets(f: TruncSeries, n: int) -> list[int]:
    if n > f.order:
        raise ValueError(f"factoring beyond the input's order {f.order} is refused")
    return list(f.coeffs[: n + 1]) + [0]


def _polynomial_pair(
    a0: int, a1: int, b0: int, b1: int, n: int, targets, tag: str
) -> tuple[TruncSeries, TruncSeries]:
    state = FactorState(tag, tuple(targets), [a0, a1] + [0] * n, [b0, b1] + [0] * n)
    for k in range(n + 1):
        state.check_order(k)
    return state.pair(n)


def _monic_int_roots(s1: int, alpha: int) -> tuple[int, int] | None:
    """Integer roots of y^2 - s1*y + alpha, smaller root first."""
    disc = s1 * s1 - 4 * alpha
    if disc < 0:
        return None
    d = isqrt(disc)
    if d * d != disc or (s1 - d) % 2:
        return None
    return (s1 - d) // 2, (s1 + d) // 2


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# shared recurrence cores


def _coupled_recurrence(
    modulus: int,
    a0: int,
    b0: int,
    scale: int,
    t1: int,
    a1: int,
    targets: list[int],
    n: int,
    tag: str,
) -> tuple[TruncSeries, TruncSeries]:
    """Factor with b_k = t_k - scale * a_k and step unit t1 - 2*scale*a1.

    Covers the 2m < n engine (scale = p^(n-2m)) and, with scale = 1, the
    balanced a0 = b0 = p^nu engines whose sums s_k play the role of t_k.
    Stage M consumes target coefficient M+1 and emits (a_M, t_{M+1}).
    """
    t2 = _exact_div(scale * a1 * a1 - t1 * a1 + targets[2], modulus, f"{tag}: seed")
    c = t1 - 2 * scale * a1
    state = FactorState(
        tag, tuple(targets), [a0, a1], [b0, t1 - scale * a1], aux={"t": [0, t1, t2]}
    )
    t = state.aux["t"]
    state.check_order(0)
    state.check_order(1)
    a = state.a
    for m in range(2, n + 1):
        v = a1 * t[m] + sum(
            a[k] * (t[m + 1 - k] - scale * a[m + 1 - k]) for k in range(2, m)
        )
        a_m, t_next = solve_unit_step(modulus, c, v, targets[m + 1])
        a.append(a_m)
        t.append(t_next)
        state.b.append(t[m] - scale * a_m)
        state.check_order(m)
    return state.pair(n)


def _p2_scaled_recurrence(
    nu: int,
    c_unit: int,
    s1: int,
    a1: int,
    t2: int,
    a_scale: int,
    s_scale: int,
    targets: list[int],
    n: int,
    tag: str,
) -> tuple[TruncSeries, TruncSeries]:
    """p = 2 engines: a_k = a_scale * ~a_k and s_k = s_scale * t_k for k >= 2.

    Stage M solves 0 = 2^nu * t_{M+1} + c_unit * ~a_M + w_M where w_M is
    the order-(M+1) product identity divided through by s_scale.
    """
    two_nu = 2**nu
    cross = _exact_div(a_scale * a_scale, s_scale, f"{tag}: scale ratio")
    state = FactorState(
        tag,
        tuple(targets),
        [two_nu, a1],
        [two_nu, s1 - a1],
        aux={"atil": [0, 0], "t": [0, 0, t2]},
    )
    atil, t = state.aux["atil"], state.aux["t"]
    state.check_order(0)
    state.check_order(1)
    s = [0, s1, s_scale * t2]
    for m in range(2, n + 1):
        w = (
            a1 * t[m]
            + a_scale * sum(atil[k] * t[m + 1 - k] for k in range(2, m))
            - cross * sum(atil[k] * atil[m + 1 - k] for k in range(2, m))
        )
        atil_m, t_next = solve_unit_step(two_nu, c_unit, w, 0)
        atil.append(atil_m)
        t.append(t_next)
        s.append(s_scale * t_next)
        state.a.append(a_scale * atil_m)
        state.b.append(s[m] - a_scale * atil_m)
        state.check_order(m)
    return state.pair(n)


# ---------------------------------------------------------------------------
# engines


def factor_2m_lt_n(q: "QuadInput", n: int) -> tuple[TruncSeries, TruncSeries]:
    """Split p^n + p^m*beta*x + alpha*x^2 (+ tail) when 2m < n.

    The factor heads are p^m and p^(n-m); the coupling sequence is
    t_k = b_k + p^(n-2m) * a_k and the step unit is beta - 2p^(n-2m)*a1,
    a unit because the scale is divisible by p.  Works for p = 2 as well.
    """
    _require(q.beta is not None and 2 * q.m < q.n, "engine needs beta != 0 and 2m < n")
    _require(n >= 2, "factor order must be at least 2")
    p, beta, alpha = q.p, q.beta, q.alpha
    targets = _quad_targets(q, n)
    scale = p ** (q.n - 2 * q.m)
    pm = p**q.m
    if not any(targets[3:]):
        disc = beta * beta - 4 * alpha * scale
        if disc >= 0 and isqrt(disc) ** 2 == disc:
            d = isqrt(disc)
            for num in (beta - d, beta + d):
                if num % (2 * scale) == 0:
                    r1 = num // (2 * scale)
                    return _polynomial_pair(
                        pm, r1, p ** (q.n - q.m), beta - scale * r1, n, targets, "2m<n poly"
                    )
    classes = root_classes(scale, -beta, alpha, p, q.m)
    if not classes:
        raise EngineInvariantError("2m<n: auxiliary quadratic has no root mod p^m")
    a1 = classes[0][0]
    return _coupled_recurrence(
        pm, pm, p ** (q.n - q.m), scale, beta, a1, targets, n, "2m<n"
    )


def _case1_with_seed(
    p: int, nu: int, s1: int, a1: int, targets: list[int], n: int, tag: str
) -> tuple[TruncSeries, TruncSeries]:
    pn = p**nu
    return _coupled_recurrence(pn, pn, pn, 1, s1, a1, targets, n, tag)


def factor_m_gt_nu(q: "QuadInput", n: int) -> tuple[TruncSeries, TruncSeries]:
    """Split p^(2nu) + p^m*beta*x + alpha*x^2 (+ tail) with p odd, m > nu.

    Seeds from a root of y^2 - p^(m-nu)*beta*y + alpha mod p^nu; the step
    unit is p^(m-nu)*beta - 2*a1, a unit since a1 is.  Accepts a tail
    (the same recurrence absorbs arbitrary target coefficients).
    """
    _require(q.beta is not None and q.n % 2 == 0 and q.m > q.n // 2, "engine needs m > n/2, n even")
    _require(q.p != 2, "p = 2 is handled by the scaled engines")
    _require(n >= 2, "factor order must be at least 2")
    p, nu, alpha = q.p, q.n // 2, q.alpha
    s1 = p ** (q.m - nu) * q.beta
    targets = _quad_targets(q, n)
    if not any(targets[3:]):
        roots = _monic_int_roots(s1, alpha)
        if roots is not None:
            r1, r2 = roots
            return _polynomial_pair(p**nu, r1, p**nu, r2, n, targets, "m>nu poly")
    classes = root_classes(1, -s1, alpha, p, nu)
    if not classes:
        raise EngineInvariantError("m>nu: no root mod p^nu despite reducible classification")
    return _case1_with_seed(p, nu, s1, classes[0][0], targets, n, "m>nu")


def factor_m_eq_nu(q: "QuadInput", n: int) -> tuple[TruncSeries, TruncSeries]:
    """Split p^(2nu) + p^nu*beta*x + alpha*x^2 with p odd and m = nu.

    Needs beta^2 - 4*alpha = p^(2l) * q with q a residue unit mod p (or a
    perfect integer square, which short-circuits to polynomial factors).
    A root certificate at precision 3*max(l, nu) supplies a1 = a with
    g(a) = p^mu * r and beta - 2a = p^l * t; the two sub-cases nu > l and
    nu <= l use differently scaled auxiliary sequences.
    """
    _require(q.beta is not None and q.n % 2 == 0 and q.m == q.n // 2, "engine needs m = n/2")
    _require(q.p != 2, "p = 2 is handled by the scaled engines")
    _require(n >= 2, "factor order must be at least 2")
    p, nu, beta, alpha = q.p, q.n // 2, q.beta, q.alpha
    targets = _quad_targets(q, n)
    roots = _monic_int_roots(beta, alpha)
    if roots is not None:
        r1, r2 = roots
        return _polynomial_pair(p**nu, r1, p**nu, r2, n, targets, "m=nu poly")
    disc = valuation(beta * beta - 4 * alpha, p)
    _require(disc.t % 2 == 0, "discriminant has odd valuation: input is irreducible")
    ell = disc.t // 2
    _require(is_qr_mod_p(disc.u, p), "discriminant unit is a non-residue: input is irreducible")
    cert = root_certificate(beta, alpha, p, 3 * max(ell, nu))
    if cert is None or cert.mu is None or cert.ell != ell:
        raise EngineInvariantError("m=nu: certificate disagrees with the discriminant data")
    if nu > ell:
        return _m_eq_nu_big_nu(p, nu, ell, beta, cert, targets, n)
    return _m_eq_nu_small_nu(p, nu, ell, beta, cert, targets, n)


def _m_eq_nu_big_nu(p, nu, ell, beta, cert, targets, n):
    """Sub-case nu > l: a_k = p^(nu-l) * ~a_k, s_(k+1) = u_k - t * ~a_k.

    The seeds u_1 = s_2, u_2 = -a1 * p^(mu-2nu) * r and u_3 = -a1*u_2 / p^nu
    (with ~a_2 = 0) are forced by the order-3 and order-4 product
    identities; mu >= 3nu makes them integral.  Stage M >= 3 solves
    0 = p^nu * u_(M+1) + [p^(nu-l)*(s_2 - 2a_2) - t*a1] * ~a_M + v_M.
    """
    pn = p**nu
    a1, mu, r, t = cert.a, cert.mu, cert.r, cert.t_unit
    u2 = -a1 * p ** (mu - 2 * nu) * r
    u3 = _exact_div(-a1 * u2, pn, "m=nu nu>l: u_3 seed")
    s2 = p ** (mu - nu) * r
    state = FactorState(
        "m=nu nu>l",
        tuple(targets),
        [pn, a1, 0],
        [pn, beta - a1, s2],
        aux={"u": [0, s2, u2, u3], "atil": [0, 0, 0]},
    )
    u, atil = state.aux["u"], state.aux["atil"]
    s = [0, beta, s2, u2]
    for k in range(3):
        state.check_order(k)
    c = p ** (nu - ell) * (s[2] - 2 * state.a[2]) - t * a1
    scale = p ** (nu - ell)
    a = state.a
    for m in range(3, n + 1):
        v = (
            a1 * u[m]
            + a[2] * s[m]
            + sum(a[k] * (s[m + 2 - k] - a[m + 2 - k]) for k in range(3, m))
        )
        atil_m, u_next = solve_unit_step(pn, c, v, 0)
        atil.append(atil_m)
        u.append(u_next)
        a.append(scale * atil_m)
        s.append(u[m] - t * atil_m)
        state.b.append(s[m] - a[m])
        state.check_order(m)
    return state.pair(n)


def _m_eq_nu_small_nu(p, nu, ell, beta, cert, targets, n):
    """Sub-case nu <= l: a_k = p^l * ~a_k and s_k = p^(3l-nu) * ~s_k.

    Seeds come from a Bezout solution of p^nu * y + t*z + r = 0; stage
    M >= 3 solves 0 = p^l * ~s_(M+1) + t * ~a_M + v_M with t a unit.
    """
    pn, pl = p**nu, p**ell
    a1, mu, r, t = cert.a, cert.mu, cert.r, cert.t_unit
    z = (-r * pow(t, -1, pn)) % pn
    y = _exact_div(-r - t * z, pn, "m=nu nu<=l: Bezout seed")
    s_scale = p ** (3 * ell - nu)
    atil2 = p ** (mu - 2 * ell - nu) * z * a1
    stil = [0, 0, p ** (mu - 3 * ell) * r, p ** (mu - 3 * ell) * y * a1]
    state = FactorState(
        "m=nu nu<=l",
        tuple(targets),
        [pn, a1, pl * atil2],
        [pn, beta - a1, s_scale * stil[2] - pl * atil2],
        aux={"atil": [0, 0, atil2], "stil": stil},
    )
    atil = state.aux["atil"]
    s = [0, beta, s_scale * stil[2], s_scale * stil[3]]
    for k in range(3):
        state.check_order(k)
    a = state.a
    for m in range(3, n + 1):
        v = a1 * p ** (ell - nu) * stil[m] + sum(
            atil[k] * (p ** (2 * ell - nu) * stil[m + 1 - k] - atil[m + 1 - k])
            for k in range(2, m)
        )
        atil_m, stil_next = solve_unit_step(pl, t, v, 0)
        atil.append(atil_m)
        stil.append(stil_next)
        a.append(pl * atil_m)
        s.append(s_scale * stil_next)
        state.b.append(s[m] - a[m])
        state.check_order(m)
    return state.pair(n)


def factor_beta_zero(q: "QuadInput", n: int) -> tuple[TruncSeries, TruncSeries]:
    """Split p^(2nu) + alpha*x^2: odd p with -alpha a residue, or p = 2
    with alpha = 7 mod 8."""
    _require(q.beta is None, "engine needs the beta-zero input form")
    _require(q.n % 2 == 0, "n must be even for a beta-zero split")
    _require(n >= 2, "factor order must be at least 2")
    p, nu, alpha = q.p, q.n // 2, q.alpha
    targets = _quad_targets(q, n)
    neg = -alpha
    if neg >= 0 and isqrt(neg) ** 2 == neg:
        d = isqrt(neg)
        return _polynomial_pair(p**nu, -d, p**nu, d, n, targets, "beta0 poly")
    if p == 2:
        _require(alpha % 8 == 7, "p = 2 needs alpha = 7 mod 8")
        a1 = root_classes(1, 0, alpha, 2, 2 * nu + 1)[0][0]
        t2 = _exact_div(a1 * a1 + alpha, 2 ** (2 * nu + 1), "beta0 p=2 seed")
        return _p2_scaled_recurrence(
            nu, -a1, 0, a1, t2, 2**nu, 2 ** (nu + 1), targets, n, "beta0 p=2"
        )
    _require(is_qr_mod_p(-alpha, p), "-alpha is a non-residue: input is irreducible")
    classes = root_classes(1, 0, alpha, p, nu)
    if not classes:
        raise EngineInvariantError("beta0: residue test passed but no root mod p^nu")
    return _case1_with_seed(p, nu, 0, classes[0][0], targets, n, "beta0")


def factor_p2_m_gt_nu1(q: "QuadInput", n: int) -> tuple[TruncSeries, TruncSeries]:
    """Split 4^nu + 2^m*beta*x + alpha*x^2 for p = 2 and m > nu + 1.

    Reducible exactly when alpha = 3 mod 8 (m - nu - 1 = 1) or
    alpha = 7 mod 8 (m - nu - 1 >= 2).  Seeds from a root of
    y^2 - 2^(m-nu)*beta*y + alpha mod 2^(2nu+1); the scaled sequences are
    a_k = 2^nu * ~a_k, s_k = 2^(nu+1) * t_k with odd step coefficient
    2^(m-nu-1)*beta - a1.
    """
    _require(q.beta is not None and q.n % 2 == 0, "engine needs beta != 0 and even n")
    nu = q.n // 2
    _require(q.p == 2 and q.m > nu + 1, "engine needs p = 2 and m > nu + 1")
    _require(n >= 2, "factor order must be at least 2")
    beta, alpha = q.beta, q.alpha
    gap = q.m - nu - 1
    _require(
        (gap == 1 and alpha % 8 == 3) or (gap >= 2 and alpha % 8 == 7),
        "mod-8 reducibility condition fails: input is irreducible",
    )
    targets = _quad_targets(q, n)
    s1 = 2 ** (q.m - nu) * beta
    roots = _monic_int_roots(s1, alpha)
    if roots is not None:
        r1, r2 = roots
        return _polynomial_pair(2**nu, r1, 2**nu, r2, n, targets, "p2 m>nu+1 poly")
    a1 = root_classes(1, -s1, alpha, 2, 2 * nu + 1)[0][0]
    t2 = _exact_div(a1 * a1 - s1 * a1 + alpha, 2 ** (2 * nu + 1), "p2 m>nu+1 seed")
    c = 2 ** (q.m - nu - 1) * beta - a1
    return _p2_scaled_recurrence(
        nu, c, s1, a1, t2, 2**nu, 2 ** (nu + 1), targets, n, "p2 m>nu+1"
    )


def factor_p2_m_eq_nu1(q: "QuadInput", n: int) -> tuple[TruncSeries, TruncSeries]:
    """Split 4^nu + 2^(nu+1)*beta*x + alpha*x^2 for p = 2 and m = nu + 1.

    Needs beta^2 - alpha = 2^(2l) * q with q = 1 mod 8 (perfect squares
    short-circuit).  Seeds from a root of y^2 - 2*beta*y + alpha mod
    2^(2l+nu+2); beta - a1 = 2^l * u with u odd, and the scales are
    a_k = 2^(l+1) * ~a_k, s_k = 2^(2l+2) * t_k.
    """
    _require(q.beta is not None and q.n % 2 == 0, "engine needs beta != 0 and even n")
    nu = q.n // 2
    _require(q.p == 2 and q.m == nu + 1, "engine needs p = 2 and m = nu + 1")
    _require(n >= 2, "factor order must be at least 2")
    beta, alpha = q.beta, q.alpha
    targets = _quad_targets(q, n)
    core = beta * beta - alpha
    if core >= 0 and isqrt(core) ** 2 == core:
        d = isqrt(core)
        return _polynomial_pair(2**nu, beta - d, 2**nu, beta + d, n, targets, "p2 m=nu+1 poly")
    dv = valuation(core, 2)
    _require(dv.t % 2 == 0, "beta^2 - alpha has odd valuation: input is irreducible")
    _require(dv.u % 8 == 1, "beta^2 - alpha unit is not 1 mod 8: input is irreducible")
    ell = dv.t // 2
    modexp = 2 * ell + nu + 2
    a1 = root_classes(1, -2 * beta, alpha, 2, modexp)[0][0]
    t2 = _exact_div(a1 * a1 - 2 * beta * a1 + alpha, 2**modexp, "p2 m=nu+1 seed")
    u = _exact_div(beta - a1, 2**ell, "p2 m=nu+1 u seed")
    if u % 2 == 0:
        raise EngineInvariantError("p2 m=nu+1: beta - a1 has valuation above l")
    return _p2_scaled_recurrence(
        nu, u, 2 * beta, a1, t2, 2 ** (ell + 1), 2 ** (2 * ell + 2), targets, n, "p2 m=nu+1"
    )


def factor_coprime_constant(
    f: TruncSeries, u: int, v: int, n: int
) -> tuple[TruncSeries, TruncSeries]:
    """Lift a coprime split f_0 = u * v to a factorization through order n.

    Each coefficient equation f_k = u*b_k + v*a_k + (cross terms) has a
    Bezout solution; a_k is taken canonically in [0, |u|).
    """
    if n > f.order:
        raise ValueError(f"factoring beyond the input's order {f.order} is refused")
    if gcd(u, v) != 1:
        raise ValueError("constant-term split must be coprime")
    if abs(u) < 2 or abs(v) < 2 or u * v != f.coeffs[0]:
        raise ValueError("need f_0 = u*v with both parts of size at least 2")
    state = FactorState("coprime constant", tuple(f.coeffs[: n + 1]), [u], [v])
    state.check_order(0)
    vinv = pow(v, -1, abs(u))
    a, b = state.a, state.b
    for k in range(1, n + 1):
        rhs = f.coeffs[k] - sum(a[j] * b[k - j] for j in range(1, k))
        a_k = rhs * vinv % abs(u)
        b_k = _exact_div(rhs - v * a_k, u, "coprime split")
        a.append(a_k)
        b.append(b_k)
        state.check_order(k)
    return state.pair(n)


def factor_tail(f: TruncSeries, n: int) -> tuple[TruncSeries, TruncSeries]:
    """Split p^2 + p*beta*x + alpha*x^2 + (tail divisible by p^2).

    Preconditions checked here: beta^2 - 4*alpha = p^2 * q with q a
    residue unit mod p, and p^2 | c_k for every provided k >= 3.  The
    root a of y^2 - beta*y + alpha mod p^3 is bumped past exact integer
    roots so that g(a) = p^3 * r is nonzero (p may divide r); then
    beta - 2a = p*t with t a unit and the scaled recurrence solves
    c_(k+1)/p^2 = p*~s_(k+1) + t*~a_k + ... with a_k = p*~a_k.
    """
    if n > f.order:
        raise ValueError(f"factoring beyond the input's order {f.order} is refused")
    _require(n >= 2, "factor order must be at least 2")
    f0 = f.coeffs[0]
    p = isqrt(f0) if f0 > 0 else 0
    _require(p * p == f0 and is_prime(p), "head must start with p^2 for a prime p")
    _require(f.order >= 2, "need the quadratic head")
    f1 = f.coeffs[1]
    _require(f1 != 0 and f1 % p == 0 and (f1 // p) % p != 0, "linear term must be p * unit")
    beta = f1 // p
    alpha = f.coeffs[2]
    _require(gcd(alpha, p) == 1, "quadratic term must be a unit mod p")
    core = beta * beta - 4 * alpha
    _require(core != 0, "zero discriminant is outside this engine")
    dv = valuation(core, p)
    _require(dv.t == 2, "discriminant must be exactly p^2 * unit")
    _require(is_qr_mod_p(dv.u, p), "discriminant unit must be a residue mod p")
    bad = [k for k in range(3, f.order + 1) if f.coeffs[k] % (p * p) != 0]
    _require(not bad, f"tail coefficients not divisible by p^2 at orders {bad}")

    p3 = p**3
    a1 = root_classes(1, -beta, alpha, p, 3)[0][0]
    while a1 * a1 - beta * a1 + alpha == 0:
        a1 += p3
    r = _exact_div(a1 * a1 - beta * a1 + alpha, p3, "tail engine root")
    t = _exact_div(beta - 2 * a1, p, "tail engine t")
    if t % p == 0:
        raise EngineInvariantError("tail engine: beta - 2a has valuation above 1")

    targets = _series_targets(f, n)
    state = FactorState(
        "p^2-divisible tail",
        tuple(targets),
        [p, a1],
        [p, beta - a1],
        aux={"atil": [0, 0], "stil": [0, 0, r]},
    )
    atil, stil = state.aux["atil"], state.aux["stil"]
    s = [0, beta, p * p * r]
    state.check_order(0)
    state.check_order(1)
    a = state.a
    for k in range(2, n + 1):
        ctil = _exact_div(targets[k + 1], p * p, "tail target")
        v = a1 * stil[k] + sum(
            atil[j] * (p * stil[k + 1 - j] - atil[k + 1 - j]) for j in range(2, k)
        )
        atil_k, stil_next = solve_unit_step(p, t, v, ctil)
        atil.append(atil_k)
        stil.append(stil_next)
        a.append(p * atil_k)
        s.append(p * p * stil_next)
        state.b.append(s[k] - a[k])
        state.check_order(k)
    return state.pair(n)


def factor_simple_root_tail(f: TruncSeries, n: int) -> tuple[TruncSeries, TruncSeries]:
    """Split p^(2m) + p^m*beta*x + alpha*x^2 + tail given a simple root.

    Requires a root a of y^2 - beta*y + alpha mod p^m whose derivative
    2a - beta is a unit; the balanced recurrence then has a unit step
    coefficient beta - 2a and absorbs any tail.
    """
    if n > f.order:
        raise ValueError(f"factoring beyond the input's order {f.order} is refused")
    _require(n >= 2 and f.order >= 2, "need the quadratic head")
    f0 = f.coeffs[0]
    pp = prime_power_decompose(f0) if f0 > 1 else None
    _require(pp is not None and pp[1] % 2 == 0, "constant term must be an even prime power")
    p, n_exp = pp
    m = n_exp // 2
    f1 = f.coeffs[1]
    _require(f1 != 0, "linear term must be p^m * unit")
    v1 = valuation(f1, p)
    _require(v1.t == m, "linear term must have valuation exactly m")
    beta = v1.u
    alpha = f.coeffs[2]
    _require(gcd(alpha, p) == 1, "quadratic term must be a unit mod p")
    # whether a root is simple depends on it mod p only, so on its class
    simple = [r for r, _ in root_classes(1, -beta, alpha, p, m) if (2 * r - beta) % p != 0]
    if not simple:
        raise ValueError("y^2 - beta*y + alpha has no simple root mod p^m")
    targets = _series_targets(f, n)
    return _case1_with_seed(p, m, beta, simple[0], targets, n, "simple root")


def factor_reducible_quadratic(q: "QuadInput", n: int) -> tuple[TruncSeries, TruncSeries]:
    """Dispatch a classified-reducible quadratic input to its engine."""
    if q.beta is None:
        return factor_beta_zero(q, n)
    if 2 * q.m < q.n:
        return factor_2m_lt_n(q, n)
    nu = q.n // 2
    if q.p == 2:
        if q.m == nu + 1:
            return factor_p2_m_eq_nu1(q, n)
        return factor_p2_m_gt_nu1(q, n)
    if q.m == nu:
        return factor_m_eq_nu(q, n)
    return factor_m_gt_nu(q, n)
