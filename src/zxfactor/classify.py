"""The decision procedure for reducibility in Z[[x]].

``classify_quadratic`` decides pure quadratics p^n + p^m*beta*x +
alpha*x^2 (reducible in Z[[x]] exactly when the discriminant is a square
in Z_p) and attaches witness factors.  ``classify_general`` decides
arbitrary truncated series by a rule cascade: units, prime constants,
x-divisibility, coprime constant splits, then the prime-power-head rules
including the tail criteria for series whose quadratic head has the
theorem's shape.

A verdict on a truncated series holds for every extension of the
truncation unless it is flagged ``conditional_on_truncation``; verdicts
the criteria cannot reach are reported as ``UNKNOWN`` together with the
exact unresolved hypothesis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import gcd

from .padics import (
    SquareClass,
    is_prime,
    is_qr_mod_p,
    prime_power_decompose,
    root_classes,
    smallest_prime_power_split,
    square_class,
    valuation,
)
from .series import TruncSeries

__all__ = [
    "VerdictKind",
    "QuadInput",
    "Verdict",
    "RULE_INFO",
    "discriminant",
    "discriminant_square_class",
    "classify_quadratic",
    "classify_general",
    "BETA_ZERO",
]

BETA_ZERO = None  # sentinel spelling for the beta = 0 input form


class VerdictKind(enum.Enum):
    UNIT = "unit"
    IRREDUCIBLE = "irreducible"
    REDUCIBLE = "reducible"
    ZERO_SERIES = "zero-series"
    UNKNOWN = "unknown"


#: rule tag -> human-readable statement of the governing criterion
RULE_INFO: dict[str, str] = {
    "S2.unit": "constant term is +1/-1, so the series is invertible in Z[[x]]",
    "S2.prime": "prime constant term: every split would make one factor a unit",
    "S2.zero-series": "every provided coefficient is zero",
    "S2.x-factor": "zero constant term: x divides and the cofactor is a non-unit",
    "S2.x-associate": "zero constant term with unit cofactor: an associate of x",
    "S2.coprime-split": "constant term is neither a unit nor a prime power; any coprime split of it lifts",
    "S2.constant": "constant prime power p^n with n >= 2 splits as p times p^(n-1)",
    "S2.content-p": "p divides every provided coefficient: p times a non-unit cofactor",
    "S3.remark-m0": "prime-power constant with unit linear coefficient: irreducible in Z[[x]] even though the quadratic head is reducible over Z_p",
    "S3.2m-lt-n": "2m < n with p odd: reducible in both Z_p[x] and Z[[x]]",
    "S4.2m-lt-n": "2m < n with p = 2: reducible in both Z_2[x] and Z[[x]]",
    "S3.2m-gt-n-odd": "2m > n with n odd, p odd: irreducible in both Z_p[x] and Z[[x]]",
    "S4.2m-gt-n-odd": "2m > n with n odd, p = 2: irreducible in both Z_2[x] and Z[[x]]",
    "S4.n-eq-2m": "p = 2 and n = 2m: irreducible in both Z_2[x] and Z[[x]]",
    "S3.disc-square": "n even, m >= n/2, p odd: discriminant is a square in Z_p, reducible in both",
    "S3.disc-nonsquare": "n even, m >= n/2, p odd: discriminant is not a square in Z_p, irreducible in both",
    "S4.disc-square": "n even, m > n/2, p = 2: discriminant is a square in Z_2, reducible in both",
    "S4.disc-nonsquare": "n even, m > n/2, p = 2: discriminant is not a square in Z_2, irreducible in both",
    "S3.beta0-reducible": "beta = 0, p odd: n even and -alpha a quadratic residue mod p",
    "S3.beta0-irreducible": "beta = 0, p odd: n odd or -alpha a non-residue mod p",
    "S4.beta0-reducible": "beta = 0, p = 2: n even and -alpha = 1 mod 8",
    "S4.beta0-irreducible": "beta = 0, p = 2: n odd or -alpha != 1 mod 8",
    "S5.2m-lt-n": "tailed series with 2m < n: reducible whatever the tail",
    "S5.2m-gt-n-odd": "tailed series with 2m > n, n odd: irreducible whatever the tail",
    "S5.2m-gt-n-even-qr": "tailed series with 2m > n, n even: -alpha is a residue mod p, reducible",
    "S5.2m-gt-n-even-nonqr": "tailed series with 2m > n, n even: -alpha is a non-residue mod p, irreducible",
    "S5.simple-root": "n = 2m and y^2 - beta*y + alpha has a simple root mod p^m: reducible whatever the tail",
    "S5.no-root": "n = 2m and y^2 - beta*y + alpha has no root mod p^m: the head equations rule out any split",
    "S5.double-root-c3-unit": "n = 2, m = 1 with a double root mod p: p must divide c_3, so this tail is irreducible",
    "S5.double-root-divisible-tail": "n = 2, m = 1, discriminant p^2 times a residue unit, and p^2 divides every provided c_k: reducible",
    "S5.unknown": "no tail criterion decides this case at the provided truncation",
    "unknown.no-rule": "no applicable rule for this coefficient pattern",
}

_ZERO_EXTENSION = "assumes every coefficient beyond the provided order is zero"


@dataclass(frozen=True)
class QuadInput:
    """The tuple (p, n, m, beta, alpha) plus an optional explicit tail.

    ``beta is None`` (with ``m is None``) is the beta = 0 form.  The tail
    lists c_3, c_4, ... and is taken as exactly zero beyond its length.
    """

    p: int
    n: int
    m: int | None
    beta: int | None
    alpha: int
    tail: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "tail", tuple(int(c) for c in self.tail))
        if self.beta == 0:
            object.__setattr__(self, "beta", None)
            object.__setattr__(self, "m", None)
        if not is_prime(self.p):
            raise ValueError(f"input outside theorem hypotheses: p = {self.p} is not prime")
        if self.n < 1:
            raise ValueError("input outside theorem hypotheses: need n >= 1")
        if (self.beta is None) != (self.m is None):
            raise ValueError("beta and m must be given together (or both absent for beta = 0)")
        if self.beta is not None:
            if self.m < 1:
                raise ValueError(
                    "input outside theorem hypotheses: m = 0 is not covered; "
                    "use classify_general for series p^n + beta*x + ..."
                )
            if gcd(self.beta, self.p) != 1:
                raise ValueError("input outside theorem hypotheses: gcd(p, beta) must be 1")
        if gcd(self.alpha, self.p) != 1:
            raise ValueError("input outside theorem hypotheses: gcd(p, alpha) must be 1")

    def head_series(self, order: int) -> TruncSeries:
        """The input as an explicit series through ``order`` (zero-extended)."""
        coeffs = [0] * (order + 1)
        coeffs[0] = self.p**self.n
        if self.beta is not None and order >= 1:
            coeffs[1] = self.p**self.m * self.beta
        if order >= 2:
            coeffs[2] = self.alpha
        for i, c in enumerate(self.tail):
            if 3 + i <= order:
                coeffs[3 + i] = c
        return TruncSeries(coeffs)


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    rule: str
    zp_reducible: bool | None = None
    certificate: object | None = None
    factors: tuple[TruncSeries, TruncSeries] | None = None
    verified_order: int | None = None
    assumption: str | None = None
    conditional_on_truncation: bool = False

    @property
    def citation(self) -> str:
        return RULE_INFO[self.rule]


def discriminant(q: QuadInput) -> int:
    if q.beta is None:
        return -4 * q.alpha * q.p**q.n
    return q.p ** (2 * q.m) * q.beta**2 - 4 * q.alpha * q.p**q.n


def discriminant_square_class(q: QuadInput) -> SquareClass:
    """``is_square_zp(discriminant(q), q.p)`` without building p^n.

    The discriminant is p^lo * core with lo = min(2m, n) and core =
    p^(2m-n)*beta^2 - 4*alpha when 2m >= n, beta^2 - 4*alpha*p^(n-2m)
    when 2m < n, and -4*alpha (lo = n) when beta = 0.  One of the two
    terms of core has valuation at most 2 (beta and alpha are units), so
    once the other carries p^e with e >= 5 it changes neither the
    valuation of core nor its unit part mod p^3, which decides the class
    (mod p, or mod 8 for p = 2); core is then that term alone.
    """
    p, n, alpha = q.p, q.n, q.alpha
    if q.beta is None:
        lo, core = n, -4 * alpha
    else:
        gap = 2 * q.m - n
        lo = min(2 * q.m, n)
        if gap >= 5:
            core = -4 * alpha
        elif gap <= -5:
            core = q.beta**2
        else:
            core = p ** max(gap, 0) * q.beta**2 - 4 * alpha * p ** max(-gap, 0)
    if core == 0:
        return SquareClass(is_square=True, is_zero=True)
    v = valuation(core, p)
    return square_class(lo + v.t, v.u, p)


def classify_quadratic(q: QuadInput, terms: int = 64, attach_factors: bool = True) -> Verdict:
    """Decide p^n + p^m*beta*x + alpha*x^2 in Z[[x]] and attach factors.

    The Z[[x]] verdict always coincides with the discriminant being a
    square in Z_p; the rule tag records which branch of the case analysis
    applies.  Reducible verdicts carry a factor pair through ``terms``.
    """
    if q.tail:
        raise ValueError("tail present: classify the full series with classify_general")
    p, n = q.p, q.n
    sq = discriminant_square_class(q)
    section = "S4" if p == 2 else "S3"
    if q.beta is None:
        rule = f"{section}.beta0-{'reducible' if sq.is_square else 'irreducible'}"
        kind = VerdictKind.REDUCIBLE if sq.is_square else VerdictKind.IRREDUCIBLE
    else:
        m = q.m
        if 2 * m < n:
            kind, rule = VerdictKind.REDUCIBLE, f"{section}.2m-lt-n"
        elif n % 2 == 1:
            kind, rule = VerdictKind.IRREDUCIBLE, f"{section}.2m-gt-n-odd"
        elif p == 2 and n == 2 * m:
            kind, rule = VerdictKind.IRREDUCIBLE, "S4.n-eq-2m"
        else:
            kind = VerdictKind.REDUCIBLE if sq.is_square else VerdictKind.IRREDUCIBLE
            rule = f"{section}.disc-{'square' if sq.is_square else 'nonsquare'}"
    if (kind is VerdictKind.REDUCIBLE) != sq.is_square:
        raise AssertionError("branch verdict disagrees with the Z_p square test")
    factors = None
    verified = None
    if kind is VerdictKind.REDUCIBLE and attach_factors:
        from .factor import factor_reducible_quadratic

        factors = factor_reducible_quadratic(q, terms)
        verified = terms
    return Verdict(
        kind=kind,
        rule=rule,
        zp_reducible=sq.is_square,
        certificate=sq,
        factors=factors,
        verified_order=verified,
    )


def classify_general(f: TruncSeries, p_hint: int | None = None) -> Verdict:
    """Rule cascade for an arbitrary truncated series.

    ``p_hint`` is accepted for interface compatibility; the prime is
    always inferred from the constant term, which determines it.
    """
    del p_hint
    if f.is_zero():
        return Verdict(VerdictKind.ZERO_SERIES, "S2.zero-series")
    f0 = f.coeffs[0]
    if f0 == 0:
        return _classify_x_multiple(f)
    if abs(f0) == 1:
        return Verdict(VerdictKind.UNIT, "S2.unit")
    if is_prime(abs(f0)):
        return Verdict(VerdictKind.IRREDUCIBLE, "S2.prime")
    pp = prime_power_decompose(abs(f0))
    if pp is None:
        from .factor import factor_coprime_constant

        u, v = smallest_prime_power_split(f0)
        factors = factor_coprime_constant(f, u, v, f.order)
        return Verdict(
            VerdictKind.REDUCIBLE,
            "S2.coprime-split",
            factors=factors,
            verified_order=f.order,
        )
    p, n = pp
    if f0 < 0:
        verdict = _classify_prime_power(TruncSeries([-c for c in f.coeffs]), p, n)
        if verdict.factors is None:
            return verdict
        neg_a = TruncSeries([-c for c in verdict.factors[0].coeffs])
        return Verdict(
            kind=verdict.kind,
            rule=verdict.rule,
            zp_reducible=verdict.zp_reducible,
            certificate=verdict.certificate,
            factors=(neg_a, verdict.factors[1]),
            verified_order=verdict.verified_order,
            assumption=verdict.assumption,
            conditional_on_truncation=verdict.conditional_on_truncation,
        )
    return _classify_prime_power(f, p, n)


def _classify_x_multiple(f: TruncSeries) -> Verdict:
    shifted = TruncSeries(f.coeffs[1:])
    if shifted.coeffs[0] in (1, -1):
        return Verdict(VerdictKind.IRREDUCIBLE, "S2.x-associate")
    x_series = TruncSeries([0, 1] + [0] * max(0, f.order - 1))
    return Verdict(
        VerdictKind.REDUCIBLE,
        "S2.x-factor",
        factors=(x_series.pad(f.order), shifted.pad(f.order)),
        verified_order=f.order,
    )


def _classify_prime_power(f: TruncSeries, p: int, n: int) -> Verdict:
    """f has constant term +p^n with n >= 2."""
    if f.order == 0:
        return Verdict(
            VerdictKind.REDUCIBLE,
            "S2.constant",
            factors=(TruncSeries([p]), TruncSeries([p ** (n - 1)])),
            verified_order=0,
            assumption=_ZERO_EXTENSION,
            conditional_on_truncation=True,
        )
    f1 = f.coeffs[1]
    if gcd(f1, p) == 1:
        zp = True if (f.order >= 2 and f.coeffs[2] != 0) else None
        return Verdict(VerdictKind.IRREDUCIBLE, "S3.remark-m0", zp_reducible=zp)
    if f.order >= 2 and gcd(f.coeffs[2], p) == 1:
        return _classify_quadratic_head(f, p, n)
    if all(c % p == 0 for c in f.coeffs):
        cofactor = TruncSeries([c // p for c in f.coeffs])
        return Verdict(
            VerdictKind.REDUCIBLE,
            "S2.content-p",
            factors=(TruncSeries([p] + [0] * f.order), cofactor),
            verified_order=f.order,
            assumption="p divides every coefficient of any extension",
            conditional_on_truncation=True,
        )
    return Verdict(
        VerdictKind.UNKNOWN,
        "unknown.no-rule",
        assumption=(
            f"constant term {p}^{n} with p | f_1 but the head is not a unit quadratic "
            "and p does not divide every provided coefficient"
        ),
    )


def _quadratic_fallback(f: TruncSeries, q_head: QuadInput, reason: str) -> Verdict:
    """Tail is explicitly all-zero: answer for the zero extension, flagged."""
    base = classify_quadratic(
        QuadInput(q_head.p, q_head.n, q_head.m, q_head.beta, q_head.alpha),
        terms=f.order,
    )
    return Verdict(
        kind=base.kind,
        rule=base.rule,
        zp_reducible=base.zp_reducible,
        certificate=base.certificate,
        factors=base.factors,
        verified_order=base.verified_order,
        assumption=f"{reason}; {_ZERO_EXTENSION}",
        conditional_on_truncation=True,
    )


def _undecided(f: TruncSeries, q_head: QuadInput | None, sq: SquareClass | None, reason: str) -> Verdict:
    if q_head is not None and all(c == 0 for c in f.coeffs[3:]):
        return _quadratic_fallback(f, q_head, reason)
    return Verdict(
        VerdictKind.UNKNOWN,
        "S5.unknown",
        zp_reducible=None if sq is None else sq.is_square,
        certificate=sq,
        assumption=reason,
    )


def _classify_quadratic_head(f: TruncSeries, p: int, n: int) -> Verdict:
    """f = p^n + f_1*x + alpha*x^2 + tail with p | f_1 and alpha a unit."""
    from . import factor as engines

    alpha = f.coeffs[2]
    f1 = f.coeffs[1]
    if f1 == 0:
        head = QuadInput(p, n, None, None, alpha)
        return _undecided(
            f, head, discriminant_square_class(head),
            "beta = 0 with a nonzero tail has no covered criterion",
        )
    v1 = valuation(f1, p)
    m, beta = v1.t, v1.u
    q = QuadInput(p, n, m, beta, alpha, tail=f.coeffs[3:])
    head = QuadInput(p, n, m, beta, alpha)
    sq = discriminant_square_class(head)

    def verdict(kind, rule, factors=None, conditional=False, assumption=None):
        return Verdict(
            kind=kind,
            rule=rule,
            zp_reducible=sq.is_square,
            certificate=sq,
            factors=factors,
            verified_order=None if factors is None else f.order,
            assumption=assumption,
            conditional_on_truncation=conditional,
        )

    if 2 * m < n:
        return verdict(
            VerdictKind.REDUCIBLE, "S5.2m-lt-n", engines.factor_2m_lt_n(q, f.order)
        )
    if 2 * m > n:
        if n % 2 == 1:
            return verdict(VerdictKind.IRREDUCIBLE, "S5.2m-gt-n-odd")
        if p == 2:
            return _undecided(
                f, head, sq, "p = 2 with 2m > n even and a tail has no covered criterion"
            )
        if is_qr_mod_p(-alpha, p):
            return verdict(
                VerdictKind.REDUCIBLE, "S5.2m-gt-n-even-qr", engines.factor_m_gt_nu(q, f.order)
            )
        return verdict(VerdictKind.IRREDUCIBLE, "S5.2m-gt-n-even-nonqr")

    # n = 2m
    if p == 2:
        return verdict(VerdictKind.IRREDUCIBLE, "S4.n-eq-2m")
    classes = root_classes(1, -beta, alpha, p, m)
    if not classes:
        return verdict(VerdictKind.IRREDUCIBLE, "S5.no-root")
    # a root is simple or not according to its class mod p
    if any((2 * r - beta) % p != 0 for r, _ in classes):
        return verdict(
            VerdictKind.REDUCIBLE, "S5.simple-root", engines.factor_simple_root_tail(f, f.order)
        )
    core = beta * beta - 4 * alpha
    if m == 1 and core != 0 and valuation(core, p).t >= 2:
        if f.order >= 3 and f.coeffs[3] % p != 0:
            return verdict(VerdictKind.IRREDUCIBLE, "S5.double-root-c3-unit")
        dv = valuation(core, p)
        if dv.t == 2 and is_qr_mod_p(dv.u, p) and all(c % (p * p) == 0 for c in f.coeffs[3:]):
            return verdict(
                VerdictKind.REDUCIBLE,
                "S5.double-root-divisible-tail",
                engines.factor_tail(f, f.order),
                conditional=True,
                assumption="assumes p^2 divides every coefficient beyond the provided order",
            )
        return _undecided(
            f, head, sq,
            "double root mod p with p | c_3 but p^2 does not divide every provided "
            "c_k: reducibility depends on deeper tail coefficients",
        )
    return _undecided(
        f, head, sq,
        "n = 2m with only non-simple roots mod p^m and no covered tail criterion",
    )
