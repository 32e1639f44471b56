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

``QuadInput`` and ``Verdict`` are NamedTuples: frozen, compared and
hashed as tuples, with ``_replace`` for a changed copy.  ``_replace``
and ``_make`` skip the checks ``QuadInput`` runs on construction, so
they are for rebuilding a value already checked.

Every answer with a quadratic head, from the library, the CLI or
``classify_general``, takes one path: ``discriminant_square_class``,
then ``_decide``, then ``_row_verdict``.  Each unpacks its
``QuadInput`` once and builds its value by position, so that a
tail-free decision without factors costs little more than its one
square test.
"""

from __future__ import annotations

import enum
import operator
from math import gcd
from typing import NamedTuple

from . import factor as engines
from .limits import LIMITS, require_series, require_terms
from .padics import (
    PROVEN_PRIME_BOUND,
    SquareClass,
    _root_classes,
    _smallest_block,
    _square_class,
    _valuation,
    is_prime,
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
]


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

# the kinds of _decide's rows, bound once: looking a member up on an Enum
# class goes through its metaclass and costs about 0.1 us a time
_REDUCIBLE, _IRREDUCIBLE, _UNKNOWN = VerdictKind.REDUCIBLE, VerdictKind.IRREDUCIBLE, VerdictKind.UNKNOWN
_ZERO_EXTENSION = "assumes every coefficient beyond the provided order is zero"
_PROBABLE_PRIME = "p is a BPSW probable prime"


class _QuadFields(NamedTuple):
    """The fields of :class:`QuadInput`, which checks them on construction."""

    p: int
    n: int
    m: int | None
    beta: int | None
    alpha: int
    tail: tuple[int, ...]


class QuadInput(_QuadFields):
    """The tuple (p, n, m, beta, alpha) plus an optional explicit tail.

    ``beta is None`` (with ``m is None``) is the beta = 0 form.  The tail
    lists c_3, c_4, ... and is taken as exactly zero beyond its length.
    Construction proves p prime, once, and takes integers only: a float or
    a string raises TypeError (``operator.index``), as in ``TruncSeries``.
    """

    __slots__ = ()

    def __new__(cls, p: int, n: int, m: int | None, beta: int | None, alpha: int, tail=()) -> QuadInput:
        index = operator.index
        p, n, alpha = index(p), index(n), index(alpha)
        m = None if m is None else index(m)
        beta = None if beta is None else index(beta)
        if type(tail) is not tuple or tail:  # the empty tuple needs no conversion
            tail = tuple(map(index, tail))
        if beta == 0:
            m = beta = None
        if p.bit_length() > LIMITS.max_p_bits:
            raise ValueError(f"p has {p.bit_length()} bits, beyond the limit of {LIMITS.max_p_bits}")
        if not is_prime(p):
            raise ValueError(f"input outside theorem hypotheses: p = {p} is not prime")
        if n < 1:
            raise ValueError("input outside theorem hypotheses: need n >= 1")
        if (beta is None) != (m is None):
            raise ValueError("beta and m must be given together (or both absent for beta = 0)")
        # p is prime from here on, so gcd(x, p) != 1 exactly when p divides x
        if beta is not None:
            if m < 1:
                raise ValueError(
                    "input outside theorem hypotheses: m = 0 is not covered; "
                    "use classify_general for series p^n + beta*x + ..."
                )
            if beta % p == 0:
                raise ValueError("input outside theorem hypotheses: gcd(p, beta) must be 1")
        if alpha % p == 0:
            raise ValueError("input outside theorem hypotheses: gcd(p, alpha) must be 1")
        return tuple.__new__(cls, (p, n, m, beta, alpha, tail))

    def head_series(self, order: int) -> TruncSeries:
        """The input as an explicit series through ``order`` (zero-extended)."""
        return TruncSeries(self._coeffs(order))

    def _coeffs(self, order: int) -> list[int]:
        """f_0 .. f_order of the input, zero-extended; ValueError beyond the limits."""
        require_series(self.p, self.n, self.m, order)
        f = [self.p**self.n, 0 if self.beta is None else self.p**self.m * self.beta, self.alpha, *self.tail]
        return (f + [0] * order)[: order + 1]


class Verdict(NamedTuple):
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
    require_series(q.p, q.n, q.m, 0)
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
    (mod p, or mod 8 for p = 2); that power of p is therefore capped at p^5.
    A core that is already a unit goes to the square test as it is.
    """
    p, n, m, beta, alpha, _ = q
    if beta is None:
        lo, core = n, -4 * alpha
    elif (gap := 2 * m - n) >= 0:
        lo, core = n, p ** (gap if gap < 5 else 5) * beta * beta - 4 * alpha
    else:
        lo, core = 2 * m, beta * beta - 4 * alpha * p ** (-gap if gap > -5 else 5)
    if core % p:
        return _square_class(lo, core, p)
    if core == 0:
        return SquareClass(True, True)
    t, u = _valuation(core, p)
    return _square_class(lo + t, u, p)


def _with_prime_note(verdict: Verdict, p: int) -> Verdict:
    """The verdict, noting when the prime p it rests on is only BPSW-probable."""
    if p < PROVEN_PRIME_BOUND:
        return verdict
    note = _PROBABLE_PRIME if verdict.assumption is None else f"{verdict.assumption}; {_PROBABLE_PRIME}"
    return verdict._replace(assumption=note)


def _decide(
    q: QuadInput, sq: SquareClass, f: TruncSeries | None = None
) -> tuple[VerdictKind, str, str | None]:
    """The paper's case analysis, in one place: (kind, rule, engine) for q.

    ``f`` is the whole series when q is the head of a
    :func:`classify_general` input; its rows are the tailed ones, tagged
    S5 where the tail criteria apply.  Without it q is the tail-free
    quadratic, tagged S3 for odd p and S4 for p = 2.  ``engine`` names the
    function of :mod:`zxfactor.factor` that splits a reducible row (None
    on the others): ``factor_simple_root`` wherever the seed quadratic has
    a simple root mod p (2m < n, odd p with m > n/2 or beta = 0, and the
    tailed simple-root row), ``factor_p2_scaled`` for p = 2 with m > n/2 + 1
    or beta = 0, and one engine each for m = n/2, p = 2 with m = n/2 + 1,
    and the p^2-divisible tail.  A tailed row no criterion covers comes
    back as ``UNKNOWN`` with its reason in place of the rule.
    """
    p, n, m, beta, alpha, _ = q
    section = "S4" if p == 2 else "S3"
    tag = section if f is None else "S5"
    if beta is None:
        if f is not None:
            return _UNKNOWN, "beta = 0 with a nonzero tail has no covered criterion", None
        if sq.is_square:
            engine = "factor_p2_scaled" if p == 2 else "factor_simple_root"
            return _REDUCIBLE, f"{section}.beta0-reducible", engine
        return _IRREDUCIBLE, f"{section}.beta0-irreducible", None
    if 2 * m < n:
        return _REDUCIBLE, f"{tag}.2m-lt-n", "factor_simple_root"
    if n % 2 == 1:
        return _IRREDUCIBLE, f"{tag}.2m-gt-n-odd", None
    if p == 2 and n == 2 * m:
        return _IRREDUCIBLE, "S4.n-eq-2m", None
    if f is None:
        if not sq.is_square:
            return _IRREDUCIBLE, f"{section}.disc-nonsquare", None
        nu = n // 2
        if p == 2:
            engine = "factor_p2_m_eq_nu1" if m == nu + 1 else "factor_p2_scaled"
        else:
            engine = "factor_m_eq_nu" if m == nu else "factor_simple_root"
        return _REDUCIBLE, f"{section}.disc-square", engine
    if 2 * m > n:
        if p == 2:
            return _UNKNOWN, "p = 2 with 2m > n even and a tail has no covered criterion", None
        # -4*alpha is the unit of the discriminant's core, so sq is the residue test of -alpha
        if sq.is_square:
            return _REDUCIBLE, "S5.2m-gt-n-even-qr", "factor_simple_root"
        return _IRREDUCIBLE, "S5.2m-gt-n-even-nonqr", None

    # n = 2m, p odd, with a tail: sq is the class of p^n * core, core =
    # beta^2 - 4*alpha.  A unit core gives y^2 - beta*y + alpha two simple
    # roots mod p, which lift to p^m, when it is a residue (Euler's
    # criterion) and no root when it is not; otherwise its root mod p is
    # double and only the root classes mod p^m tell whether one lifts.
    if sq.valuation == n:
        if sq.is_square:
            return _REDUCIBLE, "S5.simple-root", "factor_simple_root"
        return _IRREDUCIBLE, "S5.no-root", None
    if not _root_classes(1, -beta, alpha, p, m):
        return _IRREDUCIBLE, "S5.no-root", None
    t = 0 if sq.is_zero else sq.valuation - n
    if m == 1 and t >= 2:
        if f.order >= 3 and f.coeffs[3] % p != 0:
            return _IRREDUCIBLE, "S5.double-root-c3-unit", None
        if t == 2 and sq.is_square and all(c % (p * p) == 0 for c in f.coeffs[3:]):
            return _REDUCIBLE, "S5.double-root-divisible-tail", "factor_tail"
        return _UNKNOWN, (
            "double root mod p with p | c_3 but p^2 does not divide every provided "
            "c_k: reducibility depends on deeper tail coefficients"
        ), None
    return _UNKNOWN, "n = 2m with only non-simple roots mod p^m and no covered tail criterion", None


def _row_verdict(
    q: QuadInput, sq: SquareClass, kind: VerdictKind, rule: str, engine: str | None, order: int
) -> Verdict:
    """The verdict of a decided row, with the engine's pair through order.

    The engine is looked up in :mod:`zxfactor.factor` at call time."""
    factors = None if engine is None else getattr(engines, engine)(q, order)
    conditional = rule == "S5.double-root-divisible-tail"
    return Verdict(
        kind,
        rule,
        sq.is_square,
        sq,
        factors,
        None if factors is None else order,
        "assumes p^2 divides every coefficient beyond the provided order" if conditional else None,
        conditional,
    )


def classify_quadratic(q: QuadInput, terms: int = 64, attach_factors: bool = True) -> Verdict:
    """Decide p^n + p^m*beta*x + alpha*x^2 in Z[[x]] and attach factors.

    The Z[[x]] verdict always coincides with the discriminant being a
    square in Z_p; the rule tag records which branch of the case analysis
    applies.  Reducible verdicts carry a factor pair through ``terms``.
    """
    if q.tail:
        raise ValueError("tail present: classify the full series with classify_general")
    sq = discriminant_square_class(q)
    kind, rule, engine = _decide(q, sq)
    if (kind is _REDUCIBLE) != sq.is_square:
        raise AssertionError("branch verdict disagrees with the Z_p square test")
    return _with_prime_note(_row_verdict(q, sq, kind, rule, engine if attach_factors else None, terms), q.p)


def classify_general(f: TruncSeries) -> Verdict:
    """Rule cascade for an arbitrary truncated series; the prime is
    inferred from the constant term, which determines it.

    One factor search of |f_0| (:func:`~zxfactor.padics._smallest_block`)
    both proves the prime and finds the smallest prime-power block.
    """
    require_terms(f.order)
    if not any(f.coeffs):
        return Verdict(VerdictKind.ZERO_SERIES, "S2.zero-series")
    f0 = f.coeffs[0]
    if f0 == 0:
        return _classify_x_multiple(f)
    if abs(f0) == 1:
        return Verdict(VerdictKind.UNIT, "S2.unit")
    p, n = _smallest_block(abs(f0))
    u = p**n
    if u != abs(f0):
        factors = engines.factor_coprime_constant(f, u, f0 // u, f.order)
        return Verdict(
            VerdictKind.REDUCIBLE,
            "S2.coprime-split",
            factors=factors,
            verified_order=f.order,
        )
    return _classify_block(f, p, n)


def _classify_block(f: TruncSeries, p: int, n: int) -> Verdict:
    """The rest of the cascade for f_0 = +-p^n, n >= 1, with p already
    proven prime: by the constant-term search, or by the CLI's
    :class:`QuadInput`, so that p is proven once per answer."""
    if n == 1:
        return _with_prime_note(Verdict(VerdictKind.IRREDUCIBLE, "S2.prime"), p)
    if f.coeffs[0] > 0:
        verdict = _classify_prime_power(f, p, n)
    else:
        verdict = _classify_prime_power(TruncSeries([-c for c in f.coeffs]), p, n)
        if verdict.factors is not None:
            neg_a = TruncSeries([-c for c in verdict.factors[0].coeffs])
            verdict = verdict._replace(factors=(neg_a, verdict.factors[1]))
    return _with_prime_note(verdict, p)


def _classify_x_multiple(f: TruncSeries) -> Verdict:
    # f has order >= 1: a series that is only a zero constant is the zero series
    if f.coeffs[1] in (1, -1):
        return Verdict(VerdictKind.IRREDUCIBLE, "S2.x-associate")
    return Verdict(
        VerdictKind.REDUCIBLE,
        "S2.x-factor",
        factors=(TruncSeries([0, 1] + [0] * (f.order - 1)), TruncSeries(f.coeffs[1:] + (0,))),
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


def _undecided(f: TruncSeries, q: QuadInput, sq: SquareClass, reason: str) -> Verdict:
    """No criterion covers the tailed q.  An explicitly all-zero tail is
    answered for the zero extension, flagged; the assumption replaces the
    base verdict's, and classify_general adds the probable-prime note,
    when there is one, to the result."""
    if not any(q.tail):
        base = classify_quadratic(q._replace(tail=()), terms=f.order)
        return base._replace(assumption=f"{reason}; {_ZERO_EXTENSION}", conditional_on_truncation=True)
    return Verdict(
        VerdictKind.UNKNOWN,
        "S5.unknown",
        zp_reducible=sq.is_square,
        certificate=sq,
        assumption=reason,
    )


def _classify_quadratic_head(f: TruncSeries, p: int, n: int) -> Verdict:
    """f = p^n + f_1*x + alpha*x^2 + tail with p | f_1 and alpha a unit."""
    f1 = f.coeffs[1]
    m, beta = _valuation(f1, p) if f1 else (None, None)
    # the checks of QuadInput hold: the search has proven p, m >= 1 and
    # beta is a unit since p | f_1, and alpha is a unit
    q = QuadInput._make((p, n, m, beta, f.coeffs[2], f.coeffs[3:]))
    sq = discriminant_square_class(q)
    kind, rule, engine = _decide(q, sq, f)
    if kind is VerdictKind.UNKNOWN:
        return _undecided(f, q, sq, rule)
    return _row_verdict(q, sq, kind, rule, engine, f.order)
