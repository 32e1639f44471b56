"""Seeded inputs for the three benchmark workloads.

A workload is a fixed list of items built from the seed alone; a run
cycles through it in whole passes.  The number of items in each input
family is fixed, and only the parameters inside a family depend on the
seed, so every seed gives the same mix.  Sizes that drive the cost (p, n)
are drawn stratified: one draw per equal-width slice of the range, which
keeps the work of a pass nearly the same from seed to seed.
"""

from __future__ import annotations

import random
import shlex
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from math import isqrt

from checker import (
    IRREDUCIBLE,
    REDUCIBLE,
    expect_constant,
    expect_quadratic,
    expect_quadratic_head,
    is_prime_small,
    is_qr,
    next_prime,
)

WORKLOADS = ("decide-sweep", "padic-wide", "cli-deep")

SMALL_PRIMES = (2, 3, 5, 7, 11)

# Known defects at the time the benchmark was written (see ROADMAP.md).
# They stay in padic-wide so their failures remain visible in every run.
PSEUDOPRIMES = (
    (318665857834031151167461, (399165290221, 798330580441)),
    (3317044064679887385961981, (1287836182261, 2575672364521)),
)
# nextprime(10**20) * nextprime(3 * 10**20)
SEMIPRIME = (100000000000000000039 * 300000000000000000053, (100000000000000000039, 300000000000000000053))


@dataclass
class Item:
    """One input.  ``call`` is "quad" (QuadInput through classify_quadratic),
    "general" (a series through classify_general) or "cli" (one
    ``classify --batch`` line)."""

    label: str
    family: str
    call: str
    args: tuple
    expect: str | None
    known_defect: str | None = None
    props: dict = field(default_factory=dict)
    # The reference kernel whose speed scales this item's times (see
    # harness.Calibrator): the work an answer spends most of its time in.
    reference: str = "mix"

    def target(self) -> list[int]:
        """The series a returned factor pair must reproduce."""
        if self.call == "general":
            return list(self.args[0])
        if self.call == "quad":
            p, n, m, beta, alpha, terms, _ = self.args
            tail = ()
        else:
            p, n, m, beta, alpha, tail, terms = self.args
            terms = max(terms, 2 + len(tail))
        coeffs = [p**n, 0 if beta is None else p**m * beta, alpha, *tail]
        return (coeffs + [0] * terms)[: terms + 1]

    @property
    def factors_required(self) -> bool:
        return self.call != "quad" or self.args[6]

    def cli_line(self) -> str:
        p, n, m, beta, alpha, tail, terms = self.args
        head = ["--p", p, "--n", n]
        head += ["--beta-zero"] if beta is None else ["--m", m, "--beta", beta]
        head += ["--alpha", alpha]
        if tail:
            head.append("--tail=" + ",".join(map(str, tail)))
        head += ["--terms", terms]
        return shlex.join(map(str, head))


def generate(workload: str, seed: int) -> list[Item]:
    rng = random.Random(f"{workload}:{seed}")
    return {"decide-sweep": decide_sweep, "padic-wide": padic_wide, "cli-deep": cli_deep}[workload](rng)


def _unit(rng: random.Random, p: int, bound: int) -> int:
    while True:
        x = rng.randint(-bound, bound)
        if x % p:
            return x


def _quad(family, p, n, m, beta, alpha, terms, attach, known_defect=None, reference="mix") -> Item:
    return Item(
        label=f"QuadInput({p}, {n}, {m}, {beta}, {alpha})",
        family=family,
        call="quad",
        args=(p, n, m, beta, alpha, terms, attach),
        expect=expect_quadratic(p, n, m, beta, alpha),
        known_defect=known_defect,
        props=_quad_props(p, n, m, beta, alpha, terms if attach else None),
        reference=reference,
    )


def _general(family, coeffs, expect, props=None, label=None, known_defect=None) -> Item:
    coeffs = tuple(coeffs)
    return Item(
        label=label or f"series{coeffs}",
        family=family,
        call="general",
        args=(coeffs,),
        expect=expect,
        known_defect=known_defect,
        props={"order": len(coeffs) - 1, **(props or {})},
    )


# ---------------------------------------------------------------------------
# decide-sweep: the theorem sweep at scale, microsecond answers


def decide_sweep(rng: random.Random) -> list[Item]:
    """5000 items: 4000 raw quadratic tuples (500 in the beta = 0 form),
    decision only, and 1000 short tailed series through classify_general,
    200 for each constant-term rule and 200 tail-independent heads."""
    items = []
    for i in range(4000):
        p = rng.choice(SMALL_PRIMES)
        n = rng.randint(1, 8)
        alpha = _unit(rng, p, 50)
        if i < 500:
            m = beta = None
        else:
            m, beta = rng.randint(1, 8), _unit(rng, p, 50)
        items.append(_quad("quadratic", p, n, m, beta, alpha, 64, False))
    small_primes = [q for q in range(2, 1000) if is_prime_small(q)]
    for j in range(200):
        order = rng.randint(3, 8)
        rest = [rng.randint(-50, 50) for _ in range(order)]
        sign = rng.choice((1, -1))
        items.append(_general("unit-constant", [sign] + rest, expect_constant(sign, rest[0])))
        c0 = sign * rng.choice(small_primes)
        items.append(_general("prime-constant", [c0] + rest, expect_constant(c0, rest[0])))
        x_rest = [rng.randint(-2, 2)] + rest[1:]
        if not any(x_rest):
            x_rest[-1] = 1
        items.append(_general("x-multiple", [0] + x_rest, expect_constant(0, x_rest[0])))
        q1, q2 = rng.sample((2, 3, 5, 7, 11, 13), 2)
        parts = (q1 ** rng.randint(1, 2), q2 ** rng.randint(1, 2))
        c0 = sign * parts[0] * parts[1]
        items.append(_general("coprime-constant", [c0] + rest, expect_constant(c0, rest[0], parts)))
        items.append(_tailed_head(rng, order, j))
    rng.shuffle(items)
    return items


def _tailed_head(rng: random.Random, order: int, j: int) -> Item:
    """p^n + p^m*beta*x + alpha*x^2 + tail with odd p, in one of the head
    cases the tail cannot change: 2m < n, 2m > n, or n = 2m with m <= 2.

    The shape (p, n, m) cycles with j, so every seed has every shape, the
    largest heads (11^7) included; the seed draws the rest.
    """
    p = (3, 5, 7, 11)[j % 4]
    case, k = (j // 4) % 3, j // 12
    if case == 0:
        m = 1 + k % 2
        n = 2 * m + 1 + (k // 2) % 3
    elif case == 1:
        n = 1 + k % 4
        m = n // 2 + 1 + (k // 4) % 3
    else:
        m = 1 + k % 2
        n = 2 * m
    beta, alpha = _unit(rng, p, 50), _unit(rng, p, 50)
    tail = [rng.randint(-50, 50) for _ in range(order - 2)]
    coeffs = [p**n, p**m * beta, alpha] + tail
    props = _quad_props(p, n, m, beta, alpha, order)
    if n == 2 * m:
        props["engine"] = "S5.simple-root"
    return _general("tailed-head", coeffs, expect_quadratic_head(p, n, m, beta, alpha), props)


# ---------------------------------------------------------------------------
# padic-wide: number theory on large p and large n


def padic_wide(rng: random.Random) -> list[Item]:
    """101 items: 48 large-n decisions, 48 large-p factorizations at
    N = 8, the repeated-root family at p = 11 and 31, and the known-defect
    constants.  At least 100 items give the tail latency ten samples
    beyond p90.

    The first item is the smallest large-n decision, a cheap, regular
    answer for the set-up probe.
    """
    items = []
    for i in range(48):
        n = 2000 + int((i + rng.random()) * 10000 / 48)
        p = (3, 5, 7)[i % 3]
        m = n // 2 + 1 + rng.randint(0, 3)
        items.append(_quad("large-n", p, n, m, _unit(rng, p, 50), _unit(rng, p, 50), 8, False, reference="divide"))
    for i in range(36):
        p = next_prime(10**4 + int((i + rng.random()) * (3 * 10**5 - 10**4) / 36))
        items.append(_large_p(rng, p, i % 3))
    # m = nu lifts its root to p^3, about five scans of range(p): smaller p
    # keeps these answers well inside the deadline.
    for i in range(12):
        items.append(_large_p(rng, next_prime(10**4 + int((i + rng.random()) * 5 * 10**4 / 12)), 3))
    for p, defect in ((11, None), (31, "repeated root: root_certificate lists about p^3 roots mod p^9")):
        items.append(_quad("repeated-root", p, 2, 1, 2, 1 - 5 * p**6, 8, True, defect))
    for c0, parts in PSEUDOPRIMES:
        items.append(_defect_constant("pseudoprime", c0, parts, "is_prime accepts a 12-base strong pseudoprime"))
    c0, parts = SEMIPRIME
    items.append(_defect_constant("semiprime", c0, parts, "unbounded Pollard rho on a product of two 21-digit primes"))
    return items


def _large_p(rng: random.Random, p: int, engine: int) -> Item:
    """A reducible quadratic whose engine scans range(p) for roots."""
    while True:
        beta, alpha = rng.randrange(1, p), rng.randrange(1, p)
        if engine == 0:  # m > nu: needs -alpha a residue
            args, ok = (p, 2, rng.randint(2, 3), beta, alpha), is_qr(-alpha, p)
        elif engine == 1:  # 2m < n: always reducible
            args, ok = (p, 3, 1, beta, alpha), True
        elif engine == 2:  # beta = 0: needs -alpha a residue
            args, ok = (p, 2, None, None, alpha), is_qr(-alpha, p)
        else:  # m = nu with a simple root: disc a nonzero residue mod p
            d = (beta * beta - 4 * alpha) % p
            args, ok = (p, 2, 1, beta, alpha), d != 0 and is_qr(d, p)
        if ok:
            return _quad("large-p", *args, 8, True, reference="scan")


def _defect_constant(family: str, c0: int, parts: tuple[int, int], defect: str) -> Item:
    coeffs = (c0, 1, 1)
    return _general(
        family,
        coeffs,
        expect_constant(c0, 1, parts),
        label=f"series({c0}, 1, 1) with {c0} = {parts[0]} * {parts[1]}",
        known_defect=defect,
    )


# ---------------------------------------------------------------------------
# cli-deep: the CLI batch path at large order


def cli_deep(rng: random.Random) -> list[Item]:
    """100 batch lines: every quadratic engine (both m = nu sub-cases, both
    beta = 0 forms, both p = 2 engines) and tailed lines for S5.simple-root
    and S5.double-root-divisible-tail, 3 of each at --terms 64 and 5 at
    128, then 20 lines at 256 without m = nu, whose coefficient growth
    swings widely with the parameters (1 to 5 bits per order).  The median
    falls inside the 128 group and p90 (ten samples beyond it) inside the
    256 group, not on an edge between two groups.  Orders stop at 256: at
    512 and 1024 a line takes 0.1 to 0.4 s, and its best of the few tries
    a run allows moved by up to 40% from run to run on the shared machine
    the benchmark was written on.  The first line is the cheapest one, for
    the set-up probe.
    """
    makers = [
        _cli_2m_lt_n, _cli_m_gt_nu, _cli_beta0_odd, _cli_p2_m_gt_nu1,
        _cli_beta0_p2, _cli_p2_m_eq_nu1, _cli_simple_root, _cli_double_root_tail,
        partial(_cli_m_eq_nu, small_nu=False), partial(_cli_m_eq_nu, small_nu=True),
    ]
    plan = [(64, makers)] * 3 + [(128, makers)] * 5 + [(256, makers[:8])] * 2 + [(256, makers[:4])]
    return [_without_shortcut(make, rng, terms) for terms, group in plan for make in group]


def _without_shortcut(make, rng, terms) -> Item:
    """Redraw until the engine has to run its recurrence: an input whose
    auxiliary quadratic has integer roots gets finite polynomial factors,
    which would make the cost of a line depend on the seed."""
    while True:
        item = make(rng, terms)
        if not item.props["integer_roots"]:
            return item


CLI_P = 5  # the odd prime of the cli-deep lines other than m = nu


def _cli(family, p, n, m, beta, alpha, terms, tail=(), expect=None) -> Item:
    args = (p, n, m, beta, alpha, tuple(tail), terms)
    if expect is None:
        expect = expect_quadratic(p, n, m, beta, alpha)
    props = _quad_props(p, n, m, beta, alpha, terms)
    if tail:
        props["engine"] = family
    item = Item("", family, "cli", args, expect, props=props)
    item.label = item.cli_line()
    return item


def _cli_2m_lt_n(rng, terms):
    p = CLI_P
    return _cli("2m<n", p, rng.randint(3, 4), 1, _unit(rng, p, 20), _unit(rng, p, 20), terms)


def _cli_m_gt_nu(rng, terms):
    p = CLI_P
    alpha = next(a for a in iter(lambda: _unit(rng, p, 20), None) if is_qr(-a, p))
    return _cli("m>nu", p, 2, rng.randint(2, 3), _unit(rng, p, 20), alpha, terms)


def _cli_m_eq_nu(rng, terms, small_nu):
    """n = 2, m = 1 with beta^2 - 4*alpha = p^(2l) * q, q a residue unit:
    l = 0 is the nu > l sub-case, l = 1 the nu <= l one."""
    p = 7
    while True:
        beta = rng.choice((1, 3, 5, 9, 11, 13))
        if small_nu:
            q = rng.choice([x for x in range(-60, 60) if x % 4 == 1 and x % p and is_qr(x, p)])
            alpha, rem = divmod(beta * beta - p * p * q, 4)
        else:
            alpha, rem = _unit(rng, p, 60), 0
            d = beta * beta - 4 * alpha
            if d % p == 0 or not is_qr(d, p):
                continue
        if rem == 0 and alpha % p:
            return _cli("m=nu nu<=l" if small_nu else "m=nu nu>l", p, 2, 1, beta, alpha, terms)


def _cli_beta0_odd(rng, terms):
    p = CLI_P
    alpha = next(a for a in iter(lambda: _unit(rng, p, 20), None) if is_qr(-a, p))
    return _cli("beta0", p, 2 * rng.randint(1, 2), None, None, alpha, terms)


def _cli_beta0_p2(rng, terms):
    alpha = 8 * rng.randint(-5, 5) + 7
    return _cli("beta0 p=2", 2, 2 * rng.randint(1, 2), None, None, alpha, terms)


def _cli_p2_m_gt_nu1(rng, terms):
    m = rng.randint(3, 4)  # nu = 1: gap 1 needs alpha = 3 mod 8, gap 2 needs 7 mod 8
    alpha = 8 * rng.randint(-5, 5) + (3 if m == 3 else 7)
    return _cli("p2 m>nu+1", 2, 2, m, 2 * rng.randint(-5, 5) + 1, alpha, terms)


def _cli_p2_m_eq_nu1(rng, terms):
    # beta^2 - alpha = 4^l * q with q = 1 mod 8 and l >= 1
    beta = 2 * rng.randint(-5, 5) + 1
    alpha = beta * beta - 4 ** rng.randint(1, 2) * (8 * rng.randint(-4, 4) + 1)
    return _cli("p2 m=nu+1", 2, 2, 2, beta, alpha, terms)


def _cli_simple_root(rng, terms):
    p = CLI_P
    while True:
        beta, alpha = _unit(rng, p, 20), _unit(rng, p, 20)
        d = (beta * beta - 4 * alpha) % p
        if d and is_qr(d, p):
            tail = [rng.randint(-20, 20) for _ in range(rng.randint(1, 4))]
            return _cli("S5.simple-root", p, 2, 1, beta, alpha, terms, tail, REDUCIBLE)


def _cli_double_root_tail(rng, terms):
    """n = 2, m = 1 with beta^2 - 4*alpha = p^2 * q (q a residue unit) and
    every tail coefficient divisible by p^2."""
    p = CLI_P
    while True:
        beta = _unit(rng, p, 20)
        q = rng.choice([x for x in range(-40, 40) if x % p and is_qr(x, p)])
        alpha, rem = divmod(beta * beta - p * p * q, 4)
        if rem == 0 and alpha % p:
            tail = [p * p * rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
            return _cli("S5.double-root-tail", p, 2, 1, beta, alpha, terms, tail, REDUCIBLE)


# ---------------------------------------------------------------------------
# input properties


def _is_square(x: int) -> bool:
    return x >= 0 and isqrt(x) ** 2 == x


def _quad_props(p, n, m, beta, alpha, terms) -> dict:
    """Properties of a quadratic head that drive the cost and the engine."""
    props = {"p_bits": p.bit_length(), "n": n, "order": terms}
    if beta is None:
        props["engine"] = "beta0"
        props["integer_roots"] = _is_square(-alpha)
        return props
    nu = n // 2
    if 2 * m < n:
        engine = "2m<n"
        scale = p ** (n - 2 * m)
        disc = beta * beta - 4 * alpha * scale
    elif n % 2 or (p == 2 and n == 2 * m):
        engine = None  # always irreducible
        disc = None
    elif p == 2:
        engine = "p2 m=nu+1" if m == nu + 1 else "p2 m>nu+1"
        s1 = 2 ** (m - nu) * beta
        disc = beta * beta - alpha if m == nu + 1 else s1 * s1 - 4 * alpha
    elif m == nu:
        engine = "m=nu"
        disc = beta * beta - 4 * alpha
    else:
        engine = "m>nu"
        s1 = p ** (m - nu) * beta
        disc = s1 * s1 - 4 * alpha
    props["engine"] = engine
    # The engines emit finite polynomial factors when the auxiliary
    # quadratic has integer roots (the "integer-root shortcut").
    props["integer_roots"] = disc is not None and _is_square(disc)
    props["repeated_root_mod_p"] = p != 2 and (beta * beta - 4 * alpha) % p == 0
    return props


def summarize(items: list[Item]) -> dict:
    """Input-property summary of one pass, derived from the seed alone."""
    def share(pred):
        return round(sum(1 for it in items if pred(it)) / len(items), 4)

    ps = [it.props["p_bits"] for it in items if "p_bits" in it.props]
    ns = [it.props["n"] for it in items if "n" in it.props]
    orders = sorted({it.props["order"] for it in items if it.props.get("order") is not None})
    heights = [max(abs(c).bit_length() for c in it.target()[:3]) for it in items]
    reducible = [it for it in items if it.expect == REDUCIBLE]
    return {
        "items_per_pass": len(items),
        "families": shares(it.family for it in items),
        "p_bits": [min(ps), max(ps)] if ps else None,
        "n_range": [min(ns), max(ns)] if ns else None,
        "orders": orders,
        "expected": {
            "reducible": share(lambda it: it.expect == REDUCIBLE),
            "irreducible": share(lambda it: it.expect == IRREDUCIBLE),
            "unit": share(lambda it: it.expect == "unit"),
            "no_independent_expectation": share(lambda it: it.expect is None),
        },
        "engine_of_reducible": shares(it.props["engine"] for it in reducible if it.props.get("engine")),
        "integer_root_shortcut": share(lambda it: it.expect == REDUCIBLE and it.props.get("integer_roots")),
        "repeated_root_mod_p": share(lambda it: it.props.get("repeated_root_mod_p")),
        "known_defects": share(lambda it: it.known_defect),
        "input_coeff_bits_max": max(heights) if heights else None,
    }


def shares(values) -> dict:
    """Share of each distinct value, as a fraction of all values."""
    counts = Counter(values)
    total = sum(counts.values())
    return {k: round(v / total, 4) for k, v in sorted(counts.items())}
