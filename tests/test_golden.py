"""Byte-identity guard for the CLI's JSON output.

``tests/data/golden_classify.json`` maps each line of a seeded corpus of
``classify`` invocations to the exit code and the sha256 of the JSON
line the CLI printed for it when the file was made.  The corpus covers
every quadratic engine and both tail engines at ``--terms 64``, large-p
factorizations at ``--terms 8`` and the p = 11 repeated root.  Rebuild
the file (only on a deliberate change of output) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import random
import shlex
import sys
from math import isqrt
from pathlib import Path

from zxfactor.classify import QuadInput, classify_quadratic
from zxfactor.cli import main

DATA = Path(__file__).parent / "data" / "golden_classify.json"
SEED = 20071


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def _qr(u: int, p: int) -> bool:
    """Euler's criterion for odd p and u coprime to p."""
    return pow(u, (p - 1) // 2, p) == 1


def _unit(rng: random.Random, p: int, bound: int = 60) -> int:
    while True:
        x = rng.randint(-bound, bound)
        if x % p:
            return x


def _line(p, n, m, beta, alpha, terms, tail=()):
    head = f"--p {p} --n {n} " + (
        "--beta-zero" if beta is None else f"--m {m} --beta {beta}"
    )
    extra = f" --tail={','.join(map(str, tail))}" if tail else ""
    return f"{head} --alpha {alpha} --terms {terms}{extra}"


def _m_eq_nu(rng, nu, ell):
    """p odd, n = 2nu, beta^2 - 4*alpha = p^(2 ell) * q with q a non-square
    residue unit (so no integer-root shortcut)."""
    while True:
        p = rng.choice((3, 5, 7, 11))
        beta = _unit(rng, p)
        q = rng.randrange(-400, 400)
        if q % p == 0 or not _qr(q, p) or (q >= 0 and isqrt(q) ** 2 == q):
            continue
        num = beta * beta - p ** (2 * ell) * q
        if num % 4 or (num // 4) % p == 0:
            continue
        return _line(p, 2 * nu, nu, beta, num // 4, 64)


def corpus(seed: int = SEED) -> list[str]:
    rng = random.Random(seed)
    lines = []
    for _ in range(6):  # 2m < n, odd p and p = 2
        p = rng.choice((2, 3, 5, 7))
        n = rng.randint(3, 7)
        lines.append(_line(p, n, rng.randint(1, (n - 1) // 2), _unit(rng, p), _unit(rng, p), 64))
    for _ in range(6):  # m > nu, odd p: -alpha a residue
        p, nu = rng.choice((3, 5, 7, 11)), rng.randint(1, 3)
        alpha = _neg_residue(rng, p, 60)
        lines.append(_line(p, 2 * nu, nu + rng.randint(1, 3), _unit(rng, p), alpha, 64))
    for _ in range(4):  # beta = 0, odd p
        p, nu = rng.choice((3, 5, 7, 11)), rng.randint(1, 3)
        lines.append(_line(p, 2 * nu, None, None, _neg_residue(rng, p, 60), 64))
    for _ in range(4):  # beta = 0, p = 2: alpha = 7 mod 8
        lines.append(_line(2, 2 * rng.randint(1, 3), None, None, 8 * rng.randint(-8, 8) + 7, 64))
    for gap, res in ((1, 3), (2, 7), (3, 7), (1, 3)):  # p = 2, m > nu + 1
        nu = rng.randint(1, 3)
        beta = 2 * rng.randint(-20, 20) + 1
        lines.append(_line(2, 2 * nu, nu + 1 + gap, beta, 8 * rng.randint(-8, 8) + res, 64))
    for _ in range(4):  # p = 2, m = nu + 1: beta^2 - alpha = 4^l * (1 mod 8)
        nu, ell = rng.randint(1, 3), rng.randint(1, 3)
        beta = 2 * rng.randint(-20, 20) + 1
        q = 8 * rng.randint(-10, 10) + 1
        lines.append(_line(2, 2 * nu, nu + 1, beta, beta * beta - 4**ell * q, 64))
    for nu, ell in ((1, 0), (2, 0), (3, 1), (2, 1)):  # m = nu, nu > l
        lines.append(_m_eq_nu(rng, nu, ell))
    for nu, ell in ((1, 1), (1, 2), (2, 2), (2, 3)):  # m = nu, nu <= l
        lines.append(_m_eq_nu(rng, nu, ell))
    for _ in range(4):  # S5.simple-root: n = 2m, simple root mod p^m, any tail
        p = rng.choice((3, 5, 7))
        m = rng.randint(1, 2)
        while True:  # r a root mod p^m with 2r - beta a unit
            r, beta = rng.randrange(1, p), _unit(rng, p)
            alpha = r * beta - r * r + p**m * rng.randint(-5, 5)
            if (2 * r - beta) % p and alpha % p:
                break
        tail = [rng.randint(-50, 50) for _ in range(3)]
        lines.append(_line(p, 2 * m, m, beta, alpha, 64, tail))
    for _ in range(4):  # S5.double-root-divisible-tail: n = 2, m = 1
        while True:
            p = rng.choice((3, 5, 7))
            beta = _unit(rng, p)
            u = rng.randrange(1, p)
            num = beta * beta - p * p * u * u
            if num % 4 == 0 and (num // 4) % p:
                break
        tail = [p * p * rng.randint(-5, 5) for _ in range(3)]
        lines.append(_line(p, 2, 1, beta, num // 4, 64, tail))
    for i in range(4):  # large p at --terms 8
        p = _next_prime(10**4 + rng.randrange(9 * 10**4))
        beta, alpha = rng.randrange(1, p), rng.randrange(1, p)
        if i == 0:  # 2m < n
            lines.append(_line(p, 3, 1, beta, alpha, 8))
        elif i == 1:  # m > nu
            lines.append(_line(p, 2, 3, beta, _neg_residue(rng, p, p), 8))
        elif i == 2:  # beta = 0
            lines.append(_line(p, 2, None, None, _neg_residue(rng, p, p), 8))
        else:  # m = nu with a simple root
            while (beta * beta - 4 * alpha) % p == 0 or not _qr(beta * beta - 4 * alpha, p):
                alpha = rng.randrange(1, p)
            lines.append(_line(p, 2, 1, beta, alpha, 8))
    lines.append(_line(11, 2, 1, 2, 1 - 5 * 11**6, 64))  # repeated root mod 11
    # decisions without factors: every irreducible and undecided branch
    lines += [
        _line(3, 5, 3, 2, 7, 64),            # S3.2m-gt-n-odd
        _line(2, 4, 2, 3, 5, 64),            # S4.n-eq-2m
        _line(5, 2, 1, 1, 2, 64),            # S3.disc-nonsquare
        _line(2, 2, 3, 1, 5, 64),            # S4.disc-nonsquare
        _line(3, 3, None, None, 2, 64),      # S3.beta0-irreducible
        _line(3, 2, 1, -1, -1, 64, [5]),     # S5.no-root
        _line(3, 2, 1, 1, -2, 4, [3]),       # S5.unknown
        _line(3, 2, 1, 1, -2, 64, [1]),      # S5.double-root-c3-unit
        _line(3, 2, 3, 1, 1, 64, [4]),       # S5.2m-gt-n-even-nonqr
    ]
    return list(dict.fromkeys(lines))


def _neg_residue(rng: random.Random, p: int, bound: int) -> int:
    """A unit alpha with abs(alpha) <= bound and -alpha a residue mod odd p."""
    while True:
        alpha = _unit(rng, p, bound)
        if _qr(-alpha, p):
            return alpha


def _run(line: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["classify", "--format", "json", *shlex.split(line)])
    return code, out.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_classify_json_is_byte_identical():
    golden = json.loads(DATA.read_text())
    lines = corpus()
    assert list(golden) == lines, "the seeded corpus changed; the digests no longer apply"
    for line in lines:
        code, out = _run(line)
        assert [code, _digest(out)] == golden[line], line


def test_pinned_p31_repeated_root_pair():
    q = QuadInput(31, 2, 1, 2, 1 - 5 * 31**6)
    a, b = classify_quadratic(q, terms=8).factors
    assert a.coeffs == P31_A and b.coeffs == P31_B


# the factor pair through order 8 (largest coefficient: 194 bits)
P31_A = (
    31, 188577031, 5398800295630681, 57258302, 515324718, 314920661, 286291510,
    343549812, 515324718,
)
P31_B = (
    31,
    -188577029,
    -4251661850272536,
    58705015756603713191613,
    383337279934984498545949719823,
    -12555653630435836107843543691179390573,
    9617627859764594105013702740898648368916851,
    2128122671766971344528345104796339455075552978211486,
    -14620603457360168565772613316770998426695882888533484916968,
)


if __name__ == "__main__":
    table = {}
    for line in corpus():
        code, out = _run(line)
        table[line] = [code, _digest(out)]
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table)} digests to {DATA}", file=sys.stderr)
