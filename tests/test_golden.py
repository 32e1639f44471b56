"""Byte-identity guard for the CLI's JSON output.

``tests/data/golden_classify.json`` maps each line of a seeded corpus of
``classify`` invocations to the exit code and the sha256 of the JSON
line the CLI printed for it when the file was made.  The corpus covers
every quadratic engine and both tail engines at ``--terms 64``, large-p
factorizations at ``--terms 8``, the p = 11 repeated root, and every row
of the classifier's decision table, tailed and on an all-zero tail.
``tests/data/golden_sweep.json`` holds one sha256 over the concatenated
JSON lines of a larger corpus, the criterion-2 sweep at ``--terms 64``
followed by the tailed series of criterion 7, plus its exit-code tally.
Both corpora are checked through one invocation per line and through
one ``classify --batch`` file.
Rebuild both files (only on a deliberate change of output) with

    PYTHONPATH=src python tests/test_golden.py
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import shlex
import sys
from math import isqrt
from pathlib import Path

from oracles import residue, trial_division_is_prime
from test_acceptance import SWEEP_SEED, SWEEP_SIZE, _sample_inputs
from zxfactor.classify import QuadInput, classify_quadratic
from zxfactor import classify as classify_module
from zxfactor import cli
from zxfactor.cli import main

DATA = Path(__file__).parent / "data" / "golden_classify.json"
SWEEP_DATA = Path(__file__).parent / "data" / "golden_sweep.json"
SEED = 20071


def _next_prime(n: int) -> int:
    while not trial_division_is_prime(n):
        n += 1
    return n


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
        if q % p == 0 or not residue(q, p) or (q >= 0 and isqrt(q) ** 2 == q):
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
            while (beta * beta - 4 * alpha) % p == 0 or not residue(beta * beta - 4 * alpha, p):
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
    # the remaining rows of the decision table, tailed and on the zero tail
    tailed = [
        (3, 3, 1, 2, 5),      # S5.2m-lt-n
        (3, 3, 2, 1, 2),      # S5.2m-gt-n-odd
        (3, 2, 2, 1, 2),      # S5.2m-gt-n-even-qr
        (2, 2, 1, 1, 3),      # S4.n-eq-2m
        (2, 2, 2, 1, 3),      # S5.unknown: p = 2 with 2m > n even
        (2, 2, 3, 1, 11),     # S5.unknown: p = 2 with 2m > n even, square head
        (3, 2, None, None, 2),  # S5.unknown: beta = 0
        (2, 2, None, None, 7),  # S5.unknown: beta = 0, p = 2
        (3, 4, 2, 2, -62),    # S5.unknown: n = 2m, only non-simple roots, m = 2
        (3, 2, 1, 1, -11),    # S5.unknown: double root, non-residue discriminant unit
        (5, 1, 1, 1, 2),      # S2.prime: n = 1 with a tail
    ]
    for p, n, m, beta, alpha in tailed:
        lines.append(_line(p, n, m, beta, alpha, 64, [3 * p]))
        lines.append(_line(p, n, m, beta, alpha, 64, [0, 0]))
    lines.append(_line(2, 3, None, None, 5, 64))  # S4.beta0-irreducible
    return list(dict.fromkeys(lines))


def sweep_corpus() -> list[str]:
    """Criterion 2's sweep at --terms 64, then criterion 7's tailed series."""
    lines = [
        _line(q.p, q.n, q.m, q.beta, q.alpha, 64)
        for q in _sample_inputs(SWEEP_SIZE, SWEEP_SEED)
    ]
    long_tail = [9, 0, 0, 27] + [0] * 26  # c_3 .. c_32, all divisible by 9
    lines += [
        _line(3, 2, 1, 1, -2, 64, [1]),
        _line(3, 2, 1, 1, -2, 32, long_tail),
        _line(3, 2, 1, 1, -2, 64, long_tail),
        _line(3, 2, 1, 1, -2, 64, [3]),
    ]
    return lines


def _sweep_record() -> dict:
    digest = hashlib.sha256()
    tally: dict[str, int] = {}
    lines = sweep_corpus()
    for line in lines:
        code, out = _run(line)
        digest.update(out.encode())
        tally[str(code)] = tally.get(str(code), 0) + 1
    return {"lines": len(lines), "sha256": digest.hexdigest(), "exit_codes": dict(sorted(tally.items()))}


def _neg_residue(rng: random.Random, p: int, bound: int) -> int:
    """A unit alpha with abs(alpha) <= bound and -alpha a residue mod odd p."""
    while True:
        alpha = _unit(rng, p, bound)
        if residue(-alpha, p):
            return alpha


def _run(line: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["classify", "--format", "json", *shlex.split(line)])
    return code, out.getvalue()


def _run_batch(lines: list[str], tmp_path: Path) -> tuple[int, list[str]]:
    """Every line through one ``classify --batch`` call: its exit code and
    its output lines, each with its newline."""
    batch = tmp_path / "batch.txt"
    batch.write_text("".join(line + "\n" for line in lines))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["classify", "--batch", str(batch)])
    return code, out.getvalue().splitlines(keepends=True)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_classify_json_is_byte_identical():
    golden = json.loads(DATA.read_text())
    lines = corpus()
    assert list(golden) == lines, "the seeded corpus changed; the digests no longer apply"
    for line in lines:
        code, out = _run(line)
        assert [code, _digest(out)] == golden[line], line


def test_golden_sweep_json_is_byte_identical():
    assert _sweep_record() == json.loads(SWEEP_DATA.read_text())


def test_golden_classify_json_through_batch(tmp_path):
    golden = json.loads(DATA.read_text())
    code, outs = _run_batch(list(golden), tmp_path)
    assert [_digest(out) for out in outs] == [digest for _, digest in golden.values()]
    assert code == max(code for code, _ in golden.values()) == 3


def test_golden_sweep_json_through_batch(tmp_path):
    record = json.loads(SWEEP_DATA.read_text())
    code, outs = _run_batch(sweep_corpus(), tmp_path)
    assert len(outs) == record["lines"] and _digest("".join(outs)) == record["sha256"]
    assert code == max(map(int, record["exit_codes"]))


def test_every_golden_answer_runs_one_square_test(monkeypatch):
    # the CLI reads the square class from the verdict.  Only a tail of
    # zeros that no tailed row decides runs a second test: it is answered
    # by classify_quadratic, whose square test backs its theorem assertion
    calls = []
    square_class = classify_module._square_class

    def spy(*args):
        calls.append(args)
        return square_class(*args)

    monkeypatch.setattr(classify_module, "_square_class", spy)
    for line in json.loads(DATA.read_text()):
        calls.clear()
        verdict = json.loads(_run(line)[1])["verdict"]
        redecided = verdict.get("conditional_on_truncation", False) and not verdict["rule"].startswith("S5.")
        assert len(calls) == 1 + redecided, line


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
    SWEEP_DATA.write_text(json.dumps(_sweep_record(), indent=1) + "\n")
    print(f"wrote the sweep digest to {SWEEP_DATA}", file=sys.stderr)


def test_golden_lines_scan_to_the_argparse_namespace():
    inputs = cli._input_parser()
    for line in json.loads(DATA.read_text()):
        assert cli._scan(cli._tokens(line)) == inputs.parse_args(shlex.split(line)), line


def test_batch_lines_pass_neither_argparse_nor_shlex(tmp_path, monkeypatch):
    golden = json.loads(DATA.read_text())
    assert not any(c in line for line in golden for c in "'\"\\")  # nothing quoted
    batch = tmp_path / "batch.txt"
    batch.write_text("".join(line + "\n" for line in golden))

    def refuse(*args, **kwargs):
        raise AssertionError("a batch line went through argparse or shlex")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    monkeypatch.setattr(shlex, "split", refuse)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli._run_batch(str(batch))
    assert [_digest(line) for line in out.getvalue().splitlines(keepends=True)] == [d for _, d in golden.values()]
    assert code == 3
