"""Self-test of the benchmark's checks, run at the start of every run.

It feeds the answer loop and the checker a correct answer, a wrong
verdict, a corrupted factor coefficient and a deadline overrun, and
requires exactly the last three to be counted as failed.  It also checks
the Kronecker product and the exponent-based Z_p square test against
direct computation.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import random
from types import SimpleNamespace

from checker import (
    IRREDUCIBLE,
    REDUCIBLE,
    is_qr,
    is_square_zp_terms,
    split_p,
    truncated_product,
)
from harness import AnswerChecker, Calibrator, Deadline, Tally, run_calls
from workloads import Item

# (2 + x) * (3 - x + x^2) = 6 + x + x^2 + x^3
_TARGET = (6, 1, 1)
_A, _B = (2, 1, 0), (3, -1, 1)


def _verdict(kind: str, a=_A, b=_B):
    factors = None if a is None else (SimpleNamespace(coeffs=a), SimpleNamespace(coeffs=b))
    return SimpleNamespace(kind=SimpleNamespace(value=kind), rule="self-test", factors=factors)


def _spin():
    while True:
        pass


def _check_answer_loop() -> None:
    cases = [
        ("correct answer", lambda: _verdict(REDUCIBLE), False),
        ("wrong verdict", lambda: _verdict(IRREDUCIBLE, None, None), True),
        ("corrupted coefficient", lambda: _verdict(REDUCIBLE, _A, (3, -1, 2)), True),
        ("deadline overrun", _spin, True),
    ]
    items = [Item(label, "self-test", "general", (_TARGET,), REDUCIBLE) for label, _, _ in cases]
    tally = Tally(items)
    with Deadline(limit_s=0.1, tick_s=0.01) as deadline:
        tally.add_pass(AnswerChecker(items), run_calls([call for _, call, _ in cases], deadline, Calibrator()))
    counted = {items[i].label for i in tally.failures}
    wanted = {label for label, _, bad in cases if bad}
    if counted != wanted or tally.failed / tally.attempted != 0.75:
        raise AssertionError(f"self-test: failures counted {sorted(counted)}, expected {sorted(wanted)}")

    cli_item = Item("cli", "self-test", "cli", (7, 2, 1, 3, 51, (), 2), REDUCIBLE)
    doc = {
        "verdict": {"kind": "reducible", "rule": "self-test"},
        "factors": {"a": ["7", "1", "0"], "b": ["7", "2", "7"], "order": 2},
        "verification": {"residuals_zero_through": 2},
    }
    good = json.dumps(doc)
    doc["factors"]["b"][2] = "8"
    corrupted = json.dumps(doc)
    checker = AnswerChecker([cli_item])
    if checker.check(0, 0.0, good) is not None or checker.check(0, 0.0, corrupted) is None:
        raise AssertionError("self-test: the CLI answer check does not tell a corrupted line from a good one")


def _check_arithmetic() -> None:
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(0, 12)
        a = [rng.randint(-10**30, 10**30) for _ in range(n + 1)]
        b = [rng.randint(-10**5, 10**5) for _ in range(n + 1)]
        naive = [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(n + 1)]
        if truncated_product(a, b, n) != naive:
            raise AssertionError("self-test: Kronecker product disagrees with the direct convolution")
    for p in (2, 3, 5, 7):
        for c1 in range(-30, 31):
            for e1 in range(4):
                for c2, e2 in ((0, 0), (rng.randint(-30, 30), rng.randint(0, 4))):
                    d = c1 * p**e1 + c2 * p**e2
                    if is_square_zp_terms(p, [(c1, e1), (c2, e2)]) != _direct_square(d, p):
                        raise AssertionError(f"self-test: Z_{p} square test wrong for {d}")


def _direct_square(d: int, p: int) -> bool:
    if d == 0:
        return True
    u, v = split_p(d, p)
    if v % 2:
        return False
    return u % 8 == 1 if p == 2 else is_qr(u, p)


def self_test() -> None:
    _check_arithmetic()
    _check_answer_loop()


if __name__ == "__main__":
    self_test()
    print("self-test passed")
