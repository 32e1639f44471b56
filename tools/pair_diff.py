"""Compare the factor pairs of this checkout with those of another revision.

One seeded corpus, one input per engine row and order N, runs through the
engines of both trees, each tree in its own subprocess with its ``src`` on
``PYTHONPATH``.  The other revision is unpacked with ``git archive <rev> |
tar -x`` under a temporary directory.  For every (row, lag, N) the script
prints the sha256 of each tree's pair and, when they differ, the first
differing coefficient.  It exits with 1 when any pair differs.

Run from the root of the repository (stdlib only; a few seconds per tree
at the default orders)::

    python tools/pair_diff.py --parent <rev> [--seed 1] [--orders 2,3,64]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from math import gcd, isqrt
from pathlib import Path

ORDERS = [*range(2, 17), 31, 64, 128, 256, 512, 1024, 2048]
CHECKOUT = Path(__file__).resolve().parent.parent


def _rows():
    """(row, lag, draw) per engine row; draw(rng, N) gives (engine, args) or
    None for a draw outside the row."""
    from zxfactor.classify import QuadInput
    from zxfactor.factor import (
        factor_coprime_constant,
        factor_m_eq_nu,
        factor_p2_m_eq_nu1,
        factor_p2_scaled,
        factor_simple_root,
        factor_tail,
    )
    from zxfactor.series import TruncSeries

    def unit(rng, p, bound):
        return rng.choice([x for x in range(-bound, bound + 1) if x % p])

    def residue(x, p):
        return x % p != 0 and pow(x % p, (p - 1) // 2, p) == 1

    def coprime(rng, n):
        u = rng.choice((2, 9, 10007, 2**31 - 1))
        v = rng.choice((1, -1)) * rng.randrange(3, 10**6)
        f = TruncSeries([u * v] + [rng.randint(-(10**6), 10**6) for _ in range(n)])
        return gcd(u, v) == 1 and (factor_coprime_constant, (f, u, v, n))

    def m_eq_nu(small_nu):  # beta^2 - 4*alpha = p^(2l)*w, w a unit square mod p: l = 1 or 0
        def draw(rng, n):
            p, beta = 7, rng.choice((1, 3, 5, 9, 11, 13))
            w = unit(rng, p, 60)
            alpha, rem = divmod(beta * beta - (p * p if small_nu else 1) * w, 4)
            ok = not rem and alpha % p and residue(w, p) and (w < 0 or isqrt(w) ** 2 != w)
            return ok and (factor_m_eq_nu, (QuadInput(p, 2, 1, beta, alpha), n))

        return draw

    def tail(rng, n):
        p = 5
        beta, w = unit(rng, p, 20), unit(rng, p, 40)
        alpha, rem = divmod(beta * beta - p * p * w, 4)
        tail = [p * p * rng.randint(-3, 3) for _ in range(3)]
        return not rem and alpha % p and residue(w, p) and (factor_tail, (QuadInput(p, 2, 1, beta, alpha, tail), n))

    def simple(shape):
        def draw(rng, n):
            p = 5
            beta, alpha = unit(rng, p, 20), unit(rng, p, 20)
            if shape == "2m<n":
                q = QuadInput(p, rng.randint(3, 4), 1, beta, alpha)
            elif shape == "m>nu":
                q = QuadInput(p, 2, rng.randint(2, 3), beta, alpha)
            elif shape == "beta=0":
                q = QuadInput(p, 2 * rng.randint(1, 2), None, None, alpha)
            else:  # n = 2m with a tail
                q = QuadInput(p, 2, 1, beta, alpha, [rng.randint(-20, 20) for _ in range(rng.randint(1, 4))])
            return factor_simple_root, (q, n)

        return draw

    def p2_scaled(rng, n):  # m > nu + 1 or beta = 0, with alpha = 7 mod 8
        m = rng.choice((3, 4, None))
        beta = m and 2 * rng.randint(-5, 5) + 1
        return factor_p2_scaled, (QuadInput(2, 2, m, beta, 8 * rng.randint(-5, 5) + 7), n)

    def p2_m_eq_nu1(rng, n):  # beta^2 - alpha = 4^l * w with w = 1 mod 8
        beta = 2 * rng.randint(-5, 5) + 1
        alpha = beta * beta - 4 ** rng.randint(1, 2) * (8 * rng.randint(-4, 4) + 1)
        return factor_p2_m_eq_nu1, (QuadInput(2, 2, 2, beta, alpha), n)

    return [
        ("coprime constant", 0, coprime),
        ("simple root 2m<n", 1, simple("2m<n")),
        ("simple root m>nu", 1, simple("m>nu")),
        ("simple root beta=0", 1, simple("beta=0")),
        ("simple root n=2m tail", 1, simple("tail")),
        ("p2 scaled", 1, p2_scaled),
        ("p2 m=nu+1", 1, p2_m_eq_nu1),
        ("m=nu nu<=l", 1, m_eq_nu(True)),
        ("p^2-divisible tail", 1, tail),
        ("m=nu nu>l", 2, m_eq_nu(False)),
    ]


def _pair_of(draw, rng, n):
    """The first drawn input of the row that the engine lifts (no ValueError,
    no polynomial factors), and its pair."""
    while True:
        case = draw(rng, n)
        if not case:
            continue
        engine, args = case
        try:
            pair = engine(*args)
        except ValueError:
            continue
        if any(pair[0].coeffs[2:]) or any(pair[1].coeffs[2:]):
            return pair


def _short(x: int) -> str:
    return hashlib.sha256(hex(x).encode()).hexdigest()[:12]


def worker(seed: int, orders: list[int]) -> None:
    """One JSON line per (row, lag, N): the pair's digest and one short hash
    per coefficient, a first and then b."""
    for row, lag, draw in _rows():
        for n in orders:
            rng = random.Random(f"{seed}|{row}|{n}")
            try:
                a, b = _pair_of(draw, rng, n)
                coeffs = a.coeffs + b.coeffs
                text = "|".join(",".join(map(hex, s.coeffs)) for s in (a, b))
                line = {"digest": hashlib.sha256(text.encode()).hexdigest(), "coeffs": [_short(x) for x in coeffs]}
            except Exception as exc:  # a tree that fails is reported, not fatal
                line = {"digest": f"{type(exc).__name__}: {exc}", "coeffs": []}
            print(json.dumps({"key": [row, lag, n], **line}), flush=True)


def _run(tree: Path, seed: int, orders: list[int]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--seed", str(seed)]
    cmd += ["--orders", ",".join(map(str, orders))]
    start = time.perf_counter()
    out = subprocess.run(cmd, env=env, cwd=tree, capture_output=True, text=True, check=True).stdout
    print(f"# {tree}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return {tuple(rec["key"]): rec for rec in map(json.loads, out.splitlines())}


def _first_difference(old: list[str], new: list[str], n: int) -> str:
    j = next(j for j, (x, y) in enumerate(zip(old, new)) if x != y)
    return f"a_{j}" if j <= n else f"b_{j - n - 1}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="the revision to compare against")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--orders", default=",".join(map(str, ORDERS)))
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    orders = [int(x) for x in args.orders.split(",")]
    if args.worker:
        worker(args.seed, orders)
        return 0
    if not args.parent:
        parser.error("--parent is required")
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", args.parent], cwd=CHECKOUT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        parent = _run(Path(tmp), args.seed, orders)
    change = _run(CHECKOUT, args.seed, orders)
    keys, same = sorted(parent.keys() | change.keys(), key=lambda k: (k[1], k[0], k[2])), 0
    for key in keys:
        old, new = parent.get(key), change.get(key)
        row, lag, n = key
        head = f"{row:22s} lag {lag}  N={n:<5d}"
        if old and new and old["digest"] == new["digest"]:
            same += 1
            print(f"{head} {new['digest'][:16]}  identical")
        elif old and new and old["coeffs"] and new["coeffs"]:
            where = _first_difference(old["coeffs"], new["coeffs"], n)
            print(f"{head} {old['digest'][:16]} -> {new['digest'][:16]}  first differs at {where}")
        elif old and new:  # a tree raised: its digest is the error
            print(f"{head} {old['digest'][:60]} -> {new['digest'][:60]}")
        else:
            print(f"{head} missing in {'the parent' if new else 'this checkout'}")
    print(f"{same} of {len(keys)} pairs identical")
    return 0 if same == len(keys) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
