"""Compare the factor pairs of this checkout with those of another revision.

The corpus is ``tests/pair_sweeps.py`` of this checkout: every line of the
five sweeps that ``tests/test_factor.py`` pins by sha256, then one lifted
pair per lifting-table row (the coprime split, the five lag-one rows, and
m = nu with nu > l at p = 3) at each high order, drawn with the rows of
the packed-orders sweep.  Both trees replay it, each in its own subprocess
with its own ``src`` first on ``PYTHONPATH``; the other revision is
unpacked with ``git archive <rev> | tar -x`` under a temporary directory.
The script prints, per sweep, how many lines are identical and the first
line that is not: its input and the first coefficient that differs.  It
exits with 1 when any line differs, and with 2 when the revision cannot be
unpacked or a tree cannot run the corpus.

Options:

- ``--parent <rev>``: the revision to compare against (required);
- ``--orders``: the high orders, comma-separated (default 512,1024,2048).

Run from the root of the repository (stdlib only; about ten seconds per
tree)::

    python tools/pair_diff.py --parent <rev> [--orders 512,1024,2048]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ORDERS = "512,1024,2048"
CHECKOUT = Path(__file__).resolve().parent.parent
MERSENNE = 2**61 - 1  # a coefficient is compared by its residue mod this prime


def worker(orders: list[int]) -> None:
    """One JSON line per corpus line: its sweep and index, its input, the
    sha256 of the line, and each coefficient of a and of b mod MERSENNE.
    A sweep that raises ends with a line whose input is the error and whose
    digest is null."""
    import pair_sweeps  # tests/ of this checkout, which _run puts on the path

    sweeps = dict(pair_sweeps.SWEEPS)
    sweeps["high orders"] = lambda: pair_sweeps.packed_orders_sweep(orders, ((10007, 1),), (3,), lifted=True)
    for name, sweep in sweeps.items():
        i = -1
        try:
            for i, (key, line, pair) in enumerate(sweep()):
                digest = hashlib.sha256(line.encode()).hexdigest()
                coeffs = [[x % MERSENNE for x in c] for c in pair or ()]
                print(json.dumps({"key": [name, i], "input": repr(key), "digest": digest, "coeffs": coeffs}))
        except Exception as exc:  # the sweep stops here, and the report says so
            error = f"raises {type(exc).__name__}: {exc}"
            print(json.dumps({"key": [name, i + 1], "input": error, "digest": None, "coeffs": []}))


def _run(tree: Path, orders: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(tree / "src"), str(CHECKOUT / "tests"))))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--orders", orders]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(f"{tree}: the worker failed\n{proc.stderr}")
        sys.exit(2)
    print(f"# {tree}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return {tuple(rec["key"]): rec for rec in map(json.loads, proc.stdout.splitlines())}


def _difference(old: dict | None, new: dict | None) -> str:
    """Where the change's line departs from the parent's."""
    if not (old and new):
        return f"missing in {'the parent' if new else 'this checkout'}"
    if old["input"] != new["input"] or new["digest"] is None:
        return f"{old['input']} -> {new['input']}"
    j = next((j for j, (x, y) in enumerate(zip(sum(old["coeffs"], []), sum(new["coeffs"], []))) if x != y), None)
    if j is None:  # a pair and none, or one pair under another verdict
        return f"{new['input']}: the outcome differs"
    n = len(new["coeffs"][0])
    return f"{new['input']}: first differs at {f'a_{j}' if j < n else f'b_{j - n}'}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="the revision to compare against")
    parser.add_argument("--orders", default=ORDERS, help=f"the high orders (default {ORDERS})")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker([int(x) for x in args.orders.split(",")])
        return 0
    if not args.parent:
        parser.error("--parent is required")
    archive = subprocess.run(["git", "archive", args.parent], cwd=CHECKOUT, capture_output=True)
    if archive.returncode:
        parser.exit(2, archive.stderr.decode())
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        parent = _run(Path(tmp), args.orders)
    change = _run(CHECKOUT, args.orders)
    same = total = 0
    for name in dict.fromkeys(k[0] for k in [*change, *parent]):
        lines = sorted({k for k in [*parent, *change] if k[0] == name})
        differ = [k for k in lines if not parent.get(k, {}).get("digest") == change.get(k, {}).get("digest") is not None]
        same, total = same + len(lines) - len(differ), total + len(lines)
        print(f"{name:14s} {len(lines) - len(differ):5d} of {len(lines):5d} lines identical")
        if differ:
            print(f"  first differs at line {differ[0][1]}: {_difference(parent.get(differ[0]), change.get(differ[0]))}")
    print(f"{same} of {total} lines identical")
    return 0 if same == total else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
