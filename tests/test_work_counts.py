"""Deterministic work counts: what an answer does, counted, not timed.

Timing pairs cannot resolve a few per cent on a shared machine, but the
regressions that mattered were countable: stages sent to plain sums, a
second primality test, a second square test.  This answers, in process,
the golden corpus (``tests/data/golden_classify.json``, one ``classify``
call per line), seed 1 of each benchmark workload
(``bench/workloads.generate``: decide-sweep and padic-wide through the
library calls of ``bench/run.make_calls``, cli-deep as one
``classify --batch`` file), ``CONSTANTS``, two
primes above ``PROVEN_PRIME_BOUND`` on which the constant-term search runs
its close pass to the end, and ``SPLITS``, two products of primes that
``_split`` takes apart, one in its first rho stage and one in its Hart
stage, and counts with spies:

- calls of ``padics.is_prime``, ``_root_classes``, ``_square_class``,
  ``_smallest_block`` and ``_sqrt_mod_prime``, of the factor search's
  splitters ``_split``, ``_hart`` (the close pass and a split's second
  stage) and ``_rho``, and of ``factor._reslot`` (a widening of the lift's
  running product);
- ``isqrt``: the integer square roots the padics module takes, two for
  each multiplier of Hart's method, one for each strong Lucas test and
  one for each square root of a perfect-power test;
- ``cross_sums``: the sums read from ``factor._cross_sums``;
- ``packed_checks`` and ``convolution_checks``: the pairs
  ``oracle.verify_factorization`` decides by one product, and the rest;
- ``verdict_new``: calls of the Python-level ``Verdict.__new__``, which
  the package never makes, since it builds every verdict by position;
- ``pair_bits``: the summed coefficient bit lengths of every pair that
  ``factor._verified`` returns, so the height of what the engines build;
- ``decimal_digits``: the characters of the strings that
  ``to_decimal_strings`` returns, in ``series`` and in ``cli``.

The counts live in ``tests/data/work_counts.json``.  A change that moves a
count regenerates the file, and says which count moved and why, with

    PYTHONPATH=src python tests/test_work_counts.py
"""

import contextlib
import io
import json
import shlex
import sys
from collections import Counter
from pathlib import Path

import zxfactor
from zxfactor import TruncSeries, classify_general
from zxfactor import classify, cli, factor, oracle, padics, series

DATA = Path(__file__).parent / "data"
COUNTS = DATA / "work_counts.json"
BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = (classify, cli, factor, oracle, padics, series)
CALLS = (
    (padics, "is_prime"),
    (padics, "_root_classes"),
    (padics, "_square_class"),
    (padics, "_smallest_block"),
    (padics, "_sqrt_mod_prime"),
    (padics, "_split"),
    (padics, "_hart"),
    (padics, "_rho"),
    (factor, "_reslot"),
)
# (home, name, counter, size of a result): the spy adds the size
MEASURED = (
    (factor, "_verified", "pair_bits", lambda pair: sum(c.bit_length() for s in pair for c in s.coeffs)),
    (series, "to_decimal_strings", "decimal_digits", lambda strings: sum(map(len, strings))),
)
COUNTERS = [name for _, name in CALLS] + [counter for _, _, counter, _ in MEASURED]
COUNTERS += ["isqrt", "cross_sums", "packed_checks", "convolution_checks", "verdict_new"]
CONSTANTS = ((2**89 - 1, 1, 1), (-(2**127 - 1), 1, 1))
SPLITS = ((10007 * (2**61 - 1), 1, 1), (1000003 * 1275877, 1, 1))  # 1275877/1000003 is near 37/29


@contextlib.contextmanager
def _spies():
    """Counter of the work done inside the block; every spied name is
    bound again in each module that imported it, and put back after."""
    counts = Counter(dict.fromkeys(COUNTERS, 0))
    patches = []  # (owner, name, original)

    def patch(owner, name, new):
        patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def counted(fn, key):
        def spy(*args):
            counts[key] += 1
            return fn(*args)

        return spy

    def measured(fn, key, size):
        def spy(*args):
            result = fn(*args)
            counts[key] += size(result)
            return result

        return spy

    def patch_everywhere(home, name, spy):
        fn = getattr(home, name)
        for module in MODULES:
            if getattr(module, name, None) is fn:
                patch(module, name, spy)

    for home, name in CALLS:
        patch_everywhere(home, name, counted(getattr(home, name), name))
    for home, name, key, size in MEASURED:
        patch_everywhere(home, name, measured(getattr(home, name), key, size))
    patch(padics, "isqrt", counted(padics.isqrt, "isqrt"))

    cross_sums = factor._cross_sums

    def cross_spy(*args):
        for s in cross_sums(*args):
            counts["cross_sums"] += 1
            yield s

    patch(factor, "_cross_sums", cross_spy)

    product_vanishes = oracle._product_vanishes

    def check_spy(*args):
        packed = product_vanishes(*args)
        counts["packed_checks" if packed else "convolution_checks"] += 1
        return packed

    patch(oracle, "_product_vanishes", check_spy)

    verdict_new = classify.Verdict.__new__

    def new_spy(cls, *args, **kwargs):
        counts["verdict_new"] += 1
        return verdict_new(cls, *args, **kwargs)

    patch(classify.Verdict, "__new__", new_spy)
    try:
        yield counts
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


def _count_corpora(tmp_dir: Path) -> dict:
    """{corpus: {counter: count}} for the golden corpus and seed 1 of each workload."""
    sys.path.insert(0, str(BENCH))
    try:
        from run import make_calls
        from workloads import generate
    finally:
        sys.path.remove(str(BENCH))
    golden = json.loads((DATA / "golden_classify.json").read_text(encoding="utf-8"))
    batch = tmp_dir / "cli-deep.batch"
    batch.write_text("".join(item.cli_line() + "\n" for item in generate("cli-deep", 1)), encoding="utf-8")
    workloads = {name: make_calls(zxfactor, generate(name, 1)) for name in ("decide-sweep", "padic-wide")}
    result = {}
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with _spies() as counts:
            for line in golden:
                cli.main(["classify", *shlex.split(line)])
        result["golden"] = counts
        for name, calls in workloads.items():
            with _spies() as counts:
                for call in calls:
                    call()
            result[name] = counts
        with _spies() as counts:
            cli.main(["classify", "--batch", str(batch)])
        result["cli-deep"] = counts
        for name, corpus in (("constants", CONSTANTS), ("splits", SPLITS)):
            with _spies() as counts:
                for coeffs in corpus:
                    classify_general(TruncSeries(coeffs))
            result[name] = counts
    return {corpus: dict(sorted(counts.items())) for corpus, counts in result.items()}


def test_work_counts_match_the_record(tmp_path):
    want = json.loads(COUNTS.read_text(encoding="utf-8"))
    got = _count_corpora(tmp_path)
    moved = [
        f"{corpus}.{key}: {want[corpus].get(key, 0)} -> {got[corpus].get(key, 0)}"
        for corpus in want
        for key in sorted(set(want[corpus]) | set(got[corpus]))
        if want[corpus].get(key, 0) != got[corpus].get(key, 0)
    ]
    assert not moved, "work counts moved; regenerate tests/data/work_counts.json if intended:\n" + "\n".join(moved)


def test_no_verdict_is_built_through_the_python_constructor():
    want = json.loads(COUNTS.read_text(encoding="utf-8"))
    assert {corpus: counts["verdict_new"] for corpus, counts in want.items()} == dict.fromkeys(
        ("golden", "decide-sweep", "padic-wide", "cli-deep", "constants", "splits"), 0
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        counts = _count_corpora(Path(scratch))
    COUNTS.write_text(json.dumps(counts, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(counts, indent=1))
