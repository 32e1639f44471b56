"""Byte-identity guard for the CLI's JSON output.

``tests/data/golden_classify.json`` is the golden corpus.  Each key is
one line of ``classify`` input flags; its value is the exit code and the
sha256 of the JSON line the CLI printed for that line when the file was
built.  The lines cover every quadratic engine and both tail engines at
``--terms 64``, large-p factorizations at ``--terms 8``, the p = 11
repeated root, and every row of the classifier's decision table, which
``test_golden_lines_reach_every_decision_row`` checks.
``tests/data/golden_sweep.json`` holds one sha256 over the concatenated
JSON lines of a larger corpus, the criterion-2 sweep at ``--terms 64``
followed by the tailed series of criterion 7, plus its exit-code tally.
Both corpora are checked through one invocation per line and through
one ``classify --batch`` file.

To add a line to the golden corpus, add it as a key of
``golden_classify.json`` (with any value) and rebuild.  The rebuild
re-hashes the file's own lines, in its order, and the sweep; run it only
on a deliberate change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

from oracles import DECISION_ROWS, spy
from pair_sweeps import SWEEP_SEED, SWEEP_SIZE, sample_inputs
from zxfactor.classify import QuadInput, _decide, classify_quadratic
from zxfactor import classify as classify_module
from zxfactor import cli
from zxfactor.cli import main

DATA = Path(__file__).parent / "data" / "golden_classify.json"
SWEEP_DATA = Path(__file__).parent / "data" / "golden_sweep.json"


def _line(p, n, m, beta, alpha, terms, tail=()):
    head = f"--p {p} --n {n} " + (
        "--beta-zero" if beta is None else f"--m {m} --beta {beta}"
    )
    extra = f" --tail={','.join(map(str, tail))}" if tail else ""
    return f"{head} --alpha {alpha} --terms {terms}{extra}"


def sweep_corpus() -> list[str]:
    """Criterion 2's sweep at --terms 64, then criterion 7's tailed series."""
    lines = [
        _line(q.p, q.n, q.m, q.beta, q.alpha, 64)
        for q in sample_inputs(SWEEP_SIZE, SWEEP_SEED)
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


def _hashed(line: str) -> list:
    """[exit code, sha256 of the JSON line the CLI prints] for one line."""
    code, out = _run(line)
    return [code, _digest(out)]


def test_golden_classify_json_is_byte_identical():
    for line, want in json.loads(DATA.read_text()).items():
        assert _hashed(line) == want, line


def test_golden_lines_reach_every_decision_row(monkeypatch):
    # the decision-table row of every golden answer, from the arguments
    # the classifier passed to _decide
    calls = spy(monkeypatch, "_decide", classify_module)
    for line in json.loads(DATA.read_text()):
        _run(line)
    assert {_decide(*args) for args in calls} == DECISION_ROWS


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
    calls = spy(monkeypatch, "_square_class", classify_module)
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


if __name__ == "__main__":
    table = {line: _hashed(line) for line in json.loads(DATA.read_text())}
    DATA.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table)} digests to {DATA}", file=sys.stderr)
    SWEEP_DATA.write_text(json.dumps(_sweep_record(), indent=1) + "\n")
    print(f"wrote the sweep digest to {SWEEP_DATA}", file=sys.stderr)
