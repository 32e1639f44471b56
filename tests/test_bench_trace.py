"""A smoke test of the benchmark's traced run, on a few seconds of work.

``python3 bench/run.py --trace 1`` wraps the public names of every layer
with ``bench/spans.Tracer`` and fails when a layer its workload is meant
to use records no call.  This runs the same tracer over one pass of
decide-sweep and padic-wide (seed 1) and over 20 cli-deep lines through
the CLI's batch path, so that a change that the tracer cannot wrap, or
that takes a layer off a workload's path, fails here and not only in a
benchmark run.
"""

from pathlib import Path

import pytest

import zxfactor
import zxfactor.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from run import EXPECTED_LAYERS
    from spans import Tracer, layer_of
    from workloads import generate

    return EXPECTED_LAYERS, Tracer, layer_of, generate


def _layer_calls(tracer, layer_of):
    totals, _ = tracer.totals()
    calls = {}
    for name, (count, _, _) in totals.items():
        calls[layer_of(name)] = calls.get(layer_of(name), 0) + count
    return calls


@pytest.mark.parametrize("workload", ["decide-sweep", "padic-wide"])
def test_traced_in_process_pass_reaches_every_expected_layer(bench, workload):
    expected, Tracer, layer_of, generate = bench
    items = generate(workload, 1)
    tracer = Tracer()
    tracer.install()
    try:
        for item in items:
            if item.call == "quad":
                p, n, m, beta, alpha, terms, attach = item.args
                q = zxfactor.QuadInput(p, n, m, beta, alpha)
                zxfactor.classify_quadratic(q, terms=terms, attach_factors=attach)
            else:
                zxfactor.classify_general(zxfactor.TruncSeries(*item.args))
    finally:
        tracer.uninstall()
    calls = _layer_calls(tracer, layer_of)
    assert [layer for layer in expected[workload] if not calls.get(layer)] == []


def test_traced_cli_batch_reaches_every_layer(bench, tmp_path, capsys):
    expected, Tracer, layer_of, generate = bench
    lines = [item.cli_line() for item in generate("cli-deep", 1)[:20]]
    batch = tmp_path / "batch.txt"
    batch.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    tracer = Tracer()
    tracer.install()
    try:
        code = zxfactor.cli.main(["classify", "--batch", str(batch)])
    finally:
        tracer.uninstall()
    assert code in (0, 3)
    assert len(capsys.readouterr().out.splitlines()) == len(lines)
    calls = _layer_calls(tracer, layer_of)
    assert [layer for layer in expected["cli-deep"] if not calls.get(layer)] == []
