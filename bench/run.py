#!/usr/bin/env python3
"""zxfactor benchmark: seeded workloads, independent checks, layer trace.

    python3 bench/run.py --workload decide-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout; the program is imported from
./src, never from an installed copy.  With --trace 0 the run measures the
end-to-end metrics; with --trace 1 it measures the per-layer metrics of
the outside-in trace instead.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A
record with the metrics, the input-property summary, every failure and
the environment goes to .bench_out/, beside the trace spans.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import AnswerChecker, Calibrator, Deadline, Tally, run_batch, run_calls, tail_latency
from selftest import self_test
from spans import LAYERS, ROOT, TraceCoverageError, Tracer, layer_of
from workloads import WORKLOADS, generate, shares, summarize

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
OUT = CHECKOUT / ".bench_out"

SETUP_SPAWNS = 9
SETUP_TICKS = 5
PROBE_TIMEOUT_S = 60
MIN_PASSES = 3
SPAN_CAP = 400_000

# Layers each workload is meant to use; the traced run fails if one of
# them records no call.
EXPECTED_LAYERS = {
    "decide-sweep": ("padics", "series", "classify", "factor"),
    "padic-wide": ("padics", "classify", "factor"),
    "cli-deep": LAYERS,
}
ENGINES = (
    "factor_2m_lt_n", "factor_m_gt_nu", "factor_m_eq_nu", "factor_beta_zero",
    "factor_p2_m_gt_nu1", "factor_p2_m_eq_nu1", "factor_coprime_constant",
    "factor_tail", "factor_simple_root_tail", "factor_reducible_quadratic",
)
# (span name, statistics) reported per function by the traced run.
FUNCTION_METRICS = (
    ("padics.lift_roots_mod_pk", ("self_s", "calls")),
    ("padics.root_certificate", ("self_s",)),
    ("padics.valuation", ("self_s",)),
    ("padics.is_prime", ("calls_per_answer", "self_s")),
    ("classify.classify_quadratic", ("self_s",)),
    ("classify.classify_general", ("self_s",)),
    ("factor.FactorState.check_order", ("calls", "self_s")),
    ("factor.solve_unit_step", ("calls",)),
    ("oracle.verify_factorization", ("calls_per_answer", "self_s")),
) + tuple((f"factor.{engine}", ("self_s",)) for engine in ENGINES)

UNITS = {"self_s": "s", "calls": "count", "calls_per_answer": "count", "self_share": "fraction"}

PROBE = """
import json, sys
spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])
sys.stdout.reconfigure(line_buffering=True)
if spec["call"] == "cli":
    from zxfactor.cli import main
    main(["classify", "--batch", spec["batch"]])
else:
    from zxfactor import QuadInput, TruncSeries, classify_general, classify_quadratic
    if spec["call"] == "quad":
        p, n, m, beta, alpha, terms, attach = spec["args"]
        v = classify_quadratic(QuadInput(p, n, m, beta, alpha), terms=terms, attach_factors=attach)
    else:
        v = classify_general(TruncSeries(spec["args"][0]))
    print(v.kind.value)
sys.path.insert(0, spec["bench"])
from harness import Calibrator
calibrator = Calibrator()
for _ in range(spec["ticks"]):
    calibrator.tick(force=True)
print(calibrator.scales()["mix"])
"""


def load_program():
    """Import zxfactor from this checkout's src/ and nowhere else."""
    if not (SRC / "zxfactor" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source at {SRC / 'zxfactor'}; run from a zxfactor checkout")
    sys.path.insert(0, str(SRC))
    import zxfactor
    import zxfactor.cli

    if Path(zxfactor.__file__).resolve().parent != SRC / "zxfactor":
        raise SystemExit(f"bench: imported zxfactor from {zxfactor.__file__}, not from {SRC}")
    return zxfactor


def make_calls(zx, items):
    """One zero-argument callable per in-process item; each builds its own
    input object, as a library caller would.  Names are looked up in the
    package at call time, so the calls go through an installed tracer."""

    def quad(p, n, m, beta, alpha, terms, attach):
        return lambda: zx.classify_quadratic(zx.QuadInput(p, n, m, beta, alpha), terms=terms, attach_factors=attach)

    def general(coeffs):
        return lambda: zx.classify_general(zx.TruncSeries(coeffs))

    return [quad(*it.args) if it.call == "quad" else general(*it.args) for it in items]


class Workload:
    """Runs whole passes over the item list, in-process or as CLI batches.

    ``tracer`` is read on every pass, so a tracer can be attached between
    passes."""

    def __init__(self, zx, name: str, items) -> None:
        self.items = items
        self.tracer = None
        self.calibrator = Calibrator()
        self.answers = 0
        if items[0].call == "cli":
            self.lines = [it.cli_line() for it in items]
            self.batch = OUT / f"{name}.batch"
            self.batch.write_text("".join(line + "\n" for line in self.lines), encoding="utf-8")
            self.cli = zx.cli
        else:
            self.calls = make_calls(zx, items)

    def run_pass(self, deadline: Deadline):
        if self.items[0].call == "cli":
            results = run_batch(self.cli.main, self.lines, self.batch, deadline, self.calibrator, self.tracer, self.answers)
        else:
            results = run_calls(self.calls, deadline, self.calibrator, self.tracer, self.answers)
        self.answers += len(results)
        return results


def timed_passes(work: Workload, checker: AnswerChecker, tally: Tally, deadline: Deadline, seconds: float) -> int:
    """Whole passes until ``seconds`` have passed, and at least
    MIN_PASSES; returns the number of passes made."""
    t_end = time.perf_counter() + seconds
    done = 0
    while done < MIN_PASSES or time.perf_counter() < t_end:
        tally.add_pass(checker, work.run_pass(deadline))
        done += 1
        if done == 1:
            # The benchmark's own objects (items, references) should not
            # make the program's garbage collections slower.
            gc.collect()
            gc.freeze()
    return done


def measure_setup(items) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to its first answer of
    the workload, for SETUP_SPAWNS spawns, and the speed scale of each
    spawn: after its answer the interpreter times the reference kernels
    (see harness.Calibrator) on the processor it ran on."""
    first = items[0]
    spec = {
        "src": str(SRC), "bench": str(Path(__file__).resolve().parent), "ticks": SETUP_TICKS,
        "call": first.call, "args": list(first.args),
    }
    if first.call == "cli":
        path = OUT / "setup.batch"
        path.write_text(first.cli_line() + "\n", encoding="utf-8")
        spec["batch"] = str(path)
    times, scales = [], []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", PROBE, json.dumps(spec)],
            cwd=CHECKOUT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            if not select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
                raise SystemExit(f"bench: set-up probe gave no answer within {PROBE_TIMEOUT_S} s")
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        kind = json.loads(line)["verdict"]["kind"] if first.call == "cli" and line else line.strip()
        if proc.returncode != 0 or kind != first.expect:
            raise SystemExit(f"bench: set-up probe answered {line.strip()[:200]!r}, exit {proc.returncode}: {err[-500:]}")
        times.append(elapsed)
        scales.append(float(out))
    return times, scales


def figures(times: list[float]) -> dict:
    """Throughput and latency of per-item times."""
    _, tail = tail_latency(times)
    return {
        "answers_per_s": len(times) / sum(times),
        "answer_ms_p50": statistics.median(times) * 1000,
        "answer_ms_tail": tail * 1000,
    }


def end_to_end(tally: Tally, checker: AnswerChecker, setup: tuple[list[float], list[float]], calibrator: Calibrator) -> tuple[dict, dict]:
    """Throughput and latency come from each item's tenth-percentile
    latency over the run's passes, scaled to the nominal speed of the
    reference work of its kind (see Tally and Calibrator).  Set-up time
    is the median over the spawns of each spawn's time scaled by its own
    speed."""
    setup_times, setup_scales = setup
    scales = calibrator.scales()
    times = tally.times(scales)
    units = {"answers_per_s": "answers/s", "answer_ms_p50": "ms", "answer_ms_tail": "ms"}
    metrics = {name: (value, units[name]) for name, value in figures(times).items()}
    metrics.update(
        ok_frac=((tally.attempted - tally.failed) / tally.attempted, "fraction"),
        coeff_bits_max=(checker.coeff_bits_max, "bits"),
        setup_s=(statistics.median(t * k for t, k in zip(setup_times, setup_scales)), "s"),
    )
    notes = {
        "latency": f"per item the tenth-percentile latency of {len(tally.passes)} passes, {len(times)} items",
        "answer_ms_tail": {"percentile": tail_latency(times)[0], "samples": len(times)},
        "failed_frac": tally.failed / tally.attempted,
        "speed_scales": scales,
        "reference_samples": len(calibrator.samples["scan"]),
        "unscaled": figures(tally.times()),
        "setup_s": {"spawns": [round(t, 4) for t in setup_times], "scales": [round(k, 4) for k in setup_scales]},
    }
    return metrics, notes


def per_layer(workload: str, tracer: Tracer, passes: int, answers: int, overhead: float):
    """Per-layer metrics of the traced passes, per pass of the item list.

    ``overhead`` compares the best traced and untraced pass times."""
    totals, wall = tracer.totals()
    layer_self = {layer: 0 for layer in LAYERS}
    layer_calls = {layer: 0 for layer in LAYERS}
    for name, (calls, _, self_ns) in totals.items():
        if name != ROOT:
            layer_self[layer_of(name)] += self_ns
            layer_calls[layer_of(name)] += calls
    uncovered = totals.get(ROOT, [0, 0, 0])[2]
    if sum(layer_self.values()) + uncovered != wall:
        raise TraceCoverageError(f"self times {sum(layer_self.values())} + uncovered {uncovered} != traced wall {wall} ns")
    missing = [layer for layer in EXPECTED_LAYERS[workload] if layer_calls[layer] == 0]
    if missing:
        raise TraceCoverageError(f"{workload}: no calls recorded in layer(s) {', '.join(missing)}")
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer] / 1e9 / passes
        metrics[f"{layer}.calls"] = layer_calls[layer] / passes
        metrics[f"{layer}.self_share"] = layer_self[layer] / wall
    for name, stats in FUNCTION_METRICS:
        calls, _, self_ns = totals.get(name, (0, 0, 0))
        values = {"self_s": self_ns / 1e9 / passes, "calls": calls / passes, "calls_per_answer": calls / answers}
        for stat in stats:
            metrics[f"{name}.{stat}"] = values[stat]
    out = {k: (v, UNITS[k.rsplit(".", 1)[1]]) for k, v in metrics.items()}
    out["trace.overhead_frac"] = (overhead, "fraction")
    out["trace.uncovered_frac"] = (uncovered / wall, "fraction")
    out["trace.wall_s"] = (wall / 1e9, "s")
    out["trace.answers"] = (answers, "count")
    return out


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (CHECKOUT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True, text=True, timeout=30)
            commit = res.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "zxfactor").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "note": "shared machine, no CPU pinning; one process, one thread, closed loop",
    }


def traced_run(workload: str, work: Workload, checker: AnswerChecker, tally: Tally, deadline: Deadline, seconds: float):
    """A third of the time untraced, the rest traced (at least one pass
    each, and no new pass once SPAN_CAP spans are held); the spans go to
    .bench_out/<workload>-spans.jsonl."""
    untraced = timed_passes(work, checker, tally, deadline, seconds / 3)
    work.calibrator.paused = True
    tracer = work.tracer = Tracer()
    tracer.install()
    try:
        t_end = time.perf_counter() + 2 * seconds / 3
        answers_before = work.answers
        while True:
            tally.add_pass(checker, work.run_pass(deadline))
            if time.perf_counter() > t_end or tracer.span_count() > SPAN_CAP:
                break
    finally:
        tracer.uninstall()
        work.tracer = None
    passes = len(tally.pass_busy) - untraced
    overhead = min(tally.pass_busy[untraced:]) / min(tally.pass_busy[:untraced]) - 1
    metrics = per_layer(workload, tracer, passes, work.answers - answers_before, overhead)
    tracer.write(OUT / f"{workload}-spans.jsonl")
    return metrics, {"traced_passes": passes, "spans": tracer.span_count()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    self_test()
    zx = load_program()
    OUT.mkdir(exist_ok=True)
    items = generate(workload, seed)
    work = Workload(zx, workload, items)
    checker = AnswerChecker(items)
    setup = [] if trace else measure_setup(items)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    tally = Tally(items)
    with Deadline() as deadline:
        if trace:
            metrics, notes = traced_run(workload, work, checker, tally, deadline, seconds)
            record["spans_file"] = str((OUT / f"{workload}-spans.jsonl").relative_to(CHECKOUT))
        else:
            timed_passes(work, checker, tally, deadline, seconds)
            metrics, notes = end_to_end(tally, checker, setup, work.calibrator)
    unexpected = tally.unexpected()
    summary = summarize(items)
    summary["coeff_bits_max"] = checker.coeff_bits_max
    summary["rule_tags_reported"] = shares(t for t in checker.rule_tags if t is not None)
    record.update(
        correct=not unexpected,
        attempted=tally.attempted,
        failed=tally.failed,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        notes=notes,
        failures=tally.failure_list(),
        inputs=summary,
        environment=environment(),
    )
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    record["record_file"] = str(path.relative_to(CHECKOUT))
    return record


def report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    for name, m in record["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    for k, v in record["notes"].items():
        print(f"  note {k}: {v}")
    print(f"  attempted {record['attempted']}  failed {record['failed']}  correct {record['correct']}")
    for f in record["failures"]:
        tag = "known defect" if f["known_defect"] else "UNEXPECTED"
        print(f"  failed x{f['count']} [{tag}] {f['input'][:100]}: {f['reason'][:160]}")
    print(f"  record: {record['record_file']}")


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in a fresh process, with one table at the end."""
    rows = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        res = subprocess.run(cmd, cwd=CHECKOUT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            return res.returncode
        rows.append((workload, json.loads(res.stdout.strip().splitlines()[-1])))
    print()
    for workload, result in rows:
        print(f"{workload}: correct {result['correct']}, attempted {result['attempted']}, failed {result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
