"""The answer loop, the per-answer deadline and the answer checks.

Load is one caller in a closed loop: the next answer starts when the
previous one returns.  Each answer is timed on its own; checking happens
between answers, outside the timed region.
"""

from __future__ import annotations

import io
import json
import math
import signal
import statistics
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout

from checker import bit_height, verdict_failure

DEADLINE_S = 1.0


class DeadlineExceeded(BaseException):
    """Raised into a running answer that passed its deadline.  It derives
    from BaseException so no ``except Exception`` in the program eats it."""


class Deadline:
    """Per-answer wall-clock limit for a single-threaded caller.

    A periodic SIGALRM looks at the start time of the running answer and
    raises DeadlineExceeded once it is older than the limit, so arming an
    answer costs one attribute store.  The limit is enforced to within one
    tick; an answer that returns late but between ticks is still counted
    as late by the caller.
    """

    def __init__(self, limit_s: float = DEADLINE_S, tick_s: float = 0.02) -> None:
        self.limit_s = limit_s
        self.tick_s = tick_s
        self.start: float | None = None
        self._previous = None

    def _on_tick(self, signum, frame) -> None:
        start = self.start
        if start is not None and time.perf_counter() - start > self.limit_s:
            self.start = None
            raise DeadlineExceeded

    def __enter__(self) -> "Deadline":
        self._previous = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.start = None


_CONV_A = [pow(3, 160 + k, 1 << 256) for k in range(48)]
_CONV_B = [pow(5, 110 + k, 1 << 256) - (1 << 255) for k in range(48)]


def _convolution() -> int:
    a, b = _CONV_A, _CONV_B
    return sum(sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(len(a)))


def _scan() -> int:
    return sum(1 for y in range(3000) if (y * y + 3 * y + 7) % 3001 == 0)


def _objects() -> int:
    out = []
    for i in range(1000):
        d = {"p": i, "n": i + 1}
        out.append(str(d["p"] * 3 + d["n"]))
    return len(",".join(out))


_DIVIDEND = 7**1000 * 11


def _divide() -> int:
    d, t = _DIVIDEND, 0
    while d % 7 == 0:
        d //= 7
        t += 1
    return t


# Fixed pure-Python reference work of the kinds the program does: big-
# integer products, a small-integer modular scan, dict and string handling,
# and repeated division of a large integer.  Nominal times: each kernel's
# time with CPython 3.11 in a quiet stretch of the machine the benchmark
# was written on (Intel Xeon, 2 vCPUs).
REFERENCE_KERNELS = {
    "convolution": (_convolution, 0.00034),
    "scan": (_scan, 0.00038),
    "objects": (_objects, 0.00030),
    "divide": (_divide, 0.00076),
}

# The share of its run in which the machine is at least as fast as the
# speed a run reports: every item's time and every kernel's time is the
# tenth percentile of its samples in the run.
QUANTILE = 0.1


def low_quantile(values) -> float:
    """The QUANTILE-th smallest of ``values`` (the smallest when there are
    fewer than 1/QUANTILE of them)."""
    ordered = sorted(values)
    return ordered[int(QUANTILE * len(ordered))]


class Calibrator:
    """Tracks how fast the machine runs fixed reference work during a run.

    The speed of a shared machine changes by up to 2x from one second to
    the next and over tens of seconds, and not evenly: in its slow spells
    interpreter-bound work such as the scan slows by up to 1.9x while long
    divisions inside one big-integer operation hardly slow at all.
    Between answers, at most every ``INTERVAL_S``, each reference kernel
    is run once to warm the caches and once timed.  ``scales`` gives the
    factors that take the run's times to the nominal speed: one per
    kernel, nominal over the kernel's tenth-percentile time, and ``"mix"``,
    the median of the kernels' factors, so a slowdown that hits one kind
    of work only does not move it.  Answers are sampled once per pass and
    kernels uniformly in time; the same percentile of both is the speed
    the machine reached in the same share of the run, however many
    samples each has.
    """

    INTERVAL_S = 0.1

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {name: [] for name in REFERENCE_KERNELS}
        self.paused = False
        self._next = 0.0

    def tick(self, force: bool = False) -> None:
        if self.paused or not force and time.perf_counter() < self._next:
            return
        for kernel, _ in REFERENCE_KERNELS.values():
            kernel()
        now = time.perf_counter()
        for name, (kernel, _) in REFERENCE_KERNELS.items():
            kernel()
            done = time.perf_counter()
            self.samples[name].append(done - now)
            now = done
        self._next = now + self.INTERVAL_S

    def scales(self) -> dict[str, float]:
        """Factors that take this run's times to the nominal speed."""
        if not self.samples["scan"]:
            self.tick(force=True)
        out = {name: nominal / low_quantile(self.samples[name]) for name, (_, nominal) in REFERENCE_KERNELS.items()}
        out["mix"] = statistics.median(out.values())
        return out


class Failed:
    """An answer that produced no output: it raised or ran out of time."""

    def __init__(self, reason: str) -> None:
        self.reason = reason


def run_calls(calls, deadline: Deadline, calibrator: Calibrator, tracer=None, first_answer: int = 0):
    """Answer each zero-argument call in turn: [(latency_s, result)]."""
    out = []
    perf = time.perf_counter
    for i, call in enumerate(calls):
        calibrator.tick()
        if tracer is not None:
            tracer.answer = first_answer + i
            root = tracer.open_root()
        try:
            deadline.start = t0 = perf()
            res = call()
            deadline.start = None
            t1 = perf()
        except DeadlineExceeded:
            t1 = perf()
            res = Failed(f"deadline: no answer after {t1 - t0:.2f} s")
        except Exception as exc:  # the program raised: a failed answer
            deadline.start = None
            t1 = perf()
            res = Failed(f"raised {type(exc).__name__}: {exc}")
        if tracer is not None:
            tracer.close_root(root)
        out.append((t1 - t0, res))
    return out


_DEADLINE = "deadline"


class LineSink(io.TextIOBase):
    """Stands in for stdout during a CLI batch call and times each answer
    line from the end of the previous one (or the start of the call);
    between lines it lets the calibrator run, re-arms the deadline and
    advances the tracer's answer id."""

    def __init__(self, deadline: Deadline, calibrator: Calibrator, tracer, first_answer: int) -> None:
        self.deadline = deadline
        self.calibrator = calibrator
        self.tracer = tracer
        self.lines: list[str] = []
        self.latencies: list[float] = []
        self.start = time.perf_counter()
        self._partial: list[str] = []
        if tracer is not None:
            tracer.answer = first_answer

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        if "\n" not in s:
            self._partial.append(s)
            return len(s)
        now = time.perf_counter()
        self._partial.append(s)
        *done, rest = "".join(self._partial).split("\n")
        self._partial = [rest] if rest else []
        self.lines += done
        self.latencies += [now - self.start] + [0.0] * (len(done) - 1)
        self.deadline.start = None
        self.calibrator.tick()
        self.start = self.deadline.start = time.perf_counter()
        if self.tracer is not None:
            self.tracer.answer += len(done)
        return len(s)


def run_batch(main, lines: list[str], batch_path, deadline: Deadline, calibrator: Calibrator, tracer=None, first_answer: int = 0):
    """Answer every line through ``main(["classify", "--batch", file])``.

    Returns [(latency_s, json_text or Failed)] per line.  A line that
    stops the batch (deadline, an exception, or an error exit) is recorded
    as failed, and the batch resumes from the next line in a fresh file.
    Every line here is decided, so a batch that answers all its lines must
    exit 0; another exit code is charged to its last line.
    """
    results: list = [None] * len(lines)
    start = 0
    while start < len(lines):
        path = batch_path if start == 0 else batch_path.with_suffix(".resume")
        if start:
            path.write_text("".join(line + "\n" for line in lines[start:]), encoding="utf-8")
        calibrator.tick()
        err = io.StringIO()
        root = tracer.open_root() if tracer is not None else None
        stop = code = None
        sink = LineSink(deadline, calibrator, tracer, first_answer + start)
        try:
            deadline.start = sink.start
            with redirect_stdout(sink), redirect_stderr(err):
                code = main(["classify", "--batch", str(path)])
            deadline.start = None
        except DeadlineExceeded:
            stop = _DEADLINE
        except Exception as exc:
            deadline.start = None
            stop = f"raised {type(exc).__name__}: {exc}"
        t_end = time.perf_counter()
        if root is not None:
            tracer.close_root(root)
        for j, (latency, line) in enumerate(zip(sink.latencies, sink.lines)):
            results[start + j] = (latency, line)
        done = start + len(sink.lines)
        if done == len(lines):
            if code not in (0, None):
                results[-1] = (results[-1][0], Failed(f"batch exit code {code}, expected 0"))
            break
        if stop is None:
            stop = f"batch stopped with exit code {code}: {err.getvalue().strip()}"
        elif stop is _DEADLINE:
            stop = f"deadline: no answer after {t_end - sink.start:.2f} s"
        results[done] = (t_end - sink.start, Failed(stop))
        start = done + 1
    return results


class AnswerChecker:
    """Checks every answer against the items' expectations.

    The first output of an item that passes the full check becomes its
    reference; later outputs equal to the reference pass without the
    product being recomputed, any other output is checked in full.
    """

    def __init__(self, items) -> None:
        self.items = items
        self.reference: list = [None] * len(items)
        self.coeff_bits_max = 0
        self.rule_tags: list = [None] * len(items)

    def check(self, i: int, latency: float, res) -> str | None:
        if isinstance(res, Failed):
            return res.reason
        if latency > DEADLINE_S:
            return f"deadline: answered after {latency:.2f} s"
        item = self.items[i]
        if item.call == "cli":
            return self._check_cli(i, res)
        key = (res.kind.value, None if res.factors is None else tuple(tuple(s.coeffs) for s in res.factors))
        if key == self.reference[i]:
            return None
        self.rule_tags[i] = res.rule
        kind, factors = key
        reason = verdict_failure(item.expect, kind, factors, item.target(), item.factors_required)
        if reason is None:
            self._accept(i, key, factors)
        return reason

    def _check_cli(self, i: int, text: str) -> str | None:
        if text == self.reference[i]:
            return None
        item = self.items[i]
        try:
            doc = json.loads(text)
            kind = doc["verdict"]["kind"]
            self.rule_tags[i] = doc["verdict"]["rule"]
            factors = doc.get("factors")
            if factors is not None:
                order = len(item.target()) - 1
                if factors["order"] != order:
                    return f"factors through order {factors['order']}, asked for {order}"
                zero_through = doc["verification"]["residuals_zero_through"]
                if zero_through != factors["order"]:
                    return f"verification.residuals_zero_through is {zero_through}, order is {factors['order']}"
                factors = ([int(c) for c in factors["a"]], [int(c) for c in factors["b"]])
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed JSON answer: {type(exc).__name__}: {exc}"
        reason = verdict_failure(item.expect, kind, factors, item.target(), True)
        if reason is None:
            self._accept(i, text, factors)
        return reason

    def _accept(self, i: int, key, factors) -> None:
        self.reference[i] = key
        if factors is not None:
            self.coeff_bits_max = max(self.coeff_bits_max, bit_height(factors))


class Tally:
    """Outcomes of the answers of a run.

    Every item keeps its latency in every pass.  ``times`` gives each
    item's tenth-percentile latency over the run's passes, taken to the
    nominal speed with the reference kernel of the item's kind (see
    Calibrator).  An answer cut off by the deadline took the deadline's
    wall time whatever the speed, and is not scaled.
    """

    def __init__(self, items) -> None:
        self.items = items
        self.passes: list[array] = []
        self.attempted = 0
        self.pass_busy: list[float] = []
        self.failures: dict[int, list] = {}

    def add_pass(self, checker: AnswerChecker, results) -> None:
        latencies = array("d")
        for i, (latency, res) in enumerate(results):
            reason = checker.check(i, latency, res)
            if reason is not None:
                self.failures.setdefault(i, [reason, 0])[1] += 1
            latencies.append(latency)
        self.attempted += len(results)
        self.passes.append(latencies)
        self.pass_busy.append(sum(latencies))

    def times(self, scales: dict[str, float] | None = None) -> list[float]:
        """Each item's tenth-percentile latency, scaled when ``scales`` is
        given."""
        out = []
        for i, item in enumerate(self.items):
            t = low_quantile(latencies[i] for latencies in self.passes)
            out.append(t if scales is None or t >= DEADLINE_S else t * scales[item.reference])
        return out

    @property
    def failed(self) -> int:
        return sum(count for _, count in self.failures.values())

    def unexpected(self) -> list[int]:
        return [i for i in self.failures if self.items[i].known_defect is None]

    def failure_list(self) -> list[dict]:
        return [
            {
                "input": self.items[i].label,
                "family": self.items[i].family,
                "reason": reason,
                "count": count,
                "known_defect": self.items[i].known_defect,
            }
            for i, (reason, count) in sorted(self.failures.items())
        ]


def tail_latency(latencies: list[float]) -> tuple[str, float]:
    """The highest of p90/p99/p99.9 with at least ten answers beyond it."""
    ordered = sorted(latencies)
    count = len(ordered)
    for name, q in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)):
        rank = math.ceil(q * count)
        if count - rank >= 10:
            return name, ordered[rank - 1]
    return "max", ordered[-1]
