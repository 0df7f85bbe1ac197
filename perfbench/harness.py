"""Timing, tracing and statistics for the catgram benchmark.

Standard library only.  The harness knows nothing about catgram: workloads
hand it a list of :class:`Op` and it times them pass by pass, checks their
answers, and aggregates the numbers run.py prints.

Times are calibrated.  On a shared host the speed of the machine drifts by
tens of percent within a minute, far more than the changes the benchmark
must show.  So every timed region lies between two runs of a fixed
calibration kernel that uses no catgram code, and its wall time is scaled
by ``CALIBRATION_REF_S`` over the mean of those two kernel times: the time
the region would take on a machine that runs the kernel in exactly
``CALIBRATION_REF_S``.  Raw wall times are kept alongside.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

# Percentiles the tail metric may report; the highest one that still has at
# least TAIL_MIN_BEYOND samples above it is used.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
PASS_STRIDE_SHARE = 0.2
# The calibration kernel's nominal time; calibrated seconds are seconds of a
# machine that runs the kernel in exactly this long.
CALIBRATION_REF_S = 1e-3
CALIBRATION_REPEATS = 3


class CheckFailed(Exception):
    """An op returned an answer that disagrees with its reference."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def calibration_kernel() -> int:
    """Fixed interpreter work like catgram's own: tuple keys, dict and set
    updates.  It uses no catgram code, so a change to the library cannot
    change its cost."""
    counts: dict[tuple[int, int], int] = {}
    seen: set[tuple[tuple[int, int], int]] = set()
    for i in range(2000):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + 1
        seen.add((key, i & 7))
    return len(counts) + len(seen)


def calibrate() -> float:
    """Median wall time of CALIBRATION_REPEATS runs of the kernel, with the
    collector off so the program's heap does not enter into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(CALIBRATION_REPEATS):
            t0 = time.perf_counter()
            calibration_kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def calibrated(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time scaled to the reference machine, given the
    kernel times measured just before and just after the timed region."""
    return seconds * CALIBRATION_REF_S * 2 / (before + after)


@dataclass
class Op:
    """One timed operation.

    ``run`` performs the call into the library, checks the answer against an
    independent reference (raising :class:`CheckFailed` on a mismatch) and
    returns its machine-independent counters.  ``tokens`` is the number of
    generators in the input paths the op hands to the library.  ``extra``
    computes counters that need a further library call (the chart size); a
    traced run calls it once per op, outside every timed region.
    """

    name: str
    run: Callable[[], dict[str, int]]
    tokens: int = 0
    extra: Callable[[], dict[str, int]] | None = None


@dataclass
class OpResult:
    op_id: int
    name: str
    seconds: float  # calibrated
    wall: float  # raw wall time
    ok: bool
    error: str | None
    counters: dict[str, int]


@dataclass
class PassResult:
    wall: float  # raw wall time of the pass, calibration runs included
    results: list[OpResult]
    tokens: int

    @property
    def latencies(self) -> list[float]:
        return [r.seconds for r in self.results]

    @property
    def seconds(self) -> float:
        """Calibrated time of the pass: the sum of its ops' times."""
        return sum(r.seconds for r in self.results)

    @property
    def op_wall(self) -> float:
        """Raw wall time of the pass's ops, calibration runs left out."""
        return sum(r.wall for r in self.results)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.results)

    def counters(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for r in self.results:
            for k, v in r.counters.items():
                total[k] = total.get(k, 0) + v
        return total


def run_pass(ops: list[Op], tracer: "Tracer | None" = None, start: int = 0) -> PassResult:
    """Run every op once, in order from op ``start`` round to the one before
    it, timing each from outside between two calibration runs; the results
    come in op order.

    An op that raises anything but an interrupt counts as failed; the pass
    goes on with the next op.
    """
    results = []
    clock = time.perf_counter
    t_pass = clock()
    before = calibrate()
    for op_id in [*range(start, len(ops)), *range(start)]:
        op = ops[op_id]
        error = None
        counters: dict[str, int] = {}
        t0 = clock()
        try:
            if tracer is None:
                counters = op.run()
            else:
                with tracer.span("op." + op.name, op_id):
                    counters = op.run()
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # RecursionError, MemoryError, failed checks
            error = f"{type(exc).__name__}: {exc}"[:300]
        seconds = clock() - t0
        after = calibrate()
        scaled = calibrated(seconds, before, after)
        results.append(OpResult(op_id, op.name, scaled, seconds, error is None, error, counters))
        before = after
    wall = clock() - t_pass
    results.sort(key=lambda r: r.op_id)
    return PassResult(wall, results, sum(op.tokens for op in ops))


def measure(
    ops: list[Op],
    seconds: float,
    traced: Callable[[int], PassResult] | None = None,
) -> tuple[list[PassResult], list[PassResult]]:
    """Repeat whole passes for about ``seconds``; returns the untraced and
    the traced passes.

    A new pass starts only while the median pass so far still fits in the
    time left, so every pass is complete and a run lasts about ``seconds``.
    Each pass starts PASS_STRIDE_SHARE of the ops later than the one
    before: the collector pauses at the same allocation counts in every
    pass, and the shift lands those pauses on other ops, so an op's median
    latency is its own.  Given ``traced``, a callable running one traced
    pass from a start op, passes alternate untraced/traced so drift affects
    both sides alike, and at least one pass of each kind runs.
    """
    # an even stride keeps the cli's hash-seed pairs of ops together
    stride = 2 * max(1, round(len(ops) * PASS_STRIDE_SHARE / 2))
    plain: list[PassResult] = []
    traced_passes: list[PassResult] = []
    walls: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        # leave no garbage of the last pass for this one's collector to find
        gc.collect()
        start = len(walls) * stride % len(ops)
        if traced is not None and len(plain) > len(traced_passes):
            result = traced(start)
            traced_passes.append(result)
        else:
            result = run_pass(ops, start=start)
            plain.append(result)
        walls.append(result.wall)
        if deadline - time.perf_counter() < statistics.median(walls):
            if traced is None or traced_passes:
                return plain, traced_passes


# -- statistics --------------------------------------------------------------


def tail_percentile(n: int) -> float | None:
    """The highest percentile of the ladder with at least ten of ``n``
    samples strictly beyond it, or None when even the median has fewer."""
    for p in TAIL_LADDER:
        beyond = n - _rank(p, n)
        if beyond >= TAIL_MIN_BEYOND:
            return p
    return None


def _rank(p: float, n: int) -> int:
    """Number of samples at or below the ``p``-th percentile (nearest rank),
    in integer tenths of a percent so exact multiples do not drift."""
    tenths = round(p * 10)
    return max(1, -(-tenths * n // 1000))


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p``-th quantile (0 < p < 1): a mean of
    all order statistics, weighted by a Beta((n+1)p, (n+1)(1-p)) density
    over their ranks.  Where the sorted values have gaps, the nearest-rank
    percentile jumps from one side to the other as noise reorders the values
    next to the rank; this estimate moves smoothly instead."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by its continued
    fraction evaluated with Lentz's method."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):  # the fraction converges fast below this
        return 1.0 - betainc(b, a, 1.0 - x)
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            numerator = 1.0
        elif i % 2 == 0:
            numerator = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            numerator = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + numerator * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + numerator / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-13:
            return math.exp(log_front) / a * (f - 1.0)
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def fail_ratio(attempted: int, failed: int) -> float:
    """Share of attempted ops that raised or gave a wrong answer."""
    if attempted < 1:
        raise ValueError("fail_ratio needs at least one attempted op")
    if not 0 <= failed <= attempted:
        raise ValueError("failed ops must lie between 0 and the ops attempted")
    return failed / attempted


# -- tracing -----------------------------------------------------------------


@dataclass
class Span:
    name: str
    op_id: int | None
    parent: int | None
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    """Spans kept in memory: name, start, end, parent span and op id."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, op_id: int | None = None) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        if op_id is None and parent is not None:
            op_id = self.spans[parent].op_id
        index = len(self.spans)
        self.spans.append(Span(name, op_id, parent, time.perf_counter()))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Per span name, the summed duration minus the time covered by
        child spans, over the spans recorded from index ``first`` on."""
        return self_times(self.spans[first:], offset=first)

    def to_json(self) -> list[dict[str, Any]]:
        return [
            {"name": s.name, "op": s.op_id, "parent": s.parent, "start": s.start, "end": s.end}
            for s in self.spans
        ]


def self_times(spans: list[Span], offset: int = 0) -> dict[str, float]:
    """Self time per span name: summed durations minus those of the direct
    children.  One thread records the spans, so a span's children are
    disjoint and lie inside it.  ``offset`` is the tracer index of
    ``spans[0]``, which ``Span.parent`` counts from; a parent recorded
    before the window is left out."""
    out: dict[str, float] = {}
    for s in spans:  # a parent is recorded before its children
        duration = s.end - s.start
        out[s.name] = out.get(s.name, 0.0) + duration
        if s.parent is not None and s.parent >= offset:
            out[spans[s.parent - offset].name] -= duration
    return out


@contextmanager
def instrumented(tracer: Tracer, targets: list[tuple[Any, str, str]]) -> Iterator[None]:
    """Replace ``module.attr`` by a traced wrapper for each (module, attr,
    span name) target, restoring the originals on exit.  Calls that the
    library makes through module attributes are traced too, which nests
    spans (``cs_check`` over ``pullback_grammar`` over ``trim``)."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, name in targets:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
