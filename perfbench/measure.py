"""Measurement helpers shared by every workload: tail percentiles,
host-speed scaling and nested-span self time.

All are deliberately small and dependency-free so their unit tests
(``perfbench/tests/test_measure.py``) pin the exact contract the
benchmark's reported numbers rest on.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

#: The end-to-end metrics every untraced run reports (``BENCHMARK.json``
#: lists the same names).
END_TO_END = (
    "goodput_dps",
    "latency_p50_ms",
    "latency_p99_ms",
    "delivered_ratio",
    "cpu_us_per_datagram",
    "setup_s",
)

#: A latency tail must leave at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A run was too short for the percentile it must report."""


class Tail(NamedTuple):
    """A tail percentile with the evidence behind it."""

    percentile: float
    value: float
    count: int


def _rank_value(ordered: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    n = len(ordered)
    rank = max(1, math.ceil(percentile / 100.0 * n - 1e-9))
    return ordered[rank - 1]


def tail(samples: Sequence[float], target: float = 99.0) -> Tail:
    """The highest percentile, up to ``target``, with at least
    :data:`MIN_BEYOND` samples beyond it.

    ``float('inf')`` samples (datagrams that failed or were refused)
    count as missing every latency limit.  Raises :class:`TooFewSamples`
    when fewer than ``2 * MIN_BEYOND`` samples exist, because no tail
    beyond the median can then be stated.
    """
    n = len(samples)
    if n < 2 * MIN_BEYOND:
        raise TooFewSamples(f"{n} samples: need {2 * MIN_BEYOND} for any tail")
    highest = 100.0 * (1.0 - MIN_BEYOND / n)
    # Percentiles are reported to 0.1; round down so the guarantee holds.
    percentile = min(target, math.floor(highest * 10.0 + 1e-9) / 10.0)
    ordered = sorted(samples)
    return Tail(percentile, _rank_value(ordered, percentile), n)


def p99(samples: Sequence[float]) -> Tail:
    """The 99th percentile, failing loudly when the run is too short.

    p99 needs ``MIN_BEYOND`` samples beyond it, i.e. at least
    ``100 * MIN_BEYOND`` samples in all.
    """
    result = tail(samples, 99.0)
    if result.percentile < 99.0:
        raise TooFewSamples(
            f"{result.count} samples: p99 needs {100 * MIN_BEYOND} "
            f"(only p{result.percentile:g} has {MIN_BEYOND} beyond it)"
        )
    return result


#: Samples per latency window: the fewest that leave ten beyond p99.
WINDOW = 100 * MIN_BEYOND


def windowed_p99(samples: Sequence[float]) -> Tail:
    """The median, over consecutive :data:`WINDOW`-sample windows, of
    each window's p99 (``count`` is the number of samples used).

    Each window's p99 has exactly :data:`MIN_BEYOND` samples beyond it;
    taking the median across windows keeps one stall of the host from
    deciding a whole run's tail.  A trailing partial window is dropped.
    Fails loudly, like :func:`p99`, below one full window.
    """
    windows = len(samples) // WINDOW
    if windows == 0:
        p99(samples)  # raises TooFewSamples with the standard message
    values = [p99(samples[i * WINDOW : (i + 1) * WINDOW]).value for i in range(windows)]
    return Tail(99.0, statistics.median(values), windows * WINDOW)


#: The reference loop's time on the nominal host, in seconds.  Every
#: end-to-end time is reported as it would read on a host where
#: :func:`reference_loop` takes exactly this long.
REFERENCE_S = 0.001
_TABLE = tuple((i * 2654435761) & 0xFFFFFFFF for i in range(256))


def reference_loop(rounds: int = 2000) -> bytes:
    """Fixed interpreter-bound work: the shifts, table lookups and byte
    stores of the pure-Python crypto kernels.  It belongs to the
    benchmark, so no change to the program moves it."""
    x, table, buf = 0x12345678, _TABLE, bytearray(64)
    for i in range(rounds):
        x = ((x << 1) | (x >> 31)) & 0xFFFFFFFF
        x ^= table[x & 255] + i
        buf[i & 63] = x & 255
    return bytes(buf)


class HostSpeed:
    """Scales measured times to the nominal host.

    A shared host changes speed in phases of seconds to minutes -- by up
    to 1.7x, sometimes for a whole run -- and every time the program
    takes moves with it.  The reference loop, probed just before and
    just after each timed unit, measures the host's speed over that
    unit; the unit's times are multiplied by :data:`REFERENCE_S` over
    the geometric mean of the two probes.  Probes are never inside a
    timed unit.  Call :meth:`begin` before a unit that does not directly
    follow the previous one, and :meth:`factor` after every unit.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        work: Callable[[], object] = reference_loop,
    ) -> None:
        self.clock = clock
        self.work = work
        self.last = 0.0
        self.factors = array("d")

    def probe(self) -> float:
        start = self.clock()
        self.work()
        return self.clock() - start

    def begin(self) -> None:
        self.last = self.probe()

    def factor(self) -> float:
        """Probe again; the scale for the unit since the previous probe."""
        now = self.probe()
        scale = REFERENCE_S / math.sqrt(self.last * now)
        self.last = now
        self.factors.append(scale)
        return scale

    def note(self) -> str:
        return (
            f"host speed: times scaled by a median {median(self.factors):.4f}"
            f" over {len(self.factors)} units (reference loop nominal"
            f" {REFERENCE_S * 1e3:g} ms)"
        )


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise TooFewSamples("no samples for a median")
    return statistics.median(samples)


class SpanRecorder:
    """Nested spans on one thread, reduced online to self time.

    A span's *self time* is its duration minus the part of that interval
    covered by its child spans.  Spans opened while ``active`` is false
    still nest correctly but leave no samples, so set-up and input
    generation never leak into a measured window.  Intervals of the span
    names in ``watch`` are kept whether active or not, so a workload can
    prove where those calls happened.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        watch: Sequence[str] = (),
    ) -> None:
        self.clock = clock
        self.active = False
        self.watch = frozenset(watch)
        # Open frames: [name, start, covered-by-children].
        self._stack: List[list] = []
        self.self_seconds: Dict[str, array] = {}
        self.units: Dict[str, float] = {}
        self.intervals: Dict[str, List[Tuple[float, float]]] = {}

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self, units: float = 0.0) -> float:
        """Close the innermost span; return its self time in seconds."""
        name, start, covered = self._stack.pop()
        end = self.clock()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        own = duration - covered
        if self.active:
            samples = self.self_seconds.get(name)
            if samples is None:
                samples = self.self_seconds[name] = array("d")
            samples.append(own)
            self.units[name] = self.units.get(name, 0.0) + units
        if name in self.watch:
            self.intervals.setdefault(name, []).append((start, end))
        return own

    def calls(self, name: str) -> int:
        return len(self.self_seconds.get(name, ()))

    def total(self, name: str) -> float:
        return float(sum(self.self_seconds.get(name, ())))

    def median_us(self, name: str) -> float:
        samples = self.self_seconds.get(name)
        return statistics.median(samples) * 1e6 if samples else 0.0

    def grand_total(self) -> float:
        """Self time summed over every span: the traced share of wall."""
        return float(sum(sum(v) for v in self.self_seconds.values()))


def overlaps(
    spans: Sequence[Tuple[float, float]], windows: Sequence[Tuple[float, float]]
) -> int:
    """How many ``spans`` intersect any of ``windows`` (half-open)."""
    count = 0
    for start, end in spans:
        for w_start, w_end in windows:
            if start < w_end and w_start < end:
                count += 1
                break
    return count


def body_of(seq: int, size: int, offset: int, filler: bytes) -> bytes:
    """A unique datagram body: its 8-byte sequence number, then seeded
    filler, so every delivery names the datagram it claims to be."""
    return seq.to_bytes(8, "big") + filler[offset : offset + size - 8]


class Result:
    """One workload run: metrics plus the correctness ledger.

    ``metrics`` maps a metric name to ``(value, unit, samples)``.
    ``failures`` counts undelivered datagrams by reason, so
    ``attempted == delivered + sum(failures.values())`` is checkable;
    ``problems`` lists failed correctness gates (empty when correct).
    """

    def __init__(self) -> None:
        self.metrics: Dict[str, Tuple[float, str, int]] = {}
        self.attempted = 0
        self.delivered = 0
        self.failures: Dict[str, int] = {}
        self.problems: List[str] = []
        self.notes: List[str] = []

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def fail(self, reason: str, n: int = 1) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + n

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def check_ledger(self) -> None:
        """Gate: attempted == delivered + failed, by reason."""
        self.check(
            self.attempted == self.delivered + self.failed,
            f"ledger: attempted {self.attempted} != delivered {self.delivered}"
            f" + failed {self.failures}",
        )


def wall_per_datagram(window_stats: Sequence[Tuple[int, float, float]]) -> float:
    """Scaled wall seconds per delivered datagram over timed windows."""
    return sum(w[1] for w in window_stats) / sum(w[0] for w in window_stats)


def closed_loop_metrics(
    res: Result,
    latencies: Sequence[float],
    window_stats: Sequence[Tuple[int, float, float]],
    on_time: int,
    setups: Sequence[float],
    tail_of: Callable[[Sequence[float]], Tail] = windowed_p99,
) -> None:
    """The end-to-end metrics of a closed-loop workload.

    ``latencies`` holds one sample per latency unit (a datagram, or a
    batch call) in scaled seconds, ``inf`` for a unit with an undelivered
    datagram; ``tail_of`` reduces them to the reported tail.
    ``window_stats`` holds (datagrams delivered, wall seconds, CPU
    seconds) per timed window, all times already scaled by
    :class:`HostSpeed`: goodput and CPU cost are the medians over
    windows, so a burst of other work on the host moves one window, not
    the run.  ``on_time`` counts datagrams delivered within the
    workload's latency limit, the numerator of ``delivered_ratio``.
    """
    tail99 = tail_of(latencies)
    res.notes.append(
        f"latency_p99_ms is p{tail99.percentile:g} over {tail99.count} samples"
        f" ({tail_of.__name__})"
    )
    windows = [w for w in window_stats if w[0]]
    res.check(len(windows) == len(window_stats), "a timed window delivered nothing")
    res.put("goodput_dps", median([d / wall for d, wall, _cpu in windows]), "dps", len(windows))
    res.put("latency_p50_ms", median(latencies) * 1e3, "ms", len(latencies))
    res.put("latency_p99_ms", tail99.value * 1e3, "ms", tail99.count)
    res.put("delivered_ratio", on_time / res.attempted, "ratio", res.attempted)
    res.put("cpu_us_per_datagram", median([cpu / d * 1e6 for d, _wall, cpu in windows]), "us", len(windows))
    res.put("setup_s", median(setups), "s", len(setups))
