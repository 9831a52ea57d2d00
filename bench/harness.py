"""Shared pieces of the benchmark: op accounting, percentiles, spans, digests.

A workload is a list of ops.  Each op is one timed call (or a short fixed
sequence of calls) into the public API of `torsionbounds`.  `Recorder.op`
times the call, then runs the workload's oracle on the result outside the
timed region.  An op fails when it raises or when its oracle disagrees; a
failed op counts as infinite latency.  When tracing is on, every call into a
layer is wrapped in a span (name, start, end, parent, op id); spans stay in
memory and are written out when the run ends.

The host's speed can swing by up to 2x over tens of seconds, so raw op times
from two runs of the same code differ by more than any useful bound.  A
`Clock` therefore times a fixed calibration kernel (pure Python, no call into
the program) every CALIBRATION_EVERY_S of wall time, from a timer signal, so
that samples fall inside long ops too.  An op's latency is its wall time
less the samples taken inside it, times REFERENCE_CALIBRATION_S over the
mean kernel time of the samples inside it and just around it: the time the
op would take where the kernel takes REFERENCE_CALIBRATION_S.
"""
from __future__ import annotations

import bisect
import gc
import hashlib
import json
import math
import os
import platform
import signal
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_INIT = SRC / "torsionbounds" / "__init__.py"

# p90 is reported only when at least this many samples lie above it
P90_MIN_ABOVE = 10

# wall time between two calibration samples
CALIBRATION_EVERY_S = 0.1
# room for the samples of a round; a round ends within 170 s (1700 samples)
MAX_SAMPLES = 4096
# the time of one calibration_kernel() on the reference CPU (an Intel Xeon
# running CPython 3.11 in its fast phase): op times are scaled to it
REFERENCE_CALIBRATION_S = 0.004


def import_program():
    """Import `torsionbounds` from this checkout's `src`, never from elsewhere."""
    if not PACKAGE_INIT.is_file():
        raise SystemExit(f"benchmark: no program source at {PACKAGE_INIT}")
    sys.path.insert(0, str(SRC))
    import torsionbounds
    if Path(torsionbounds.__file__).resolve() != PACKAGE_INIT.resolve():
        raise SystemExit(f"benchmark: imported {torsionbounds.__file__}, "
                         f"expected {PACKAGE_INIT}")
    return torsionbounds


class OracleMismatch(Exception):
    """The program's answer disagrees with the benchmark's own oracle."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise OracleMismatch(message)


def _mul_mod(x, y, n):
    return ((x[0] * y[0] + x[1] * y[2]) % n, (x[0] * y[1] + x[1] * y[3]) % n,
            (x[2] * y[0] + x[3] * y[2]) % n, (x[2] * y[1] + x[3] * y[3]) % n)


def calibration_kernel():
    """Fixed work resembling the program's: a breadth-first closure of
    GL2(Z/8Z) over raw tuples in a set, then Fraction and big-integer
    arithmetic.  Independent of `torsionbounds`; keeps nothing alive."""
    gens = ((1, 1, 0, 1), (0, 7, 1, 0), (3, 0, 0, 1), (5, 0, 0, 1))
    seen = {(1, 0, 0, 1)}
    frontier = [(1, 0, 0, 1)]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = _mul_mod(x, g, 8)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    q = Fraction(1)
    for i in range(1, 400):
        q = q * Fraction(i + 1, i + 2) + Fraction(1, i * i)
    a, r = 10 ** 400 + 7, 1 << 700
    while (nxt := (r + a // r) >> 1) < r:
        r = nxt
    return len(seen), q, r


def time_calibration() -> float:
    """Wall time of one calibration_kernel(), with the collector off so that
    the program's garbage-collector settings do not move it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        calibration_kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Calibration samples of one round, and op times scaled by them.

    `start()` takes a sample and then one every CALIBRATION_EVERY_S from a
    SIGALRM handler, which runs between two bytecodes of whatever is running,
    an op included; `stop()` ends that and takes a last sample.  Each sample
    is (start, end, kernel seconds).

    Samples go into a buffer allocated up front: a list growing while the
    ops run was seen to pin the top of the C heap now and then, and so to
    raise the process's peak memory by half a MiB."""

    def __init__(self):
        self._buffer = array("d", bytes(8 * 3 * MAX_SAMPLES))
        self._count = 0
        self.samples: list[tuple[float, float, float]] = []  # set by index()
        self._starts: list[float] = []
        self._paused: list[float] = []  # prefix sums of the sample durations
        self._kernel: list[float] = []  # smoothed kernel seconds

    def record(self, start: float, end: float, kernel: float) -> None:
        if self._count < MAX_SAMPLES:
            i = 3 * self._count
            self._buffer[i], self._buffer[i + 1], self._buffer[i + 2] = start, end, kernel
            self._count += 1

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        kernel = time_calibration()
        self.record(start, time.perf_counter(), kernel)

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_EVERY_S, CALIBRATION_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        self.index()

    def index(self) -> None:
        """Prepare the samples for lookup; `stop()` calls it.  A sample's
        kernel time is smoothed to the median of the five around it, so that
        one sample hit by an interrupt does not scale the ops next to it."""
        b = self._buffer
        self.samples = [tuple(b[3 * i:3 * i + 3]) for i in range(self._count)]
        self._starts = [start for start, _, _ in self.samples]
        self._paused = [0.0, *accumulate(end - start for start, end, _ in self.samples)]
        kernel = [k for _, _, k in self.samples]
        self._kernel = [median(kernel[max(i - 2, 0):i + 3]) for i in range(len(kernel))]

    def _inside(self, start: float, end: float) -> tuple[int, int]:
        """Indices [i, j) of the samples begun within [start, end)."""
        return (bisect.bisect_left(self._starts, start),
                bisect.bisect_left(self._starts, end))

    def busy(self, start: float, end: float) -> float:
        """Wall time of [start, end) less the samples taken inside it."""
        i, j = self._inside(start, end)
        return end - start - (self._paused[j] - self._paused[i])

    def speed(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end): from the
        samples inside it and the one just before and just after it."""
        i, j = self._inside(start, end)
        near = self._kernel[max(i - 1, 0):min(j + 1, len(self._kernel))]
        return REFERENCE_CALIBRATION_S * len(near) / sum(near)

    def reference(self, start: float, end: float) -> float:
        return self.busy(start, end) * self.speed(start, end)


def p90(samples):
    """Nearest-rank p90, or None when fewer than P90_MIN_ABOVE samples lie
    strictly above it (or when it is infinite, i.e. over a tenth failed)."""
    if not samples:
        return None
    xs = sorted(samples)
    value = xs[math.ceil(0.9 * len(xs)) - 1]
    above = len(xs) - sum(1 for x in xs if x <= value)
    if above < P90_MIN_ABOVE or math.isinf(value):
        return None
    return value


def median(samples):
    if not samples:
        return None
    xs = sorted(samples)
    mid = len(xs) // 2
    value = xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2
    return None if math.isinf(value) else value


def digest(canonical) -> str:
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def module_of(layer: str) -> str:
    return layer.split(".", 1)[0]


class Recorder:
    """Times ops, checks them against oracles, and (optionally) records spans."""

    def __init__(self, trace: bool = False):
        self.trace = trace
        self.latencies: list[float] = []
        self.failed = 0
        self.mismatches: list[str] = []
        self.errors: list[str] = []
        self.canonical: list = []
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.windows: list[tuple[float, float]] = []  # (start, end) of every op
        self.clock = Clock()
        self._open_op: int | None = None

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def wall_latencies(self) -> list[float]:
        """Op latencies in wall seconds, calibration taken off; a failed op
        stays infinite."""
        return [x if math.isinf(x) else self.clock.busy(*w)
                for x, w in zip(self.latencies, self.windows)]

    def reference_latencies(self) -> list[float]:
        """Op latencies in reference seconds; a failed op stays infinite."""
        return [x if math.isinf(x) else self.clock.reference(*w)
                for x, w in zip(self.latencies, self.windows)]

    def reference_batch_seconds(self) -> float:
        """Summed op time in reference seconds, failed ops included."""
        return sum(self.clock.reference(*w) for w in self.windows)

    def call(self, layer: str, fn, *args):
        """Call into one layer; a span is recorded when tracing."""
        if not self.trace:
            return fn(*args)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.spans.append((len(self.spans), layer, start, end,
                               self._open_op, len(self.latencies)))

    def op(self, layer: str, fn, check):
        """Run `fn()` as one timed op whose main layer is `layer`.

        `check(result)` runs after the clock stops; it returns the canonical
        form of the result for the digest and raises OracleMismatch on a
        wrong answer.  Returns the result, or None when the op failed.
        """
        if self.trace:
            self._open_op = len(self.spans)
            self.spans.append(None)  # placeholder, filled in below
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # any raise or refusal is a failed op
            self._close(layer, start, time.perf_counter())
            self._fail(layer, f"{layer} raised {type(exc).__name__}: {exc}")
            self.canonical.append([layer, "raised", type(exc).__name__])
            return None
        end = time.perf_counter()
        self._close(layer, start, end)
        try:
            self.canonical.append([layer, check(result)])
        except Exception as exc:  # a malformed result disagrees as well
            self.mismatches.append(f"{layer}: {type(exc).__name__}: {exc}")
            self._fail(layer, f"{layer} mismatch: {exc}")
            self.canonical.append([layer, "mismatch"])
            return None
        self.latencies.append(end - start)
        return result

    def probe(self, layer: str, fn):
        """Call a known-defect input outside the op stream; return the outcome
        ("ok" or the exception name).  A raise counts toward `<module>.failed`."""
        try:
            fn()
        except Exception as exc:
            self.counters[module_of(layer) + ".failed"] += 1
            return type(exc).__name__
        return "ok"

    def _close(self, layer, start, end):
        self.windows.append((start, end))
        if self.trace:
            op_id = len(self.latencies)
            self.spans[self._open_op] = (self._open_op, "op." + layer, start, end,
                                         None, op_id)
            self._open_op = None

    def _fail(self, layer, message):
        self.failed += 1
        self.errors.append(message)
        self.latencies.append(math.inf)
        self.counters[module_of(layer) + ".failed"] += 1


def layer_seconds(spans, clock: Clock) -> Counter:
    """Self time per span name in wall seconds, calibration taken off:
    duration minus the part its children cover."""
    child_time: Counter = Counter()
    for span in spans:
        if span[4] is not None:
            child_time[span[4]] += clock.busy(span[2], span[3])
    out: Counter = Counter()
    for span in spans:
        out[span[1]] += clock.busy(span[2], span[3]) - child_time[span[0]]
    return out


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "commit": _commit(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _commit() -> str:
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
