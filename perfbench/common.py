"""Measurement helpers shared by the workloads.

Percentiles here report only what the sample supports, and a request
that was shed, failed or never resolved counts as missing the latency
limit.  Host times are calibrated against a fixed reference workload
(:class:`Calibration`).  The probes (tick counters, call timers, GC
pauses) are used by the traced run only; they wrap public functions
from outside the program and restore them on exit.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

#: samples that must lie above a percentile's rank before it is reported
MIN_BEYOND = 10

#: open-loop latency limit; a request that misses it (or is shed, fails
#: or never resolves) is a miss, and a percentile that lands on a miss
#: reads as the limit itself
LATENCY_LIMIT_MS = 1000.0

#: process classes whose ticks the traced simulator runs count
PROCESS_CLASSES = (
    "DummySource",
    "TransferEngine",
    "GammaRNGProcess",
    "PricingProcess",
    "AggregatingTransferEngine",
)


def percentile(values, q: float):
    """Nearest-rank ``q`` quantile, or ``None`` when unsupported.

    A quantile is supported when at least :data:`MIN_BEYOND` samples lie
    above its rank: a p99 needs 1000 samples, a median 20.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def latency_ms(latencies_ms, misses: int, q: float):
    """Latency percentile in ms with every miss counted beyond the limit.

    ``latencies_ms`` are the completed requests; ``misses`` counts the
    shed, failed and unresolved ones.  Completed requests slower than
    :data:`LATENCY_LIMIT_MS` are misses too.  Returns ``None`` when the
    sample does not support ``q``.
    """
    sample = [v if v <= LATENCY_LIMIT_MS else math.inf for v in latencies_ms]
    sample.extend([math.inf] * misses)
    value = percentile(sample, q)
    if value is None:
        return None
    return min(value, LATENCY_LIMIT_MS)


def median(values) -> float:
    return float(statistics.median(values))


#: what the reference work takes on a machine the calibrated times are
#: expressed in (about what it takes here when the host is quiet)
REFERENCE_S = 0.010


def reference_seconds() -> float:
    """Time a fixed piece of interpreter and NumPy work, owned by the
    benchmark and independent of the program under test."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(50_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc
    np.random.default_rng(12345).gamma(2.0, size=60_000).sum()
    return time.perf_counter() - t0


class Calibration:
    """Calibrated host time for single-threaded work.

    Each vCPU of the host this benchmark runs on flips between a fast
    state and one about 60% slower (other tenants share its cores), for
    stretches of a fraction of a second to a few seconds, and every
    piece of Python code on that vCPU slows alike.  So each timed unit
    of work is bracketed by runs of the reference work, and its time is
    scaled by ``REFERENCE_S / reference``: the time the unit would take
    on a host where the reference takes exactly :data:`REFERENCE_S`.
    A slower program still reads slower; a slower host does not.
    """

    def __init__(self):
        self.references = [reference_seconds()]

    def factor(self) -> float:
        """Close the unit just timed; returns its scale factor."""
        self.references.append(reference_seconds())
        return REFERENCE_S / ((self.references[-2] + self.references[-1]) / 2)

    def reference_ms(self) -> float:
        return 1e3 * median(self.references)


#: how often each :class:`HostMeter` helper samples the reference work
METER_PERIOD_S = 0.1


def _sample_reference(cpu: int) -> None:
    """Body of a :class:`HostMeter` helper: runs until terminated (or
    until its parent is gone and the next print breaks the pipe)."""
    os.sched_setaffinity(0, {cpu})
    while True:
        t0 = time.perf_counter()
        took = reference_seconds()
        print(t0, took, flush=True)
        time.sleep(max(0.0, METER_PERIOD_S - took))


class HostMeter:
    """Host speed sampled on every vCPU while multi-threaded work runs.

    Bracketing (:class:`Calibration`) samples one vCPU between units of
    work, which tracks a single thread but not work spread over every
    vCPU whose speed states flip within a unit.  Here one helper
    process per vCPU, pinned to it, runs the reference work every
    :data:`METER_PERIOD_S` for as long as the meter is open (about 10%
    of each vCPU).  :meth:`factor` then scales a stretch of wall time by the
    median reference time sampled during it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._procs: list[subprocess.Popen] = []

    def __enter__(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                self._procs.append(subprocess.Popen(
                    [sys.executable, "-m", "perfbench.common", str(cpu)],
                    cwd=root, stdout=subprocess.PIPE, text=True,
                ))
            # time only once every helper is sampling
            for proc in self._procs:
                self._parse(proc.stdout.readline())
            if len(self.samples) < len(self._procs):
                raise RuntimeError("a host-speed helper did not start")
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            try:
                out, _ = proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
            for line in out.splitlines():
                self._parse(line)

    def _parse(self, line: str) -> None:
        fields = line.split()
        if len(fields) == 2:
            self.samples.append((float(fields[0]), float(fields[1])))

    def factor(self, start: float, end: float) -> float:
        """Scale factor for wall time spent in ``[start, end]``."""
        during = [took for t, took in self.samples if start <= t <= end]
        if not during:
            raise ValueError("no host-speed sample in the interval")
        return REFERENCE_S / median(during)

    def reference_ms(self) -> float:
        return 1e3 * median([took for _, took in self.samples])


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tick_classes():
    from repro.core.process import Process

    found, stack = [], [Process]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            stack.append(sub)
            if "tick" in sub.__dict__:
                found.append(sub)
    return found


@contextmanager
def count_ticks():
    """Count ``tick`` calls per concrete process class.

    Every :class:`~repro.core.process.Process` subclass that defines its
    own ``tick`` is wrapped in place; an inherited ``tick`` counts under
    the caller's class name.  The built-in fast-path guards compare
    ``type(self).tick`` with the defining class's attribute, which both
    resolve to the same wrapper, so the runs keep skipping cycles.
    """
    counts: Counter = Counter()
    originals = {}
    for cls in _tick_classes():
        original = cls.__dict__["tick"]
        originals[cls] = original

        def tick(self, cycle, _original=original):
            counts[type(self).__name__] += 1
            return _original(self, cycle)

        cls.tick = tick
    try:
        yield counts
    finally:
        for cls, original in originals.items():
            cls.tick = original


@contextmanager
def time_calls(owner, name: str):
    """Record the wall time of every call to ``owner.name`` (seconds).

    ``owner`` may be a class (all instances, any thread) or an instance.
    """
    original = getattr(owner, name)
    durations: list[float] = []
    is_class = isinstance(owner, type)
    own = is_class and name in owner.__dict__

    if is_class:
        def wrapper(self, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(self, *args, **kwargs)
            finally:
                durations.append(time.perf_counter() - t0)
    else:
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                durations.append(time.perf_counter() - t0)

    setattr(owner, name, wrapper)
    try:
        yield durations
    finally:
        if own:
            setattr(owner, name, original)
        else:
            delattr(owner, name)


class GcPauses:
    """Collector pauses observed through :data:`gc.callbacks`."""

    def __init__(self):
        self.pauses: list[float] = []
        self.gen2 = 0
        self._start = None

    def _callback(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
            if info.get("generation") == 2:
                self.gen2 += 1
        elif self._start is not None:
            self.pauses.append(time.perf_counter() - self._start)
            self._start = None

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)

    def metrics(self) -> dict:
        return {
            "runtime.gc_pause_ms": 1e3 * sum(self.pauses),
            "runtime.gc_max_pause_ms": 1e3 * max(self.pauses, default=0.0),
            "runtime.gc_gen2_collections": self.gen2,
        }


if __name__ == "__main__":
    _sample_reference(int(sys.argv[1]))
