"""``serve-live``: gateway -> ShardedEngine on the wall clock.

One generator (the calling thread) plays a seeded trace in two phases
against a 2-shard x 1-worker tier with unlimited tenant buckets:

* **open loop** at a fixed :data:`RATE_JPS`, each request timed from
  the moment it was due, so a stall also charges the requests queued
  behind it; its p50 and p99 are per-layer metrics, because on a host
  whose vCPUs other tenants share, sub-millisecond latency with an
  empty queue spread 20-50% from run to run even when calibrated;
* **closed loop** with :data:`OUTSTANDING` requests in flight, for the
  end-to-end metrics: completed jobs per wall second, and request
  latency with full batches.

Each phase runs in windows of a fixed number of requests, the tier
drained between them, and reports the median window.  Each phase's
times are calibrated by the host speed sampled on every vCPU while it
ran (:class:`perfbench.common.HostMeter`).

Completion is stamped in a ``JobHandle.add_done_callback``, never by
awaiting handles in order.  The generator keeps only timestamps: it
builds each job when it sends it and holds no handle or payload, except
for a small seeded sample of payloads that is checked against
``job.compute()`` once timing is over.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.engine.jobs import GammaJob
from repro.engine.pool import DeviceWorker
from repro.engine.queue import EngineError
from repro.obs import RequestTraceLog, use_request_log
from repro.obs.rtrace import critical_path
from repro.serve.gateway import AdmissionGateway, TenantPolicy
from repro.serve.loadgen import WorkloadSpec, generate_trace
from repro.serve.sharding import ShardedEngine

from perfbench.common import (
    GcPauses,
    HostMeter,
    latency_ms,
    median,
    peak_rss_mb,
    percentile,
    time_calls,
)

#: open-loop rate: a quarter of the tier's closed-loop goodput here, so
#: the queue stays empty even while the host runs 2x slow (at 600 jobs/s
#: a slow stretch filled the queues and requests were shed)
RATE_JPS = 300.0
OUTSTANDING = 16
N_SHARDS = 2
WORKERS_PER_SHARD = 1
SIZE_MIN, SIZE_CAP = 2048, 16384
#: requests per open-loop window (one second at the fixed rate)
OPEN_WINDOW = 300
#: requests per closed-loop window
CLOSED_WINDOW = 800
#: unrecorded requests each fresh tier serves before its first window
TIER_WARM_REQUESTS = 120
#: payloads per phase recomputed and compared after timing
PAYLOAD_CHECKS = 8
#: a run whose generator sent its p99 request later than this is invalid
LATE_LIMIT_MS = 50.0
#: how long a window may wait for its last requests to resolve
DRAIN_S = 30.0
UNLIMITED = TenantPolicy(rate=1e12, burst=1e12)


@dataclass
class Inputs:
    """A trace reduced to arrays: five numbers per request."""

    configs: tuple
    config: np.ndarray
    tenant: np.ndarray
    variance: np.ndarray
    size: np.ndarray
    seed: np.ndarray

    def job(self, i: int) -> GammaJob:
        return GammaJob(
            seed=int(self.seed[i]),
            config=self.configs[self.config[i]],
            variance=float(self.variance[i]),
            n_samples=int(self.size[i]),
        )


def make_inputs(seed: int, n_jobs: int) -> Inputs:
    spec = WorkloadSpec(
        seed=seed, n_jobs=n_jobs, rate_jps=RATE_JPS,
        size_min=SIZE_MIN, size_cap=SIZE_CAP,
    )
    events = generate_trace(spec)
    return Inputs(
        configs=spec.configs,
        config=np.array([spec.configs.index(e.config) for e in events]),
        tenant=np.array([e.tenant for e in events]),
        variance=np.array([e.variance for e in events]),
        size=np.array([e.n_samples for e in events]),
        seed=np.array([e.seed for e in events]),
    )


@dataclass
class Window:
    """One window of requests, in raw host time."""

    sent: int = 0
    shed: int = 0
    errors: int = 0
    unresolved: int = 0
    seconds: float = 0.0
    completions: int = 0
    #: wall-clock interval of the window, and its phase's calibration factor
    start: float = 0.0
    end: float = 0.0
    scale: float = 1.0
    latencies_ms: np.ndarray = field(default_factory=lambda: np.empty(0))
    late_ms: np.ndarray = field(default_factory=lambda: np.empty(0))
    payloads: dict = field(default_factory=dict)

    @property
    def misses(self) -> int:
        return self.sent - self.completions

    def p50_ms(self) -> float:
        return self.scale * latency_ms(list(self.latencies_ms), self.misses, 0.5)

    def goodput(self) -> float:
        return self.completions / (self.seconds * self.scale)


def open_window(gateway, inputs: Inputs, offset: int, n: int, keep: set) -> Window:
    """Send requests ``offset..offset+n`` at :data:`RATE_JPS`."""
    due = np.empty(n)
    done = np.full(n, np.nan)
    ok = np.zeros(n, dtype=bool)
    late = np.empty(n)
    admitted = np.zeros(n, dtype=bool)
    window = Window(sent=n)

    def on_done(k, handle):
        now = time.perf_counter()
        if handle.error is None:
            ok[k] = True
            if offset + k in keep:
                window.payloads[offset + k] = handle.result(0).payload
        done[k] = now

    start = time.perf_counter() + 0.005
    window.start = start
    for k in range(n):
        due[k] = start + k / RATE_JPS
        wait = due[k] - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        late[k] = time.perf_counter() - due[k]
        i = offset + k
        try:
            handle = gateway.admit_sync(int(inputs.tenant[i]), inputs.job(i))
        except EngineError:
            window.shed += 1
            continue
        admitted[k] = True
        handle.add_done_callback(partial(on_done, k))
    limit = time.perf_counter() + DRAIN_S
    while np.isnan(done[admitted]).any() and time.perf_counter() < limit:
        time.sleep(0.002)
    window.end = time.perf_counter()
    window.seconds = window.end - start
    window.unresolved = int(np.isnan(done[admitted]).sum())
    window.errors = int((admitted & ~np.isnan(done) & ~ok).sum())
    window.completions = int(ok.sum())
    window.latencies_ms = 1e3 * (done[ok] - due[ok])
    window.late_ms = 1e3 * late
    return window


def closed_window(gateway, inputs: Inputs, offset: int, n: int, keep: set) -> Window:
    """Send requests ``offset..offset+n``, :data:`OUTSTANDING` at a time."""
    slots = threading.Semaphore(OUTSTANDING)
    sent_at = np.full(n, np.nan)
    done_at = np.full(n, np.nan)
    failures: list = []
    window = Window(sent=n)

    def on_done(i, handle):
        if handle.error is None:
            if i in keep:
                window.payloads[i] = handle.result(0).payload
            done_at[i - offset] = time.perf_counter()
        else:
            failures.append(i)
        slots.release()

    start = window.start = time.perf_counter()
    for i in range(offset, offset + n):
        if not slots.acquire(timeout=DRAIN_S):
            window.sent = i - offset
            break
        sent_at[i - offset] = time.perf_counter()
        try:
            handle = gateway.admit_sync(int(inputs.tenant[i]), inputs.job(i))
        except EngineError:
            window.shed += 1
            slots.release()
        else:
            handle.add_done_callback(partial(on_done, i))
    for _ in range(OUTSTANDING):
        if not slots.acquire(timeout=DRAIN_S):
            break
    ok = ~np.isnan(done_at)
    window.completions = int(ok.sum())
    window.errors = len(failures)
    window.unresolved = window.sent - window.shed - window.errors - window.completions
    window.end = time.perf_counter()
    window.seconds = (np.nanmax(done_at) if window.completions else window.end) - start
    window.latencies_ms = 1e3 * (done_at[ok] - sent_at[ok])
    return window


@dataclass
class Session:
    """Both phases against one fresh tier."""

    open: list
    closed: list
    tier: object

    def latency_p50_ms(self) -> float:
        """Closed-loop request latency, median of windows."""
        return median([w.p50_ms() for w in self.closed])

    def open_p50_ms(self) -> float:
        return median([w.p50_ms() for w in self.open])

    def goodput(self) -> float:
        return median([w.goodput() for w in self.closed])

    def calibrate(self, meter: HostMeter) -> None:
        """One factor per phase: the host speed sampled over the whole
        phase is steadier than over any one window."""
        for phase in (self.open, self.closed):
            scale = meter.factor(phase[0].start, phase[-1].end)
            for w in phase:
                w.scale = scale

    def latency_p99_ms(self):
        latencies = np.concatenate([w.scale * w.latencies_ms for w in self.open])
        return latency_ms(list(latencies), sum(w.misses for w in self.open), 0.99)


def windows(seconds: float) -> tuple[int, int]:
    """Open- and closed-loop window counts for a run of ``seconds``.

    The open loop gets a quarter of the time and always at least four
    windows, so its p99 has ten samples beyond it.  The closed loop,
    which carries the end-to-end metrics, gets the rest: about 0.8 s a
    window here.
    """
    return max(4, round(0.25 * seconds)), max(1, round(0.6 * seconds))


def _tier():
    tier = ShardedEngine(n_shards=N_SHARDS, n_workers=WORKERS_PER_SHARD)
    tier.start()
    return tier, AdmissionGateway(tier, default_policy=UNLIMITED)


def _session(inputs, keep, n_open: int, n_closed: int, hooks=None) -> Session:
    tier, gateway = _tier()
    session = Session([], [], tier)
    try:
        if hooks is not None:
            hooks(tier, gateway)
        # a fresh tier's first requests pay its start-up transient (the
        # first window's p99 read 2-3x the others); replay a few first
        open_window(gateway, inputs, 0, TIER_WARM_REQUESTS, set())
        offset = 0
        for phase, count, size, send in (
            (session.open, n_open, OPEN_WINDOW, open_window),
            (session.closed, n_closed, CLOSED_WINDOW, closed_window),
        ):
            for _ in range(count):
                phase.append(send(gateway, inputs, offset, size, keep))
                offset += size
    finally:
        tier.shutdown(drain=True, timeout=DRAIN_S)
    return session


def _plan(seed: int, n_open: int, n_closed: int):
    """The run's inputs and the requests whose payloads are checked."""
    split = n_open * OPEN_WINDOW
    n_requests = split + n_closed * CLOSED_WINDOW
    inputs = make_inputs(seed, n_requests)
    rng = np.random.default_rng(seed)
    keep = {int(i) for i in rng.choice(split, size=PAYLOAD_CHECKS, replace=False)}
    keep |= {
        split + int(i)
        for i in rng.choice(n_requests - split, size=PAYLOAD_CHECKS, replace=False)
    }
    return inputs, keep


def warm_up(seed: int) -> None:
    inputs = make_inputs(seed + 1, 400)
    tier, gateway = _tier()
    try:
        open_window(gateway, inputs, 0, 150, set())
        closed_window(gateway, inputs, 150, 250, set())
    finally:
        tier.shutdown(drain=True, timeout=DRAIN_S)


def _check(inputs: Inputs, sessions, errors: list) -> tuple[int, int]:
    attempted = failed = 0
    for s in sessions:
        for name, phase in (("open", s.open), ("closed", s.closed)):
            for w in phase:
                attempted += w.sent
                failed += w.shed + w.errors + w.unresolved
                if w.unresolved:
                    errors.append(f"{name} loop: {w.unresolved} handles never resolved")
                if w.shed or w.errors:
                    errors.append(f"{name} loop: {w.shed} shed, {w.errors} failed")
                for i, payload in w.payloads.items():
                    if not np.array_equal(payload, inputs.job(i).compute()):
                        failed += 1
                        errors.append(f"{name} loop: payload of request {i} != compute()")
        late = percentile(np.concatenate([w.late_ms for w in s.open]), 0.99)
        if late is None or late > LATE_LIMIT_MS:
            failed += 1
            errors.append(
                f"generator ran late: p99 {late} ms > {LATE_LIMIT_MS} ms; run invalid"
            )
    return attempted, failed


def _engine_layers(rlog: RequestTraceLog, tier) -> dict:
    segments = {"queue": [], "batch": [], "retry": [], "execute": []}
    for events in rlog.chains().values():
        if not any(e.terminal and e.kind == "complete" for e in events):
            continue
        path = critical_path(events)
        for name, values in segments.items():
            values.append(1e3 * path[f"{name}_s"])
    out = {}
    for name, values in segments.items():
        out[f"engine.{name}_ms.p50"] = percentile(values, 0.5)
        out[f"engine.{name}_ms.p99"] = percentile(values, 0.99)
    stats = tier.stats().values()
    batches = sum(s.batches for s in stats)
    out["engine.batch_occupancy"] = (
        sum(s.jobs_completed for s in stats) / batches if batches else 0.0
    )
    shard = next(iter(tier.shards.values()))
    t0 = time.perf_counter()
    shard.stats()
    out["engine.stats_call_ms"] = 1e3 * (time.perf_counter() - t0)
    return out


def run(seed: int, seconds: float, trace: bool):
    """Returns ``(attempted, failed, errors, metrics)``."""
    errors: list[str] = []
    n_open, n_closed = windows(seconds if not trace else seconds / 2)
    inputs, keep = _plan(seed, n_open, n_closed)
    rlog = RequestTraceLog(capacity=1 << 17, sample_rate=1.0, seed=seed)
    timers = {}
    with HostMeter() as meter:
        gc.collect()
        plain = _session(inputs, keep, n_open, n_closed)
        if trace:
            with ExitStack() as stack:

                def hooks(tier, gateway):
                    timers["admit"] = stack.enter_context(time_calls(gateway, "admit_sync"))
                    timers["submit"] = stack.enter_context(time_calls(tier, "submit"))

                gc.collect()
                gc_pauses = stack.enter_context(GcPauses())
                executes = stack.enter_context(time_calls(DeviceWorker, "execute"))
                stack.enter_context(use_request_log(rlog))
                traced = _session(inputs, keep, n_open, n_closed, hooks=hooks)
    plain.calibrate(meter)
    if not trace:
        attempted, failed = _check(inputs, [plain], errors)
        metrics = {
            "throughput_per_s": plain.goodput(),
            "latency_p50_ms": plain.latency_p50_ms(),
            "peak_rss_mb": peak_rss_mb(),
        }
        return attempted, failed, errors, metrics

    traced.calibrate(meter)
    attempted, failed = _check(inputs, [plain, traced], errors)
    wall = sum(w.seconds for w in traced.open + traced.closed)
    metrics = _engine_layers(rlog, traced.tier)
    metrics.update(gc_pauses.metrics())
    metrics.update({
        "gateway.admit_us": 1e6 * median(timers["admit"]),
        "tier.submit_us": 1e6 * median(timers["submit"]),
        "engine.worker_busy_ratio": sum(executes)
        / (wall * N_SHARDS * WORKERS_PER_SHARD),
        "loadgen.late_p99_ms": percentile(
            np.concatenate([w.late_ms for w in traced.open]), 0.99
        ),
        "serve.open_p50_ms": plain.open_p50_ms(),
        "serve.latency_p99_ms": plain.latency_p99_ms(),
        "serve.latency_samples": sum(w.sent for w in plain.open),
        "calibration.reference_ms": meter.reference_ms(),
        "trace.overhead_ratio": plain.goodput() / traced.goodput(),
    })
    return attempted, failed, errors, metrics
