"""Load generation + virtual-time tier simulation for the serving layer.

Two halves, sharing one trace format:

* :func:`generate_trace` draws a **replayable traffic trace** — Pareto
  (heavy-tailed) inter-arrivals and job sizes, Zipf-distributed tenants
  over a million-user population — entirely from one seed.  The same
  seed always produces byte-identical traces, and a trace round-trips
  through JSON, so a latency regression seen in CI can be replayed
  locally from the committed spec.
* :func:`simulate_tier` runs a trace through a **virtual-time model**
  of the sharded tier: an event loop per shard, clocked by the trace's
  arrival timestamps instead of the host, that makes no policy decision
  of its own.  Every decision is the live tier's code: the
  consistent-hash ring routes, the token bucket admits,
  :func:`~repro.engine.queue.take_batch` forms batches,
  :meth:`~repro.engine.pool.DeviceWorker.price` prices each attempt,
  the :class:`~repro.engine.resilience.FaultPlan` draws fail it,
  :class:`~repro.engine.resilience.RetryPolicy` retries it, and a job
  whose deadline passes mid-attempt is shed at the deadline, as the
  live watchdog sheds it.  Latency percentiles, shed rates and
  throughput out of the simulator are pure functions of ``(trace, tier
  spec, fault plan)`` — the property that lets ``BENCH_serving.json``
  be byte-reproducible, exactly like the engine's modeled-device-timeline
  throughput is immune to host scheduling noise.

:func:`replay_trace` is the wall-clock counterpart: it plays a trace
through a live :class:`~repro.serve.gateway.AdmissionGateway` (asyncio,
real threads, optionally time-compressed), which is what the smoke
tests and the chaos run use.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import json
from collections import defaultdict, deque
from dataclasses import asdict, dataclass, field
from typing import Iterator

import numpy as np

from repro.engine.jobs import GammaJob, gamma_device_seconds
from repro.engine.pool import DeviceWorker
from repro.engine.queue import JobQueueFull, take_batch
from repro.engine.resilience import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    JobDeadlineExceeded,
    RetryPolicy,
)
from repro.obs import get_request_log
from repro.obs.percentiles import summarize
from repro.obs.rtrace import derive_trace_id
from repro.serve.gateway import TenantPolicy, TenantThrottled, TokenBucket
from repro.serve.sharding import ShardRing

__all__ = [
    "WorkloadSpec",
    "TraceEvent",
    "TierSpec",
    "default_virtual_chaos",
    "generate_trace",
    "trace_to_json",
    "trace_from_json",
    "job_from_event",
    "simulate_tier",
    "offered_load_sweep",
    "replay_trace",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything that determines a traffic trace (all of it seeded).

    ``rate_jps`` is the *offered* load; arrivals are Pareto-I gaps with
    tail index ``arrival_alpha`` whose mean hits that rate, so traffic
    is bursty the way real tenant traffic is, not Poisson-smooth.
    Sizes are Pareto too (``size_alpha``), floored at ``size_min`` and
    capped at ``size_cap`` samples.  Tenants are Zipf(``zipf_s``) over
    ``n_users`` — a million-user population where a handful of heavy
    hitters dominate, which is what makes per-tenant token buckets do
    real work.
    """

    seed: int = 20170529
    n_jobs: int = 2000
    rate_jps: float = 400.0
    arrival_alpha: float = 2.2
    #: sizes are virtual-clock friendly defaults (the simulator never
    #: computes payloads); wall-clock replays pass smaller sizes so
    #: job.compute() stays cheap
    size_min: int = 131072
    size_alpha: float = 1.8
    size_cap: int = 2_097_152
    n_users: int = 1_000_000
    zipf_s: float = 1.3
    #: config and variance are drawn independently, so the trace carries
    #: ``len(configs) * len(variances)`` distinct batch keys — enough
    #: key diversity that a consistent-hash ring spreads real load over
    #: every shard (two lonely keys would strand half a 4-shard tier)
    configs: tuple = ("Config1", "Config2", "Config3", "Config4")
    variances: tuple = (0.35, 0.8, 1.39, 2.3, 4.45, 6.0)
    deadline_s: float | None = None
    deadline_fraction: float = 0.0  # share of jobs carrying the deadline

    def scaled(self, load_multiplier: float) -> "WorkloadSpec":
        """Same workload shape at a different offered load (same seed)."""
        return WorkloadSpec(
            **{
                **asdict(self),
                "rate_jps": self.rate_jps * load_multiplier,
            }
        )


@dataclass(frozen=True)
class TraceEvent:
    """One arrival: who, when, what."""

    index: int
    t: float  # arrival time, seconds from trace start
    tenant: int
    config: str
    variance: float
    n_samples: int
    seed: int
    deadline_s: float | None = None

    def batch_key(self):
        """Mirror of :meth:`GammaJob.batch_key` — used for routing."""
        return ("gamma", self.config, self.variance)

    def expired(self, now: float) -> bool:
        """Mirror of :meth:`Job.expired` on the trace's virtual clock."""
        return self.deadline_s is not None and now >= self.t + self.deadline_s

    def device_seconds(self, model) -> float:
        """Mirror of :meth:`GammaJob.device_seconds` (the same rule)."""
        return gamma_device_seconds(
            model, self.config, self.variance, self.n_samples
        )

    def result_bytes(self) -> int:
        """Mirror of :meth:`GammaJob.result_bytes`."""
        return self.n_samples * 4


def generate_trace(spec: WorkloadSpec) -> list[TraceEvent]:
    """Draw the full trace from ``spec.seed`` (deterministic).

    Inter-arrival gaps: Pareto-I with scale ``xm = (a-1)/(a*rate)`` so
    the mean gap is exactly ``1/rate``.  Job seeds are derived per
    event (``spec.seed * 1_000_003 + index``), so replaying any single
    job reproduces its exact payload.
    """
    rng = np.random.default_rng(spec.seed)
    a = spec.arrival_alpha
    if a <= 1.0:
        raise ValueError("arrival_alpha must be > 1 for a finite mean")
    xm = (a - 1.0) / (a * spec.rate_jps)
    # rng.pareto draws Lomax; +1 shifts to Pareto-I with scale 1
    gaps = xm * (1.0 + rng.pareto(a, size=spec.n_jobs))
    arrivals = np.cumsum(gaps)
    sizes = np.minimum(
        spec.size_cap,
        (spec.size_min * (1.0 + rng.pareto(spec.size_alpha, size=spec.n_jobs)))
        .astype(np.int64),
    )
    tenants = np.minimum(rng.zipf(spec.zipf_s, size=spec.n_jobs), spec.n_users)
    kinds = rng.integers(0, len(spec.configs), size=spec.n_jobs)
    sectors = rng.integers(0, len(spec.variances), size=spec.n_jobs)
    with_deadline = (
        rng.random(size=spec.n_jobs) < spec.deadline_fraction
        if spec.deadline_s is not None
        else np.zeros(spec.n_jobs, dtype=bool)
    )
    events = []
    for i in range(spec.n_jobs):
        events.append(
            TraceEvent(
                index=i,
                t=float(arrivals[i]),
                tenant=int(tenants[i]),
                config=spec.configs[int(kinds[i])],
                variance=float(spec.variances[int(sectors[i])]),
                n_samples=int(sizes[i]),
                seed=spec.seed * 1_000_003 + i,
                deadline_s=spec.deadline_s if with_deadline[i] else None,
            )
        )
    return events


def trace_to_json(events: list[TraceEvent]) -> str:
    return json.dumps([asdict(e) for e in events])


def trace_from_json(text: str) -> list[TraceEvent]:
    return [TraceEvent(**item) for item in json.loads(text)]


def job_from_event(event: TraceEvent) -> GammaJob:
    """Materialize the engine job a trace event describes."""
    return GammaJob(
        seed=event.seed,
        deadline_s=event.deadline_s,
        config=event.config,
        variance=event.variance,
        n_samples=event.n_samples,
    )


# -- virtual-time tier simulation --------------------------------------------------


@dataclass(frozen=True)
class TierSpec:
    """The sharded tier as the simulator (and the live tier) sees it."""

    n_shards: int = 4
    workers_per_shard: int = 2
    queue_depth: int = 64
    max_batch: int = 8
    tenant_policy: TenantPolicy = field(default_factory=TenantPolicy)
    #: extra ring hops a queue-full shard may spill to (0 = primary
    #: only, the pre-spillover behaviour); mirrors
    #: :class:`~repro.serve.sharding.ShardedEngine`'s ``spill``
    spill: int = 0


def default_virtual_chaos(seed: int = 0) -> FaultPlan:
    """The fault plan the serving benchmark runs under: 3% of batches fail."""
    return FaultPlan(
        [FaultRule(scope="batch", mode="fail", probability=0.03)], seed=seed
    )


#: the live tier's default retry policy: the virtual tier has no knob of its own
_RETRY = RetryPolicy()
#: what a fired ``fail`` rule raises on a live worker
_INJECTED = InjectedFault("injected by the fault plan")


class _Shard:
    """One shard on the virtual clock: an event loop over the live policies.

    ``ctxs`` maps trace-event index → :class:`repro.obs.TraceContext`
    (None when request tracing is off): every lifecycle point —
    enqueue, queue wait, batch formation, execute attempts, retries,
    completion, deadline shed — emits its span on the *virtual* clock,
    so a seeded run exports a byte-identical span log.
    """

    def __init__(
        self, spec: TierSpec, index: int, batch_ids: Iterator[int],
        plan: FaultPlan | None, ctxs: dict | None,
    ):
        self.spec = spec
        self.name = f"shard{index}"
        self.plan = plan
        self.ctxs = ctxs
        self.batch_ids = batch_ids
        self.workers = [
            DeviceWorker(f"s{index}w{j}") for j in range(spec.workers_per_shard)
        ]
        #: when each worker's device queue drains, and how many batches
        #: it completed (what a fault rule's ``after_batches`` counts)
        self.free_at = [0.0] * len(self.workers)
        self.batches_done = [0] * len(self.workers)
        self.waiting: deque = deque()
        #: heap of scheduled retries: (ready_at, batch_id, attempt, avoid, events)
        self.retrying: list = []
        self.completed: list[tuple[TraceEvent, float, float]] = []
        self.deadline_shed: list[TraceEvent] = []
        self.failed: list[TraceEvent] = []
        self.busy_s = 0.0
        self.batches = 0
        self.retries = 0

    def _emit(self, event: TraceEvent, stage: str, kind: str, **attrs) -> None:
        ctx = self.ctxs.get(event.index) if self.ctxs is not None else None
        if ctx is not None:
            ctx.emit(stage, kind, **attrs)

    def offer(self, event: TraceEvent) -> bool:
        """Admit at the event's arrival time; False = queue-full refusal.

        The caller (tier loop) owns shed accounting — a refusal here may
        still spill to the next shard on the ring.
        """
        self.drain(until=event.t)
        if len(self.waiting) >= self.spec.queue_depth:
            return False
        self.waiting.append(event)
        if self.ctxs is not None:
            self._emit(
                event, "queue", "enqueue", t=event.t, shard=self.name,
                occupancy=len(self.waiting),
            )
        return True

    def _pick(self, avoid: frozenset = frozenset()) -> int:
        """Earliest-free worker outside ``avoid`` (all, once all avoided)."""
        free_at = self.free_at
        candidates = avoid and [
            j for j, w in enumerate(self.workers) if w.name not in avoid
        ]
        if not candidates:
            return free_at.index(min(free_at))
        return min(candidates, key=free_at.__getitem__)

    def drain(self, until: float = float("inf")) -> None:
        """Run every dispatch due strictly before ``until``.

        Batches later than ``until`` wait: arrivals up to ``until`` may
        still coalesce into them, as late arrivals join the live queue
        before the batcher pops it.  A retry is due when its backoff
        ends and wins a tie, as a live worker's private inbox does.
        """
        while True:
            j = self._pick()
            head = self.waiting[0].t if self.waiting else float("inf")
            start = max(self.free_at[j], head)
            if self.retrying and self.retrying[0][0] <= start:
                if self.retrying[0][0] >= until:
                    return
                ready_at, batch_id, attempt, avoid, events = heapq.heappop(
                    self.retrying
                )
                j = self._pick(avoid)
                start = max(self.free_at[j], ready_at)
                self._attempt(j, start, events, batch_id, attempt, avoid)
                continue
            if start >= until:
                return
            batch, expired = take_batch(
                self.waiting, self.spec.max_batch, start
            )
            for e in expired:
                self._shed_deadline(e, start)
            if not batch:
                continue  # everything at the head was deadline-dead
            batch_id = next(self.batch_ids)
            self.batches += 1
            if self.ctxs is not None:
                for e in batch:
                    self._emit(
                        e, "queue", "wait", t=e.t, dur=start - e.t,
                        shard=self.name,
                    )
                    self._emit(
                        e, "batch", "batch", t=start, batch_id=batch_id,
                        size=len(batch),
                    )
            self._attempt(j, start, batch, batch_id, 1, frozenset())

    def _attempt(
        self, j: int, start: float, events: list[TraceEvent],
        batch_id: int, attempt: int, avoid: frozenset,
    ) -> None:
        """One execute attempt of a batch on worker ``j`` at ``start``.

        A fired batch rule fails it before any device work (no device
        time); otherwise the worker prices the jobs that ran.  A job
        whose deadline passes first is shed at the deadline, as the live
        watchdog sheds it; failed jobs retry as a new batch.
        """
        worker = self.workers[j]
        plan = self.plan
        if plan is not None and plan.batch_rules(
            worker.name, batch_id, self.batches_done[j]
        ):
            ran = [False] * len(events)
            finish = start
        else:
            ran = [
                not e.expired(start)
                and not (plan is not None and plan.job_rules(worker.name, e.seed))
                for e in events
            ]
            kernel, readback = worker.price(events, ran)
            service = float(sum(kernel)) + readback
            finish = start + service
            self.busy_s += service
            self.batches_done[j] += 1
        self.free_at[j] = finish
        retry = []
        traced = self.ctxs is not None
        for e, ok in zip(events, ran):
            if traced:
                self._emit(
                    e, "worker", "execute", t=start, dur=finish - start,
                    status="ok" if ok else "error", worker=worker.name,
                    batch_id=batch_id, attempt=attempt,
                )
            if e.expired(finish):
                self._shed_deadline(e, e.t + e.deadline_s)
            elif ok:
                self.completed.append((e, start, finish))
                if traced:
                    self._emit(
                        e, "request", "complete", t=finish, terminal=True,
                        latency_s=finish - e.t,
                    )
            elif _RETRY.should_retry(_INJECTED, attempt):
                retry.append(e)
            else:
                self.failed.append(e)
                self._emit(
                    e, "request", "failed", t=finish, status="error",
                    terminal=True, latency_s=finish - e.t, attempts=attempt,
                )
        if not retry:
            return
        batch_id = next(self.batch_ids)
        avoid = avoid | {worker.name}
        delay = _RETRY.delay_s(attempt, key=retry[0].index)
        self.retries += len(retry)
        for e in retry:
            self._emit(
                e, "retry", "retry_scheduled", t=finish, attempt=attempt + 1,
                delay_s=delay, avoid=sorted(avoid), batch_id=batch_id,
            )
        heapq.heappush(
            self.retrying, (finish + delay, batch_id, attempt + 1, avoid, retry)
        )

    def _shed_deadline(self, event: TraceEvent, t: float) -> None:
        self.deadline_shed.append(event)
        self._emit(
            event, "request", "deadline", t=t, status="shed", terminal=True,
            latency_s=t - event.t, shard=self.name,
        )


#: slowest-K size for the always-computed p99 exemplar rows
_EXEMPLAR_K = 8


def simulate_tier(
    trace: list[TraceEvent],
    tier: TierSpec | None = None,
    chaos: FaultPlan | None = None,
    rlog=None,
    trace_salt: str = "",
) -> dict:
    """Deterministic virtual-time run of ``trace`` through a tier.

    ``chaos`` is a :class:`~repro.engine.resilience.FaultPlan` of
    ``fail`` rules, drawn for the virtual workers as for live ones.

    The returned report is a pure function of its inputs — same trace,
    same spec, same fault plan, byte-identical dict — and carries
    everything the serving benchmark records per offered-load step:
    completion/shed/failure counts by cause, end-to-end latency summary
    (mean/p50/p95/p99/max), goodput on the virtual clock, per-shard
    assignment counts, and ``p99_exemplars`` — the slowest-K completed
    requests with their trace ids, so a regression in a committed
    baseline's p99 names the exact chains to replay.

    ``rlog`` (defaulting to the globally installed request log, see
    :func:`repro.obs.set_request_log`) turns on full span emission:
    every request's gateway→shard→queue→batch→worker chain lands in the
    log on the virtual clock.  ``trace_salt`` disambiguates trace ids
    when several runs (a sweep's steps) share one log.
    """
    tier = tier or TierSpec()
    for rule in chaos.rules if chaos is not None else ():
        if rule.mode != "fail":
            raise ValueError(
                f"the virtual tier honours only 'fail' rules, got {rule!r}: "
                "kill, wedge and latency act on live breakers and threads"
            )
    if rlog is None:
        rlog = get_request_log()
    names = [f"shard{i}" for i in range(tier.n_shards)]
    ring = ShardRing(names)
    ctxs: dict | None = {} if rlog is not None else None
    batch_ids = itertools.count(1)
    shards = {
        name: _Shard(tier, i, batch_ids, chaos, ctxs)
        for i, name in enumerate(names)
    }
    policy = tier.tenant_policy
    buckets: dict[int, TokenBucket] = defaultdict(
        lambda: TokenBucket(rate=policy.rate, burst=policy.burst)
    )
    throttled: list[TraceEvent] = []
    queue_shed: list[TraceEvent] = []
    spilled = 0
    assignment: list[str] = []
    routes: dict = {}  # batch key → candidates (the ring is fixed)
    for event in sorted(trace, key=lambda e: (e.t, e.index)):
        key = event.batch_key()
        candidates = routes.get(key)
        if candidates is None:
            candidates = routes[key] = ring.preference(key)[: 1 + tier.spill]
        assignment.append(candidates[0])
        ctx = None
        if rlog is not None:
            ctx = rlog.mint(
                (trace_salt, event.index),
                tenant=event.tenant,
                batch_key=key,
                deadline_s=event.deadline_s,
            )
            ctxs[event.index] = ctx
            ctx.emit("gateway", "admit", t=event.t, tenant=event.tenant)
        if not buckets[event.tenant].try_acquire(now=event.t):
            throttled.append(event)
            if ctx is not None:
                ctx.emit(
                    "gateway", "throttled", t=event.t, status="shed",
                    terminal=True, tenant=event.tenant,
                )
            continue
        if ctx is not None:
            ctx.emit(
                "shard", "route", t=event.t,
                shard=candidates[0], candidates=list(candidates),
            )
        for i, name in enumerate(candidates):
            if shards[name].offer(event):
                if i > 0:
                    spilled += 1
                break
            if i + 1 < len(candidates) and ctx is not None:
                ctx.emit(
                    "shard", "spill", t=event.t, status="shed",
                    from_shard=name, to_shard=candidates[i + 1],
                )
        else:
            queue_shed.append(event)
            if ctx is not None:
                ctx.emit(
                    "shard", "queue_full", t=event.t, status="shed",
                    terminal=True,
                )
    for shard in shards.values():
        shard.drain()
    completed = [c for s in shards.values() for c in s.completed]
    latencies = [finish - e.t for e, _, finish in completed]
    makespan = max((finish for _, _, finish in completed), default=0.0)
    n_queue_shed = len(queue_shed)
    n_deadline_shed = sum(len(s.deadline_shed) for s in shards.values())
    n_failed = sum(len(s.failed) for s in shards.values())
    n_retries = sum(s.retries for s in shards.values())
    n_batches = sum(s.batches for s in shards.values())
    offered = len(trace)
    shed_total = len(throttled) + n_queue_shed + n_deadline_shed
    # always-on tail exemplars: trace ids are derivable without a log,
    # so even an untraced benchmark run pins *which* requests were the
    # p99 — the ids match a traced re-run of the same seed exactly
    id_seed = rlog.seed if rlog is not None else 0
    slowest = sorted(
        (
            (finish - e.t, e.index, name)
            for name, s in sorted(shards.items())
            for e, _start, finish in s.completed
        ),
        reverse=True,
    )[:_EXEMPLAR_K]
    p99_exemplars = [
        {
            "trace_id": derive_trace_id(id_seed, (trace_salt, index)),
            "index": index,
            "latency_s": latency,
            "shard": name,
        }
        for latency, index, name in slowest
    ]
    report = {
        "offered_jobs": offered,
        "completed": len(completed),
        "shed_total": shed_total,
        "shed_throttled": len(throttled),
        "shed_queue_full": n_queue_shed,
        "shed_deadline": n_deadline_shed,
        "shed_rate": shed_total / offered if offered else 0.0,
        "failed": n_failed,
        "retries": n_retries,
        "spilled": spilled,
        "latency_s": summarize(latencies),
        "virtual_makespan_s": makespan,
        "throughput_jps": len(completed) / makespan if makespan else 0.0,
        "batches": n_batches,
        "mean_batch_occupancy": (
            len(completed) / n_batches if n_batches else 0.0
        ),
        "device_busy_s": sum(s.busy_s for s in shards.values()),
        "per_shard_completed": {
            name: len(s.completed) for name, s in sorted(shards.items())
        },
        "p99_exemplars": p99_exemplars,
        "assignment": assignment,
    }
    if rlog is not None:
        report["rtrace"] = rlog.snapshot()
    return report


def offered_load_sweep(
    spec: WorkloadSpec,
    multipliers: list[float],
    tier: TierSpec | None = None,
    chaos: FaultPlan | None = None,
) -> list[dict]:
    """One :func:`simulate_tier` step per offered-load multiplier.

    Each step regenerates the trace from the *same* seed at the scaled
    rate — the workload shape (sizes, tenants, burstiness) stays fixed
    while pressure rises, so the latency/shed trajectory is the knee of
    this tier, not sampling noise.  Steps salt their trace ids with the
    multiplier so a sweep sharing one request log never collides.
    """
    steps = []
    for m in multipliers:
        scaled = spec.scaled(m)
        report = simulate_tier(
            generate_trace(scaled), tier, chaos=chaos, trace_salt=f"m{m}"
        )
        report.pop("assignment")  # bulky, per-step records don't need it
        steps.append(
            {"load_multiplier": m, "offered_jps": scaled.rate_jps, **report}
        )
    return steps


# -- wall-clock replay (live gateway + engines) ------------------------------------


def replay_trace(
    gateway,
    trace: list[TraceEvent],
    speedup: float = 1.0,
    max_wait_s: float = 60.0,
) -> dict:
    """Play a trace against a live gateway on the wall clock.

    Arrival timestamps are compressed by ``speedup`` (100 plays a
    100-second trace in about a second).  Every admitted job's future
    is awaited for up to ``max_wait_s`` without being cancelled; one
    still pending then counts as ``unresolved``, not ``failed``.
    Returns outcome counts — wall-clock latencies are *observed* here
    (reported for smoke-test sanity), not asserted on: determinism
    lives in the virtual-time simulator.
    """

    async def _run() -> dict:
        loop = asyncio.get_running_loop()
        start = loop.time()
        outcomes = dict.fromkeys(
            ("completed", "throttled", "queue_shed", "deadline_shed",
             "failed", "unresolved"),
            0,
        )
        latencies: list[float] = []

        async def _one(event: TraceEvent) -> None:
            target = start + event.t / speedup
            delay = target - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            job = job_from_event(event)
            try:
                future = await gateway.submit(event.tenant, job)
            except TenantThrottled:
                outcomes["throttled"] += 1
                return
            except JobDeadlineExceeded:
                outcomes["deadline_shed"] += 1
                return
            except JobQueueFull:
                outcomes["queue_shed"] += 1
                return
            # awaited here, not after the last arrival: the latency is
            # stamped when this request completes; the shield keeps a
            # timeout from cancelling the future into a false failure
            try:
                await asyncio.wait_for(asyncio.shield(future), max_wait_s)
            except JobDeadlineExceeded:
                outcomes["deadline_shed"] += 1
            except Exception:
                outcomes["failed" if future.done() else "unresolved"] += 1
            else:
                outcomes["completed"] += 1
                latencies.append(loop.time() - target)

        await asyncio.gather(*(_one(e) for e in trace))
        outcomes["latency_s"] = summarize(latencies)
        return outcomes

    return asyncio.run(_run())
