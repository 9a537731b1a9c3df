"""Engine accounting: the aggregate report of one engine run.

The engine's :class:`repro.obs.MetricsRegistry` is the only record of
what happened: completions, sheds, retries and batches are its
counters; queue wait, service and total latency and batch occupancy
are its bucketed histograms, so memory and the cost of a report stay
flat however long the engine serves.  :meth:`EngineStats.from_registry`
reads that registry together with the bounded queue's
:class:`repro.core.FifoStats` snapshot and each worker's simulated
device timeline.  Throughput comes in two flavours:

* **wall throughput** — jobs per real second, what a load generator
  observes;
* **modeled throughput** — jobs per simulated device-second of the
  busiest worker (the makespan on the modeled hardware), which is what
  the paper's timing models predict and what the benchmark asserts on
  (deterministic, immune to host scheduling noise).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable

from repro.core.stream import FifoStats
from repro.obs.metrics import MetricsRegistry

__all__ = ["WorkerStats", "EngineStats"]


@dataclass(frozen=True)
class WorkerStats:
    """One device worker's share of the run."""

    name: str
    device: str
    jobs: int
    batches: int
    device_busy_s: float  # simulated device-timeline occupancy


@dataclass
class EngineStats:
    """Aggregate report of one engine run."""

    jobs_completed: int
    jobs_shed: int
    batches: int
    mean_batch_occupancy: float
    max_batch_occupancy: int
    #: histogram snapshots over completed jobs: count/sum/mean/max are
    #: exact, p50/p95/p99 bucket estimates (see repro.obs.Histogram)
    queue_wait_s: dict[str, float]
    service_s: dict[str, float]
    total_s: dict[str, float]
    wall_seconds: float
    modeled_makespan_s: float  # busiest worker's simulated timeline
    device_busy_s: float  # modeled device time, summed over all workers
    queue: FifoStats
    jobs_deadline_shed: int = 0  # handles failed with JobDeadlineExceeded
    retries: int = 0  # job re-dispatches after worker faults
    breakers: dict = field(default_factory=dict)  # worker -> breaker snapshot
    faults_injected: dict = field(default_factory=dict)  # mode -> count
    workers: list[WorkerStats] = field(default_factory=list)
    #: slowest-K completed jobs with their trace ids (traced runs only):
    #: [{total_s, job_id, trace_id, worker, batch_id}], slowest first —
    #: the debuggable handle behind a BENCH p99 row
    latency_exemplars: list[dict] = field(default_factory=list)
    #: head-sampling rate of the request log that produced the
    #: exemplars (None = request tracing was off)
    trace_sampling: float | None = None

    @classmethod
    def from_registry(
        cls,
        metrics: MetricsRegistry,
        workers: Iterable,
        wall_seconds: float,
        queue: FifoStats,
        **extra,
    ) -> "EngineStats":
        """The report an engine's ``metrics`` registry describes.

        ``workers`` are the engine's
        :class:`~repro.engine.pool.DeviceWorker` objects, whose modeled
        timelines give the makespan; ``extra`` fills the remaining
        optional fields (breakers, faults, exemplars).
        """
        count = metrics.counter
        occupancy = metrics.histogram("batch_occupancy").snapshot()
        worker_stats = [
            WorkerStats(
                name=w.name,
                device=w.device_name,
                jobs=w.jobs_done,
                batches=w.batches_done,
                device_busy_s=w.device_busy_s,
            )
            for w in workers
        ]
        busy = [w.device_busy_s for w in worker_stats]
        return cls(
            jobs_completed=count("jobs_completed").value,
            jobs_shed=count("jobs_shed").value,
            batches=count("batches").value,
            mean_batch_occupancy=occupancy["mean"],
            max_batch_occupancy=int(occupancy["max"]),
            queue_wait_s=metrics.histogram("queue_wait_s").snapshot(),
            service_s=metrics.histogram("service_s").snapshot(),
            total_s=metrics.histogram("total_s").snapshot(),
            wall_seconds=wall_seconds,
            modeled_makespan_s=max(busy, default=0.0),
            device_busy_s=sum(busy),
            queue=queue,
            jobs_deadline_shed=count("jobs_deadline_shed").value,
            retries=count("job_retries").value,
            workers=worker_stats,
            **extra,
        )

    # -- derived ----------------------------------------------------------------

    @property
    def wall_throughput_jps(self) -> float:
        """Jobs per real second."""
        return self.jobs_completed / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def modeled_throughput_jps(self) -> float:
        """Jobs per simulated device-second of makespan (deterministic)."""
        if not self.modeled_makespan_s:
            return 0.0
        return self.jobs_completed / self.modeled_makespan_s

    def to_dict(self) -> dict:
        """Plain-dict form for ``--json`` output and trace/metrics sinks."""
        return {
            "jobs_completed": self.jobs_completed,
            "jobs_shed": self.jobs_shed,
            "batches": self.batches,
            "mean_batch_occupancy": self.mean_batch_occupancy,
            "max_batch_occupancy": self.max_batch_occupancy,
            "queue_wait_s": dict(self.queue_wait_s),
            "service_s": dict(self.service_s),
            "total_s": dict(self.total_s),
            "wall_seconds": self.wall_seconds,
            "modeled_makespan_s": self.modeled_makespan_s,
            "device_busy_s": self.device_busy_s,
            "wall_throughput_jps": self.wall_throughput_jps,
            "modeled_throughput_jps": self.modeled_throughput_jps,
            "queue": self.queue.to_dict(),
            "jobs_deadline_shed": self.jobs_deadline_shed,
            "retries": self.retries,
            "breakers": {name: dict(snap) for name, snap in self.breakers.items()},
            "faults_injected": dict(self.faults_injected),
            "workers": [asdict(w) for w in self.workers],
            "latency_exemplars": [dict(e) for e in self.latency_exemplars],
            "trace_sampling": self.trace_sampling,
        }

    def render(self) -> str:
        lines = [
            f"jobs: {self.jobs_completed} completed, {self.jobs_shed} shed, "
            f"{self.batches} batches "
            f"(occupancy mean {self.mean_batch_occupancy:.2f}, "
            f"max {self.max_batch_occupancy})",
            f"queue: depth {self.queue.depth}, "
            f"high-water {self.queue.high_water}, "
            f"submit stalls {self.queue.write_stalls}, "
            f"empty polls {self.queue.read_stalls}",
            f"latency [ms]: wait {1e3 * self.queue_wait_s['mean']:.2f} "
            f"(p95 {1e3 * self.queue_wait_s['p95']:.2f}, "
            f"p99 {1e3 * self.queue_wait_s.get('p99', 0.0):.2f}), "
            f"service {1e3 * self.service_s['mean']:.2f}, "
            f"total {1e3 * self.total_s['mean']:.2f} "
            f"(p99 {1e3 * self.total_s.get('p99', 0.0):.2f})",
            f"modeled: makespan {1e3 * self.modeled_makespan_s:.2f} ms, "
            f"throughput {self.modeled_throughput_jps:.1f} jobs/s",
        ]
        if self.jobs_deadline_shed or self.retries or self.faults_injected:
            faults = (
                ", ".join(
                    f"{mode} x{count}"
                    for mode, count in sorted(self.faults_injected.items())
                )
                or "none"
            )
            lines.append(
                f"resilience: {self.jobs_deadline_shed} deadline shed, "
                f"{self.retries} retries, faults injected: {faults}"
            )
        for name, snap in sorted(self.breakers.items()):
            if not snap.get("transitions"):
                continue
            lines.append(
                f"  breaker {name}: {snap.get('state')}, "
                f"opened {snap.get('times_opened', 0)}x, "
                f"{snap.get('failures', 0)} failures / "
                f"{snap.get('successes', 0)} successes"
            )
        for w in self.workers:
            lines.append(
                f"  worker {w.name} [{w.device}]: {w.jobs} jobs in "
                f"{w.batches} batches, device busy "
                f"{1e3 * w.device_busy_s:.2f} ms"
            )
        return "\n".join(lines)

