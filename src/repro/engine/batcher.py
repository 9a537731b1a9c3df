"""Request coalescing: compatible jobs merge into one device batch.

The paper's §III-E weighs N per-work-item buffers (N PCIe round trips)
against one combined device buffer (a single read request) and picks the
latter.  The batcher applies the same economics one level up: jobs whose
:meth:`~repro.engine.jobs.Job.batch_key` match are drained from the
bounded queue together and dispatched as *one* device transaction — one
kernel enqueue, one readback — so the per-request fixed costs (kernel
launch, PCIe latency) amortize across the batch.  Which jobs coalesce
is :func:`repro.engine.queue.take_batch`'s rule; jobs whose deadline
passed while queued are shed there without taking a batch slot.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable, Hashable

from repro.engine.jobs import Job
from repro.engine.queue import BoundedJobQueue

__all__ = ["Batch", "Batcher"]

_batch_ids = itertools.count(1)
_batch_ids_lock = threading.Lock()


@dataclass
class Batch:
    """One coalesced device transaction.

    ``attempt`` counts dispatches of this job set (1 = first try;
    retries of a failed attempt re-batch with ``attempt + 1``), and
    ``avoid`` names workers a retry must steer away from (the ones
    that already failed it).
    """

    jobs: list[Job]
    attempt: int = 1
    avoid: frozenset[str] = frozenset()
    batch_id: int = field(
        default_factory=lambda: _next_batch_id(), init=False
    )

    def __post_init__(self):
        if not self.jobs:
            raise ValueError("a batch needs at least one job")

    @property
    def key(self) -> Hashable:
        return self.jobs[0].batch_key()

    @property
    def size(self) -> int:
        return len(self.jobs)

    def result_bytes(self) -> int:
        return sum(job.result_bytes() for job in self.jobs)


def _next_batch_id() -> int:
    with _batch_ids_lock:
        return next(_batch_ids)


class Batcher:
    """Drains a :class:`BoundedJobQueue` into :class:`Batch` objects.

    Parameters
    ----------
    queue:
        The admission queue to drain.
    max_batch:
        Occupancy ceiling per batch; 1 disables coalescing (the serial
        one-job-per-transaction baseline).
    on_expired:
        Called (from the dispatcher thread, outside the queue lock) with
        each job whose deadline passed while it waited in the queue;
        expired jobs are shed instead of occupying a batch slot and
        device time.
    """

    def __init__(
        self,
        queue: BoundedJobQueue,
        max_batch: int = 8,
        on_expired: Callable[[Job], None] | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.queue = queue
        self.max_batch = max_batch
        self.on_expired = on_expired
        self.tracer = None
        self._track = None

    def attach_tracer(
        self, tracer, process: str = "engine", thread: str = "batcher"
    ) -> None:
        """Emit a batch-formed instant per coalesced batch."""
        self.tracer = tracer
        self._track = tracer.track(process, thread) if tracer.enabled else None

    def next_batch(self, timeout: float | None = 0.1) -> Batch | None:
        """The next coalesced batch, or None when nothing is available.

        Returns None on a timeout with an empty queue, once the queue
        is closed and fully drained (the shutdown signal the dispatcher
        loop watches for), and when everything drained this round had
        already expired (the jobs are shed via ``on_expired`` rather
        than occupying batch slots).
        """
        jobs, expired = self.queue.get_batch(self.max_batch, timeout=timeout)
        if self.on_expired is not None:
            for job in expired:
                self.on_expired(job)
        if not jobs:
            return None
        batch = Batch(jobs=jobs)
        if self._track is not None:
            self.tracer.instant(
                self._track, "batch_formed",
                args={
                    "batch_id": batch.batch_id,
                    "size": batch.size,
                    "key": str(batch.key),
                },
            )
        return batch
