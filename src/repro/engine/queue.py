"""Bounded job queue with backpressure — ``hls::stream`` at the serving layer.

Section III-A introduces blocking bounded FIFOs between decoupled
pipeline stages: a full stream back-pressures the producer, an empty one
stalls the consumer.  The engine admits jobs through the same contract.
A full queue either *blocks* the submitting thread (the hardware
semantics) or *sheds* it with the typed :class:`JobQueueFull` error (the
serving-layer policy a load balancer needs), and the accounting — high
water, stall tallies — lands in the same :class:`repro.core.FifoStats`
dataclass the hardware streams report, so FIFO depth sizing analysis
works identically at both layers.

The consumer side pops one coalesced batch at a time through
:func:`take_batch`, the one batch-formation rule: the virtual tier in
:mod:`repro.serve.loadgen` runs it on its own deques, so both tiers
coalesce and shed expired jobs identically.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Hashable

from repro.core.stream import FifoStats
from repro.engine.jobs import Job

__all__ = [
    "BoundedJobQueue",
    "EngineError",
    "JobQueueClosed",
    "JobQueueFull",
    "SubmitTimeout",
    "take_batch",
]


class EngineError(RuntimeError):
    """Base class of all typed engine errors."""


class JobQueueFull(EngineError):
    """Admission shed: the bounded queue was full under the shed policy."""


class JobQueueClosed(EngineError):
    """Submit after shutdown began (the queue no longer admits work)."""


class SubmitTimeout(EngineError):
    """Blocking admission exceeded its timeout while the queue was full."""


class BoundedJobQueue:
    """Thread-safe bounded FIFO of :class:`Job` entries.

    Parameters
    ----------
    depth:
        Capacity; submissions beyond it experience backpressure.
    name:
        Identifier in stats and error messages.
    """

    def __init__(self, depth: int = 64, name: str = "job_queue"):
        if depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {depth}")
        self.name = name
        self.depth = depth
        self._fifo: deque[Job] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        # accounting (FifoStats vocabulary)
        self.total_writes = 0
        self.total_reads = 0
        self.write_stalls = 0
        self.read_stalls = 0
        self.high_water = 0
        # observability (attach_tracer wires these)
        self.tracer = None
        self._track = None

    def attach_tracer(
        self, tracer, process: str = "engine", thread: str = "admission"
    ) -> None:
        """Emit occupancy counters and shed instants through ``tracer``."""
        self.tracer = tracer
        self._track = tracer.track(process, thread) if tracer.enabled else None

    def _emit_occupancy(self) -> None:
        if self._track is not None:
            self.tracer.counter(
                self._track, "queue_occupancy",
                {"occupancy": len(self._fifo)},
            )

    # -- state ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._fifo)

    @property
    def occupancy(self) -> int:
        return len(self)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def stats(self) -> FifoStats:
        """Snapshot in the shared FIFO-accounting vocabulary."""
        with self._lock:
            return FifoStats(
                name=self.name,
                depth=self.depth,
                occupancy=len(self._fifo),
                total_writes=self.total_writes,
                total_reads=self.total_reads,
                write_stalls=self.write_stalls,
                read_stalls=self.read_stalls,
                high_water=self.high_water,
            )

    # -- producer side ----------------------------------------------------------

    def put(
        self,
        job: Job,
        block: bool = True,
        timeout: float | None = None,
    ) -> None:
        """Admit one job.

        With ``block=True`` a full queue stalls the caller until space
        frees (raising :class:`SubmitTimeout` after ``timeout`` seconds);
        with ``block=False`` it sheds immediately with
        :class:`JobQueueFull`.  Either way the stall is tallied — that is
        the backpressure signal queue-depth sizing reads.
        """
        with self._not_full:
            if self._closed:
                raise JobQueueClosed(f"queue {self.name!r} is closed")
            if len(self._fifo) >= self.depth:
                self.write_stalls += 1
                if not block:
                    if self._track is not None:
                        self.tracer.instant(
                            self._track, "shed",
                            args={"job_id": job.job_id},
                        )
                    raise JobQueueFull(
                        f"queue {self.name!r} full (depth={self.depth}); "
                        "admission shed"
                    )
                deadline = (
                    None if timeout is None else time.monotonic() + timeout
                )
                while len(self._fifo) >= self.depth:
                    # closed wins over an expired timeout: a submitter
                    # racing shutdown sees JobQueueClosed, never a
                    # SubmitTimeout that misreports the queue's state
                    if self._closed:
                        raise JobQueueClosed(
                            f"queue {self.name!r} is closed"
                        )
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        raise SubmitTimeout(
                            f"queue {self.name!r} stayed full for "
                            f"{timeout:.3f}s"
                        )
                    self._not_full.wait(remaining)
                if self._closed:
                    raise JobQueueClosed(f"queue {self.name!r} is closed")
            self._fifo.append(job)
            self.total_writes += 1
            if len(self._fifo) > self.high_water:
                self.high_water = len(self._fifo)
            self._emit_occupancy()
            self._not_empty.notify()

    def close(self) -> None:
        """Stop admitting; pending jobs remain readable (graceful drain).

        Both conditions are notified so that producers blocked in
        :meth:`put` raise :class:`JobQueueClosed` promptly and
        consumers blocked in :meth:`get_batch` return immediately —
        nobody hangs until their timeout.
        """
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    # -- consumer side ----------------------------------------------------------

    def get_batch(
        self,
        max_size: int = 1,
        timeout: float | None = None,
    ) -> tuple[list[Job], list[Job]]:
        """Pop ``(batch, expired)``: :func:`take_batch` at the current time.

        The rule runs under the queue lock with ``time.monotonic()``.
        Returns ``([], [])`` once the queue is closed and drained, or
        when ``timeout`` elapses with nothing available (an empty poll
        is tallied as a read stall, mirroring ``Stream.can_read``).
        Expired jobs count as reads: they left the queue.
        """
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        with self._not_empty:
            if not self._fifo:
                if self._closed:
                    return [], []
                self.read_stalls += 1
                # monotonic deadline (the same pattern as put): each
                # spurious or irrelevant wakeup resumes the *remaining*
                # wait instead of restarting the full timeout, and an
                # early wakeup with nothing available keeps waiting
                # instead of returning a premature empty poll
                deadline = (
                    None if timeout is None else time.monotonic() + timeout
                )
                while not self._fifo and not self._closed:
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        return [], []
                    self._not_empty.wait(remaining)
                if not self._fifo:
                    return [], []
            batch, expired = take_batch(self._fifo, max_size, time.monotonic())
            self.total_reads += len(batch) + len(expired)
            self._emit_occupancy()
            self._not_full.notify_all()
            return batch, expired


def take_batch(fifo: deque, max_size: int, now: float) -> tuple[list, list]:
    """Pop one coalesced batch off ``fifo``; return ``(batch, expired)``.

    The serving analogue of §III-E buffer combining, shared by the live
    queue and the virtual tier: the first unexpired job at the head
    fixes the batch key, and later waiters with that key join in FIFO
    order up to ``max_size``.  A head or joining job whose deadline has
    passed at ``now`` goes to ``expired`` instead of taking a slot.
    Every other job keeps its place and order in ``fifo``.  Jobs need
    ``batch_key()`` and ``expired(now)``.
    """
    batch: list = []
    expired: list = []
    while fifo:
        head = fifo.popleft()
        if head.expired(now):
            expired.append(head)
        else:
            batch.append(head)
            break
    if not batch:
        return batch, expired
    key: Hashable = batch[0].batch_key()
    kept: list = []
    while fifo and len(batch) < max_size:
        job = fifo.popleft()
        if job.batch_key() != key:
            kept.append(job)
        elif job.expired(now):
            expired.append(job)
        else:
            batch.append(job)
    fifo.extendleft(reversed(kept))
    return batch, expired
