"""Context and in-order command queue over a simulated timeline.

The queue gives the experiments the same host-side vocabulary the paper
uses: pre-declare buffers, enqueue writes, launch the kernel as a Task
or NDRange, enqueue the readback, then wait on the events.  Every
command advances a simulated clock; durations come from

* the device's PCIe link parameters for buffer traffic, and
* a per-kernel *time model* (supplied by :mod:`repro.devices`) for
  kernel executions.

Commands execute functionally at enqueue time (the queue is in-order,
so eager execution is observationally equivalent), while the event
timestamps describe the asynchronous timeline the host would observe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.opencl.buffer import Buffer, MemFlag
from repro.opencl.event import CommandType, Event, EventStatus
from repro.opencl.ndrange import NDRange
from repro.opencl.platform import Device, Platform

__all__ = ["Context", "CommandQueue", "KernelHandle"]


@dataclass(frozen=True)
class KernelHandle:
    """A compiled kernel: functional body + timing model.

    Parameters
    ----------
    name:
        Kernel name (diagnostics, event labels).
    body:
        ``body(device, ndrange, **args) -> None`` — functional effect on
        the argument buffers.  ``ndrange`` is None for Task launches.
    time_model:
        ``time_model(device, ndrange, **args) -> float`` — execution
        seconds on the simulated device.
    """

    name: str
    body: Callable | None = None
    time_model: Callable | None = None

    def duration(self, device: Device, ndrange: NDRange | None, args: dict) -> float:
        if self.time_model is None:
            return 0.0
        seconds = float(self.time_model(device, ndrange, **args))
        if seconds < 0:
            raise ValueError(f"kernel {self.name!r} returned negative runtime")
        return seconds

    def run(self, device: Device, ndrange: NDRange | None, args: dict) -> None:
        if self.body is not None:
            self.body(device, ndrange, **args)


class Context:
    """An OpenCL context: one platform, one selected device."""

    def __init__(self, platform: Platform, device: Device | str):
        self.platform = platform
        self.device = (
            platform.device(device) if isinstance(device, str) else device
        )
        self._buffers: list[Buffer] = []

    def create_buffer(
        self,
        name: str,
        size_bytes: int,
        flags: MemFlag = MemFlag.READ_WRITE,
    ) -> Buffer:
        buf = Buffer(name, size_bytes, flags)
        self._buffers.append(buf)
        return buf

    def create_queue(self) -> "CommandQueue":
        return CommandQueue(self)

    @property
    def buffers(self) -> tuple[Buffer, ...]:
        return tuple(self._buffers)


class CommandQueue:
    """Command queue with profiling-grade timestamps.

    In-order by default (the paper's usage).  With
    ``out_of_order=True`` the queue models CL_QUEUE_OUT_OF_ORDER
    semantics: commands are ordered only by their ``wait_for`` event
    lists and by engine availability.  The device exposes two engines —
    a *compute* engine executing kernels and a *copy* (DMA) engine
    moving buffers — so an out-of-order queue can overlap a transfer
    with a running kernel, the standard double-buffering pattern.

    Functional effects still apply at enqueue time in program order;
    out-of-order timing therefore requires enqueues to respect data
    dependencies through ``wait_for`` (validated: waited-on events must
    already exist on this queue).
    """

    #: which engine serializes each command type
    _ENGINES = {
        CommandType.WRITE_BUFFER: "copy",
        CommandType.READ_BUFFER: "copy",
        CommandType.NDRANGE_KERNEL: "compute",
        CommandType.TASK: "compute",
        CommandType.MARKER: "sync",
    }

    def __init__(self, context: Context, out_of_order: bool = False):
        self.context = context
        self.device = context.device
        self.out_of_order = out_of_order
        self._engine_ready = {"compute": 0.0, "copy": 0.0}
        self._last_end = 0.0
        self.events: list[Event] = []

    # -- timeline helpers --------------------------------------------------------

    @property
    def now(self) -> float:
        """Completion time of everything enqueued so far, in seconds."""
        return max(self._last_end, *self._engine_ready.values())

    def _issue(
        self,
        event: Event,
        duration: float,
        wait_for: list[Event] | None = None,
    ) -> Event:
        wait_for = wait_for or []
        for dep in wait_for:
            if dep not in self.events:
                raise ValueError(
                    f"wait_for event {dep.label!r} was not enqueued on "
                    "this queue"
                )
        deps_end = max((e.time_end for e in wait_for), default=0.0)
        engine = self._ENGINES[event.command]
        if engine == "sync":
            # markers wait for everything and block nothing
            start = max(self.now, deps_end)
        else:
            start = max(self._engine_ready[engine], deps_end)
            if not self.out_of_order:
                start = max(start, self._last_end)
        event.time_queued = min(start, self._last_end)
        event.complete(start, start + duration)
        if engine != "sync":
            self._engine_ready[engine] = event.time_end
        self._last_end = max(self._last_end, event.time_end)
        self.events.append(event)
        return event

    # -- commands -------------------------------------------------------------------

    def enqueue_write_buffer(
        self,
        buffer: Buffer,
        payload: np.ndarray,
        offset_bytes: int = 0,
        wait_for: list[Event] | None = None,
    ) -> Event:
        """Host → device transfer over the PCIe model."""
        arr = np.ascontiguousarray(payload)
        buffer.store(offset_bytes, arr)
        event = Event(CommandType.WRITE_BUFFER, label=buffer.name)
        event.info["bytes"] = arr.nbytes
        return self._issue(event, self.device.pcie_seconds(arr.nbytes), wait_for)

    def enqueue_read_buffer(
        self,
        buffer: Buffer,
        nbytes: int | None = None,
        offset_bytes: int = 0,
        out: np.ndarray | None = None,
        wait_for: list[Event] | None = None,
    ) -> Event:
        """Device → host transfer; the payload rides on ``event.info``.

        With ``out`` given, the payload is also written into that host
        array (documenting the §III-E destination-offset pattern).
        """
        if nbytes is None:
            nbytes = buffer.size_bytes - offset_bytes
        words = buffer.load(offset_bytes, nbytes)
        if out is not None:
            flat = out.view(np.uint32).ravel()
            if flat.size < words.size:
                raise ValueError("host destination too small for readback")
            flat[: words.size] = words
        event = Event(CommandType.READ_BUFFER, label=buffer.name)
        event.info["bytes"] = nbytes
        event.info["data"] = words
        return self._issue(event, self.device.pcie_seconds(nbytes), wait_for)

    def enqueue_ndrange_kernel(
        self,
        kernel: KernelHandle,
        ndrange: NDRange,
        wait_for: list[Event] | None = None,
        **args,
    ) -> Event:
        kernel.run(self.device, ndrange, args)
        event = Event(CommandType.NDRANGE_KERNEL, label=kernel.name)
        event.info["ndrange"] = ndrange
        return self._issue(
            event, kernel.duration(self.device, ndrange, args), wait_for
        )

    def enqueue_task(
        self,
        kernel: KernelHandle,
        wait_for: list[Event] | None = None,
        **args,
    ) -> Event:
        """Single-threaded kernel launch — how SDAccel runs .c kernels."""
        kernel.run(self.device, None, args)
        event = Event(CommandType.TASK, label=kernel.name)
        return self._issue(
            event, kernel.duration(self.device, None, args), wait_for
        )

    def enqueue_marker(self, label: str = "") -> Event:
        """Zero-duration marker (the power-protocol timeline anchors)."""
        return self._issue(Event(CommandType.MARKER, label=label), 0.0)

    def finish(self) -> float:
        """Block until all commands complete; returns the current time."""
        return self.now

    # -- reporting ------------------------------------------------------------------

    def export_trace(
        self,
        tracer,
        process: str = "devices (modeled)",
        thread: str = "queue",
        events: list[Event] | None = None,
        cat: str = "modeled",
    ) -> int:
        """Emit completed events as spans on the modeled timeline.

        One ``ph="X"`` span per event at ``time_start``/``duration``
        scaled to microseconds — the ``cat="modeled"`` clock domain of
        :mod:`repro.obs.tracer` (1 µs of trace time == 1 µs of simulated
        device time, deterministic).  Pass ``events`` to export a slice
        (e.g. just the commands of one batch); returns the span count.
        """
        if not tracer.enabled:
            return 0
        track = tracer.track(process, thread)
        count = 0
        for e in self.events if events is None else events:
            if e.status is not EventStatus.COMPLETE:
                continue
            tracer.complete(
                track,
                e.label or e.command.value,
                ts_us=e.time_start * 1e6,
                dur_us=e.duration * 1e6,
                cat=cat,
                args={"command": e.command.value},
            )
            count += 1
        return count

    def profile(self) -> list[dict]:
        """Profiling table of all completed events."""
        return [
            {
                "label": e.label,
                "command": e.command.value,
                "start": e.time_start,
                "end": e.time_end,
                "duration": e.duration,
            }
            for e in self.events
            if e.status is EventStatus.COMPLETE
        ]
