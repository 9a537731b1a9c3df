"""DATAFLOW region: cycle-level co-simulation of concurrent processes.

Section III-A: "The DATAFLOW pragma [11], [12] schedules the work-items
in parallel, under the constraint that each variable has a single
producer-consumer pair."  This module models that region:

* every :class:`~repro.core.stream.Stream` must have exactly one
  producing and one consuming process (validated at construction, the
  same check Vivado HLS performs),
* all processes advance in lock-step, one clock cycle per step, in
  topological (producer-before-consumer) order so that a token written
  in cycle *t* can be consumed in cycle *t* by a downstream process —
  matching the concurrent start semantics of the pragma ("all
  work-items are triggered at t0", Fig 3),
* a shared :class:`~repro.core.memory.MemoryChannel` (if attached) is
  ticked once per cycle after the processes,
* deadlock (no process progresses, none done) raises with a full state
  dump instead of hanging.

Every run goes through the event-driven
:class:`~repro.core.scheduler.CycleKernel`, which parks blocked
processes instead of ticking them.  A traced run (an enabled tracer or
an explicit attribution) sets a
:class:`~repro.obs.stall.StallAttribution` as the kernel's observer;
its trace and report are identical to a reference-loop run's
(``docs/simulator_fastpath.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.graph import stream_endpoints, topological_order
from repro.core.process import Process
from repro.core.scheduler import CycleKernel, DeadlockError
from repro.core.stream import Stream
from repro.obs import get_tracer
from repro.obs.stall import StallAttribution, StallReport

__all__ = ["DataflowRegion", "DataflowError", "DeadlockError", "RegionReport"]


class DataflowError(ValueError):
    """Invalid region wiring (violates the single producer-consumer rule)."""


class _Runtime:
    """Wall-time views of a report's ``cycles``."""

    def runtime_seconds(self, frequency_hz: float) -> float:
        """Convert the cycle count to wall time at a clock frequency."""
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        return self.cycles / frequency_hz

    def runtime_ms(self, frequency_hz: float) -> float:
        return 1e3 * self.runtime_seconds(frequency_hz)


def stream_fields(s: Stream) -> dict:
    """One stream's ``stream_stats`` entry (regions and pipelines)."""
    return {
        "depth": s.depth,
        "high_water": s.high_water,
        "total_writes": s.total_writes,
        "total_reads": s.total_reads,
        "write_stalls": s.write_stalls,
        "read_stalls": s.read_stalls,
    }


def stuck_lines(processes, indent: str) -> list[str]:
    """Deadlock-message lines for the unfinished ``processes``."""
    lines = []
    for p in processes:
        if not p.done():
            lines.append(f"{indent}stuck: {p!r}")
            lines += [f"{indent}  in  {s!r}" for s in p.inputs()]
            lines += [f"{indent}  out {s!r}" for s in p.outputs()]
    return lines


@dataclass
class RegionReport(_Runtime):
    """Result of a region run."""

    cycles: int
    process_stats: dict[str, "object"] = field(default_factory=dict)
    stream_stats: dict[str, dict] = field(default_factory=dict)
    #: per-cycle stall attribution; only populated on traced runs (a
    #: tracer was enabled or an attribution was passed to ``run``)
    stall_report: StallReport | None = None


class DataflowRegion:
    """A set of processes wired by streams, executed cycle by cycle."""

    def __init__(self, name: str = "dataflow"):
        self.name = name
        self._processes: list[Process] = []
        self._memory_channels: list = []
        self._validated = False
        #: cycles of the last run in which no process ticked
        self.skipped_cycles = 0
        #: ``tick`` calls the last run issued, over all processes
        self.ticks_issued = 0

    # -- construction ------------------------------------------------------------

    def add(self, process: Process) -> Process:
        """Register a process; returns it for chaining."""
        if any(p.name == process.name for p in self._processes):
            raise DataflowError(f"duplicate process name {process.name!r}")
        self._processes.append(process)
        self._validated = False
        return process

    def attach_memory_channel(self, channel) -> None:
        """Attach a device-global-memory channel.

        The paper's board exposes one channel; calling this more than
        once models the "further customizations of the memory
        controller" extension the conclusion suggests — multiple ports
        ticked concurrently.
        """
        self._memory_channels.append(channel)

    @property
    def memory_channels(self) -> tuple:
        return tuple(self._memory_channels)

    @property
    def processes(self) -> tuple[Process, ...]:
        return tuple(self._processes)

    def _validate(self) -> list[Process]:
        """Enforce single producer/consumer per stream; topo-sort processes."""
        producers, consumers = stream_endpoints(
            [(p,) for p in self._processes], DataflowError
        )
        order = topological_order(
            len(self._processes),
            [(producers[s][0], consumers[s][0]) for s in producers if s in consumers],
        )
        if order is None:
            raise DataflowError(
                f"region {self.name!r} contains a stream cycle; DATAFLOW "
                "requires a feed-forward process network"
            )
        self._validated = True
        return [self._processes[i] for i in order]

    # -- execution ------------------------------------------------------------------

    def run(
        self,
        max_cycles: int = 100_000_000,
        tracer=None,
        attribution: StallAttribution | None = None,
        *,
        fast_path: bool | None = None,
    ) -> RegionReport:
        """Run until every process is done; returns the cycle report.

        Parameters
        ----------
        tracer:
            Explicit :class:`repro.obs.Tracer`; ``None`` resolves the
            global tracer (:func:`repro.obs.get_tracer`).  An enabled
            tracer attributes the run (``report.stall_report``).
        attribution:
            An externally owned :class:`~repro.obs.StallAttribution`
            (``trace_region`` passes one with lane capture); attributes
            the run regardless of the tracer.
        fast_path:
            Park blocked processes and skip dead cycles (default: on).
            ``False`` forces the reference one-cycle-at-a-time loop —
            the differential-equivalence suite runs both and asserts
            identical reports, stall attribution and traces.

        Raises
        ------
        DeadlockError
            If a full cycle passes with zero progress anywhere.
        RuntimeError
            If ``max_cycles`` elapse first (runaway guard).
        """
        if not self._processes:
            raise DataflowError("region has no processes")
        ordered = self._validate()
        if attribution is None:
            if tracer is None:
                tracer = get_tracer()
            if tracer.enabled:
                attribution = StallAttribution(self.name, tracer=tracer)
        kernel = CycleKernel(
            ordered, self._memory_channels, park=fast_path is not False
        )
        kernel.observer = attribution
        try:
            cycles = kernel.run(
                max_cycles, f"region {self.name!r}", self._deadlock_message
            )
        finally:
            self.skipped_cycles = kernel.skipped_cycles
            self.ticks_issued = kernel.ticks_issued
        report = self._report(cycles)
        if attribution is not None:
            report.stall_report = attribution.report()
        return report

    def _deadlock_message(self, cycle: int) -> str:
        lines = [f"deadlock in region {self.name!r} at cycle {cycle}:"]
        lines += stuck_lines(self._processes, "  ")
        for channel in self._memory_channels:
            lines.append(f"  channel: {channel!r}")
        return "\n".join(lines)

    def _report(self, cycles: int) -> RegionReport:
        streams = {
            s.name: stream_fields(s)
            for p in self._processes
            for s in (*p.inputs(), *p.outputs())
        }
        stats = {p.name: p.stats for p in self._processes}
        for i, channel in enumerate(self._memory_channels):
            stats[f"__memory_channel_{i}__"] = channel.stats
        return RegionReport(
            cycles=cycles,
            process_stats=stats,
            stream_stats=streams,
        )
