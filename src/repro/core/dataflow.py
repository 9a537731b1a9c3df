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

Untraced runs go through the event-driven
:class:`~repro.core.scheduler.CycleKernel`, which parks blocked
processes instead of ticking them.  Instrumented runs (tracer or
explicit attribution) skip windows in which every process waits,
emitting each as one bulk
:meth:`~repro.obs.stall.StallAttribution.skip_window` span with a
trace/report identical to the reference loop's
(``docs/simulator_fastpath.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from repro.core.process import Process
from repro.core.scheduler import CycleKernel, DeadlockError
from repro.core.stream import Stream
from repro.obs import get_tracer
from repro.obs import stall as _stall
from repro.obs.stall import StallAttribution, StallReport

__all__ = ["DataflowRegion", "DataflowError", "DeadlockError", "RegionReport"]


class DataflowError(ValueError):
    """Invalid region wiring (violates the single producer-consumer rule)."""


#: Deprecated alias key for the first memory channel's stats (see
#: :class:`_ProcessStatsMap`).
LEGACY_CHANNEL_KEY = "__memory_channel__"


class _ProcessStatsMap(dict):
    """``RegionReport.process_stats`` mapping with a legacy alias.

    Channel stats live under indexed keys (``__memory_channel_0__``,
    ``__memory_channel_1__``, …).  The pre-multi-channel key
    ``__memory_channel__`` still *resolves* — to channel 0 — for old
    callers, but it is not stored: iteration, ``len`` and equality see
    each :class:`~repro.core.memory.ChannelStats` exactly once, so
    aggregations over ``process_stats.values()`` no longer double-count
    the first channel.

    The alias covers the whole mapping surface — ``[]``, ``get``,
    ``in``, ``pop``, ``setdefault`` — and :meth:`copy` returns another
    alias-aware map.  The one spot the alias cannot reach is a plain
    ``dict(process_stats)`` copy: CPython's dict-from-dict fast path
    copies stored items only, so the plain copy holds channel 0 exactly
    once, under its indexed key.
    """

    @staticmethod
    def _resolve(key):
        return "__memory_channel_0__" if key == LEGACY_CHANNEL_KEY else key

    def __missing__(self, key):
        if key == LEGACY_CHANNEL_KEY:
            return self["__memory_channel_0__"]
        raise KeyError(key)

    def __contains__(self, key) -> bool:
        if dict.__contains__(self, key):
            return True
        return key == LEGACY_CHANNEL_KEY and dict.__contains__(
            self, "__memory_channel_0__"
        )

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    _POP_MISSING = object()

    def pop(self, key, default=_POP_MISSING):
        # popping the legacy alias pops the canonical key, so the alias
        # stops resolving afterwards (there is nothing left to alias)
        try:
            return dict.pop(self, self._resolve(key))
        except KeyError:
            if default is not self._POP_MISSING:
                return default
            raise KeyError(key) from None

    def setdefault(self, key, default=None):
        # an absent legacy key stores under the canonical indexed key;
        # a present one returns channel 0 without storing the alias
        return dict.setdefault(self, self._resolve(key), default)

    def copy(self) -> "_ProcessStatsMap":
        return _ProcessStatsMap(self)


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
    #: per-cycle stall attribution; only populated on instrumented runs
    #: (a tracer was active or an attribution was passed to ``run``)
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
        producers: dict[Stream, Process] = {}
        consumers: dict[Stream, Process] = {}
        for proc in self._processes:
            for s in proc.outputs():
                if s in producers:
                    raise DataflowError(
                        f"stream {s.name!r} has two producers: "
                        f"{producers[s].name!r} and {proc.name!r}"
                    )
                producers[s] = proc
            for s in proc.inputs():
                if s in consumers:
                    raise DataflowError(
                        f"stream {s.name!r} has two consumers: "
                        f"{consumers[s].name!r} and {proc.name!r}"
                    )
                consumers[s] = proc
        graph = nx.DiGraph()
        graph.add_nodes_from(range(len(self._processes)))
        index = {p: i for i, p in enumerate(self._processes)}
        for s, producer in producers.items():
            consumer = consumers.get(s)
            if consumer is not None:
                graph.add_edge(index[producer], index[consumer])
        try:
            order = list(nx.topological_sort(graph))
        except nx.NetworkXUnfeasible as exc:
            raise DataflowError(
                f"region {self.name!r} contains a stream cycle; DATAFLOW "
                "requires a feed-forward process network"
            ) from exc
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
            global tracer (:func:`repro.obs.get_tracer`).  A disabled
            tracer keeps the run on the uninstrumented path.
        attribution:
            An externally owned :class:`~repro.obs.StallAttribution`
            (``trace_region`` passes one with lane capture); forces the
            instrumented path regardless of the tracer.
        fast_path:
            Park blocked processes and skip dead cycles (default: on).
            ``False`` forces the reference one-cycle-at-a-time loop —
            the differential-equivalence suite runs both and asserts
            identical reports.  Instrumented runs skip whole-region
            dead windows as well, emitting each as one bulk
            attribution span with a trace/report identical to the
            reference loop's.

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
        self.skipped_cycles = 0
        self.ticks_issued = 0
        fast = True if fast_path is None else fast_path
        if attribution is not None:
            return self._run_instrumented(
                ordered, max_cycles, attribution, fast=fast
            )
        kernel = CycleKernel(ordered, self._memory_channels, park=fast)
        try:
            cycles = kernel.run(
                max_cycles, f"region {self.name!r}", self._deadlock_message
            )
        finally:
            self.skipped_cycles = kernel.skipped_cycles
            self.ticks_issued = kernel.ticks_issued
        return self._report(cycles)

    def _skip_window(self, live: list[Process], cycle: int) -> int:
        """Length of the window from ``cycle`` in which every live
        process and channel provably repeats itself (0: none), from
        their :meth:`~repro.core.process.Process.next_event` hints; an
        all-``inf`` answer leaves the next tick to detect a deadlock.
        """
        horizon: float = float("inf")
        for proc in live:
            event = proc.next_event(cycle)
            if event is None:
                return 0
            if event < horizon:
                horizon = event
        for channel in self._memory_channels:
            event = channel.next_event(cycle)
            if event < horizon:
                horizon = event
        if horizon == float("inf"):
            return 0
        return int(horizon) - cycle

    def _run_instrumented(
        self,
        ordered: list[Process],
        max_cycles: int,
        attribution: StallAttribution,
        fast: bool = True,
    ) -> RegionReport:
        """The traced twin of :meth:`run`'s loop.

        Identical semantics (tick order, deadlock detection, runaway
        guard) plus a per-cycle classification of every process into the
        :mod:`repro.obs.stall` taxonomy, found by diffing the progress
        counters around ``tick()``:

        * ``active_cycles`` moved → compute;
        * an output stream's ``write_stalls`` moved → FIFO full;
        * an input stream's ``read_stalls`` moved → FIFO empty;
        * the process owns the burst draining on a channel → transfer;
        * otherwise the process's own :meth:`Process.stall_reason`
          (sampled *before* the tick) — channel-grant waits and
          initiation-interval bubbles classify themselves.

        Dead windows take the same cycle-skipping fast path as
        untraced runs, with one refinement: the skip stops one cycle
        *short* of the event horizon, because the boundary cycle is
        where classification changes (at a burst-completion tick the
        owner is no longer attributed ``transfer``) and must be
        observed by the reference code above, not replicated.  Inside
        the shortened window every live process repeats the state it
        was attributed on the cycle just before it — pure stalls
        re-poll the same full/empty stream, a queued engine keeps
        waiting for its grant, a draining burst keeps draining — so
        the whole window is attributed in one
        :meth:`StallAttribution.skip_window` call and the resulting
        trace and report are identical to the reference loop's.
        """
        channels = self._memory_channels
        cycle = 0
        while True:
            live = [p for p in ordered if not p.done()]
            if not live:
                break
            if cycle >= max_cycles:
                # no-arg close: spans end at the last recorded cycle on
                # every exit path (normal, runaway, deadlock) alike
                attribution.close()
                raise RuntimeError(
                    f"region {self.name!r} exceeded {max_cycles} cycles"
                )
            self.ticks_issued += len(live)
            proc_progress = False
            states: dict[str, str] = {}
            pre: dict[str, tuple] = {}
            for proc in ordered:
                if proc.done():
                    states[proc.name] = _stall.DONE
                    continue
                pre[proc.name] = (
                    proc.stats.active_cycles,
                    proc.stall_reason(),
                    tuple(s.read_stalls for s in proc.inputs()),
                    tuple(s.write_stalls for s in proc.outputs()),
                )
                if proc.tick(cycle):
                    proc_progress = True
            progressed = proc_progress
            owners: set[str] = set()
            channels_busy: list[bool] = []
            for channel in channels:
                busy = channel.tick(cycle)
                if busy:
                    progressed = True
                channels_busy.append(busy)
                current = channel._current
                if current is not None:
                    owners.add(current.owner)
            for proc in ordered:
                if proc.name in states:
                    continue
                active0, reason, reads0, writes0 = pre[proc.name]
                if proc.name in owners:
                    states[proc.name] = _stall.TRANSFER
                elif proc.stats.active_cycles > active0:
                    states[proc.name] = _stall.COMPUTE
                elif any(
                    s.write_stalls > w0
                    for s, w0 in zip(proc.outputs(), writes0)
                ):
                    states[proc.name] = _stall.FIFO_FULL
                elif any(
                    s.read_stalls > r0
                    for s, r0 in zip(proc.inputs(), reads0)
                ):
                    states[proc.name] = _stall.FIFO_EMPTY
                elif reason is not None:
                    states[proc.name] = reason
                else:
                    states[proc.name] = _stall.PIPELINE
            attribution.record_cycle(cycle, states, channels_busy)
            if not progressed:
                attribution.close()
                raise DeadlockError(self._deadlock_message(cycle))
            cycle += 1
            # probe for a dead window after an all-stall cycle, exactly
            # like the untraced loop (no process finished this cycle, so
            # ``live`` is still current)
            if fast and not proc_progress:
                span = self._skip_window(live, cycle)
                if span > max_cycles - cycle:
                    span = max_cycles - cycle
                span -= 1  # the boundary cycle gets a classifying tick
                if span >= 2:
                    busy_before = [ch.stats.busy_cycles for ch in channels]
                    for proc in live:
                        proc.skip_cycles(cycle, span)
                    for channel in channels:
                        channel.skip_cycles(cycle, span)
                    attribution.skip_window(
                        cycle,
                        span,
                        states,
                        [
                            ch.stats.busy_cycles - before
                            for ch, before in zip(channels, busy_before)
                        ],
                    )
                    self.skipped_cycles += span
                    cycle += span
        attribution.close()
        report = self._report(cycle)
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
        stats = _ProcessStatsMap((p.name, p.stats) for p in self._processes)
        for i, channel in enumerate(self._memory_channels):
            stats[f"__memory_channel_{i}__"] = channel.stats
        # the legacy "__memory_channel__" key is a resolve-only alias of
        # channel 0 (see _ProcessStatsMap) — NOT stored, so iterating
        # process_stats counts each channel exactly once
        return RegionReport(
            cycles=cycles,
            process_stats=stats,
            stream_stats=streams,
        )
