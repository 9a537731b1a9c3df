"""Stall attribution: classify every simulated cycle of a region run.

The paper's performance argument is about *where cycles go*: decoupled
work-items keep their pipelines busy, and the Fig 3 schedule hides the
memory-channel transfers behind other work-items' compute.  This module
turns that claim into data — every cycle of every process in a
:class:`~repro.core.dataflow.DataflowRegion` or pipelined
:class:`~repro.core.pipes.MultiRegionRunner` run is attributed to one
class:

========================  ====================================================
state                     meaning
========================  ====================================================
``compute``               the process issued real work this cycle
``transfer``              the process's burst is draining on the channel
``fifo_full``             write stall: the output ``hls::stream`` was full
``fifo_empty``            read stall: the input ``hls::stream`` was empty
``memory_channel``        waiting for the shared channel grant (contention)
``pipeline``              an initiation-interval bubble (ablation configs)
========================  ====================================================

The headline number is the **compute/transfer overlap**: the fraction
of cycles where at least one process computes *while* the memory
channel is draining a burst.  A decoupled region shows substantial
overlap (Fig 3's interleaving); a serialized design shows ~0.

:class:`StallAttribution` observes a
:class:`~repro.core.scheduler.CycleKernel` run: every tick returns its
state, the attribution keeps the changes, and at the end it lays the
channel's burst windows over them, emits each same-state window as a
Chrome ``cat="cycle"`` span through the injected
:class:`~repro.obs.tracer.Tracer`, and produces a :class:`StallReport`.
:func:`reports_from_trace` reconstructs the same report from an
exported trace file (the ``trace-report`` CLI path).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.tracer import NullTracer, Tracer

__all__ = [
    "COMPUTE",
    "TRANSFER",
    "FIFO_FULL",
    "FIFO_EMPTY",
    "MEMORY",
    "PIPELINE",
    "DONE",
    "STATES",
    "StallAttribution",
    "StallReport",
    "report_from_trace",
    "reports_from_trace",
]

COMPUTE = "compute"
TRANSFER = "transfer"
FIFO_FULL = "fifo_full"
FIFO_EMPTY = "fifo_empty"
MEMORY = "memory_channel"
PIPELINE = "pipeline"
DONE = "done"

#: Attribution classes in report-column order (``done`` is not a class:
#: finished processes stop accumulating cycles).
STATES = (COMPUTE, TRANSFER, FIFO_FULL, FIFO_EMPTY, MEMORY, PIPELINE)

#: Fig 3 lane symbol per state (ScheduleTrace compatibility).
_SYMBOLS = {COMPUTE: "C", TRANSFER: "T", DONE: "."}

#: One simulated cycle occupies one microsecond on the trace timeline.
CYCLE_US = 1.0


@dataclass
class StallReport:
    """Per-process cycle attribution plus the overlap headline."""

    region: str
    cycles: int
    per_process: dict[str, dict[str, int]] = field(default_factory=dict)
    channel_busy_cycles: list[int] = field(default_factory=list)
    compute_cycles: int = 0  # cycles with >= 1 process computing
    overlap_cycles: int = 0  # compute and a draining burst coexist

    # -- derived -----------------------------------------------------------------

    def overlap_fraction(self) -> float:
        """Fraction of cycles with compute/transfer overlap (Fig 3)."""
        return self.overlap_cycles / self.cycles if self.cycles else 0.0

    def process_utilization(self, name: str) -> float:
        counts = self.per_process[name]
        live = sum(counts.values())
        busy = counts.get(COMPUTE, 0) + counts.get(TRANSFER, 0)
        return busy / live if live else 0.0

    def consistent_with(self, process_stats) -> list[str]:
        """Cross-check attribution counts against ``ProcessStats`` buckets.

        For every process present in both this report and
        ``process_stats`` (a ``RegionReport.process_stats`` mapping),
        verifies the invariants tying the per-cycle taxonomy to the
        per-process counters:

        * attributed cycles sum to ``stats.cycles`` (live cycles);
        * ``pipeline`` attribution equals ``stats.pipeline_cycles``
          (initiation-interval bubbles are one bucket in both views);
        * ``compute <= active_cycles <= compute + transfer`` — an
          active cycle classifies as compute unless the process's own
          burst was draining that cycle (transfer wins the tie).

        Returns a list of human-readable discrepancies (empty = clean).
        """
        problems: list[str] = []
        for name, counts in self.per_process.items():
            stats = process_stats.get(name)
            if stats is None or not hasattr(stats, "pipeline_cycles"):
                continue  # channels and foreign entries have no buckets
            live = sum(counts.values())
            if live != stats.cycles:
                problems.append(
                    f"{name}: attributed {live} cycles but stats.cycles="
                    f"{stats.cycles}"
                )
            pipeline = counts.get(PIPELINE, 0)
            if pipeline != stats.pipeline_cycles:
                problems.append(
                    f"{name}: pipeline attribution {pipeline} != "
                    f"stats.pipeline_cycles {stats.pipeline_cycles}"
                )
            compute = counts.get(COMPUTE, 0)
            transfer = counts.get(TRANSFER, 0)
            if not compute <= stats.active_cycles <= compute + transfer:
                problems.append(
                    f"{name}: active_cycles {stats.active_cycles} outside "
                    f"[compute={compute}, compute+transfer={compute + transfer}]"
                )
        return problems

    def to_dict(self) -> dict:
        return {
            "region": self.region,
            "cycles": self.cycles,
            "per_process": {
                name: dict(counts) for name, counts in self.per_process.items()
            },
            "channel_busy_cycles": list(self.channel_busy_cycles),
            "compute_cycles": self.compute_cycles,
            "overlap_cycles": self.overlap_cycles,
            "overlap_fraction": self.overlap_fraction(),
        }

    def render(self) -> str:
        """The stall-attribution table the ``trace-report`` CLI prints."""
        header = ["process", *STATES, "live", "util%"]
        rows: list[list[str]] = []
        for name in sorted(self.per_process):
            counts = self.per_process[name]
            live = sum(counts.values())
            rows.append(
                [
                    name,
                    *(str(counts.get(s, 0)) for s in STATES),
                    str(live),
                    f"{100.0 * self.process_utilization(name):.1f}",
                ]
            )
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"stall attribution: {self.region} ({self.cycles} cycles)"]
        lines.append(
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(header))
        )
        for r in rows:
            lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(r)))
        for i, busy in enumerate(self.channel_busy_cycles):
            frac = busy / self.cycles if self.cycles else 0.0
            lines.append(f"memory channel {i}: busy {busy} cycles ({frac:.1%})")
        lines.append(
            f"compute/transfer overlap: {self.overlap_cycles} cycles "
            f"({self.overlap_fraction():.1%}) — Fig 3 interleaving"
        )
        return "\n".join(lines)


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    if not intervals:
        return []
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _intersection_cycles(
    a: list[tuple[float, float]], b: list[tuple[float, float]]
) -> float:
    total = 0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


def _windows(
    changes: list[tuple[int, str]], transfers: list[tuple[int, int]], end: int
) -> list[tuple[int, int, str]]:
    """One process's merged ``(start, stop, state)`` windows over
    ``[0, end)``: the state of its last tick (``changes`` holds the
    ticks that changed it), overridden by ``transfer`` wherever one of
    its bursts drains (``transfers``: disjoint, sorted)."""
    marks = {end, *(c for c, _ in changes)}
    marks.update(x for span in transfers for x in span if x < end)
    marks = sorted(marks)
    out: list[tuple[int, int, str]] = []
    ci = ti = 0
    state = None
    for lo, hi in zip(marks, marks[1:]):
        while ci < len(changes) and changes[ci][0] <= lo:
            state = changes[ci][1]
            ci += 1
        while ti < len(transfers) and transfers[ti][1] <= lo:
            ti += 1
        now = TRANSFER if ti < len(transfers) and transfers[ti][0] <= lo else state
        if out and out[-1][2] == now:
            out[-1] = (out[-1][0], hi, now)
        else:
            out.append((lo, hi, now))
    return out


class StallAttribution:
    """Observer of one cycle-kernel run, attributing every cycle.

    Set as :attr:`~repro.core.scheduler.CycleKernel.observer` (regions
    and pipelines do so whenever a tracer is enabled or an attribution
    is passed in).  :meth:`start` hands the kernel a callback that
    records each process's tick state when it changes; a parked process
    keeps the state it parked with.  :meth:`finish` overlays
    ``transfer`` on a burst owner's cycles from ``started_cycle`` up to
    ``completed_cycle`` (the channel logs every burst it grants during
    the run), emits each same-state window as a Chrome ``cat="cycle"``
    span — in the order a cycle-by-cycle recorder would — and builds
    the :class:`StallReport`.

    Parameters
    ----------
    region:
        Region name (trace process row, report title).
    tracer:
        Sink for the compressed cycle-window spans (``NullTracer`` keeps
        the attribution purely in-memory).
    keep_lanes:
        Also record the per-cycle Fig 3 symbol lanes (C/T/w/.) that
        :class:`~repro.core.schedule.ScheduleTrace` renders.
    """

    def __init__(
        self,
        region: str,
        tracer: Tracer | None = None,
        keep_lanes: bool = False,
    ):
        self.region = region
        self.tracer = tracer if tracer is not None else NullTracer()
        self.keep_lanes = keep_lanes
        self.lanes: dict[str, list[str]] = {}
        self._names: list[str] = []
        self._changes: list[list[tuple[int, str]]] = []
        self._channels: tuple = ()
        self._report = StallReport(region=region, cycles=0)

    def start(self, names: list[str], channels) -> Callable[[int, int, str], None]:
        """Begin a run of the processes ``names`` (in tick order) on
        ``channels``; returns the ``observe(index, cycle, state)`` tick
        callback."""
        self._names = list(names)
        self._changes = changes = [[] for _ in self._names]
        self._channels = tuple(channels)
        for channel in self._channels:
            channel.granted = []
        last: list[str | None] = [None] * len(self._names)

        def observe(index: int, cycle: int, state: str) -> None:
            if state != last[index]:
                last[index] = state
                changes[index].append((cycle, state))

        return observe

    def finish(self, cycles: int, done: dict[str, int]) -> None:
        """End the run after ``cycles`` cycles; ``done`` maps each process
        that finished during the run to its done cycle."""
        granted = []
        for channel in self._channels:
            granted.append(channel.granted)
            channel.granted = None
        if cycles == 0:
            return
        busy, transfers = [], {}
        for requests in granted:
            drains = []
            for req in requests:
                start, drained = req.started_cycle, req.completed_cycle
                if drained is None:  # still draining when the run stopped
                    drains.append((start, cycles))
                    owned = (start, cycles)
                else:  # the owner sees the channel free on its last beat
                    drains.append((start, drained + 1))
                    owned = (start, drained)
                transfers.setdefault(req.owner, []).append(owned)
            busy.append(_union(drains))
        # a process never ticked was done before the run started
        ends = [
            done.get(name, cycles if changes else 0)
            for name, changes in zip(self._names, self._changes)
        ]
        order = sorted(range(len(ends)), key=lambda i: ends[i] != 0)
        per_process: dict[str, dict[str, int]] = {}
        compute: list[tuple[int, int]] = []
        spans = []  # (emission key, track name, state, start, stop)
        for i in order:
            name, end = self._names[i], ends[i]
            counts = per_process[name] = {}
            windows = _windows(
                self._changes[i], _union(transfers.get(name, [])), end
            )
            for start, stop, state in windows:
                counts[state] = counts.get(state, 0) + stop - start
                if state == COMPUTE:
                    compute.append((start, stop))
                # a recorder flushes a window when the state changes (the
                # processes turning done first, then the live ones, in
                # tick order), open windows at the end by opening cycle
                key = (
                    (stop, stop != end, i) if stop < cycles
                    else (cycles, 0, start, i)
                )
                spans.append((key, name, state, start, stop))
            if self.keep_lanes:
                lane = self.lanes[name] = []
                for start, stop, state in windows:
                    lane += _SYMBOLS.get(state, "w") * (stop - start)
                lane += _SYMBOLS[DONE] * (cycles - end)
        for k, intervals in enumerate(busy):
            for start, stop in intervals:
                key = (stop, 2, k) if stop < cycles else (cycles, 1, k)
                spans.append((key, f"memory_channel[{k}]", "burst", start, stop))
        if self.tracer.enabled:
            for _key, thread, state, start, stop in sorted(spans):
                self.tracer.complete(
                    self.tracer.track(self.region, thread),
                    state,
                    ts_us=start * CYCLE_US,
                    dur_us=(stop - start) * CYCLE_US,
                    cat="cycle",
                )
        compute = _union(compute)
        all_busy = _union([span for intervals in busy for span in intervals])
        self._report = StallReport(
            region=self.region,
            cycles=cycles,
            per_process=per_process,
            channel_busy_cycles=[
                sum(stop - start for start, stop in intervals)
                for intervals in busy
            ],
            compute_cycles=sum(stop - start for start, stop in compute),
            overlap_cycles=_intersection_cycles(compute, all_busy),
        )

    def report(self) -> StallReport:
        """The attribution of the finished run."""
        return self._report


# ---------------------------------------------------------------------------
# reconstruction from an exported trace (the `trace-report` CLI path)
# ---------------------------------------------------------------------------


def reports_from_trace(source: str | dict) -> list[StallReport]:
    """Rebuild stall reports from an exported Chrome trace.

    ``source`` is a path or an already-parsed trace dict.  One report is
    produced per trace process (pid) that carries ``cat="cycle"``
    events; traces without cycle events (pure engine traces) yield an
    empty list.
    """
    if isinstance(source, str):
        with open(source, encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = source
    events = data.get("traceEvents", data if isinstance(data, list) else [])
    process_names: dict[int, str] = {}
    thread_names: dict[tuple[int, int], str] = {}
    for e in events:
        if e.get("ph") == "M" and e.get("name") == "process_name":
            process_names[e["pid"]] = e["args"]["name"]
        elif e.get("ph") == "M" and e.get("name") == "thread_name":
            thread_names[(e["pid"], e["tid"])] = e["args"]["name"]

    by_pid: dict[int, list[dict]] = {}
    for e in events:
        if e.get("ph") == "X" and e.get("cat") == "cycle":
            by_pid.setdefault(e["pid"], []).append(e)

    reports = []
    for pid, cycle_events in sorted(by_pid.items()):
        per_process: dict[str, dict[str, int]] = {}
        compute_intervals: list[tuple[float, float]] = []
        channel_intervals: list[tuple[float, float]] = []
        channel_busy: dict[int, int] = {}
        end_cycle = 0.0
        for e in cycle_events:
            thread = thread_names.get(
                (pid, e["tid"]), f"tid{e['tid']}"
            )
            start = e["ts"] / CYCLE_US
            dur = e["dur"] / CYCLE_US
            end_cycle = max(end_cycle, start + dur)
            if thread.startswith("memory_channel"):
                idx = len("memory_channel[")
                try:
                    channel_idx = int(thread[idx:].rstrip("]"))
                except ValueError:
                    channel_idx = 0
                channel_busy[channel_idx] = (
                    channel_busy.get(channel_idx, 0) + round(dur)
                )
                channel_intervals.append((start, start + dur))
                continue
            counts = per_process.setdefault(thread, {})
            counts[e["name"]] = counts.get(e["name"], 0) + round(dur)
            if e["name"] == COMPUTE:
                compute_intervals.append((start, start + dur))
        compute_union = _union(compute_intervals)
        overlap = _intersection_cycles(compute_union, _union(channel_intervals))
        reports.append(
            StallReport(
                region=process_names.get(pid, f"pid{pid}"),
                cycles=round(end_cycle),
                per_process=per_process,
                channel_busy_cycles=[
                    busy for _i, busy in sorted(channel_busy.items())
                ],
                compute_cycles=round(
                    sum(hi - lo for lo, hi in compute_union)
                ),
                overlap_cycles=round(overlap),
            )
        )
    return reports


def report_from_trace(source: str | dict) -> StallReport:
    """The first (usually only) stall report in a trace; raises if none."""
    reports = reports_from_trace(source)
    if not reports:
        raise ValueError(
            "trace contains no cycle-attribution events (cat='cycle'); "
            "was the run traced through DataflowRegion.run(tracer=...)?"
        )
    return reports[0]
