"""Inter-region pipes: compose DATAFLOW regions into one pipeline.

The paper stops at a single kernel region; MKPipe (PAPERS.md) and the
polyhedral-process-network line of work compose *multiple* kernels via
pipes with cross-kernel overlap.  This module generalizes
:class:`~repro.core.dataflow.DataflowRegion` the same way:

* a :class:`Pipe` is a :class:`~repro.core.stream.Stream` whose
  producer and consumer live in *different* regions — same bounded-FIFO
  blocking semantics, its own depth and stall accounting, but its
  endpoints are whole kernel regions rather than processes of one
  region (the OpenCL ``pipe`` / Intel FPGA channel construct);
* a :class:`PipelineGraph` wires regions together, enforcing the same
  single-producer/single-consumer rule *across* regions that the
  DATAFLOW pragma enforces within one, and topologically sorts the
  region DAG;
* a :class:`MultiRegionRunner` co-schedules every region on one shared
  cycle loop — producer regions and consumer regions overlap exactly
  like the processes inside one region do — on the same event-driven
  :class:`~repro.core.scheduler.CycleKernel` as a single region, so a
  process blocked on a pipe parks until the other region acts.

Memory channels are first-class at the pipeline level: each region
attaches the channel(s) its engines use (per-region channel affinity),
and a channel shared by two regions is ticked exactly once per cycle —
cross-region FIFO arbitration on the same port.  The combined
:class:`PipelineReport` rolls per-region reports, pipe stats and
graph-indexed channel stats into one record.

``MultiRegionRunner.run_sequential`` runs the same graph one region at
a time (each region to completion before its consumer starts) — the
no-overlap baseline the overlap benchmark compares against.  It needs
pipes deep enough to hold every in-flight token; an undersized pipe
deadlocks the producer region, which is the honest failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dataflow import (
    DataflowError,
    DataflowRegion,
    RegionReport,
    _Runtime,
    stream_fields,
    stuck_lines,
)
from repro.core.graph import stream_endpoints, topological_order
from repro.core.process import Process
from repro.core.scheduler import CycleKernel
from repro.core.stream import Stream
from repro.obs import get_tracer
from repro.obs.stall import StallAttribution, StallReport

__all__ = [
    "MultiRegionRunner",
    "Pipe",
    "PipeError",
    "PipelineGraph",
    "PipelineReport",
]


class PipeError(DataflowError):
    """Invalid pipeline wiring (pipe/stream used across the wrong scope)."""


class Pipe(Stream):
    """A stream whose producer and consumer live in different regions.

    Behaviorally identical to :class:`~repro.core.stream.Stream` (bounded
    FIFO, blocking poll semantics, stall accounting); the distinct type
    is how :class:`PipelineGraph` tells deliberate cross-region links
    from accidental ones — a plain ``Stream`` crossing regions is
    rejected, as is a ``Pipe`` with both ends in one region.
    """


@dataclass
class PipelineReport(_Runtime):
    """Combined result of a multi-region pipeline run."""

    #: total cycles of the run (pipelined: shared clock; sequential:
    #: sum of the per-region runs)
    cycles: int
    #: ``"pipelined"`` or ``"sequential"``
    mode: str
    #: per-region :class:`~repro.core.dataflow.RegionReport`, keyed by
    #: region name (each region's ``cycles`` is the cycle it finished)
    region_reports: dict[str, RegionReport] = field(default_factory=dict)
    #: cycle at which each region's last process finished
    region_done_cycles: dict[str, int] = field(default_factory=dict)
    #: stat snapshot per inter-region pipe (same shape as stream_stats)
    pipe_stats: dict[str, dict] = field(default_factory=dict)
    #: every process across every region plus graph-indexed channel
    #: stats (``__memory_channel_0__``, …) — channels shared between
    #: regions appear exactly once
    process_stats: dict[str, object] = field(default_factory=dict)
    #: stall attribution of a traced pipelined run, over every process
    #: and channel of the graph (sequential runs attribute each region
    #: in its own ``RegionReport``)
    stall_report: StallReport | None = None

    @property
    def stream_stats(self) -> dict[str, dict]:
        """Every stream and pipe of the pipeline, merged across regions.

        The same shape :class:`RegionReport` exposes, so depth advisors
        built for single regions (``advise_stream_depth``) consume a
        pipeline report unchanged.
        """
        merged: dict[str, dict] = {}
        for report in self.region_reports.values():
            merged.update(report.stream_stats)
        merged.update(self.pipe_stats)
        return merged


class PipelineGraph:
    """Regions wired by pipes, validated into a region DAG.

    The single producer-consumer rule extends across regions: every
    pipe has exactly one producing process (in one region) and one
    consuming process (in another).  Region-to-region edges derived
    from the pipes must form a feed-forward DAG, mirroring the
    DATAFLOW constraint one level up.
    """

    def __init__(self, name: str = "pipeline"):
        self.name = name
        self._regions: list[DataflowRegion] = []
        self._validated: tuple | None = None

    @property
    def regions(self) -> tuple[DataflowRegion, ...]:
        return tuple(self._regions)

    def add_region(self, region: DataflowRegion) -> DataflowRegion:
        """Register a region; returns it for chaining."""
        if any(r is region for r in self._regions):
            raise PipeError(f"region {region.name!r} added twice")
        if any(r.name == region.name for r in self._regions):
            raise PipeError(f"duplicate region name {region.name!r}")
        self._regions.append(region)
        self._validated = None
        return region

    # -- validation ----------------------------------------------------------------

    def _validate(self):
        """Validate wiring; returns (ordered regions, ordered processes,
        channels, pipes)."""
        if self._validated is not None:
            return self._validated
        if not self._regions:
            raise PipeError("pipeline has no regions")
        names: set[str] = set()
        region_order: dict[int, list[Process]] = {}
        for i, region in enumerate(self._regions):
            if not region.processes:
                raise PipeError(f"region {region.name!r} has no processes")
            region_order[i] = region._validate()
            for proc in region.processes:
                if proc.name in names:
                    raise PipeError(
                        f"duplicate process name {proc.name!r} across "
                        "regions"
                    )
                names.add(proc.name)
        producers, consumers = stream_endpoints(
            [region.processes for region in self._regions], PipeError
        )
        pipes: list[Pipe] = []
        for s, (producer, _) in producers.items():
            consumer, _ = consumers.get(s, (None, None))
            if consumer is None:
                if isinstance(s, Pipe):
                    raise PipeError(
                        f"pipe {s.name!r} has a producer (region "
                        f"{self._regions[producer].name!r}) but no "
                        "consumer region"
                    )
                continue
            if producer == consumer:
                if isinstance(s, Pipe):
                    raise PipeError(
                        f"pipe {s.name!r} has both ends inside region "
                        f"{self._regions[producer].name!r}; use a plain "
                        "Stream for intra-region links"
                    )
                continue
            if not isinstance(s, Pipe):
                raise PipeError(
                    f"stream {s.name!r} crosses regions "
                    f"{self._regions[producer].name!r} -> "
                    f"{self._regions[consumer].name!r}; inter-region "
                    "links must be Pipes"
                )
            pipes.append(s)
        for s, (consumer, _) in consumers.items():
            if isinstance(s, Pipe) and s not in producers:
                raise PipeError(
                    f"pipe {s.name!r} has a consumer (region "
                    f"{self._regions[consumer].name!r}) but no producer "
                    "region"
                )
        order = topological_order(
            len(self._regions),
            [(producers[p][0], consumers[p][0]) for p in pipes],
        )
        if order is None:
            raise PipeError(
                f"pipeline {self.name!r} contains a region cycle; "
                "pipelines require a feed-forward region DAG"
            )
        ordered_regions = [self._regions[i] for i in order]
        ordered_processes = [
            p for i in order for p in region_order[i]
        ]
        # channels in region topo order, deduped by identity: a channel
        # two regions share (same port, cross-region arbitration) must
        # tick exactly once per cycle
        channels: list = []
        seen_channels: set[int] = set()
        for region in ordered_regions:
            for channel in region.memory_channels:
                if id(channel) not in seen_channels:
                    seen_channels.add(id(channel))
                    channels.append(channel)
        self._validated = (
            ordered_regions,
            ordered_processes,
            tuple(channels),
            tuple(pipes),
        )
        return self._validated

    @property
    def pipes(self) -> tuple[Pipe, ...]:
        return self._validate()[3]

    @property
    def memory_channels(self) -> tuple:
        """All channels across regions, deduped, in region topo order."""
        return self._validate()[2]


class MultiRegionRunner:
    """Co-schedule a :class:`PipelineGraph` on one shared cycle loop.

    The loop is :meth:`DataflowRegion.run` lifted to the pipeline:
    every live process across every region ticks once per cycle in
    region-topological then intra-region-topological order (so a token
    written into a pipe at cycle *t* is visible to the consumer region
    at cycle *t*), all channels tick after the processes, and deadlock
    is detected across the whole graph.  Both run on one
    :class:`~repro.core.scheduler.CycleKernel`, whose stream peers span
    regions through the pipes.
    """

    def __init__(self, graph: PipelineGraph):
        self.graph = graph
        #: cycles of the last run in which no process ticked
        self.skipped_cycles = 0
        #: ``tick`` calls the last run issued, over all regions
        self.ticks_issued = 0

    # -- execution -----------------------------------------------------------------

    def run(
        self,
        max_cycles: int = 100_000_000,
        *,
        fast_path: bool | None = None,
    ) -> PipelineReport:
        """Run all regions concurrently until every process finishes.

        Same contract as :meth:`DataflowRegion.run`: raises
        :class:`~repro.core.scheduler.DeadlockError` when a full cycle
        passes with zero progress anywhere in the pipeline,
        ``RuntimeError`` when ``max_cycles`` elapse, and
        ``fast_path=False`` forces the reference one-cycle-at-a-time
        loop (the differential suite asserts field-for-field identical
        :class:`PipelineReport`\\ s).  With the global tracer enabled
        the run is attributed under the graph's name
        (``report.stall_report``).
        """
        regions, ordered, channels, _pipes = self.graph._validate()
        tracer = get_tracer()
        kernel = CycleKernel(ordered, channels, park=fast_path is not False)
        if tracer.enabled:
            kernel.observer = StallAttribution(self.graph.name, tracer=tracer)
        try:
            cycles = kernel.run(
                max_cycles,
                f"pipeline {self.graph.name!r}",
                lambda cycle: self._deadlock_message(cycle, channels),
            )
        finally:
            self.skipped_cycles = kernel.skipped_cycles
            self.ticks_issued = kernel.ticks_issued
        # a region is done with its last process (0 if it started done);
        # listed in finishing order, ties in topo order
        done = sorted(
            (max(kernel.finished.get(p, 0) for p in r.processes), i, r.name)
            for i, r in enumerate(regions)
        )
        region_done = {name: cycle for cycle, _, name in done}
        report = self._report(cycles, region_done, mode="pipelined")
        if kernel.observer is not None:
            report.stall_report = kernel.observer.report()
        return report

    def run_sequential(
        self,
        max_cycles: int = 100_000_000,
        *,
        fast_path: bool | None = None,
    ) -> PipelineReport:
        """Run each region to completion in topo order (no overlap).

        The makespan baseline: stage N+1 starts only after stage N has
        produced *everything*, so every pipe must be deep enough to
        hold its stage's full output — an undersized pipe deadlocks the
        producer region, surfacing the sizing error instead of silently
        overlapping.
        """
        regions, _ordered, _channels, _pipes = self.graph._validate()
        self.skipped_cycles = self.ticks_issued = 0
        total = 0
        region_done: dict[str, int] = {}
        for region in regions:
            report = region.run(max_cycles=max_cycles, fast_path=fast_path)
            total += report.cycles
            region_done[region.name] = total
            self.skipped_cycles += region.skipped_cycles
            self.ticks_issued += region.ticks_issued
        return self._report(total, region_done, mode="sequential")

    # -- internals ------------------------------------------------------------------

    def _deadlock_message(self, cycle: int, channels) -> str:
        lines = [
            f"deadlock in pipeline {self.graph.name!r} at cycle {cycle}:"
        ]
        for region in self.graph.regions:
            stuck = stuck_lines(region.processes, "    ")
            if stuck:
                lines.append(f"  region {region.name!r}:")
                lines += stuck
        for channel in channels:
            lines.append(f"  channel: {channel!r}")
        return "\n".join(lines)

    def _report(
        self, cycles: int, region_done: dict[str, int], mode: str
    ) -> PipelineReport:
        regions, _ordered, channels, pipes = self.graph._validate()
        region_reports = {
            r.name: r._report(region_done.get(r.name, cycles))
            for r in regions
        }
        stats = {p.name: p.stats for r in regions for p in r.processes}
        for i, channel in enumerate(channels):
            stats[f"__memory_channel_{i}__"] = channel.stats
        pipe_stats = {pipe.name: stream_fields(pipe) for pipe in pipes}
        return PipelineReport(
            cycles=cycles,
            mode=mode,
            region_reports=region_reports,
            region_done_cycles=dict(region_done),
            pipe_stats=pipe_stats,
            process_stats=stats,
        )
