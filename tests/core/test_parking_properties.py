"""Property differential: the parked kernel against the reference loop.

Hypothesis generates feed-forward process networks — dummy and gamma
sources, optional pricing stages that tee into two engines, random
FIFO/pipe depths, burst lengths, ``dependence_false``, II ablations,
channel counts and timings, channel affinity, owner-less background
bursts and random splits of each work-item's chain across pipeline
regions — and runs every one twice: ``fast_path=False`` (the
one-cycle-at-a-time reference loop) and the default parked kernel.
Both runs must agree field for field on the report, every stream's
stats, every channel's stats and device memory, on the normal path as
on the abort paths (deadlocks and the ``max_cycles`` guard).

Each network also runs traced on both paths, under a global
:class:`~repro.obs.ChromeTracer` (regions with a lane-keeping
attribution): the stall report, lanes and trace events must match
between the paths, the traced run must leave the untraced run's
report and stats, the attribution must agree with ``ProcessStats``,
and the exported trace must rebuild the live report.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.core.dataflow import DataflowRegion, DeadlockError
from repro.core.kernel import GammaKernelConfig, GammaRNGProcess
from repro.core.memory import (
    BurstRequest,
    GlobalMemory,
    MemoryChannel,
    MemoryChannelConfig,
)
from repro.core.pipes import MultiRegionRunner, Pipe, PipelineGraph
from repro.core.pricing import AggregatingTransferEngine, PricingProcess
from repro.core.stream import Stream
from repro.core.transfer import DummySource, TransferEngine
from repro.fixedpoint import FLOATS_PER_WORD
from repro.obs import ChromeTracer, use_tracer
from repro.obs.stall import COMPUTE, TRANSFER, StallAttribution, reports_from_trace
from repro.rng.mersenne import MT521_PARAMS


@dataclass(frozen=True)
class Item:
    """One work-item: a source, an optional pricer, one or two engines."""

    source: str  # "dummy" | "gamma"
    priced: bool  # source -> pricer -> (aggregate engine, raw engine)
    burst_words: int
    bursts: int
    sectors: int
    depth: int
    dependence_false: bool
    delayed_counter: bool
    adapted_mt: bool
    #: gamma: MAINLOOP cap = limit_main + slack (None: the default cap)
    limit_slack: int | None
    #: dummy: values withheld from the engine (starves it)
    shortfall: int
    value: float
    channels: tuple[int, ...]  # channel index per engine
    regions: tuple[int, ...]  # region per process, in chain order


@dataclass(frozen=True)
class Net:
    items: tuple[Item, ...]
    channels: tuple[tuple[int, int], ...]  # (setup_cycles, cycles_per_word)
    background: tuple[tuple[int, int], ...]  # (channel index, words)
    as_pipeline: bool
    seed: int


@st.composite
def items(draw, n_channels: int, n_regions: int, short: bool) -> Item:
    source = draw(st.sampled_from(("dummy", "gamma")))
    priced = draw(st.booleans())
    burst_words = draw(st.sampled_from((1, 2, 4)))
    bursts = draw(st.integers(1, 3))
    sectors = draw(st.integers(1, 2)) if source == "gamma" else 1
    values = sectors * bursts * burst_words * FLOATS_PER_WORD
    region = st.integers(0, n_regions - 1)
    # regions never decrease along the chain: the region DAG stays
    # feed-forward however the chain is split
    r_src = draw(region)
    r_mid = max(r_src, draw(region))
    engine_regions = tuple(
        max(r_mid, draw(region)) for _ in range(2 if priced else 1)
    )
    return Item(
        source=source,
        priced=priced,
        burst_words=burst_words,
        bursts=bursts,
        sectors=sectors,
        depth=draw(st.integers(1, 6)),
        dependence_false=draw(st.booleans()),
        delayed_counter=draw(st.booleans()),
        adapted_mt=draw(st.booleans()),
        limit_slack=draw(st.sampled_from((None, 0, 4))) if short else None,
        shortfall=draw(st.integers(0, values)) if short else 0,
        value=draw(st.floats(0.25, 4.0, width=32)),
        channels=tuple(
            draw(st.integers(0, n_channels - 1)) for _ in engine_regions
        ),
        regions=(r_src, r_mid, *engine_regions) if priced
        else (r_src, *engine_regions),
    )


@st.composite
def nets(draw, short: bool = False, max_items: int = 4) -> Net:
    n_channels = draw(st.integers(1, 3))
    n_regions = draw(st.sampled_from((1, 1, 2, 3)))  # plain regions too
    return Net(
        items=tuple(
            draw(items(n_channels, n_regions, short))
            for _ in range(draw(st.integers(1, max_items)))
        ),
        channels=tuple(
            (draw(st.integers(0, 40)), draw(st.integers(1, 3)))
            for _ in range(n_channels)
        ),
        background=tuple(
            (draw(st.integers(0, n_channels - 1)), draw(st.integers(1, 64)))
            for _ in range(draw(st.integers(0, 2)))
        ),
        as_pipeline=draw(st.booleans()),
        seed=draw(st.integers(1, 10_000)),
    )


@dataclass
class Built:
    runner: object  # DataflowRegion or MultiRegionRunner
    processes: list
    streams: list
    channels: list
    memory: GlobalMemory
    background: list


def build(net: Net) -> Built:
    """A fresh network for ``net`` (every run gets its own objects)."""
    n_engines = sum(2 if it.priced else 1 for it in net.items)
    block = max(
        it.sectors * it.bursts * it.burst_words for it in net.items
    )
    bg_base = block * n_engines
    memory = GlobalMemory(
        bg_base + sum(words for _, words in net.background)
    )
    channels = [
        MemoryChannel(MemoryChannelConfig(setup, cpw), memory)
        for setup, cpw in net.channels
    ]
    placed: dict[int, list] = {}  # region -> processes in chain order
    attached: dict[int, list] = {}  # region -> channels its engines use
    streams: list = []
    engine_id = 0

    def link(name: str, producer_region: int, consumer_region: int, depth):
        kind = Stream if producer_region == consumer_region else Pipe
        stream = kind(name, depth=depth)
        streams.append(stream)
        return stream

    def engine(name, region, channel_index, stream, it, cls=TransferEngine):
        nonlocal engine_id
        channel = channels[channel_index]
        if all(c is not channel for c in attached.setdefault(region, [])):
            attached[region].append(channel)
        eng = cls(
            name, engine_id, stream, channel,
            burst_words=it.burst_words,
            bursts_per_sector=it.bursts,
            sectors=it.sectors,
            block_offset=block,
            dependence_false=it.dependence_false,
        )
        engine_id += 1
        placed.setdefault(region, []).append(eng)
        return eng

    for wid, it in enumerate(net.items):
        values = it.sectors * it.bursts * it.burst_words * FLOATS_PER_WORD
        r_src, r_next = it.regions[0], it.regions[1]
        out = link(f"s{wid}", r_src, r_next, it.depth)
        if it.source == "dummy":
            src = DummySource(f"src{wid}", out, values - it.shortfall, it.value)
        else:
            limit_main = values // it.sectors
            cfg = GammaKernelConfig(
                mt_params=MT521_PARAMS,
                sector_variances=(1.39, 0.5)[: it.sectors],
                limit_main=limit_main,
                limit_max=(
                    None if it.limit_slack is None
                    else limit_main + it.limit_slack
                ),
                use_delayed_counter=it.delayed_counter,
                adapted_mt=it.adapted_mt,
                seed=net.seed + wid,
            )
            src = GammaRNGProcess(f"src{wid}", wid, cfg, out)
        placed.setdefault(r_src, []).append(src)
        if not it.priced:
            engine(f"eng{wid}", r_next, it.channels[0], out, it)
            continue
        r_agg, r_raw = it.regions[2], it.regions[3]
        priced = link(f"priced{wid}", r_next, r_agg, it.depth + 1)
        raw = link(f"raw{wid}", r_next, r_raw, it.depth)
        placed.setdefault(r_next, []).append(
            PricingProcess(f"pricer{wid}", wid, out, priced, raw, values)
        )
        engine(f"agg{wid}", r_agg, it.channels[0], priced, it,
               cls=AggregatingTransferEngine)
        engine(f"raw{wid}", r_raw, it.channels[1], raw, it)

    background, address = [], bg_base
    for channel_index, words in net.background:
        request = BurstRequest(
            owner="background",
            address=address,
            words=[(0x9E3779B9 * (address + k)) % (1 << 512)
                   for k in range(words)],
        )
        channels[channel_index].submit(request)
        background.append(request)
        address += words

    # a channel no engine uses still drains its background bursts
    used = {id(c) for cs in attached.values() for c in cs}
    attached.setdefault(min(placed), []).extend(
        c for c in channels if id(c) not in used
    )
    regions = []
    for index in sorted(placed):
        region = DataflowRegion(f"r{index}")
        for proc in placed[index]:
            region.add(proc)
        for channel in attached.get(index, []):
            region.attach_memory_channel(channel)
        regions.append(region)
    if len(regions) == 1 and not net.as_pipeline:
        runner = regions[0]
    else:
        graph = PipelineGraph("net")
        for region in regions:
            graph.add_region(region)
        runner = MultiRegionRunner(graph)
    processes = [p for r in regions for p in r.processes]
    return Built(runner, processes, streams, channels, memory, background)


def snapshot(built: Built) -> dict:
    """Everything a run leaves behind, as plain comparable values."""
    return {
        "processes": {p.name: vars(p.stats) for p in built.processes},
        "streams": {s.name: vars(s.stats) for s in built.streams},
        "channels": [vars(c.stats) for c in built.channels],
        "memory": built.memory.as_float_array().tobytes(),
        "background": [
            (r.started_cycle, r.completed_cycle) for r in built.background
        ],
    }


def run(net: Net, fast: bool, max_cycles: int = 1_000_000):
    """``(outcome, snapshot, built)``: the report fields or the abort."""
    built = build(net)
    try:
        report = built.runner.run(max_cycles=max_cycles, fast_path=fast)
    except (DeadlockError, RuntimeError) as exc:
        outcome = (type(exc).__name__, str(exc))
    else:
        outcome = dataclasses.asdict(report)
    return outcome, snapshot(built), built


def assert_same(net: Net, max_cycles: int = 1_000_000):
    ref = run(net, fast=False, max_cycles=max_cycles)
    parked = run(net, fast=True, max_cycles=max_cycles)
    assert ref[0] == parked[0]
    assert ref[1] == parked[1]
    assert ref[2].runner.skipped_cycles == 0
    # a parked run never issues more ticks than the reference loop
    assert parked[2].runner.ticks_issued <= ref[2].runner.ticks_issued
    return ref


@given(net=nets())
@settings(max_examples=40, deadline=None)
def test_parked_runs_match_reference(net):
    outcome, _, _ = assert_same(net)
    assert isinstance(outcome, dict), outcome  # complete networks finish
    assert outcome["cycles"] > 0


@given(net=nets(short=True))
@settings(max_examples=40, deadline=None)
def test_short_sources_match_reference(net):
    """Starved engines, early-closed gamma streams and the deadlocks
    they cause: identical messages and partial stats."""
    assert_same(net)


@given(net=nets(short=True, max_items=3), data=st.data())
@settings(max_examples=30, deadline=None)
def test_max_cycles_abort_matches_reference(net, data):
    outcome, _, _ = run(net, fast=False)
    if isinstance(outcome, dict):
        end = outcome["cycles"]
    else:  # a deadlock: abort somewhere before it
        end = int(outcome[1].split(" at cycle ")[1].split(":")[0]) + 1
    max_cycles = data.draw(st.integers(0, end - 1), label="max_cycles")
    outcome, _, _ = assert_same(net, max_cycles=max_cycles)
    assert outcome[0] == "RuntimeError"
    assert f"exceeded {max_cycles} cycles" in outcome[1]


@given(
    n_starved=st.integers(1, 3),
    supplied=st.integers(0, 15),
    background=st.lists(st.integers(24, 64), min_size=1, max_size=3),
    setup=st.integers(0, 40),
    cpw=st.integers(1, 3),
    as_pipeline=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_deadlock_while_channel_drains(
    n_starved, supplied, background, setup, cpw, as_pipeline
):
    """Every engine starves while owner-less bursts still drain: the
    deadlock is only reached on the first idle channel cycle, which the
    parked kernel must find by jumping the channel, not by ticking."""
    item = Item(
        source="dummy", priced=False, burst_words=1, bursts=1, sectors=1,
        depth=2, dependence_false=True, delayed_counter=True,
        adapted_mt=True, limit_slack=None, shortfall=16 - supplied,
        value=1.0, channels=(0,), regions=(0, 1 if as_pipeline else 0),
    )
    net = Net(
        items=(item,) * n_starved,
        channels=((setup, cpw),),
        background=tuple((0, words) for words in background),
        as_pipeline=as_pipeline,
        seed=1,
    )
    (name, message), _, built = assert_same(net)
    assert name == "DeadlockError"
    deadlock_cycle = int(message.split(" at cycle ")[1].split(":")[0])
    # the last owner-less burst completed on the cycle before the
    # deadlock; the engines had starved long before
    last_done = max(r.completed_cycle for r in built.background)
    assert deadlock_cycle == last_done + 1
    assert deadlock_cycle > supplied + 1


def test_generated_networks_exercise_parking():
    """A sanity anchor for the generator: a split, multi-channel network
    parks (fewer ticks) and jumps idle cycles on the parked kernel."""
    item = Item(
        source="dummy", priced=True, burst_words=1, bursts=3, sectors=1,
        depth=2, dependence_false=True, delayed_counter=True,
        adapted_mt=True, limit_slack=None, shortfall=0, value=1.5,
        channels=(0, 1), regions=(0, 1, 2, 2),
    )
    net = Net(
        items=(item, dataclasses.replace(item, regions=(0, 0, 1, 2))),
        channels=((40, 2), (10, 1)),
        background=((1, 8),),
        as_pipeline=True,
        seed=3,
    )
    ref = run(net, fast=False)
    parked = run(net, fast=True)
    assert ref[0] == parked[0] and ref[1] == parked[1]
    assert parked[2].runner.skipped_cycles > 0
    assert parked[2].runner.ticks_issued < ref[2].runner.ticks_issued


# ---------------------------------------------------------------------------
# traced runs: the stall attribution observing the same kernel
# ---------------------------------------------------------------------------


def record_cycles(built: Built) -> dict:
    """Log what a per-cycle classifier sees on a reference run: each
    process's tick state, overridden by ``transfer`` while its burst
    holds a channel after the channel ticked, and each channel's busy
    flag (in the kernel's channel order)."""
    log: dict[int, tuple[dict, list]] = {}
    for proc in built.processes:
        def tick(cycle, _tick=proc.tick, _name=proc.name):
            state = _tick(cycle)
            log.setdefault(cycle, ({}, []))[0][_name] = state
            return state

        proc.tick = tick
    runner = built.runner
    graph = getattr(runner, "graph", runner)
    for channel in graph.memory_channels:
        def channel_tick(cycle, _tick=channel.tick, _channel=channel):
            busy = _tick(cycle)
            states, channels = log.setdefault(cycle, ({}, []))
            channels.append(busy)
            current = _channel._current
            if current is not None and current.owner in states:
                states[current.owner] = TRANSFER
            return busy

        channel.tick = channel_tick
    return log


def classified(log: dict, built: Built, cycles: int, lanes: bool):
    """The ``(report dict, lanes)`` a per-cycle classifier derives from
    :func:`record_cycles`' log."""
    if cycles == 0:  # nothing ran: an empty report
        report = {"per_process": {}, "channel_busy_cycles": [],
                  "compute_cycles": 0, "overlap_cycles": 0}
        return report, ({} if lanes else None)
    per_process = {p.name: {} for p in built.processes}
    symbols = {p.name: [] for p in built.processes}
    busy = [0] * len(log[0][1])
    compute = overlap = 0
    for cycle in range(cycles):
        states, channels = log[cycle]
        busy = [b + c for b, c in zip(busy, channels)]
        for name, lane in symbols.items():
            state = states.get(name)
            if state is not None:
                counts = per_process[name]
                counts[state] = counts.get(state, 0) + 1
            lane.append({None: ".", COMPUTE: "C", TRANSFER: "T"}.get(state, "w"))
        if COMPUTE in states.values():
            compute += 1
            overlap += any(channels)
    report = {"per_process": per_process, "channel_busy_cycles": busy,
              "compute_cycles": compute, "overlap_cycles": overlap}
    return report, (symbols if lanes else None)


def run_traced(net: Net, fast: bool, max_cycles: int = 1_000_000):
    """:func:`run` under a global ChromeTracer; regions also get a
    lane-keeping attribution.  Returns ``(outcome, snapshot, built,
    stall report, lanes, trace)``; a pipeline that aborted has no live
    stall report (``None``).  The reference run (``fast=False``) is
    also checked against :func:`classified`."""
    built = build(net)
    log = None if fast else record_cycles(built)
    tracer = ChromeTracer()
    attribution = None
    kwargs = {"max_cycles": max_cycles, "fast_path": fast}
    if isinstance(built.runner, DataflowRegion):
        attribution = StallAttribution(
            built.runner.name, tracer=tracer, keep_lanes=True
        )
        kwargs["attribution"] = attribution
    stall = None
    with use_tracer(tracer):
        try:
            report = built.runner.run(**kwargs)
        except (DeadlockError, RuntimeError) as exc:
            outcome = (type(exc).__name__, str(exc))
        else:
            stall, report.stall_report = report.stall_report, None
            outcome = dataclasses.asdict(report)
    if attribution is not None:
        stall = attribution.report()
    lanes = attribution.lanes if attribution is not None else None
    if log is not None and stall is not None:
        report, expected_lanes = classified(
            log, built, stall.cycles, lanes is not None
        )
        assert {k: stall.to_dict()[k] for k in report} == report
        assert lanes == expected_lanes
    return outcome, snapshot(built), built, stall, lanes, tracer.to_dict()


def traceable(report) -> dict:
    """``report.to_dict()`` without what a trace has no span for: a
    process done before the first cycle, a channel never busy."""
    d = report.to_dict()
    d["per_process"] = {n: c for n, c in d["per_process"].items() if c}
    d["channel_busy_cycles"] = [b for b in d["channel_busy_cycles"] if b]
    return d


def assert_traced_same(net: Net, max_cycles: int = 1_000_000):
    untraced = run(net, fast=True, max_cycles=max_cycles)
    ref = run_traced(net, fast=False, max_cycles=max_cycles)
    fast = run_traced(net, fast=True, max_cycles=max_cycles)
    for traced in (ref, fast):
        assert traced[0] == untraced[0]  # report fields, or the abort
        assert traced[1] == untraced[1]
    assert fast[2].runner.ticks_issued == untraced[2].runner.ticks_issued
    assert (ref[3] is None) == (fast[3] is None)
    if fast[3] is not None:
        assert ref[3].to_dict() == fast[3].to_dict()
    assert ref[4] == fast[4]
    assert ref[5] == fast[5]
    stats = {p.name: p.stats for p in fast[2].processes}
    rebuilt = reports_from_trace(fast[5])
    if fast[3] is None:  # an aborted pipeline: only the trace is left
        assert len(rebuilt) == (max_cycles > 0)
        assert all(r.consistent_with(stats) == [] for r in rebuilt)
        return fast
    assert fast[3].consistent_with(stats) == []
    if fast[3].cycles == 0:  # aborted before the first cycle
        assert rebuilt == []
    else:
        assert len(rebuilt) == 1
        assert traceable(rebuilt[0]) == traceable(fast[3])
    return fast


@given(net=nets())
@settings(max_examples=25, deadline=None)
def test_traced_runs_match_reference(net):
    traced = assert_traced_same(net)
    assert isinstance(traced[0], dict), traced[0]
    assert traced[3].cycles == traced[0]["cycles"]


@given(net=nets(short=True))
@settings(max_examples=25, deadline=None)
def test_traced_short_sources_match_reference(net):
    """Deadlocked networks too: the attribution covers the deadlocked
    cycle on both paths, and the trace round-trips."""
    assert_traced_same(net)


@given(net=nets(short=True, max_items=3), data=st.data())
@settings(max_examples=25, deadline=None)
def test_traced_max_cycles_abort_matches_reference(net, data):
    outcome, _, _ = run(net, fast=False)
    if isinstance(outcome, dict):
        end = outcome["cycles"]
    else:  # a deadlock: abort somewhere before it
        end = int(outcome[1].split(" at cycle ")[1].split(":")[0]) + 1
    max_cycles = data.draw(st.integers(0, end - 1), label="max_cycles")
    traced = assert_traced_same(net, max_cycles=max_cycles)
    assert traced[0][0] == "RuntimeError"
    if traced[3] is not None:
        assert traced[3].cycles == max_cycles
