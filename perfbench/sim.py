"""``transfer-bound`` and ``compute-bound``: the cycle-level simulator.

One *pass* builds and runs every design of the workload once.  The
timed run repeats passes until its time is up and reports the median
pass, in calibrated host time (each design is timed between two runs
of the reference work).  Every pass is checked, and every pass of one
run must simulate exactly the same cycles.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.core import (
    ProcessStats,
    DecoupledConfig,
    DecoupledWorkItems,
    PricingPipelineConfig,
    build_pricing_pipeline,
    build_transfer_only_region,
    run_pricing_pipeline,
    transfer_only_cycles,
)
from repro.core.memory import ChannelStats
from repro.core.transfer import DummySource
from repro.harness.configs import CONFIGURATIONS
from repro.harness.pipelines import TRANSFER_BOUND_CONFIG

from perfbench.common import (
    PROCESS_CLASSES,
    Calibration,
    GcPauses,
    count_ticks,
    median,
    peak_rss_mb,
)

#: values each Fig 7 dummy source emits
FIG7_VALUES = 4096
#: Fig 7 regions: (work-items, burst words, stream depth)
FIG7_REGIONS = ((6, 1, 2), (8, 4, 16))
#: accepted gammas per work-item in the compute-bound kernels
COMPUTE_LIMIT_MAIN = 1024
#: Table I configurations of the compute-bound workload
COMPUTE_CONFIGS = ("Config1", "Config3")


@dataclass
class DesignRun:
    """One design built, run and checked."""

    name: str
    cycles: int
    skipped: int
    build_s: float
    run_s: float
    report: object
    processes: list
    kernels: list = field(default_factory=list)
    portfolio_total: float | None = None
    error: str | None = None


def make_inputs(workload: str, seed: int) -> dict:
    """Everything the designs take from the seed."""
    rng = np.random.default_rng(seed)
    inputs = {"kernel_seed": int(rng.integers(1, 2**31 - 1))}
    if workload == "transfer-bound":
        n_sources = sum(n for n, _, _ in FIG7_REGIONS)
        inputs["source_values"] = [
            float(v)
            for v in rng.uniform(0.5, 2.0, size=n_sources).astype(np.float32)
        ]
    return inputs


def _timed(build, run):
    t0 = time.perf_counter()
    built = build()
    t1 = time.perf_counter()
    report = run(built)
    t2 = time.perf_counter()
    return built, report, t1 - t0, t2 - t1


def _fig7(n_wi: int, burst_words: int, depth: int, values: list) -> DesignRun:
    def build():
        region, memory, _ = build_transfer_only_region(
            n_wi, FIG7_VALUES, burst_words, stream_depth=depth
        )
        sources = [p for p in region.processes if isinstance(p, DummySource)]
        for source, value in zip(sources, values):
            source.value = value
        return region, memory

    (region, memory), report, build_s, run_s = _timed(
        build, lambda built: built[0].run()
    )
    run = DesignRun(
        f"fig7-{n_wi}wi-b{burst_words}", report.cycles, region.skipped_cycles,
        build_s, run_s, report, list(region.processes),
    )
    model = transfer_only_cycles(FIG7_VALUES, n_wi, burst_words)
    if abs(report.cycles - model) > max(8, 0.1 * report.cycles):
        run.error = f"{run.name}: {report.cycles} cycles vs closed form {model}"
        return run
    words_per_item = FIG7_VALUES // 16
    for wid, value in enumerate(values[:n_wi]):
        block = memory.read_floats(wid * words_per_item, FIG7_VALUES)
        if not np.all(block == np.float32(value)):
            run.error = f"{run.name}: work-item {wid} memory lost source values"
            return run
    return run


def _pricing(name: str, config: PricingPipelineConfig) -> DesignRun:
    def build():
        pipeline = build_pricing_pipeline(config)
        return pipeline, pipeline.runner

    (build, runner), report, build_s, run_s = _timed(
        build, lambda built: built[1].run()
    )
    return DesignRun(
        name, report.cycles, runner.skipped_cycles, build_s, run_s, report,
        [*build.kernels, *build.pricers, *build.aggregate_engines,
         *build.archive_engines],
        kernels=list(build.kernels),
        portfolio_total=sum(e.total for e in build.aggregate_engines),
    )


def _decoupled(config_name: str, kernel_seed: int) -> DesignRun:
    conf = CONFIGURATIONS[config_name]
    config = DecoupledConfig(
        n_work_items=conf.fpga_work_items,
        kernel=conf.kernel_config(
            limit_main=COMPUTE_LIMIT_MAIN, seed=kernel_seed
        ),
    )
    items, result, build_s, run_s = _timed(
        lambda: DecoupledWorkItems(config), lambda built: built.run()
    )
    run = DesignRun(
        config_name, result.cycles, items.region.skipped_cycles, build_s,
        run_s, result.report, list(items.region.processes),
        kernels=list(items.kernels),
    )
    for wid, kernel in enumerate(items.kernels):
        produced = np.asarray(kernel.produced, dtype=np.float32)
        if len(produced) != config.kernel.total_outputs or not np.array_equal(
            result.gammas(wid), produced
        ):
            run.error = (
                f"{config_name}: work-item {wid} accepted gammas are not in "
                "device memory in order"
            )
            break
    return run


def _with_kernel_seed(config: PricingPipelineConfig, seed: int):
    return dataclasses.replace(
        config, kernel=dataclasses.replace(config.kernel, seed=seed)
    )


def designs(workload: str, inputs: dict) -> list:
    """The workload's designs as zero-argument callables."""
    seed = inputs["kernel_seed"]
    if workload == "transfer-bound":
        values = inputs["source_values"]
        out, offset = [], 0
        for n_wi, burst, depth in FIG7_REGIONS:
            chunk = values[offset:offset + n_wi]
            offset += n_wi
            out.append(
                lambda n=n_wi, b=burst, d=depth, v=chunk: _fig7(n, b, d, v)
            )
        one = _with_kernel_seed(TRANSFER_BOUND_CONFIG, seed)
        two = dataclasses.replace(one, n_channels=2, channel_affinity=(0, 1))
        out.append(lambda: _pricing("pricing-1ch", one))
        out.append(lambda: _pricing("pricing-2ch", two))
        return out
    pricing = _with_kernel_seed(PricingPipelineConfig(), seed)
    return [
        *(lambda c=name: _decoupled(c, seed) for name in COMPUTE_CONFIGS),
        lambda: _pricing("pricing", pricing),
    ]


def _cross_checks(workload: str, inputs: dict, runs: list) -> list[str]:
    """Checks that compare designs of one pass with each other."""
    by_name = {r.name: r for r in runs}
    if workload == "transfer-bound":
        one = by_name["pricing-1ch"].portfolio_total
        two = by_name["pricing-2ch"].portfolio_total
        if one != two:
            return [f"portfolio_total differs: 1 channel {one}, 2 channels {two}"]
        return []
    fused = run_pricing_pipeline(
        _with_kernel_seed(PricingPipelineConfig(), inputs["kernel_seed"]),
        mode="fused",
    ).portfolio_total
    piped = by_name["pricing"].portfolio_total
    if piped != fused:
        return [f"pipelined portfolio_total {piped} != fused {fused}"]
    return []


@dataclass
class Pass:
    """What one pass leaves behind: counts and calibrated times only."""

    cycles: list
    skipped: int
    build_s: float
    run_s: float
    errors: list

    @property
    def seconds(self) -> float:
        return self.build_s + self.run_s


def _passes(make, seconds: float, clock: Calibration, first: list) -> list[Pass]:
    """Repeat passes for ``seconds``; the first pass's runs go to ``first``."""
    out: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while not out or time.perf_counter() < deadline:
        p = Pass([], 0, 0.0, 0.0, [])
        for design in make:
            r = design()
            scale = clock.factor()
            p.cycles.append(r.cycles)
            p.skipped += r.skipped
            p.build_s += r.build_s * scale
            p.run_s += r.run_s * scale
            if r.error:
                p.errors.append(r.error)
            if not out:
                first.append(r)
        out.append(p)
    return out


def warm_up(workload: str, seed: int) -> None:
    """One small run of every kind of design (imports, lazy tables)."""
    _fig7(2, 4, 16, [1.0, 1.0])
    _pricing("warm", dataclasses.replace(PricingPipelineConfig(), n_work_items=1))
    if workload == "compute-bound":
        for name in COMPUTE_CONFIGS:
            conf = CONFIGURATIONS[name]
            DecoupledWorkItems(
                DecoupledConfig(
                    n_work_items=1, kernel=conf.kernel_config(limit_main=64)
                )
            ).run()


def _check(workload: str, inputs: dict, passes: list[Pass], first: list):
    """``(attempted, failed, errors)`` over every design run of the passes."""
    attempted = failed = 0
    errors: list[str] = []
    for p in passes:
        attempted += len(p.cycles)
        failed += len(p.errors)
        errors.extend(p.errors)
        if p.cycles != passes[0].cycles:
            failed += 1
            errors.append("simulated cycles differ between passes of one run")
    # the cross-design checks compare values that repeat exactly from
    # pass to pass, so checking the first pass covers the run
    cross = _cross_checks(workload, inputs, first)
    attempted += 1
    if cross:
        failed += 1
        errors.extend(cross)
    return attempted, failed, errors


def _layer_counters(runs: list) -> dict:
    """Per-layer counters the program exposes, for one pass."""
    cycles = sum(r.cycles for r in runs)
    by_class = defaultdict(lambda: [0, 0, 0])  # cycles, active, stall
    channel = ChannelStats()
    attempts = accepts = 0
    for run in runs:
        classes = {p.name: type(p).__name__ for p in run.processes}
        for name, stats in run.report.process_stats.items():
            if isinstance(stats, ProcessStats):
                acc = by_class[classes[name]]
                acc[0] += stats.cycles
                acc[1] += stats.active_cycles
                acc[2] += stats.stall_cycles
            elif isinstance(stats, ChannelStats):
                channel.bursts += stats.bursts
                channel.busy_cycles += stats.busy_cycles
                channel.idle_cycles += stats.idle_cycles
                channel.max_queue_depth = max(
                    channel.max_queue_depth, stats.max_queue_depth
                )
        for kernel in run.kernels:
            attempts += kernel.attempts
            accepts += kernel.accepts
    out = {
        "core.sim_cycles": cycles,
        "core.skip_ratio": sum(r.skipped for r in runs) / cycles,
        "memory.channel_utilization": channel.utilization,
        "memory.bursts": channel.bursts,
        "memory.max_queue_depth": channel.max_queue_depth,
        "rng.rejection_rate": 1.0 - accepts / attempts if attempts else 0.0,
    }
    for cls in PROCESS_CLASSES:
        live, active, stall = by_class.get(cls, (0, 0, 0))
        out[f"core.utilization.{cls}"] = active / live if live else 0.0
        out[f"core.stall_share.{cls}"] = stall / live if live else 0.0
    return out


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Returns ``(attempted, failed, errors, metrics)``."""
    inputs = make_inputs(workload, seed)
    make = designs(workload, inputs)
    clock = Calibration()
    first: list = []
    if not trace:
        passes = _passes(make, seconds, clock, first)
        attempted, failed, errors = _check(workload, inputs, passes, first)
        pass_s = median([p.seconds for p in passes])
        metrics = {
            "throughput_per_s": sum(passes[0].cycles) / pass_s,
            "latency_p50_ms": 1e3 * pass_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        return attempted, failed, errors, metrics

    plain = _passes(make, seconds / 2, clock, first)
    with GcPauses() as gc_pauses, count_ticks() as ticks:
        traced = _passes(make, seconds / 2, clock, [])
    attempted, failed, errors = _check(workload, inputs, plain + traced, first)
    cycles = sum(plain[0].cycles)
    ticks_per_pass = {cls: n / len(traced) for cls, n in ticks.items()}
    run_s = median([p.run_s for p in plain])
    metrics = _layer_counters(first)
    metrics.update(gc_pauses.metrics())
    metrics.update({
        "core.build_s": median([p.build_s for p in plain]),
        "core.run_s": run_s,
        "core.host_us_per_tick": 1e6 * run_s / sum(ticks_per_pass.values()),
        "calibration.reference_ms": clock.reference_ms(),
        "trace.overhead_ratio": (
            median([p.seconds for p in traced])
            / median([p.seconds for p in plain])
        ),
    })
    for cls in PROCESS_CLASSES:
        metrics[f"core.ticks_per_cycle.{cls}"] = (
            ticks_per_pass.get(cls, 0) / cycles
        )
    return attempted, failed, errors, metrics
