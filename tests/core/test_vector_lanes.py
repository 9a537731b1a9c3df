"""Differential bit-identity: the lane-backed work-item vs the scalar tick.

The contract of :mod:`repro.core.lanes` is *bit-for-bit equivalence*:
the production :class:`~repro.core.kernel.GammaRNGProcess` must produce
the same device memory contents, the same ``RegionReport`` (cycles,
per-process buckets, stream counters), the same RNG statistics, and the
same produced values as :class:`~repro.core.kernel.ReferenceGammaRNGProcess`
— across sector counts, exit-condition styles, gated-MT ablations,
``break_id`` depths, Mersenne-Twister parameterizations and all four
transforms.
"""

import pytest

from repro.core.decoupled import DecoupledConfig, DecoupledWorkItems
from repro.core.kernel import (
    GammaKernelConfig,
    GammaRNGProcess,
    ReferenceGammaRNGProcess,
)
from repro.core.stream import Stream
from repro.rng.mersenne import MT521_PARAMS

from .test_fastpath_equivalence import channel_fields, report_fields


class ReferenceItems(DecoupledWorkItems):
    """The decoupled region built from the scalar reference work-item."""

    _kernel_cls = ReferenceGammaRNGProcess


LANE_CONFIGS = {
    "default": DecoupledConfig(
        n_work_items=3, kernel=GammaKernelConfig(limit_main=64)
    ),
    "multi_sector": DecoupledConfig(
        n_work_items=2,
        kernel=GammaKernelConfig(limit_main=64, sector_variances=(1.39, 0.5, 2.0)),
    ),
    "low_variance_unboosted": DecoupledConfig(
        n_work_items=2,
        kernel=GammaKernelConfig(limit_main=64, sector_variances=(0.7,)),
    ),
    "naive_exit": DecoupledConfig(
        n_work_items=2,
        kernel=GammaKernelConfig(limit_main=64, use_delayed_counter=False),
    ),
    "naive_mt": DecoupledConfig(
        n_work_items=2,
        kernel=GammaKernelConfig(limit_main=64, adapted_mt=False),
    ),
    "break_id2": DecoupledConfig(
        n_work_items=2, kernel=GammaKernelConfig(limit_main=64, break_id=2)
    ),
    "depth1_streams": DecoupledConfig(
        n_work_items=2, kernel=GammaKernelConfig(limit_main=64), stream_depth=1
    ),
    "two_channels": DecoupledConfig(
        n_work_items=4, kernel=GammaKernelConfig(limit_main=64), n_channels=2
    ),
    "mt521": DecoupledConfig(
        n_work_items=2,
        kernel=GammaKernelConfig(limit_main=64, mt_params=MT521_PARAMS),
    ),
    "mt_family": DecoupledConfig(
        n_work_items=2,
        kernel=GammaKernelConfig(
            limit_main=64, mt_params=MT521_PARAMS, mt_family=True
        ),
    ),
    **{
        transform: DecoupledConfig(
            n_work_items=2,
            kernel=GammaKernelConfig(
                transform=transform,
                limit_main=64,
                sector_variances=(1.39, 0.7),
            ),
        )
        for transform in ("icdf_fpga", "icdf_cuda", "box_muller")
    },
}


def run_pair(config, fast_path=True):
    scalar = ReferenceItems(config)
    vector = DecoupledWorkItems(config)
    return (
        (scalar, scalar.run(fast_path=fast_path)),
        (vector, vector.run(fast_path=fast_path)),
    )


@pytest.mark.parametrize("name", sorted(LANE_CONFIGS))
def test_lane_configs_bit_identical(name):
    (s_items, s_res), (v_items, v_res) = run_pair(LANE_CONFIGS[name])
    assert report_fields(s_res.report) == report_fields(v_res.report)
    assert channel_fields(s_items.region) == channel_fields(v_items.region)
    assert (
        s_res.memory.as_float_array() == v_res.memory.as_float_array()
    ).all()
    for s_k, v_k in zip(s_items.kernels, v_items.kernels):
        assert s_k.produced == v_k.produced  # exact float equality
        assert (s_k.attempts, s_k.accepts, s_k.overrun_iterations) == (
            v_k.attempts,
            v_k.accepts,
            v_k.overrun_iterations,
        )
        assert s_k.measured_rejection_rate == v_k.measured_rejection_rate


def test_gated_twister_statistics_identical():
    """steps/held of every facade twister match the scalar gating, for
    every transform (the ICDF transforms never step ``mt_norm_b``)."""
    for name in ("default", "icdf_fpga", "icdf_cuda", "box_muller"):
        (s_items, _), (v_items, _) = run_pair(LANE_CONFIGS[name])
        for s_k, v_k in zip(s_items.kernels, v_items.kernels):
            for role in ("mt_norm_a", "mt_norm_b", "mt_reject", "mt_correct"):
                s_mt, v_mt = getattr(s_k, role), getattr(v_k, role)
                assert (s_mt.steps, s_mt.held) == (v_mt.steps, v_mt.held)
                assert s_mt.hold_fraction == v_mt.hold_fraction
            assert (v_k.mt_norm_b.steps == 0) == name.startswith("icdf")


def test_lanes_on_reference_loop_identical():
    """Bit-identity holds on the reference loop too (no fast path)."""
    (s_items, s_res), (v_items, v_res) = run_pair(
        LANE_CONFIGS["default"], fast_path=False
    )
    assert report_fields(s_res.report) == report_fields(v_res.report)
    assert s_items.region.skipped_cycles == 0
    assert v_items.region.skipped_cycles == 0


def test_vector_process_keeps_fast_path_hints():
    """The lane-backed tick keeps the hints armed: runs still skip."""
    vector = DecoupledWorkItems(LANE_CONFIGS["depth1_streams"])
    vector.run()
    assert vector.region.skipped_cycles > 0


def test_lanes_instrumented_run_consistent():
    from repro.obs.stall import StallAttribution

    vector = DecoupledWorkItems(LANE_CONFIGS["default"])
    attribution = StallAttribution(vector.region.name)
    report = vector.region.run(attribution=attribution)
    assert report.stall_report.consistent_with(report.process_stats) == []


def test_vector_process_direct_construction():
    """The process is usable standalone, outside any region."""
    sink = Stream("out", depth=4)
    proc = GammaRNGProcess(
        "k", 0, GammaKernelConfig(limit_main=64), sink
    )
    cycle = 0
    while not proc.done():
        proc.tick(cycle)
        while not sink.empty():
            sink.read()
        cycle += 1
    assert proc.outputs_produced == 64
    assert len(proc.produced) == 64
