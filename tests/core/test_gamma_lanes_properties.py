"""Property differential: the lane-backed gamma work-item against the
scalar Listing 2 tick.

:class:`~repro.core.kernel.GammaRNGProcess` computes MAINLOOP iterations
ahead in numpy blocks (:mod:`repro.core.lanes`);
:class:`~repro.core.kernel.ReferenceGammaRNGProcess` runs one scalar
iteration per tick.  Hypothesis generates kernels over all four
transforms — seeds, quotas, caps, sector variances on both sides of the
alpha < 1 boost, ``break_id``, both exit styles, adapted and naive
twisters, MT19937 and MT521, lane block sizes — and runs each one both
ways:

* inside a :class:`~repro.core.decoupled.DecoupledWorkItems` region
  (random work-item counts and stream depths), on the fast path or the
  reference loop: device memory, the full ``RegionReport``, per-kernel
  ``attempts``/``accepts``/``overrun_iterations``/``produced`` and every
  twister façade's ``steps``/``held`` must be identical;
* standalone against a slowly drained sink, tick by tick: the state
  every tick returns must match as well.

The pricing pipeline is checked once per shipped configuration.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.decoupled import DecoupledConfig, DecoupledWorkItems
from repro.core.kernel import (
    TRANSFORMS,
    GammaKernelConfig,
    GammaRNGProcess,
    ReferenceGammaRNGProcess,
)
from repro.core.lanes import DEFAULT_BLOCK
from repro.core.pricing import (
    PricingPipelineConfig,
    _build,
    build_pricing_pipeline,
)
from repro.core.stream import Stream
from repro.harness.pipelines import TRANSFER_BOUND_CONFIG
from repro.rng.mersenne import MT19937_PARAMS, MT521_PARAMS

from .test_fastpath_equivalence import (
    channel_fields,
    pipeline_report_fields,
    report_fields,
)

ROLES = ("mt_norm_a", "mt_norm_b", "mt_reject", "mt_correct")


def lane_class(block: int) -> type:
    """The production work-item with a lane block of ``block`` iterations."""
    if block == DEFAULT_BLOCK:
        return GammaRNGProcess
    return type("GammaRNGProcess", (GammaRNGProcess,), {"_lane_block": block})


def items_class(kernel_cls: type) -> type:
    return type("Items", (DecoupledWorkItems,), {"_kernel_cls": kernel_cls})


def memory_bits(memory) -> bytes:
    return memory.as_float_array().tobytes()


def kernel_fields(kernel) -> dict:
    return {
        "produced": kernel.produced,
        "attempts": kernel.attempts,
        "accepts": kernel.accepts,
        "overrun_iterations": kernel.overrun_iterations,
        "outputs_produced": kernel.outputs_produced,
        "twisters": [
            (getattr(kernel, r).steps, getattr(kernel, r).held) for r in ROLES
        ],
    }


variances = st.lists(
    st.one_of(
        st.floats(min_value=0.2, max_value=0.95),  # alpha > 1: unboosted
        st.floats(min_value=1.05, max_value=4.0),  # alpha < 1: boosted
    ),
    min_size=1,
    max_size=3,
).map(tuple)


def kernel_configs(limit_main, limit_max=st.none()):
    return st.builds(
        GammaKernelConfig,
        transform=st.sampled_from(TRANSFORMS),
        mt_params=st.sampled_from([MT19937_PARAMS, MT521_PARAMS]),
        sector_variances=variances,
        limit_main=limit_main,
        limit_max=limit_max,
        break_id=st.integers(min_value=0, max_value=3),
        use_delayed_counter=st.booleans(),
        adapted_mt=st.booleans(),
        seed=st.integers(min_value=1, max_value=2**31 - 1),
    )


@st.composite
def region_configs(draw):
    burst_words = draw(st.sampled_from([1, 2]))
    bursts = draw(st.integers(min_value=1, max_value=3))
    kernel = draw(kernel_configs(st.just(16 * burst_words * bursts)))
    return DecoupledConfig(
        n_work_items=draw(st.integers(min_value=1, max_value=3)),
        kernel=kernel,
        burst_words=burst_words,
        stream_depth=draw(st.integers(min_value=1, max_value=8)),
    )


blocks = st.sampled_from([1, 3, 17, DEFAULT_BLOCK])


@settings(max_examples=80, deadline=None)
@given(config=region_configs(), block=blocks, fast_path=st.booleans())
def test_region_bit_identical(config, block, fast_path):
    runs = []
    for kernel_cls in (ReferenceGammaRNGProcess, lane_class(block)):
        items = items_class(kernel_cls)(config)
        runs.append((items, items.run(fast_path=fast_path)))
    (ref_items, ref), (lane_items, lane) = runs
    assert report_fields(ref.report) == report_fields(lane.report)
    assert channel_fields(ref_items.region) == channel_fields(lane_items.region)
    assert memory_bits(ref.memory) == memory_bits(lane.memory)
    assert [kernel_fields(k) for k in ref_items.kernels] == [
        kernel_fields(k) for k in lane_items.kernels
    ]
    assert lane_items.region.skipped_cycles == 0 or fast_path


def tick_trace(kernel, drain_every: int) -> list[str]:
    """Tick ``kernel`` to completion, reading one value from its sink
    every ``drain_every`` cycles; the state of every tick."""
    states = []
    cycle = 0
    while not kernel.done():
        states.append(kernel.tick(cycle))
        if cycle % drain_every == 0 and kernel.sink.can_read():
            kernel.sink.read()
        cycle += 1
        assert cycle < 200_000
    return states


@settings(max_examples=80, deadline=None)
@given(
    config=st.integers(min_value=1, max_value=40).flatmap(
        lambda limit: kernel_configs(
            st.just(limit),
            st.one_of(
                st.none(), st.integers(min_value=limit, max_value=2 * limit)
            ),
        )
    ),
    wid=st.integers(min_value=0, max_value=7),
    depth=st.integers(min_value=1, max_value=4),
    drain_every=st.integers(min_value=1, max_value=3),
    block=blocks,
)
def test_standalone_ticks_identical(config, wid, depth, drain_every, block):
    kernels = [
        cls("k", wid, config, Stream("g", depth=depth))
        for cls in (ReferenceGammaRNGProcess, lane_class(block))
    ]
    ref, lane = (tick_trace(k, drain_every) for k in kernels)
    assert ref == lane
    assert kernel_fields(kernels[0]) == kernel_fields(kernels[1])
    assert vars(kernels[0].stats) == vars(kernels[1].stats)


@pytest.mark.parametrize(
    "config",
    [TRANSFER_BOUND_CONFIG, PricingPipelineConfig()],
    ids=["transfer_bound", "default"],
)
def test_pricing_pipeline_identical(config):
    builds, reports = [], []
    for kernel_cls in (ReferenceGammaRNGProcess, GammaRNGProcess):
        build = _build(config, pipelined=True, kernel_cls=kernel_cls)
        reports.append(pipeline_report_fields(build.runner.run()))
        builds.append(build)
    ref, lane = builds
    assert reports[0] == reports[1]
    assert sum(e.total for e in ref.aggregate_engines) == sum(
        e.total for e in lane.aggregate_engines
    )
    assert memory_bits(ref.memory) == memory_bits(lane.memory)
    assert [kernel_fields(k) for k in ref.kernels] == [
        kernel_fields(k) for k in lane.kernels
    ]


def test_builders_run_the_lanes():
    """Every builder hands out the lane-backed work-item."""
    items = DecoupledWorkItems(
        DecoupledConfig(n_work_items=1, kernel=GammaKernelConfig(limit_main=64))
    )
    build = build_pricing_pipeline(PricingPipelineConfig())
    for kernel in (*items.kernels, *build.kernels):
        assert type(kernel) is GammaRNGProcess
        assert kernel._hintable
