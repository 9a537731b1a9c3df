"""The memory-channel entries of ``report.process_stats``.

Seed-era callers addressed the single channel's stats as
``report.process_stats["__memory_channel__"]``.  Reports now key every
channel by index only (``__memory_channel_0__``, …): the un-indexed key
is gone, so a reader of the old key fails loudly instead of silently
seeing channel 0, and iteration sees each channel exactly once.
"""

import pytest

from repro.core.kernel import GammaKernelConfig
from repro.core.pricing import PricingPipelineConfig, run_pricing_pipeline
from repro.core.decoupled import DecoupledConfig, DecoupledWorkItems

OLD_CHANNEL_KEY = "__memory_channel__"


class TestSeedEraCallPatterns:
    """Seed-era reads of channel stats, on real reports end to end."""

    def test_decoupled_kernel_report(self):
        report = DecoupledWorkItems(
            DecoupledConfig(
                n_work_items=1, kernel=GammaKernelConfig(limit_main=64)
            )
        ).run().report
        stats = report.process_stats
        assert stats["__memory_channel_0__"].bursts > 0
        assert OLD_CHANNEL_KEY not in stats
        with pytest.raises(KeyError):
            stats[OLD_CHANNEL_KEY]

    def test_pipeline_report(self):
        result = run_pricing_pipeline(PricingPipelineConfig())
        stats = result.report.process_stats
        assert stats["__memory_channel_0__"] is result.build.channels[0].stats
        assert OLD_CHANNEL_KEY not in stats

    def test_multi_channel_alias_is_channel_zero(self):
        result = run_pricing_pipeline(
            PricingPipelineConfig(n_channels=2, channel_affinity=(0, 1))
        )
        stats = result.report.process_stats
        ch0, ch1 = (c.stats for c in result.build.channels)
        assert stats["__memory_channel_0__"] is ch0
        assert stats["__memory_channel_0__"] is not ch1
        assert stats["__memory_channel_1__"] is ch1
        assert OLD_CHANNEL_KEY not in stats
