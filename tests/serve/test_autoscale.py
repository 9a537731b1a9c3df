"""Autoscaler: hysteresis, cooldown, bounds, and the live tier hookup."""

import pytest

from repro.serve.autoscale import AutoscalePolicy, Autoscaler, ShardSignals
from repro.serve.sharding import ShardedEngine


def _hot(workers=2):
    return ShardSignals(occupancy=0.9, wait_p99_s=0.5, active_workers=workers)


def _cold(workers=2):
    return ShardSignals(occupancy=0.05, wait_p99_s=0.0, active_workers=workers)


def _calm(workers=2):
    return ShardSignals(occupancy=0.5, wait_p99_s=0.0, active_workers=workers)


class TestEvaluate:
    def test_needs_consecutive_breaches(self):
        scaler = Autoscaler(AutoscalePolicy(breach_up=2, cooldown_ticks=0))
        assert scaler.evaluate(0, {"s": _hot()})["s"] == 0  # one breach
        assert scaler.evaluate(1, {"s": _hot()})["s"] == 1  # second fires

    def test_calm_tick_resets_streak(self):
        scaler = Autoscaler(AutoscalePolicy(breach_up=2, cooldown_ticks=0))
        scaler.evaluate(0, {"s": _hot()})
        scaler.evaluate(1, {"s": _calm()})  # interrupts the streak
        assert scaler.evaluate(2, {"s": _hot()})["s"] == 0

    def test_cooldown_spaces_actions(self):
        scaler = Autoscaler(AutoscalePolicy(breach_up=1, cooldown_ticks=3))
        assert scaler.evaluate(0, {"s": _hot()})["s"] == 1
        for tick in (1, 2, 3):  # still cooling down
            assert scaler.evaluate(tick, {"s": _hot()})["s"] == 0
        assert scaler.evaluate(4, {"s": _hot()})["s"] == 1

    def test_scale_down_is_slower(self):
        scaler = Autoscaler(
            AutoscalePolicy(breach_up=1, breach_down=3, cooldown_ticks=0)
        )
        assert scaler.evaluate(0, {"s": _cold(3)})["s"] == 0
        assert scaler.evaluate(1, {"s": _cold(3)})["s"] == 0
        assert scaler.evaluate(2, {"s": _cold(3)})["s"] == -1

    def test_bounds_clamp(self):
        scaler = Autoscaler(
            AutoscalePolicy(
                breach_up=1, breach_down=1, cooldown_ticks=0,
                min_workers=2, max_workers=3,
            )
        )
        assert scaler.evaluate(0, {"s": _hot(3)})["s"] == 0  # at max
        assert scaler.evaluate(1, {"s": _cold(2)})["s"] == 0  # at min

    def test_latency_signal_alone_triggers(self):
        scaler = Autoscaler(
            AutoscalePolicy(
                breach_up=1, cooldown_ticks=0, wait_p99_high_s=0.1
            )
        )
        slow = ShardSignals(
            occupancy=0.1, wait_p99_s=0.5, active_workers=1
        )
        assert scaler.evaluate(0, {"s": slow})["s"] == 1

    def test_deterministic_history(self):
        def run():
            scaler = Autoscaler(
                AutoscalePolicy(breach_up=1, breach_down=2, cooldown_ticks=1)
            )
            pattern = [_hot(), _hot(), _cold(3), _cold(3), _cold(3), _hot()]
            for tick, sig in enumerate(pattern):
                scaler.evaluate(tick, {"s": sig})
            return scaler.history()

        assert run() == run()

    def test_policy_guards(self):
        with pytest.raises(ValueError):
            AutoscalePolicy(occupancy_low=0.8, occupancy_high=0.7)
        with pytest.raises(ValueError):
            AutoscalePolicy(min_workers=0)
        with pytest.raises(ValueError):
            AutoscalePolicy(breach_up=0)


class TestLiveTier:
    def test_step_grows_and_shrinks_real_shards(self):
        policy = AutoscalePolicy(
            breach_up=1, breach_down=1, cooldown_ticks=0,
            min_workers=1, max_workers=4,
        )
        scaler = Autoscaler(policy)
        with ShardedEngine(n_shards=1, n_workers=1) as tier:
            # force the decision by patching the signal reader: hot
            scaler.read_signals = lambda t: {
                "shard0": ShardSignals(
                    occupancy=0.9, wait_p99_s=0.0,
                    active_workers=tier.shards["shard0"].n_active_workers,
                )
            }
            assert scaler.step(tier, tick=0) == {"shard0": 1}
            assert tier.active_workers()["shard0"] == 2
            # now cold: shrink back
            scaler.read_signals = lambda t: {
                "shard0": ShardSignals(
                    occupancy=0.0, wait_p99_s=0.0,
                    active_workers=tier.shards["shard0"].n_active_workers,
                )
            }
            assert scaler.step(tier, tick=1) == {"shard0": -1}
            assert tier.active_workers()["shard0"] == 1

    def test_read_signals_shape(self):
        scaler = Autoscaler()
        with ShardedEngine(n_shards=2, n_workers=1) as tier:
            signals = scaler.read_signals(tier)
        assert set(signals) == {"shard0", "shard1"}
        for sig in signals.values():
            assert 0.0 <= sig.occupancy <= 1.0
            assert sig.active_workers == 1


class TestIdleSignalHonesty:
    """Zero wait observations must surface as None, not a 0.0 p99."""

    def test_read_signals_idle_shard_has_none_tail(self):
        scaler = Autoscaler()
        with ShardedEngine(n_shards=1, n_workers=1) as tier:
            signals = scaler.read_signals(tier)
        # nothing was ever enqueued: no evidence, not "perfectly fast"
        assert signals["shard0"].wait_p99_s is None

    def test_zero_window_reads_no_waits(self):
        from repro.engine.jobs import GammaJob

        scaler = Autoscaler()
        with ShardedEngine(n_shards=1, n_workers=1) as tier:
            for h in [tier.submit(GammaJob(n_samples=16, seed=i)) for i in range(4)]:
                h.result(30.0)
            assert scaler.read_signals(tier)["shard0"].wait_p99_s is not None
            # an empty window is no evidence, not the whole history
            assert scaler.read_signals(tier, window=0)["shard0"].wait_p99_s is None

    def test_none_tail_never_reads_hot(self):
        scaler = Autoscaler(
            AutoscalePolicy(
                breach_up=1, cooldown_ticks=0, wait_p99_high_s=0.0
            )
        )
        sig = ShardSignals(occupancy=0.5, wait_p99_s=None, active_workers=2)
        # a fabricated 0.0 would satisfy `wait >= high` for high=0.0
        assert scaler.evaluate(0, {"s": sig})["s"] == 0

    def test_none_tail_still_counts_as_calm_for_scale_down(self):
        scaler = Autoscaler(
            AutoscalePolicy(
                breach_up=1, breach_down=1, cooldown_ticks=0,
                wait_p99_high_s=0.01,
            )
        )
        sig = ShardSignals(occupancy=0.0, wait_p99_s=None, active_workers=2)
        # an idle shard with no queued work is genuinely cold
        assert scaler.evaluate(0, {"s": sig})["s"] == -1
