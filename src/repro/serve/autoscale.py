"""SLO-driven elastic capacity for engine shards, with hysteresis.

The autoscaler closes the loop between two load signals and the
engine's new elastic-worker hooks
(:meth:`~repro.engine.engine.ExecutionEngine.add_worker` /
:meth:`~repro.engine.engine.ExecutionEngine.remove_worker`):

* **queue occupancy fraction** — how full the shard's bounded admission
  FIFO is (``len(queue) / depth``).  A persistently full FIFO is the
  paper's backpressure signal surfacing at serving scale: the device
  pool cannot drain work as fast as the gateway admits it;
* **queue-wait tail latency** — the p99 of the shard's ``queue_wait_s``
  histogram over the most recent window, the number every serving SLO
  is actually written against.

Both signals must breach for ``breach_up`` *consecutive* evaluations
before a scale-up fires, and stay calm for ``breach_down`` evaluations
before a scale-down — classic hysteresis, so one bursty tick doesn't
thrash capacity.  A per-shard cooldown further spaces decisions, and
``min_workers``/``max_workers`` bound the pool.  All decision logic
lives in the pure :meth:`Autoscaler.evaluate` (tick index in, verdicts
out), so tests drive it without threads or clocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.percentiles import percentile

__all__ = ["AutoscalePolicy", "ShardSignals", "Autoscaler"]


@dataclass(frozen=True)
class AutoscalePolicy:
    """Thresholds, hysteresis and bounds for one tier."""

    occupancy_high: float = 0.75  # scale up above this queue fraction
    occupancy_low: float = 0.25  # scale down below this queue fraction
    wait_p99_high_s: float | None = None  # scale up above this tail wait
    breach_up: int = 2  # consecutive hot evaluations before growing
    breach_down: int = 4  # consecutive cold evaluations before shrinking
    cooldown_ticks: int = 2  # evaluations to sit out after any action
    min_workers: int = 1
    max_workers: int = 8
    step: int = 1  # workers added/removed per action

    def __post_init__(self):
        if not 0.0 <= self.occupancy_low < self.occupancy_high <= 1.0:
            raise ValueError("need 0 <= occupancy_low < occupancy_high <= 1")
        if self.min_workers < 1 or self.max_workers < self.min_workers:
            raise ValueError("need 1 <= min_workers <= max_workers")
        if self.breach_up < 1 or self.breach_down < 1 or self.step < 1:
            raise ValueError("breach counts and step must be >= 1")


@dataclass(frozen=True)
class ShardSignals:
    """One evaluation's view of one shard.

    ``wait_p99_s`` is ``None`` when the window held **zero** wait
    observations — an idle shard has no tail, and feeding the decision
    logic a fabricated 0.0 would read as "perfectly fast" rather than
    "no evidence".  The hot test treats ``None`` as not-hot; the cold
    test accepts it (no queued work is genuinely calm), so the
    *decision* for an idle shard is unchanged while the signal stays
    honest for telemetry and tests.
    """

    occupancy: float  # queue fraction in [0, 1]
    wait_p99_s: float | None  # tail queue wait; None without samples
    active_workers: int


@dataclass
class _ShardState:
    hot_streak: int = 0
    cold_streak: int = 0
    cooldown_until: int = -1
    actions: list = field(default_factory=list)  # (tick, delta) history


class Autoscaler:
    """Hysteretic scale decisions over per-shard signals.

    Use :meth:`evaluate` for pure decisions (virtual-time simulation,
    tests) and :meth:`step` to read a live
    :class:`~repro.serve.sharding.ShardedEngine`, decide, and apply.
    """

    def __init__(self, policy: AutoscalePolicy | None = None):
        self.policy = policy or AutoscalePolicy()
        self._states: dict = {}

    def _state(self, shard: str) -> _ShardState:
        return self._states.setdefault(shard, _ShardState())

    # -- pure decision core ------------------------------------------------------

    def _is_hot(self, signals: ShardSignals) -> bool:
        if signals.occupancy >= self.policy.occupancy_high:
            return True
        high = self.policy.wait_p99_high_s
        return (
            high is not None
            and signals.wait_p99_s is not None
            and signals.wait_p99_s >= high
        )

    def _is_cold(self, signals: ShardSignals) -> bool:
        if signals.occupancy > self.policy.occupancy_low:
            return False
        high = self.policy.wait_p99_high_s
        return (
            high is None
            or signals.wait_p99_s is None  # no waits at all: calm
            or signals.wait_p99_s < high
        )

    def evaluate(
        self, tick: int, signals: dict[str, ShardSignals]
    ) -> dict[str, int]:
        """Worker deltas per shard for this evaluation (0 = hold).

        Deterministic: the verdict is a pure function of the signal
        history fed through previous calls.  Hysteresis streaks reset
        whenever the opposite condition interrupts them.
        """
        policy = self.policy
        deltas: dict[str, int] = {}
        for shard, sig in sorted(signals.items()):
            state = self._state(shard)
            hot, cold = self._is_hot(sig), self._is_cold(sig)
            state.hot_streak = state.hot_streak + 1 if hot else 0
            state.cold_streak = state.cold_streak + 1 if cold else 0
            delta = 0
            if tick >= state.cooldown_until:
                if (
                    state.hot_streak >= policy.breach_up
                    and sig.active_workers < policy.max_workers
                ):
                    delta = min(
                        policy.step,
                        policy.max_workers - sig.active_workers,
                    )
                elif (
                    state.cold_streak >= policy.breach_down
                    and sig.active_workers > policy.min_workers
                ):
                    delta = -min(
                        policy.step,
                        sig.active_workers - policy.min_workers,
                    )
            if delta:
                state.cooldown_until = tick + 1 + policy.cooldown_ticks
                state.hot_streak = state.cold_streak = 0
                state.actions.append((tick, delta))
            deltas[shard] = delta
        return deltas

    # -- live tier driver --------------------------------------------------------

    def read_signals(self, tier, window: int = 256) -> dict[str, ShardSignals]:
        """Sample a live :class:`ShardedEngine`'s shards.

        Occupancy is instantaneous; the wait tail is the p99 of the last
        ``window`` queue-wait observations (full history would let a
        calm past mask a hot present).
        """
        out: dict[str, ShardSignals] = {}
        for name, shard in tier.shards.items():
            occupancy = len(shard.queue) / shard.queue.depth
            waits = shard.metrics.histogram("queue_wait_s").recent(window)
            out[name] = ShardSignals(
                occupancy=occupancy,
                # zero observations → None, not a fabricated 0.0 p99
                wait_p99_s=percentile(waits, 0.99) if waits else None,
                active_workers=shard.n_active_workers,
            )
        return out

    def step(self, tier, tick: int) -> dict[str, int]:
        """Read, decide and apply one autoscaling round; returns deltas."""
        signals = self.read_signals(tier)
        deltas = self.evaluate(tick, signals)
        for shard, delta in deltas.items():
            if delta:
                target = signals[shard].active_workers + delta
                tier.scale_shard(shard, target)
        return deltas

    # -- reporting ---------------------------------------------------------------

    def history(self) -> dict[str, list]:
        """Per-shard ``(tick, delta)`` action log."""
        return {
            shard: list(state.actions)
            for shard, state in sorted(self._states.items())
        }
