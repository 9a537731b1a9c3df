"""Live tier telemetry: periodic snapshot-delta polling + exposition.

The metrics registries count *cumulatively* — the right shape for
correctness assertions, the wrong shape for a dashboard ("how many
sheds" vs "how many sheds per second right now").  :class:`TierTelemetry`
closes the gap: each :meth:`poll` diffs the tier's counters against the
previous poll and emits one **snapshot-delta** record — per-shard and
per-tenant rates over the polling window plus tier-wide SLO aggregates
(availability, deadline attainment, latency quantiles from the bounded
histograms).  Records land in a bounded history ring, so a telemetry
thread left running for days holds constant memory, the same retention
contract as :class:`repro.obs.RequestTraceLog` and
:class:`repro.obs.Histogram`.

``now`` is injectable everywhere (the virtual-time test convention this
repo uses), and the optional background thread is just a loop around
:meth:`poll` — the poller itself never needs a thread.
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = ["TierTelemetry"]

#: engine counters diffed per shard each poll (registry name → record key)
_SHARD_COUNTERS = {
    "jobs_submitted": "submitted",
    "jobs_completed": "completed",
    "jobs_shed": "shed",
    "jobs_deadline_shed": "deadline_shed",
    "job_retries": "retries",
    "jobs_failed": "failed",
    "batches": "batches",
}


class TierTelemetry:
    """Snapshot-delta poller over a :class:`~repro.serve.sharding.ShardedEngine`.

    Parameters
    ----------
    tier:
        The sharded tier to observe (``shards`` dict + ``shard_healthy``).
    gateway:
        Optional :class:`~repro.serve.gateway.AdmissionGateway`; adds
        per-tenant outcome deltas and the admission-side counters.
    history:
        Bounded ring of past poll records (memory stays flat).
    """

    def __init__(self, tier, gateway=None, history: int = 512):
        if history < 1:
            raise ValueError("history must be >= 1")
        self.tier = tier
        self.gateway = gateway
        self.history: deque = deque(maxlen=history)
        self._last_t: float | None = None
        self._last_shard: dict[str, dict[str, int]] = {}
        self._last_tenant: dict = {}
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- polling -----------------------------------------------------------------

    def _shard_counters(self, shard) -> dict[str, int]:
        return {
            key: shard.metrics.counter(name).value
            for name, key in _SHARD_COUNTERS.items()
        }

    @staticmethod
    def _honest_summary(summary: dict) -> dict:
        """Latency summary with ``None`` stats when there are no samples.

        The shared ``summarize``/histogram snapshots keep a zero-filled
        shape for empty series (table renderers depend on the keys);
        telemetry records feed SLO dashboards, where a 0.0 p99 from an
        idle window would read as a perfectly fast tail.  Same
        discipline as the SLO ratios: no denominator, no number.
        """
        if not summary or summary.get("count"):
            return dict(summary)
        return {
            key: (0 if key in ("count", "sum") else None)
            for key in summary
        }

    @staticmethod
    def _clamped_delta(
        current: dict, previous: dict
    ) -> tuple[dict, int]:
        """Per-key ``current - previous`` clamped at zero.

        A counter going *backwards* between polls means its registry was
        reset mid-window (autoscaler ``remove_worker`` swapping a
        shard's engine, shard replacement) — the honest delta for the
        window is unknown, and a negative one would poison every rate
        and SLO ratio computed from it.  Each such key clamps to zero
        and counts as one reset.
        """
        delta: dict = {}
        resets = 0
        for key, value in current.items():
            d = value - previous.get(key, 0)
            if d < 0:
                resets += 1
                d = 0
            delta[key] = d
        return delta, resets

    def poll(self, now: float | None = None) -> dict:
        """One snapshot-delta record; appends to :attr:`history`.

        The first poll establishes the baseline (deltas measure from
        tier start).  Rates are ``None`` on that first record — there
        is no window to divide by yet.  Deltas never go negative: a
        counter that moved backwards (its registry was reset mid-window
        by a scale-down or shard replacement) clamps to zero and is
        tallied under ``counter_resets`` instead; SLO ratios keep their
        ``None``-on-zero-denominator semantics.
        """
        t = time.monotonic() if now is None else now
        with self._lock:
            dt = None if self._last_t is None else max(0.0, t - self._last_t)
            shards: dict[str, dict] = {}
            total = {key: 0 for key in _SHARD_COUNTERS.values()}
            total_resets = 0
            for name, shard in self.tier.shards.items():
                current = self._shard_counters(shard)
                previous = self._last_shard.get(name, {})
                delta, resets = self._clamped_delta(current, previous)
                total_resets += resets
                for key, value in delta.items():
                    total[key] += value
                breakers = shard.pool.breakers
                shards[name] = {
                    **delta,
                    "counter_resets": resets,
                    "queue_depth": len(shard.queue),
                    "healthy": self.tier.shard_healthy(name),
                    "breakers_open": sum(
                        0 if b.can_admit() else 1 for b in breakers.values()
                    ),
                }
                self._last_shard[name] = current
            tenants: dict = {}
            gateway_block = None
            if self.gateway is not None:
                counts = self.gateway.tenant_counts()
                for tenant, current in counts.items():
                    previous = self._last_tenant.get(tenant, {})
                    delta, resets = self._clamped_delta(current, previous)
                    total_resets += resets
                    if any(delta.values()):
                        tenants[tenant] = delta
                self._last_tenant = counts
                snap = self.gateway.metrics.snapshot()
                gateway_block = {
                    "service_estimate_s": self.gateway.estimate.value,
                    "latency_s": self._honest_summary(
                        snap.get("gateway.latency_s", {})
                    ),
                }
            # SLO view over this window: of everything that *resolved*,
            # how much resolved well, and how much met its deadline
            resolved = (
                total["completed"] + total["failed"] + total["deadline_shed"]
            )
            slo = {
                "availability": (
                    total["completed"] / resolved if resolved else None
                ),
                "deadline_attainment": (
                    1.0 - total["deadline_shed"] / resolved
                    if resolved
                    else None
                ),
                "shed_rate": (
                    total["shed"] / (total["submitted"] + total["shed"])
                    if total["submitted"] + total["shed"]
                    else None
                ),
            }
            record = {
                "t": t,
                "interval_s": dt,
                "tier": {
                    **total,
                    "counter_resets": total_resets,
                    "throughput_jps": (
                        total["completed"] / dt if dt else None
                    ),
                },
                "slo": slo,
                "shards": shards,
                "tenants": tenants,
                "gateway": gateway_block,
            }
            self._last_t = t
            self.history.append(record)
            return record

    def latest(self) -> dict | None:
        with self._lock:
            return self.history[-1] if self.history else None

    # -- background polling ------------------------------------------------------

    def start(self, interval_s: float = 1.0) -> "TierTelemetry":
        """Poll on a daemon thread every ``interval_s`` until :meth:`stop`."""
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if self._thread is not None:
            raise RuntimeError("telemetry thread already running")
        self._stop.clear()

        def _loop() -> None:
            while not self._stop.wait(interval_s):
                self.poll()

        self._thread = threading.Thread(
            target=_loop, name="repro-tier-telemetry", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(5.0)
        self._thread = None

    def __enter__(self) -> "TierTelemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- exposition --------------------------------------------------------------

    def expose_text(self) -> str:
        """OpenMetrics-style exposition of every registry in the tier.

        Concatenates the gateway, tier and per-shard engine registries
        (each already prefixed), the scrape-endpoint view of the same
        counters :meth:`poll` diffs.
        """
        parts = []
        if self.gateway is not None:
            parts.append(self.gateway.metrics.expose_text())
        parts.append(self.tier.metrics.expose_text())
        for name in sorted(self.tier.shards):
            shard = self.tier.shards[name]
            text = shard.metrics.expose_text()
            # engine registries all share the ``engine.`` prefix; tag
            # the lines with the shard so samples stay distinguishable
            parts.append(
                "\n".join(
                    line.replace("engine_", f"engine_{name}_", 1)
                    for line in text.splitlines()
                )
                + "\n"
            )
        return "".join(parts)
