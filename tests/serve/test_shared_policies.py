"""Differential tests: the virtual tier runs the live tier's policies.

``simulate_tier`` decides nothing on its own.  Each check here builds a
small trace, runs it through the virtual tier, and compares what it
decided with what the live code decides for the same jobs:

* pricing — :meth:`DeviceWorker.price` on trace events equals what
  :meth:`DeviceWorker.execute` charges for the jobs they describe;
* faults — a ``fail`` rule fires on a virtual attempt exactly when the
  live worker raises (batch scope) or errors the job (job scope);
* retries — every virtual backoff is :class:`RetryPolicy`'s;
* deadlines — a job whose deadline passes mid-attempt is shed at the
  deadline, as the live watchdog sheds it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.batcher import Batch
from repro.engine.pool import DeviceWorker
from repro.engine.resilience import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    RetryPolicy,
)
from repro.obs import RequestTraceLog
from repro.obs.rtrace import derive_trace_id
from repro.serve.gateway import TenantPolicy
from repro.serve.loadgen import (
    TierSpec,
    TraceEvent,
    WorkloadSpec,
    generate_trace,
    job_from_event,
    simulate_tier,
)

#: one worker, no throttling: every event of a test batch reaches it
ONE_WORKER = TierSpec(
    n_shards=1, workers_per_shard=1, queue_depth=64, max_batch=8,
    tenant_policy=TenantPolicy(rate=1e9, burst=1e9),
)

_CONFIGS = ("Config1", "Config2", "Config3", "Config4")
_VARIANCES = (0.35, 1.39, 6.0)


def _batch(config, variance, sizes, deadlines=None) -> list[TraceEvent]:
    """Same-key events all arriving at t=0: the virtual tier's first batch."""
    deadlines = deadlines or [None] * len(sizes)
    return [
        TraceEvent(
            index=i, t=0.0, tenant=i, config=config, variance=variance,
            n_samples=n, seed=1000 + i, deadline_s=d,
        )
        for i, (n, d) in enumerate(zip(sizes, deadlines))
    ]


def _chains(log: RequestTraceLog, events) -> dict[int, list]:
    """Event index → its span chain (the run's trace salt is empty)."""
    chains = log.chains()
    return {
        e.index: chains[derive_trace_id(log.seed, ("", e.index))]
        for e in events
    }


_batches = st.tuples(
    st.sampled_from(_CONFIGS),
    st.sampled_from(_VARIANCES),
    st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=6),
)


@settings(max_examples=40, deadline=None)
@given(batch=_batches)
def test_virtual_price_equals_live_execute(batch):
    config, variance, sizes = batch
    events = _batch(config, variance, sizes)
    live = DeviceWorker("s0w0").execute(
        Batch(jobs=[job_from_event(e) for e in events])
    )
    kernel, _ = DeviceWorker("s0w0").price(events)
    assert kernel == live.device_seconds

    report = simulate_tier(events, ONE_WORKER)
    assert report["batches"] == 1
    assert report["device_busy_s"] == live.batch_device_seconds
    assert report["latency_s"]["max"] == live.batch_device_seconds


_rules = st.lists(
    st.builds(
        FaultRule,
        scope=st.sampled_from(("batch", "job")),
        mode=st.just("fail"),
        probability=st.sampled_from((0.0, 0.3, 0.7, 1.0)),
        match=st.sampled_from((None, "s0w0", "s0w1")),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(
    batch=_batches,
    rules=_rules,
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_virtual_fault_decision_matches_live_worker(batch, rules, seed):
    config, variance, sizes = batch
    events = _batch(config, variance, sizes)
    plan = FaultPlan(rules, seed=seed)

    worker = DeviceWorker("s0w0")
    worker.fault_plan = plan
    live_batch = Batch(jobs=[job_from_event(e) for e in events])
    live_batch.batch_id = 1  # the virtual tier's first batch id
    try:
        outcome = worker.execute(live_batch)
    except InjectedFault:
        batch_failed, job_failed = True, [True] * len(events)
    else:
        batch_failed = False
        job_failed = [isinstance(e, InjectedFault) for e in outcome.errors]

    log = RequestTraceLog(seed=seed)
    simulate_tier(events, ONE_WORKER, chaos=plan, rlog=log)
    first = {
        index: next(s for s in chain if s.kind == "execute")
        for index, chain in _chains(log, events).items()
    }
    assert all(s.attrs["attempt"] == 1 for s in first.values())
    assert [first[e.index].status == "error" for e in events] == job_failed
    # a failed batch raises before any device work: no device time
    assert all((s.dur == 0.0) == batch_failed for s in first.values())


def test_unhonourable_rules_raise_naming_the_rule():
    events = _batch("Config1", 1.39, [64])
    for rule in (
        FaultRule(scope="worker", mode="kill", match="s0w0"),
        FaultRule(scope="batch", mode="wedge", probability=0.5),
        FaultRule(scope="job", mode="latency"),
    ):
        with pytest.raises(ValueError, match=rule.mode):
            simulate_tier(events, ONE_WORKER, chaos=FaultPlan([rule]))


def test_retry_backoff_is_the_live_retry_policy():
    # enough load that batches, and so retry batches, hold several jobs
    spec = WorkloadSpec(seed=5, n_jobs=200, rate_jps=8000.0)
    plan = FaultPlan(
        [FaultRule(scope="batch", mode="fail", probability=0.3)], seed=3
    )
    trace = generate_trace(spec)
    log = RequestTraceLog(seed=spec.seed)
    tier = TierSpec(
        n_shards=2, workers_per_shard=2,
        tenant_policy=TenantPolicy(rate=1e9, burst=1e9),
    )
    report = simulate_tier(trace, tier, chaos=plan, rlog=log)
    assert report["retries"] > 0
    policy = RetryPolicy()
    retried: dict[int, list] = {}
    for index, chain in _chains(log, trace).items():
        for i, span in enumerate(chain):
            if span.kind != "retry_scheduled":
                continue
            retried.setdefault(span.attrs["batch_id"], []).append(
                (index, span)
            )
            # the retry's execute starts no earlier than its backoff ends
            following = next(s for s in chain[i:] if s.kind == "execute")
            assert following.attrs["attempt"] == span.attrs["attempt"]
            assert following.t >= span.t + span.attrs["delay_s"]
    assert sum(len(v) for v in retried.values()) == report["retries"]
    assert any(len(members) > 1 for members in retried.values())
    for members in retried.values():
        # the live engine keys the jitter on the retry batch's first job
        key = min(index for index, _ in members)
        for _, span in members:
            assert span.attrs["delay_s"] == policy.delay_s(
                span.attrs["attempt"] - 1, key=key
            )


def test_deadline_passing_mid_attempt_is_shed_at_the_deadline():
    # one batch at t=0: a large job keeps it on the device well past
    # the small job's 0.1 ms deadline, which it did not miss at start
    events = _batch("Config1", 1.39, [2_000_000, 64], [None, 1e-4])
    log = RequestTraceLog()
    report = simulate_tier(events, ONE_WORKER, rlog=log)
    assert report["completed"] == 1
    assert report["shed_deadline"] == 1
    assert report["completed"] + report["shed_total"] == 2
    terminal = _chains(log, events)[1][-1]
    assert (terminal.kind, terminal.status) == ("deadline", "shed")
    assert terminal.attrs["latency_s"] == pytest.approx(1e-4)
    assert terminal.t == pytest.approx(1e-4)
