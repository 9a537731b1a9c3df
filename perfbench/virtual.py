"""``serve-virtual``: the virtual-clock tier model under overload.

Each *step* draws the seeded trace (``generate_trace``) and runs it
through ``simulate_tier`` for the ``serve-tier`` tier: 4 shards x 2
workers, one spill hop, the default virtual chaos plan, at one
overloaded multiplier of the ``serve-tier`` base rate.  The timed run
repeats steps until its time is up and reports the median step, in
calibrated host time.
"""

from __future__ import annotations

import time

from repro.obs import RequestTraceLog
from repro.serve.gateway import TenantPolicy
from repro.serve.loadgen import (
    TierSpec,
    WorkloadSpec,
    default_virtual_chaos,
    generate_trace,
    simulate_tier,
)

from perfbench.common import Calibration, GcPauses, median, peak_rss_mb

#: ``serve-tier``'s base rate and the overloaded multiplier measured
BASE_RATE_JPS = 1500.0
LOAD_MULTIPLIER = 8.0
N_JOBS = 8000
TIER = TierSpec(
    n_shards=4,
    workers_per_shard=2,
    queue_depth=64,
    max_batch=8,
    tenant_policy=TenantPolicy(rate=150.0, burst=300.0),
    spill=1,
)
#: the report fields that must repeat exactly from step to step
_STABLE = ("completed", "shed_total", "failed", "retries", "latency_s")


def make_spec(seed: int, n_jobs: int = N_JOBS) -> WorkloadSpec:
    return WorkloadSpec(
        seed=seed,
        n_jobs=n_jobs,
        rate_jps=BASE_RATE_JPS * LOAD_MULTIPLIER,
        deadline_s=0.025,
        deadline_fraction=0.25,
    )


def _step(spec: WorkloadSpec, rlog=None):
    t0 = time.perf_counter()
    trace = generate_trace(spec)
    t1 = time.perf_counter()
    report = simulate_tier(trace, TIER, chaos=default_virtual_chaos(0), rlog=rlog)
    t2 = time.perf_counter()
    return report, t1 - t0, t2 - t1


def _steps(spec: WorkloadSpec, seconds: float, clock: Calibration,
           traced: bool = False) -> list:
    """``(report, generate_s, simulate_s)`` per step, times calibrated."""
    out = []
    deadline = time.perf_counter() + seconds
    while not out or time.perf_counter() < deadline:
        rlog = RequestTraceLog(capacity=2 * spec.n_jobs, sample_rate=1.0) if traced else None
        report, generate_s, simulate_s = _step(spec, rlog)
        scale = clock.factor()
        out.append((report, generate_s * scale, simulate_s * scale))
    return out


def warm_up(seed: int) -> None:
    """The first ``simulate_tier`` call fills the device-model caches."""
    _step(make_spec(seed + 1, n_jobs=500))


def _check(steps: list, errors: list) -> tuple[int, int]:
    failed = 0
    first = steps[0][0]
    for report, _, _ in steps:
        total = report["completed"] + report["shed_total"] + report["failed"]
        if total != report["offered_jobs"]:
            failed += 1
            errors.append(
                f"completed+shed+failed = {total} != offered {report['offered_jobs']}"
            )
        elif any(report[k] != first[k] for k in _STABLE):
            failed += 1
            errors.append("simulate_tier is not deterministic for one trace")
    return len(steps), failed


def _step_s(steps: list) -> float:
    return median([g + s for _, g, s in steps])


def run(seed: int, seconds: float, trace: bool):
    """Returns ``(attempted, failed, errors, metrics)``."""
    spec = make_spec(seed)
    clock = Calibration()
    errors: list[str] = []
    if not trace:
        steps = _steps(spec, seconds, clock)
        attempted, failed = _check(steps, errors)
        step_s = _step_s(steps)
        metrics = {
            "throughput_per_s": spec.n_jobs / step_s,
            "latency_p50_ms": 1e3 * step_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        return attempted, failed, errors, metrics

    plain = _steps(spec, seconds / 2, clock)
    with GcPauses() as gc_pauses:
        traced = _steps(spec, seconds / 2, clock, traced=True)
    attempted, failed = _check(plain + traced, errors)
    metrics = gc_pauses.metrics()
    metrics.update({
        "virtual.generate_s": median([g for _, g, _ in plain]),
        "virtual.simulate_s": median([s for _, _, s in plain]),
        "calibration.reference_ms": clock.reference_ms(),
        "trace.overhead_ratio": _step_s(traced) / _step_s(plain),
    })
    return attempted, failed, errors, metrics
