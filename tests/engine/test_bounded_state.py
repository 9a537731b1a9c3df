"""An engine keeps flat memory however many jobs it serves.

The engine's metrics registry is its only record of completed work, and
a device worker advances a float timeline instead of keeping buffers
and readback events per batch.  Pushing thousands of jobs through one
engine must therefore leave the traced heap where an early checkpoint
found it: a per-job record or a per-batch readback copy would grow it
by kilobytes per job.
"""

import gc
import tracemalloc

from repro.engine import ExecutionEngine, GammaJob

N_SAMPLES = 2048  # 8 KB of float32 result per job
WARMUP_JOBS = 600  # past the histograms' 512-wait recent window
JOBS = 2000
#: growth allowed between the checkpoint and the end; retaining even
#: 400 bytes per job over the 1400 post-checkpoint jobs exceeds it
GROWTH_BOUND_BYTES = 1 << 19


def _serve(engine, first_seed, n, wave=64):
    for start in range(first_seed, first_seed + n, wave):
        stop = min(start + wave, first_seed + n)
        handles = [
            engine.submit(GammaJob(n_samples=N_SAMPLES, seed=seed))
            for seed in range(start, stop)
        ]
        for handle in handles:
            handle.result(60.0)


def test_memory_stays_flat_over_thousands_of_jobs():
    engine = ExecutionEngine(n_workers=2, max_batch=8, queue_depth=128)
    tracemalloc.start()
    try:
        with engine:
            _serve(engine, 0, WARMUP_JOBS)
            gc.collect()
            checkpoint, _ = tracemalloc.get_traced_memory()
            _serve(engine, WARMUP_JOBS, JOBS - WARMUP_JOBS)
            gc.collect()
            end, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert end - checkpoint < GROWTH_BOUND_BYTES, (
        f"heap grew {(end - checkpoint) / 1024:.0f} KiB over "
        f"{JOBS - WARMUP_JOBS} jobs"
    )
    assert engine.stats().jobs_completed == JOBS
