"""Batcher coalescing and worker-pool scheduling policies."""

import time

import pytest

from repro.engine import (
    Batch,
    Batcher,
    BoundedJobQueue,
    DeviceWorker,
    GammaJob,
    make_policy,
)
from repro.engine.pool import (
    DeviceAffinityPolicy,
    FifoPolicy,
    LeastLoadedPolicy,
)


def _job(seed=1, variance=1.39, n=64):
    return GammaJob(n_samples=n, seed=seed, variance=variance)


class TestBatcher:
    def test_batches_by_key(self):
        q = BoundedJobQueue(depth=16)
        a = [_job(i, 1.39) for i in range(3)]
        b = [_job(10 + i, 0.35) for i in range(2)]
        for job in (a[0], b[0], a[1], b[1], a[2]):
            q.put(job)
        batcher = Batcher(q, max_batch=8)
        first = batcher.next_batch()
        second = batcher.next_batch()
        assert [j.seed for j in first.jobs] == [0, 1, 2]
        assert [j.seed for j in second.jobs] == [10, 11]

    def test_max_batch_one_disables_coalescing(self):
        q = BoundedJobQueue(depth=8)
        for i in range(3):
            q.put(_job(i))
        batcher = Batcher(q, max_batch=1)
        assert batcher.next_batch().size == 1

    def test_empty_queue_returns_none(self):
        batcher = Batcher(BoundedJobQueue(depth=2), max_batch=4)
        assert batcher.next_batch(timeout=0.01) is None

    def test_expired_job_takes_no_slot(self):
        # [expired A, B, C] under max_batch=2: A is shed without
        # spending a slot, so B and C share the batch
        q = BoundedJobQueue(depth=8)
        a, b, c = (_job(i) for i in range(3))
        a.deadline_at = time.monotonic() - 1.0
        for job in (a, b, c):
            q.put(job)
        shed = []
        batcher = Batcher(q, max_batch=2, on_expired=shed.append)
        batch = batcher.next_batch()
        assert batch.jobs == [b, c]
        assert shed == [a]
        assert len(q) == 0
        st = q.stats
        assert st.total_writes == st.total_reads + st.occupancy

    def test_batch_requires_jobs(self):
        with pytest.raises(ValueError):
            Batch(jobs=[])


class TestPolicies:
    @pytest.fixture(scope="class")
    def workers(self):
        return [DeviceWorker(f"w{i}") for i in range(3)]

    def test_make_policy_names(self):
        for name, cls in (
            ("fifo", FifoPolicy),
            ("least-loaded", LeastLoadedPolicy),
            ("device-affinity", DeviceAffinityPolicy),
        ):
            assert isinstance(make_policy(name), cls)
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            make_policy("round-trip")

    def test_fifo_uses_shared_queue(self, workers):
        batch = Batch(jobs=[_job()])
        pending = {w.name: 0.0 for w in workers}
        assert FifoPolicy().select(batch, workers, pending) is None

    def test_least_loaded_picks_smallest_backlog(self, workers):
        batch = Batch(jobs=[_job()])
        pending = {"w0": 5.0, "w1": 0.0, "w2": 3.0}
        chosen = LeastLoadedPolicy().select(batch, workers, pending)
        assert chosen.name == "w1"

    def test_affinity_is_stable_per_key(self, workers):
        policy = DeviceAffinityPolicy()
        pending = {w.name: 0.0 for w in workers}
        first = policy.select(Batch(jobs=[_job(1)]), workers, pending)
        for seed in range(2, 6):
            batch = Batch(jobs=[_job(seed)])  # same key, different job
            assert policy.select(batch, workers, pending) is first


class TestDeviceWorker:
    def test_batch_advances_device_timeline(self):
        worker = DeviceWorker("w0")
        before = worker.device_busy_s
        outcome = worker.execute(Batch(jobs=[_job(n=256)]))
        assert worker.device_busy_s > before
        assert outcome.batch_device_seconds > 0
        assert outcome.errors == [None]

    def test_batched_transaction_cheaper_than_split(self):
        """One combined transaction beats two singles on the same timeline
        (the §III-E economics: fixed costs amortize across the batch)."""
        combined = DeviceWorker("a").execute(
            Batch(jobs=[_job(1, n=256), _job(2, n=256)])
        )
        split_worker = DeviceWorker("b")
        split_worker.execute(Batch(jobs=[_job(1, n=256)]))
        split_worker.execute(Batch(jobs=[_job(2, n=256)]))
        assert combined.batch_device_seconds < split_worker.device_busy_s

    def test_job_fault_is_isolated(self):
        class BrokenJob(GammaJob):
            def compute(self):
                raise RuntimeError("boom")

        worker = DeviceWorker("w0")
        good = _job(1, n=64)
        outcome = worker.execute(
            Batch(jobs=[good, BrokenJob(n_samples=64, seed=2)])
        )
        assert outcome.errors[0] is None
        assert isinstance(outcome.errors[1], RuntimeError)
        assert outcome.payloads[0] is not None

    def test_fixed_platform_worker(self):
        worker = DeviceWorker("cpu0", device_name="CPU")
        outcome = worker.execute(Batch(jobs=[_job(n=128)]))
        assert outcome.batch_device_seconds > 0

    def test_unknown_device_name_raises(self):
        with pytest.raises(KeyError):
            DeviceWorker("x0", device_name="TPU")

    def test_modeled_timeline_matches_the_in_order_queue(self):
        """Each batch is one kernel launch plus one combined readback on
        the device's in-order queue: the worker's float timeline, batch
        times and modeled spans equal the OpenCL queue's, bit for bit."""
        from repro.obs import ChromeTracer
        from repro.opencl import Context, KernelHandle, MemFlag, paper_platform

        tracer = ChromeTracer()
        worker = DeviceWorker("w0")
        worker.tracer = tracer
        queue = Context(paper_platform(), "FPGA").create_queue()
        reference = ChromeTracer()
        batches = [[64], [256, 128], [32, 32, 32], [1000]]
        for k, samples in enumerate(batches):
            batch = Batch(jobs=[_job(10 * k + i, n=n) for i, n in enumerate(samples)])
            outcome = worker.execute(batch)
            kernel_s = sum(outcome.device_seconds)
            nbytes = batch.result_bytes()
            assert outcome.batch_device_seconds == pytest.approx(
                kernel_s + worker.device.pcie_seconds(nbytes)
            )
            t0 = queue.now
            first = len(queue.events)
            queue.enqueue_task(
                KernelHandle(
                    name=f"batch{batch.batch_id}_Config1",
                    time_model=lambda device, ndrange: kernel_s,
                )
            )
            queue.enqueue_read_buffer(
                queue.context.create_buffer(
                    f"batch{batch.batch_id}_result", nbytes, MemFlag.WRITE_ONLY
                )
            )
            assert outcome.batch_device_seconds == queue.finish() - t0
            queue.export_trace(
                reference, thread="w0 [FPGA]", events=queue.events[first:]
            )
        assert worker.device_busy_s == queue.now
        modeled = [e for e in tracer.events() if e.get("cat") == "modeled"]
        assert len(modeled) == 2 * len(batches)
        assert modeled == [e for e in reference.events() if e.get("cat") == "modeled"]
