#!/usr/bin/env python
"""Reusing the decoupled-work-items pattern for a *different* algorithm.

The paper's conclusion: "the DecoupledWorkItems function in Listing 1,
as well as the Transfer block in Listing 4, can be easily reused or
customized to any application.  The designer just needs to rewrite the
application function in Listing 2."

This example rewrites the application function: a **truncated-normal**
rejection sampler (accept standard normals with |x| <= bound), another
data-dependent-branch algorithm with a dynamically-modified loop exit.
Everything else — streams, delayed counter, transfer engines, the shared
memory channel — is reused unchanged from repro.core.

Run:  python examples/custom_rejection_kernel.py
"""

import numpy as np
from scipy import stats

from repro.core import (
    DataflowRegion,
    DelayedCounter,
    GlobalMemory,
    MemoryChannel,
    Process,
    Stream,
    TransferEngine,
)
from repro.core.mt_adapted import AdaptedMT
from repro.obs.stall import COMPUTE, FIFO_FULL
from repro.rng.marsaglia_bray import marsaglia_bray_attempt
from repro.rng.mersenne import MT521_PARAMS
from repro.rng.uniform import uint_to_symmetric


class TruncatedNormalKernel(Process):
    """The rewritten 'Listing 2': accept normals with |x| <= bound.

    Same skeleton as GammaRNG: II=1 pipelined attempts, enable-gated
    twisters, delayed-counter loop exit, guarded stream writes.
    """

    def __init__(self, name, wid, sink: Stream, quota: int, bound: float,
                 seed: int = 4242):
        super().__init__(name)
        self.sink = sink
        self.quota = quota
        self.bound = bound
        self.mt_a = AdaptedMT(MT521_PARAMS, seed=seed + 11 * wid)
        self.mt_b = AdaptedMT(MT521_PARAMS, seed=seed + 11 * wid + 1)
        self.counter = DelayedCounter(break_id=0)
        self.attempts = 0
        self._pending = None
        self._done = False

    def outputs(self):
        return (self.sink,)

    def done(self):
        return self._done

    def tick(self, cycle):
        # each tick returns its stall state: compute, or why it blocked
        if self._pending is not None:
            if not self.sink.can_write():
                return self._account(FIFO_FULL)
            self.sink.write(self._pending)
            self._pending = None
            return self._account(COMPUTE)
        # dynamically-modified exit, read through the delayed counter
        if self.counter.delayed >= self.quota:
            self._done = True
            self.sink.close()
            return self._account(COMPUTE)
        self.counter.shift()
        self.attempts += 1
        u1 = uint_to_symmetric(self.mt_a(True))
        u2 = uint_to_symmetric(self.mt_b(True))
        x, valid = marsaglia_bray_attempt(u1, u2)
        ok = valid and abs(x) <= self.bound  # the data-dependent branch
        if ok and self.counter.value < self.quota:
            self.counter.increment()
            if self.sink.can_write():
                self.sink.write(x)
            else:
                self._pending = x
        return self._account(COMPUTE)


def main() -> None:
    n_work_items = 4
    quota = 512  # samples per work-item; multiple of 32 for the bursts
    bound = 1.5

    memory = GlobalMemory(n_work_items * quota // 16)
    channel = MemoryChannel(memory=memory)
    region = DataflowRegion("truncated_normal")
    region.attach_memory_channel(channel)
    kernels = []
    for wid in range(n_work_items):
        stream = Stream(f"s{wid}", depth=16)
        kernel = TruncatedNormalKernel(f"TNorm{wid}", wid, stream, quota, bound)
        region.add(kernel)
        region.add(
            TransferEngine(
                f"Transfer{wid}", wid, stream, channel,
                burst_words=2, bursts_per_sector=quota // 32, sectors=1,
                block_offset=quota // 16,
            )
        )
        kernels.append(kernel)
    report = region.run()

    samples = np.concatenate(
        [memory.read_floats(wid * quota // 16, quota) for wid in range(n_work_items)]
    )
    attempts = sum(k.attempts for k in kernels)
    # truncated normal on [-b, b]
    ref = stats.truncnorm(-bound, bound)
    ks = stats.kstest(samples, ref.cdf)

    print("=== custom rejection kernel on the decoupled pattern ===")
    print(f"work-items           : {n_work_items}")
    print(f"samples              : {samples.size} (|x| <= {bound})")
    print(f"cycles / runtime     : {report.cycles} / "
          f"{report.runtime_ms(200e6):.3f} ms @ 200 MHz")
    expected_accept = 2 * stats.norm.cdf(bound) - 1
    print(f"acceptance           : {samples.size / attempts:.1%} of attempts "
          f"(polar x truncation ≈ {0.7854 * expected_accept:.1%} expected)")
    print(f"max |x|              : {np.abs(samples).max():.4f}")
    print(f"KS vs TruncNorm      : stat={ks.statistic:.4f} p={ks.pvalue:.3f} "
          f"-> {'PASS' if ks.pvalue > 0.01 else 'FAIL'}")


if __name__ == "__main__":
    main()
