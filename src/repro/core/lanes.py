"""Block-computed MAINLOOP lanes for the gamma work-item (bit-identical).

The paper's adapted twister (Listing 3) advances its state only on
enable, so the uniform words a work-item consumes do not depend on
*when* its iterations run.  :class:`GammaLaneStream` exploits that: it
computes blocks of MAINLOOP iteration outcomes ahead of the clock with
numpy lane vectors, and :class:`~repro.core.kernel.GammaRNGProcess`
replays one record per cycle — so the *cycle semantics* (blocking
writes, II bubbles, sector advances, fast-path hints) stay those of
the scalar Listing 2 tick
(:class:`~repro.core.kernel.ReferenceGammaRNGProcess`).

Bit-identity contract
---------------------
Every float is produced by the *same IEEE-754 double operations in the
same order* as the scalar path.  Elementwise ``+ - * /`` and
``np.sqrt`` on float64 arrays are bit-identical to their scalar
counterparts, but ``np.log``, ``np.cos`` and ``np.power`` are **not**
guaranteed to match libm — so every lane that needs a libm call
(Marsaglia-Bray's ``log(s)``, Box-Muller's ``log``/``cos``, the
squeeze-failing ``log(u1)``/``log(v)`` and the ``u2**(1/alpha)``
correction) calls the scalar function once per lane, exactly like the
scalar kernel.  The two ICDF transforms are numpy in the scalar path
too: ``icdf_fpga`` goes through :meth:`~repro.rng.icdf.IcdfFpga.evaluate_batch`
(integer arithmetic, pinned to ``evaluate`` in ``tests/rng/test_icdf.py``)
and ``icdf_cuda`` through the same ufuncs over a whole block.  The
Hypothesis differential ``tests/core/test_gamma_lanes_properties.py``
asserts identical device memory, reports, tick states and RNG
statistics against the scalar tick.

Gated twisters are replayed with peek semantics: a disabled step
outputs the *next unconsumed* word without advancing, so the uniform an
iteration sees is indexed by the exclusive running count of enabled
steps before it — no per-iteration Python calls required.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.rng.box_muller import box_muller_pair
from repro.rng.gamma import marsaglia_tsang_constants
from repro.rng.icdf import icdf_cuda_style
from repro.rng.uniform import uint_to_float, uint_to_symmetric

__all__ = ["GammaLaneStream", "DEFAULT_BLOCK"]

#: MAINLOOP iterations precomputed per refill.
DEFAULT_BLOCK = 256

#: transforms that draw a word from ``mt_norm_b`` every iteration
_TWO_STREAM = ("marsaglia_bray", "box_muller")


class _BufferedMT:
    """Peek-ahead window over one Mersenne-Twister's word stream.

    ``generate()`` advances the underlying twister in bulk; this buffer
    re-exposes the words with *peek/consume* semantics so gated
    (enable=False) steps can read the next unconsumed word without
    losing it — exactly what
    :meth:`~repro.rng.mersenne.MersenneTwister.next_u32` does one word
    at a time.
    """

    def __init__(self, mt):
        self._mt = mt
        self._buf = np.empty(0, dtype=np.uint32)
        self._pos = 0

    def peek(self, count: int) -> np.ndarray:
        """The next ``count`` unconsumed words (buffer refills as needed)."""
        available = self._buf.size - self._pos
        if available < count:
            fresh = self._mt.generate(max(count - available, DEFAULT_BLOCK))
            self._buf = np.concatenate([self._buf[self._pos :], fresh])
            self._pos = 0
        return self._buf[self._pos : self._pos + count]

    def consume(self, count: int) -> None:
        self._pos += count


def _libm(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` (a scalar libm function) applied lane by lane."""
    return np.array([fn(x) for x in values.tolist()], dtype=np.float64)


class GammaLaneStream:
    """Block-computed replay of the Listing 2 MAINLOOP.

    Yields, via :meth:`pop`, one record per kernel tick:

    * ``(ok, wrote, value, stall)`` for a MAINLOOP iteration — the
      acceptance flag, the guarded-write flag, the scaled gamma (only
      when written), and the stall cycles that follow the iteration
      (II bubbles plus gated-MT flushes);
    * ``None`` for each exit-check tick (a sector advance).

    The MAINLOOP exit condition is replayed in closed form: with the
    delayed counter the exit test at iteration ``i`` reads the counter
    value as of ``break_id + 1`` iterations earlier, so a sector runs
    exactly ``min(limit_max, k_hit + 1 + break_id + 1)`` iterations,
    where ``k_hit`` is the iteration producing the ``limit_main``-th
    accepted value (naive exit: ``min(limit_max, k_hit + 1)``).

    ``facades`` are the work-item's four twister façades
    ``(norm_a, norm_b, reject, correct)``; their ``steps``/``held``
    counters advance as the scalar tick would advance them.  ``icdf``
    is the (shared) ROM of the ``icdf_fpga`` transform.
    """

    def __init__(self, config, facades, icdf=None, block: int = DEFAULT_BLOCK):
        if config.transform == "icdf_fpga" and icdf is None:
            raise ValueError("the icdf_fpga transform needs its IcdfFpga ROM")
        self._cfg = config
        self._facades = facades
        self._bufs = [_BufferedMT(f._mt) for f in facades]
        self._icdf = icdf
        self._two_stream = config.transform in _TWO_STREAM
        self._block = block
        self._queue: deque = deque()
        self._bubble = facades[0].bubble_cycles
        self._delay = config.break_id + 1 if config.use_delayed_counter else 0
        self._sector = 0
        self._consts = marsaglia_tsang_constants(1.0 / config.sector_variances[0])
        self._scale = config.sector_variances[0]
        self._k = 0  # iterations executed in the current sector
        self._oks = 0  # accepted iterations in the current sector
        self._k_hit: int | None = None  # iteration of the limit-th accept

    # -- closed-form exit ----------------------------------------------------------

    def _exit_k(self) -> int:
        """Iterations the current sector executes before its exit tick."""
        cap = self._cfg.effective_limit_max
        if self._k_hit is None:
            return cap
        return min(cap, self._k_hit + 1 + self._delay)

    # -- block generation ----------------------------------------------------------

    def _normals(self, window: int) -> tuple[np.ndarray, np.ndarray]:
        """``(n0, n0_valid)`` of the next ``window`` iterations, as the
        scalar ``_normal_candidate`` computes them."""
        transform = self._cfg.transform
        wa = self._bufs[0].peek(window)
        if transform == "icdf_fpga":
            values, valid = self._icdf.evaluate_batch(wa)
            return values.astype(np.float64), valid
        always = np.ones(window, dtype=bool)
        if transform == "icdf_cuda":
            z = icdf_cuda_style(uint_to_float(wa))
            return z.astype(np.float64), always
        wb = self._bufs[1].peek(window)
        if transform == "box_muller":
            u1 = uint_to_float(wa).tolist()
            u2 = uint_to_float(wb).tolist()
            # libm log/cos per lane: numpy's are not bit-identical
            z0 = [box_muller_pair(a, b)[0] for a, b in zip(u1, u2)]
            return np.array(z0, dtype=np.float64), always
        # marsaglia_bray over the two free-running twisters
        u1s = uint_to_symmetric(wa).astype(np.float64)
        u2s = uint_to_symmetric(wb).astype(np.float64)
        s = u1s * u1s + u2s * u2s
        valid = (s < 1.0) & (s != 0.0)
        n0 = np.zeros(window, dtype=np.float64)
        idx = np.nonzero(valid)[0]
        if idx.size:
            sv = s[idx]
            n0[idx] = u1s[idx] * np.sqrt((-2.0 * _libm(math.log, sv)) / sv)
        return n0, valid

    def _refill(self) -> None:
        cfg = self._cfg
        exit_k = self._exit_k()
        if self._k >= exit_k:
            # the next tick observes the exit condition: sector advance
            self._queue.append(None)
            self._sector += 1
            if self._sector >= cfg.sectors:
                return
            variance = cfg.sector_variances[self._sector]
            self._consts = marsaglia_tsang_constants(1.0 / variance)
            self._scale = variance
            self._k = 0
            self._oks = 0
            self._k_hit = None
            return

        window = min(self._block, exit_k - self._k)
        consts = self._consts
        limit = cfg.limit_main
        n0, n0_valid = self._normals(window)

        # gated rejection uniforms: iteration j peeks the word indexed
        # by the count of enabled (valid-normal) steps before it
        cum_valid = np.cumsum(n0_valid)
        excl_valid = cum_valid - n0_valid
        rej_words = self._bufs[2].peek(int(excl_valid[-1]) + 1)
        u1 = uint_to_float(rej_words[excl_valid]).astype(np.float64)

        # Marsaglia-Tsang attempt, op-for-op as gamma_attempt()
        t = 1.0 + consts.c * n0
        v = t * t * t
        t_pos = t > 0.0
        g_valid = t_pos & (u1 < 1.0 - 0.0331 * (n0 * n0) * (n0 * n0))
        full_idx = np.nonzero(t_pos & ~g_valid)[0]
        if full_idx.size:
            lhs = _libm(math.log, u1[full_idx])
            logv = _libm(math.log, v[full_idx])
            xs = n0[full_idx]
            accept = lhs < 0.5 * xs * xs + consts.d * (1.0 - v[full_idx] + logv)
            g_valid[full_idx[accept]] = True
        ok = n0_valid & g_valid

        # sector exit bookkeeping: locate the limit-th accept, then cut
        cum_ok = np.cumsum(ok)
        if self._k_hit is None:
            needed = limit - self._oks
            if needed <= int(cum_ok[-1]):
                local = int(np.searchsorted(cum_ok, needed))
                self._k_hit = self._k + local
                exit_k = self._exit_k()
        executed = min(window, exit_k - self._k)
        ok_e = ok[:executed]
        valid_e = n0_valid[:executed]
        excl_ok = cum_ok[:executed] - ok_e

        # guarded write: counter (= accepts so far this sector) < limit
        wrote = ok_e & (self._oks + excl_ok < limit)
        values: list = [None] * executed
        write_idx = np.nonzero(wrote)[0]
        if write_idx.size:
            g_raw = consts.d * v[:executed]
            corr_words = self._bufs[3].peek(int(excl_ok[-1]) + 1)
            u2 = uint_to_float(corr_words[excl_ok[write_idx]])
            for j, i in enumerate(write_idx):
                gamma = float(g_raw[i])
                if consts.boosted:
                    # scalar pow: np.power is not bit-identical to libm
                    gamma = gamma * (float(u2[j]) ** consts.inv_alpha)
                values[i] = gamma * self._scale

        # II bubbles, plus a flush per gated-off naive twister
        stalls = np.full(executed, cfg.ii - 1, dtype=np.int64)
        if self._bubble:
            stalls += self._bubble * (
                (~valid_e).astype(np.int64) + (~ok_e).astype(np.int64)
            )

        # commit exactly the words the executed iterations consumed
        n_valid = int(np.count_nonzero(valid_e))
        n_ok = int(np.count_nonzero(ok_e))
        norm_a, norm_b, reject, correct = self._facades
        self._bufs[0].consume(executed)
        norm_a.steps += executed
        if self._two_stream:
            self._bufs[1].consume(executed)
            norm_b.steps += executed
        self._bufs[2].consume(n_valid)
        reject.steps += executed
        reject.held += executed - n_valid
        self._bufs[3].consume(n_ok)
        correct.steps += executed
        correct.held += executed - n_ok
        self._k += executed
        self._oks += n_ok
        self._queue.extend(
            zip(ok_e.tolist(), wrote.tolist(), values, stalls.tolist())
        )

    def pop(self):
        """The next tick's record (an iteration tuple, or ``None`` for a
        sector advance)."""
        while not self._queue:
            self._refill()
        return self._queue.popleft()
