"""Process abstraction for the cycle-level dataflow co-simulation.

Each HLS dataflow function (``GammaRNG``, ``Transfer``, …) becomes a
:class:`Process`: an object advanced one clock cycle at a time by the
:class:`~repro.core.scheduler.CycleKernel`.  Each tick returns the
cycle's :mod:`repro.obs.stall` state — the kernel reads progress off it
for deadlock detection and wake-ups, the stall attribution records it —
and :meth:`Process.done` says whether the process finished its program.

Processes may additionally publish a :meth:`Process.next_event` hint
("no state change before cycle N") that lets the cycle kernel park a
blocked process — on a full/empty FIFO, a burst-grant wait — instead
of ticking it, while keeping the cycle accounting identical to the
reference one-cycle-at-a-time loop (see ``docs/simulator_fastpath.md``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.core.stream import Stream
from repro.obs.stall import COMPUTE, PIPELINE

__all__ = ["NO_SELF_EVENT", "Process", "ProcessStats"]

#: :meth:`Process.next_event` return value meaning "my ticks are pure
#: stall repeats for as long as nothing I observe (streams, channel
#: requests) changes state" — an unbounded but *conditional* guarantee.
NO_SELF_EVENT = float("inf")


@dataclass
class ProcessStats:
    """Per-process cycle accounting, reported by every simulation run.

    The three cycle buckets are disjoint and sum to ``cycles``:

    * ``active_cycles`` — ``compute`` ticks: real work issued (an
      iteration, a stream write, a burst grant);
    * ``stall_cycles`` — ``fifo_full``, ``fifo_empty`` and
      ``memory_channel`` ticks: blocked with no progress;
    * ``pipeline_cycles`` — ``pipeline`` ticks: initiation-interval
      bubbles, time passing by design with no work issued.

    :meth:`Process._account` is the one place that maps a state to its
    bucket.
    """

    cycles: int = 0  # cycles the process was live (not yet done)
    active_cycles: int = 0  # cycles with real work (an iteration issued)
    stall_cycles: int = 0  # cycles spent blocked on a stream or the bus
    pipeline_cycles: int = 0  # II bubbles: time passing by design
    iterations: int = 0  # loop-body executions issued
    extra: dict = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        """Fraction of live cycles doing useful work."""
        return self.active_cycles / self.cycles if self.cycles else 0.0


class Process(abc.ABC):
    """One dataflow function instance in the simulated region.

    Subclasses implement :meth:`tick`, which advances exactly one clock
    cycle and returns that cycle's state, and :meth:`done`.  ``tick`` is
    never called again once ``done`` returns True; ``done`` is monotone:
    once True it stays True.
    """

    def __init__(self, name: str):
        self.name = name
        self.stats = ProcessStats()

    @abc.abstractmethod
    def tick(self, cycle: int) -> str:
        """Advance one clock cycle; return its :mod:`repro.obs.stall` state.

        The state is ``compute`` (work issued), ``pipeline`` (an II
        bubble: time passes by design), or why the process was blocked:
        ``fifo_full``, ``fifo_empty`` or ``memory_channel`` (waiting for
        a burst grant or completion).  ``compute`` and ``pipeline`` count
        as progress for deadlock detection; stream writes, reads and
        closes only happen on those ticks, which wake parked stream
        peers.  End every tick with ``return self._account(state)``.
        """

    @abc.abstractmethod
    def done(self) -> bool:
        """True once the process has completed its program."""

    def inputs(self) -> tuple[Stream, ...]:
        """Streams this process consumes (for dataflow ordering checks)."""
        return ()

    def outputs(self) -> tuple[Stream, ...]:
        """Streams this process produces."""
        return ()

    # -- cycle-skipping fast path hints --------------------------------------------

    def next_event(self, cycle: int) -> int | float | None:
        """Earliest future cycle at which this process might act.

        The contract powering parking and cycle skipping:

        * an ``int`` N (``> cycle``) — every tick from ``cycle`` up to
          (excluding) N is a pure repeat of the current stall/bubble
          accounting; at N the process may change state (its own timer
          fires: an II bubble drains, its burst's predicted completion
          is observed);
        * :data:`NO_SELF_EVENT` (``inf``) — pure repeats for as long as
          no stream or channel request this process observes changes
          state (e.g. blocked on a full/empty FIFO with no own timer);
        * ``None`` — no guarantee: the next tick may do real work, or
          the process cannot predict itself.  Disables skipping.

        After a blocked tick the cycle kernel parks the process on an
        ``int`` until that cycle, whatever its peers do, and on
        ``NO_SELF_EVENT`` until a stream peer progresses (so a channel
        wait must name its completion cycle instead).  The default is
        ``None``, so unknown subclasses are never parked.  A subclass
        that overrides :meth:`tick` without revisiting this hint must
        return ``None`` (the built-in implementations guard on the
        exact ``tick`` identity for this reason).
        """
        return None

    def skip_cycles(self, cycle: int, count: int) -> None:
        """Apply ``count`` cycles of bulk stall accounting.

        Called only for a window validated by :meth:`next_event`; must
        leave this process (and its streams) in exactly the state
        ``count`` reference ticks would have — in particular it credits
        the state of the tick that parked it, ``self._account(state,
        count)``, which is the state stall attribution keeps for the
        window.  A waking process is credited after a peer may have
        changed its streams, so the credit follows the process's own
        state, not the streams' fill.
        """
        raise RuntimeError(
            f"{type(self).__name__}({self.name!r}) advertised a skippable "
            "window via next_event() but does not implement skip_cycles()"
        )

    # -- bookkeeping helpers ---------------------------------------------------------

    def _account(self, state: str, count: int = 1) -> str:
        """Credit ``count`` cycles of ``state`` to its stats bucket.

        ``compute`` → ``active_cycles``, ``pipeline`` →
        ``pipeline_cycles``, every blocked state → ``stall_cycles``.
        Returns ``state``, so a tick ends with ``return
        self._account(state)``; :meth:`skip_cycles` credits a parked
        window with ``count``.
        """
        stats = self.stats
        stats.cycles += count
        if state == COMPUTE:
            stats.active_cycles += count
        elif state == PIPELINE:
            stats.pipeline_cycles += count
        else:
            stats.stall_cycles += count
        return state

    def __repr__(self) -> str:
        state = "done" if self.done() else "running"
        return f"{type(self).__name__}({self.name!r}, {state})"
