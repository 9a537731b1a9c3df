"""The event-driven cycle kernel: the one cycle loop of regions and pipelines.

It keeps the reference loop's semantics — tick every live process once
per cycle in topo order, then every channel; a cycle in which no tick
returns ``compute`` or ``pipeline`` and no channel is busy is a
deadlock — but parks a process whose tick was blocked, as its
:meth:`~repro.core.process.Process.next_event` hint allows: on a timer
(an int) or until a stream peer makes progress (``NO_SELF_EVENT``).
Parked cycles are bulk-credited through ``skip_cycles`` at wake-up or
abort, and when everything is parked the channels jump to the next
event.  ``park=False`` is the reference loop.  The rules (wake order,
abort credit) are in "Parking and wake-up", docs/simulator_fastpath.md.

Traced runs set :attr:`CycleKernel.observer` to a
:class:`~repro.obs.stall.StallAttribution`, which sees every tick's
state; a parked process keeps the state it parked with, so parked and
skipped windows need no callback.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Callable, Sequence

from repro.core.process import NO_SELF_EVENT, Process
from repro.obs.stall import COMPUTE, PIPELINE

__all__ = ["CycleKernel", "DeadlockError"]


class DeadlockError(RuntimeError):
    """The region stopped making progress before all processes finished."""


_RUNNABLE, _WAIT_PEER, _WAIT_TIMER = 0, 1, 2
_PROGRESS = frozenset((COMPUTE, PIPELINE))  # tick states that are not blocked


class CycleKernel:
    """Run topo-ordered ``processes`` and ``channels`` cycle by cycle.

    After :meth:`run` returns or raises, ``ticks_issued`` counts the
    ``tick`` calls, ``skipped_cycles`` the cycles in which no process
    ticked, and ``finished`` maps each process that finished during the
    run to the cycle count at which it was done.

    ``observer``, when set before :meth:`run`, is called as
    ``observe = observer.start(names, channels)`` with the process names
    in tick order, then ``observe(index, cycle, state)`` after every
    tick, and ``observer.finish(cycles, done)`` on every exit:
    ``cycles`` counts the simulated cycles, a deadlocked one included,
    and ``done`` maps each finished process's name to its done cycle.
    """

    def __init__(
        self, processes: Sequence[Process], channels: Sequence = (),
        *, park: bool = True,
    ):
        self.processes = list(processes)
        self.channels = tuple(channels)
        self.park = park
        self.ticks_issued = self.skipped_cycles = 0
        self.finished: dict[Process, int] = {}
        self.observer = None
        ends: dict = {}  # stream -> processes at either end
        for i, proc in enumerate(self.processes):
            for s in (*proc.inputs(), *proc.outputs()):
                ends.setdefault(s, set()).add(i)
        # stream peers; nothing parks on the reference loop, so no peers
        self._peers = [
            tuple(sorted(set().union(*(
                ends[s] for s in (*proc.inputs(), *proc.outputs())
            )) - {i})) if park else ()
            for i, proc in enumerate(self.processes)
        ]

    def run(
        self, max_cycles: int, label: str,
        deadlock_message: Callable[[int], str],
    ) -> int:
        """Run until every process is done; returns the cycle count.

        ``label`` names the run in the runaway message;
        ``deadlock_message(cycle)`` is called after the parked
        processes have been credited.
        """
        procs, channels, peers = self.processes, self.channels, self._peers
        park, observer = self.park, self.observer
        observe = None
        if observer is not None:
            observe = observer.start([p.name for p in procs], channels)
        n = len(procs)
        state = [_RUNNABLE] * n
        since = [0] * n  # first cycle a parked process did not tick
        timers: list[tuple[int, int]] = []
        finished = self.finished = {}
        ticked = [i for i, proc in enumerate(procs) if not proc.done()]
        live = len(ticked)
        stalled: list[int] = []  # ticked blocked: ask for a hint next cycle
        woken: list[int] = []  # woken after their turn: tick next cycle
        ticks = skipped = cycle = 0

        def wake(i: int, end: int) -> None:  # credit cycles since..end-1
            if end > since[i]:
                procs[i].skip_cycles(since[i], end - since[i])
            state[i] = _RUNNABLE

        def credit_parked(end: int) -> None:
            for i in range(n):
                if state[i] != _RUNNABLE:
                    wake(i, end)

        def deadlock() -> DeadlockError:  # the current cycle made no progress
            nonlocal cycle
            cycle += 1
            credit_parked(cycle)
            return DeadlockError(deadlock_message(cycle - 1))

        try:
            while live:
                if cycle >= max_cycles:
                    credit_parked(max_cycles)
                    raise RuntimeError(f"{label} exceeded {max_cycles} cycles")
                run = ticked
                if stalled:
                    for i in stalled:
                        event = procs[i].next_event(cycle)
                        if event is None or event <= cycle:
                            continue
                        since[i] = cycle
                        if event == NO_SELF_EVENT:
                            state[i] = _WAIT_PEER
                        else:
                            state[i] = _WAIT_TIMER
                            heappush(timers, (int(event), i))
                    run = [i for i in ticked if state[i] == _RUNNABLE]
                    stalled = []
                while timers and timers[0][0] <= cycle:
                    i = heappop(timers)[1]
                    wake(i, cycle)
                    woken.append(i)
                if woken:
                    run += woken
                    run.sort()
                    woken = []
                ticked = []
                if not run:  # all parked: jump to the next event
                    horizon = timers[0][0] if timers else NO_SELF_EVENT
                    busy = False
                    for channel in channels:
                        event = channel.next_event(cycle)
                        if event != NO_SELF_EVENT:
                            busy = True
                            horizon = min(horizon, event)
                    if not busy:  # parked ticks stall: no progress at all
                        for channel in channels:
                            channel.tick(cycle)
                        skipped += 1
                        raise deadlock()
                    target = min(horizon, max_cycles)
                    for channel in channels:
                        channel.skip_cycles(cycle, target - cycle)
                    skipped += target - cycle
                    cycle = target
                    continue
                ticks += len(run)
                progress = False
                # a peer woken by an earlier process is inserted after the
                # current position of the sorted list, and list iteration
                # (an index checked against the live length) reaches it
                for i in run:
                    proc = procs[i]
                    tick_state = proc.tick(cycle)
                    if observe is not None:
                        observe(i, cycle, tick_state)
                    progressed = tick_state in _PROGRESS
                    if progressed:
                        progress = True
                        for j in peers[i]:
                            if state[j] != _WAIT_PEER:
                                continue
                            if j > i:  # its turn is still to come
                                wake(j, cycle)
                                insort(run, j)
                                ticks += 1
                            else:  # it stalled this cycle already
                                wake(j, cycle + 1)
                                woken.append(j)
                    if proc.done():
                        live -= 1
                        finished[proc] = cycle + 1
                    else:
                        ticked.append(i)
                        if park and not progressed:
                            stalled.append(i)
                for channel in channels:
                    if channel.tick(cycle):
                        progress = True
                if not progress:
                    raise deadlock()
                cycle += 1
        finally:
            self.ticks_issued, self.skipped_cycles = ticks, skipped
            if observer is not None:
                observer.finish(
                    cycle, {p.name: done for p, done in finished.items()}
                )
        return cycle
