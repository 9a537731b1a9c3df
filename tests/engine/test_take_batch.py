"""Property test of ``take_batch``, the one batch-formation rule.

Both serving tiers form batches through it: the live
:class:`~repro.engine.queue.BoundedJobQueue` on engine jobs at
``time.monotonic()``, and the virtual tier's shards on trace events at
the batch start time.  Hypothesis generates queues of trace events with
keys from a small alphabet and deadlines that are past, future or
absent at ``now``, and checks the rule's contract on every one.
"""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.engine.queue import take_batch
from repro.serve.loadgen import TraceEvent

NOW = 1.0
#: deadline budgets relative to an arrival at t=0: expired at NOW,
#: still live at NOW, or no deadline at all
_DEADLINES = {"past": 0.5, "future": 5.0, "none": None}


def _event(index: int, config: str, deadline: str) -> TraceEvent:
    return TraceEvent(
        index=index, t=0.0, tenant=1, config=config, variance=1.39,
        n_samples=8, seed=index, deadline_s=_DEADLINES[deadline],
    )


_queues = st.lists(
    st.tuples(st.sampled_from("ABC"), st.sampled_from(sorted(_DEADLINES))),
    max_size=24,
).map(lambda specs: [_event(i, *spec) for i, spec in enumerate(specs)])


def _indices(events) -> list[int]:
    return [e.index for e in events]


@settings(max_examples=300, deadline=None)
@given(queue=_queues, max_size=st.integers(min_value=1, max_value=8))
def test_take_batch_contract(queue, max_size):
    fifo = deque(queue)
    batch, expired = take_batch(fifo, max_size, NOW)
    remaining = list(fifo)

    # nothing lost, nothing duplicated
    assert sorted(_indices(batch + expired + remaining)) == _indices(queue)

    # the batch: one key, within the cap, in input order, all live
    assert len(batch) <= max_size
    assert _indices(batch) == sorted(_indices(batch))
    assert not any(e.expired(NOW) for e in batch)
    keys = {e.batch_key() for e in batch}
    assert len(keys) <= 1

    # every shed job really expired; the rest keep their input order
    assert all(e.expired(NOW) for e in expired)
    assert _indices(remaining) == sorted(_indices(remaining))

    # the expired heads ahead of the first live job are shed whatever
    # their key; past them, a job whose key differs from the batch key
    # is never shed
    first_live = next(
        (i for i, e in enumerate(queue) if not e.expired(NOW)), len(queue)
    )
    heads = queue[:first_live]
    assert _indices(expired[: len(heads)]) == _indices(heads)
    if batch:
        assert batch[0] is queue[first_live]
        assert all(e.batch_key() in keys for e in expired[len(heads):])
        # a batch short of the cap scanned the whole queue: no waiter
        # with its key is left behind
        if len(batch) < max_size:
            assert not any(e.batch_key() in keys for e in remaining)
    else:
        assert not remaining and len(expired) == len(queue)
