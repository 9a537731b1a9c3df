"""Stream wiring and topological order, shared by regions and pipelines.

A :class:`~repro.core.dataflow.DataflowRegion` orders its processes and a
:class:`~repro.core.pipes.PipelineGraph` orders its regions the same
way: index every stream's producer and consumer, draw an edge from the
one to the other, and sort the feed-forward graph.  Tick order within a
cycle follows this order, so it is fixed exactly: Kahn's algorithm by
generations, each generation in node order and each node's successors
in edge-insertion order (networkx's ``topological_sort`` order).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = ["stream_endpoints", "topological_order"]


def stream_endpoints(units: Sequence[Sequence], error: type[Exception]):
    """Map each stream to its ``(unit index, process)`` producer and consumer.

    ``units[i]`` holds the processes of node ``i`` (one process of a
    region, or every process of one region of a pipeline).  A stream
    with two producers or two consumers raises ``error``.
    """
    producers: dict = {}
    consumers: dict = {}
    for i, unit in enumerate(units):
        for proc in unit:
            for ends, streams, role in (
                (producers, proc.outputs(), "producers"),
                (consumers, proc.inputs(), "consumers"),
            ):
                for s in streams:
                    if s in ends:
                        raise error(
                            f"stream {s.name!r} has two {role}: "
                            f"{ends[s][1].name!r} and {proc.name!r}"
                        )
                    ends[s] = (i, proc)
    return producers, consumers


def topological_order(
    n: int, edges: Iterable[tuple[int, int]]
) -> list[int] | None:
    """Order nodes ``0..n-1`` so every edge points forward; ``None`` on a cycle.

    Duplicate edges collapse into one; a self-loop is a cycle.
    """
    successors: list[dict[int, None]] = [{} for _ in range(n)]
    in_degree = [0] * n
    for u, v in edges:
        if v not in successors[u]:
            successors[u][v] = None
            in_degree[v] += 1
    order: list[int] = []
    generation = [i for i in range(n) if in_degree[i] == 0]
    while generation:
        order.extend(generation)
        ready = []
        for u in generation:
            for v in successors[u]:
                in_degree[v] -= 1
                if in_degree[v] == 0:
                    ready.append(v)
        generation = ready
    return order if len(order) == n else None
