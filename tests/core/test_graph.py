"""Topological order of regions and pipelines (:mod:`repro.core.graph`).

Tick order within a cycle follows the order computed here, so it must
be networkx's ``topological_sort`` order exactly: the differential runs
wherever networkx is installed; the properties run everywhere.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dataflow import DataflowError, DataflowRegion
from repro.core.graph import topological_order
from repro.core.pipes import Pipe, PipeError, PipelineGraph
from repro.core.process import Process
from repro.core.stream import Stream
from repro.obs.stall import COMPUTE


class Node(Process):
    """A process with fixed wiring; never ticked."""

    def __init__(self, name, inputs=(), outputs=()):
        super().__init__(name)
        self._in = list(inputs)
        self._out = list(outputs)

    def inputs(self):
        return tuple(self._in)

    def outputs(self):
        return tuple(self._out)

    def done(self):
        return True

    def tick(self, cycle):
        return self._account(COMPUTE)


@st.composite
def graphs(draw, max_nodes=8):
    """``(n, edges)``: duplicate edges, self-loops and cycles all allowed."""
    n = draw(st.integers(0, max_nodes))
    if n == 0:
        return 0, []
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    if draw(st.booleans()):
        # mostly-forward edges, so plenty of graphs are DAGs
        edges = [(min(u, v), max(u, v)) for u, v in edges if u != v]
    return n, edges


def _has_cycle(n, edges):
    reach = [set() for _ in range(n)]
    for u, v in edges:
        reach[u].add(v)
    changed = True
    while changed:
        changed = False
        for u in range(n):
            grown = reach[u].union(*(reach[v] for v in reach[u]))
            if grown != reach[u]:
                reach[u] = grown
                changed = True
    return any(u in reach[u] for u in range(n))


def _region(n, edges):
    """A region whose process ``i`` feeds process ``j`` per edge (i, j)."""
    procs = [Node(f"p{i}") for i in range(n)]
    for k, (u, v) in enumerate(edges):
        s = Stream(f"s{k}")
        procs[u]._out.append(s)
        procs[v]._in.append(s)
    region = DataflowRegion("g")
    for proc in procs:
        region.add(proc)
    return region, procs


class TestNetworkxDifferential:
    @settings(max_examples=300, deadline=None)
    @given(graphs())
    def test_order_and_cycles_equal_networkx(self, graph):
        nx = pytest.importorskip("networkx")
        n, edges = graph
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        try:
            expected = list(nx.topological_sort(g))
        except nx.NetworkXUnfeasible:
            expected = None
        assert topological_order(n, edges) == expected


class TestOrderProperties:
    @settings(max_examples=200, deadline=None)
    @given(graphs())
    def test_cycle_detected_iff_present(self, graph):
        n, edges = graph
        assert (topological_order(n, edges) is None) == _has_cycle(n, edges)

    @settings(max_examples=200, deadline=None)
    @given(graphs())
    def test_valid_order_by_generations(self, graph):
        n, edges = graph
        order = topological_order(n, edges)
        if order is None:
            return
        assert sorted(order) == list(range(n))
        pos = {node: i for i, node in enumerate(order)}
        assert all(pos[u] < pos[v] for u, v in edges)
        # generation = longest path from a source; generations come
        # out whole and in turn, the first one in insertion order
        level = [0] * n
        for node in order:
            for u, v in edges:
                if u == node:
                    level[v] = max(level[v], level[u] + 1)
        levels = [level[node] for node in order]
        assert levels == sorted(levels)
        sources = [node for node in order if level[node] == 0]
        assert sources == sorted(sources)

    def test_duplicate_edges_collapse(self):
        assert topological_order(3, [(2, 0), (2, 0), (1, 0)]) == [1, 2, 0]

    def test_successors_in_edge_insertion_order(self):
        assert topological_order(4, [(0, 3), (0, 1), (0, 2)]) == [0, 3, 1, 2]

    def test_self_loop_is_a_cycle(self):
        assert topological_order(2, [(1, 1)]) is None


class TestRegionOrder:
    @settings(max_examples=150, deadline=None)
    @given(graphs())
    def test_region_order_or_cycle_error(self, graph):
        n, edges = graph
        if n == 0:
            return
        region, procs = _region(n, edges)
        order = topological_order(n, edges)
        if order is None:
            with pytest.raises(DataflowError) as err:
                region._validate()
            assert str(err.value) == (
                "region 'g' contains a stream cycle; DATAFLOW requires a "
                "feed-forward process network"
            )
        else:
            assert region._validate() == [procs[i] for i in order]


class TestPipelineOrder:
    @settings(max_examples=100, deadline=None)
    @given(graphs(max_nodes=6))
    def test_pipeline_order_or_cycle_error(self, graph):
        n, edges = graph
        edges = [(u, v) for u, v in edges if u != v]
        if n == 0:
            return
        regions = []
        procs = [Node(f"p{i}") for i in range(n)]
        for k, (u, v) in enumerate(edges):
            pipe = Pipe(f"pipe{k}")
            procs[u]._out.append(pipe)
            procs[v]._in.append(pipe)
        pipeline = PipelineGraph("pl")
        for i, proc in enumerate(procs):
            region = DataflowRegion(f"r{i}")
            region.add(proc)
            regions.append(pipeline.add_region(region))
        order = topological_order(n, edges)
        if order is None:
            with pytest.raises(PipeError) as err:
                pipeline._validate()
            assert str(err.value) == (
                "pipeline 'pl' contains a region cycle; pipelines require "
                "a feed-forward region DAG"
            )
        else:
            assert pipeline._validate()[0] == [regions[i] for i in order]

    def test_stream_produced_in_two_regions(self):
        pipe = Pipe("x")
        pipeline = PipelineGraph("pl")
        for name in ("a", "b"):
            region = DataflowRegion(name)
            region.add(Node(f"{name}_proc", outputs=[pipe]))
            pipeline.add_region(region)
        with pytest.raises(PipeError, match="'x' has two producers"):
            pipeline._validate()
