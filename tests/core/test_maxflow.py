"""Unit and property tests for the Dinic max-flow solver."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import mcm
from repro.core.maxflow import MaxFlow
from repro.sim.standalone import StandaloneConfig, StandaloneRouterModel


def residual_cut(graph: MaxFlow, source: int) -> tuple[set[int], int]:
    """The nodes *source* reaches in the residual graph, and their cut.

    After a maximum flow the reached set excludes the sink and the
    original capacity leaving it equals the flow value (max-flow
    min-cut): a certificate that the flow is maximum, not merely
    blocked.  Edge ``2k`` is an original edge and ``2k + 1`` its
    residual twin, so the original capacity of ``2k`` is the sum of
    their residual capacities.
    """
    to, cap, adj = graph._to, graph._cap, graph._adj
    reached = {source}
    frontier = [source]
    while frontier:
        node = frontier.pop()
        for edge_id in adj[node]:
            if cap[edge_id] > 0 and to[edge_id] not in reached:
                reached.add(to[edge_id])
                frontier.append(to[edge_id])
    cut = sum(
        cap[edge_id] + cap[edge_id + 1]
        for edge_id in range(0, len(to), 2)
        if to[edge_id + 1] in reached and to[edge_id] not in reached
    )
    return reached, cut


def assert_maximum(graph: MaxFlow, source: int, sink: int, flow: int) -> None:
    reached, cut = residual_cut(graph, source)
    assert sink not in reached
    assert cut == flow


class TestMaxFlowBasics:
    def test_single_edge(self):
        graph = MaxFlow(2)
        graph.add_edge(0, 1, 5)
        assert graph.max_flow(0, 1) == 5

    def test_series_edges_bottleneck(self):
        graph = MaxFlow(3)
        graph.add_edge(0, 1, 5)
        graph.add_edge(1, 2, 3)
        assert graph.max_flow(0, 2) == 3

    def test_parallel_paths_add(self):
        graph = MaxFlow(4)
        graph.add_edge(0, 1, 2)
        graph.add_edge(1, 3, 2)
        graph.add_edge(0, 2, 3)
        graph.add_edge(2, 3, 3)
        assert graph.max_flow(0, 3) == 5

    def test_disconnected_is_zero(self):
        graph = MaxFlow(3)
        graph.add_edge(0, 1, 9)
        assert graph.max_flow(0, 2) == 0

    def test_classic_augmenting_path_case(self):
        # The textbook diamond where a greedy path must be undone via
        # the residual edge.
        graph = MaxFlow(4)
        graph.add_edge(0, 1, 1)
        graph.add_edge(0, 2, 1)
        graph.add_edge(1, 2, 1)
        graph.add_edge(1, 3, 1)
        graph.add_edge(2, 3, 1)
        assert graph.max_flow(0, 3) == 2

    def test_flow_on_reports_per_edge_flow(self):
        graph = MaxFlow(3)
        first = graph.add_edge(0, 1, 4)
        second = graph.add_edge(1, 2, 2)
        assert graph.max_flow(0, 2) == 2
        assert graph.flow_on(first) == 2
        assert graph.flow_on(second) == 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            MaxFlow(0)
        graph = MaxFlow(2)
        with pytest.raises(ValueError):
            graph.add_edge(0, 5, 1)
        with pytest.raises(ValueError):
            graph.add_edge(0, 1, -1)
        with pytest.raises(ValueError):
            graph.max_flow(1, 1)


class TestBipartiteMatching:
    def _matching_size(self, edges, num_left, num_right):
        # source=0, left nodes 1.., right nodes after, sink last
        graph = MaxFlow(2 + num_left + num_right)
        sink = 1 + num_left + num_right
        for left in range(num_left):
            graph.add_edge(0, 1 + left, 1)
        for right in range(num_right):
            graph.add_edge(1 + num_left + right, sink, 1)
        for left, right in edges:
            graph.add_edge(1 + left, 1 + num_left + right, 1)
        return graph.max_flow(0, sink)

    def test_perfect_matching(self):
        edges = [(0, 0), (1, 1), (2, 2)]
        assert self._matching_size(edges, 3, 3) == 3

    def test_contended_matching(self):
        # Everyone wants right node 0; only one can have it.
        edges = [(0, 0), (1, 0), (2, 0)]
        assert self._matching_size(edges, 3, 3) == 1

    @settings(max_examples=50, deadline=None)
    @given(
        edges=st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=6),
            ),
            max_size=40,
        )
    )
    def test_matching_bounded_by_koenig(self, edges):
        """Matching size never exceeds either side's degree-positive count."""
        size = self._matching_size(sorted(edges), 8, 7)
        lefts = {left for left, _ in edges}
        rights = {right for _, right in edges}
        assert 0 <= size <= min(len(lefts), len(rights))
        if edges:
            assert size >= 1


class TestMinCutCertificate:
    """The residual reach of the source is a cut as large as the flow."""

    @settings(max_examples=200, deadline=None)
    @given(
        num_nodes=st.integers(2, 8),
        edges=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 4)),
            max_size=24,
        ),
    )
    def test_random_graphs(self, num_nodes, edges):
        graph = MaxFlow(num_nodes)
        for src, dst, capacity in edges:
            graph.add_edge(src % num_nodes, dst % num_nodes, capacity)
        sink = num_nodes - 1
        assert_maximum(graph, 0, sink, graph.max_flow(0, sink))

    def test_needs_a_second_phase(self):
        # Lefts 1, 2 and rights 3, 4: the first phase matches 1-3 and is
        # then blocked; only the longer residual path 0-2-3-1-4-5 of a
        # second phase reaches the maximum of two.
        graph = MaxFlow(6)
        for src, dst in ((0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (3, 5), (4, 5)):
            graph.add_edge(src, dst, 1)
        flow = graph.max_flow(0, 5)
        assert flow == 2
        assert_maximum(graph, 0, 5, flow)

    @pytest.mark.parametrize("load", [8, 64])
    def test_every_mcm_trial_is_maximum(self, load, monkeypatch):
        solved = []

        class RecordingMaxFlow(MaxFlow):
            def max_flow(self, source, sink):
                flow = super().max_flow(source, sink)
                solved.append((self, source, sink, flow))
                return flow

        monkeypatch.setattr(mcm, "MaxFlow", RecordingMaxFlow)
        config = StandaloneConfig(algorithm="MCM", load=load, trials=200, seed=5)
        StandaloneRouterModel(config).run()
        assert len(solved) == 200
        for graph, source, sink, flow in solved:
            assert_maximum(graph, source, sink, flow)
