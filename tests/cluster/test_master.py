"""Unit tests for the master-resident algorithm state."""

import pytest

from repro.cluster.master import MasterState
from repro.core import AugmentedSocialGraph, Partition
from repro.core.gains import HeapGainIndex


def record_for(graph, node):
    return (
        node,
        tuple(graph.friends[node]),
        tuple(graph.rej_out[node]),
        tuple(graph.rej_in[node]),
    )


def make_state(graph, sides, k=1.0, locked=None):
    partition = Partition(graph, sides)
    locked = locked or [False] * graph.num_nodes
    gains = [
        (u, partition.switch_gain(u, k)) for u in range(graph.num_nodes)
    ]
    max_abs_gain = max(
        graph.degree(u)
        + k * (graph.rejections_cast(u) + graph.rejections_received(u))
        for u in range(graph.num_nodes)
    )
    return MasterState.for_pass(
        graph.num_nodes,
        k,
        sides,
        partition.f_cross,
        partition.r_cross,
        gains,
        locked,
        max_abs_gain,
    )


@pytest.fixture
def graph():
    return AugmentedSocialGraph.from_edges(
        5,
        friendships=[(0, 1), (1, 2), (3, 4)],
        rejections=[(0, 3), (1, 3), (2, 4)],
    )


class TestMasterState:
    def test_apply_switch_tracks_partition(self, graph):
        sides = [0, 0, 0, 0, 0]
        state = make_state(graph, sides)
        reference = Partition(graph, sides)
        for node in (3, 4, 1):
            state.index.remove(node)  # mirror the pop the engine does
            state.apply_switch(record_for(graph, node))
            reference.switch(node)
            assert state.sides == reference.sides
            assert (state.f_cross, state.r_cross) == (
                reference.f_cross,
                reference.r_cross,
            )

    def test_pop_best_matches_gain_order(self, graph):
        sides = [0, 0, 0, 0, 0]
        state = make_state(graph, sides, k=4.0)
        node, gain = state.pop_best()
        partition = Partition(graph, sides)
        best_gain = max(
            partition.switch_gain(u, 4.0) for u in range(graph.num_nodes)
        )
        assert gain == pytest.approx(best_gain)

    def test_locked_nodes_never_indexed(self, graph):
        sides = [0, 0, 0, 0, 0]
        locked = [True, True, True, True, False]
        state = make_state(graph, sides, locked=locked)
        popped = set()
        while True:
            item = state.pop_best()
            if item is None:
                break
            popped.add(item[0])
        assert popped == {4}

    def test_rollback_restores_everything(self, graph):
        sides = [0, 1, 0, 1, 0]
        state = make_state(graph, sides)
        snapshot = state.snapshot()
        for node in (0, 2, 4):
            state.index.remove(node)
            state.apply_switch(record_for(graph, node))
        assert state.snapshot() != snapshot
        state.rollback_to(0)
        assert state.snapshot() == snapshot
        assert state.switches_applied == 0

    def test_partial_rollback(self, graph):
        sides = [0, 0, 0, 0, 0]
        state = make_state(graph, sides)
        reference = Partition(graph, sides)
        for node in (3, 4):
            state.index.remove(node)
            state.apply_switch(record_for(graph, node))
        reference.switch(3)  # keep only the first switch
        state.rollback_to(1)
        assert state.sides == reference.sides
        assert (state.f_cross, state.r_cross) == (
            reference.f_cross,
            reference.r_cross,
        )

    def test_rollback_bounds_checked(self, graph):
        state = make_state(graph, [0] * 5)
        with pytest.raises(ValueError):
            state.rollback_to(1)
        with pytest.raises(ValueError):
            state.rollback_to(-1)

    def test_sides_length_validated(self):
        with pytest.raises(ValueError):
            MasterState(3, 1.0, [0, 1], 0, 0, HeapGainIndex())

    def test_neighbour_gains_updated_on_switch(self, graph):
        """After a switch, a still-indexed neighbour's gain must equal a
        fresh recomputation on the updated partition."""
        sides = [0, 0, 0, 0, 0]
        state = make_state(graph, sides, k=2.0)
        state.index.remove(3)
        state.apply_switch(record_for(graph, 3))
        reference = Partition(graph, [0, 0, 0, 1, 0])
        for u in (0, 1, 4):
            assert state.index.gain_of(u) == pytest.approx(
                reference.switch_gain(u, 2.0)
            )
