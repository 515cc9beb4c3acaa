"""Tests for the FM bucket list and heap gain indexes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AugmentedSocialGraph,
    BucketGainIndex,
    CSRGraph,
    HeapGainIndex,
    PartitionState,
)
from repro.core.kl import KLConfig, adjust_neighbor_gains, extended_kl_state

from ..conftest import graphs_with_sides


def make_bucket(num_nodes=64, max_abs_gain=32, resolution=8):
    return BucketGainIndex(num_nodes, max_abs_gain, resolution)


class TestBucketGainIndex:
    def test_insert_and_pop_max(self):
        idx = make_bucket()
        idx.insert(0, 1.0)
        idx.insert(1, 3.0)
        idx.insert(2, -2.0)
        assert idx.pop_max() == (1, 3.0)
        assert idx.pop_max() == (0, 1.0)
        assert idx.pop_max() == (2, -2.0)
        assert idx.pop_max() is None

    def test_lifo_tie_break(self):
        idx = make_bucket()
        idx.insert(5, 1.0)
        idx.insert(7, 1.0)
        node, _ = idx.pop_max()
        assert node == 7  # most recently inserted wins

    def test_fractional_grid_gains(self):
        idx = make_bucket(resolution=8)
        idx.insert(0, 0.125)
        idx.insert(1, -0.375)
        assert idx.pop_max() == (0, 0.125)
        assert idx.pop_max() == (1, -0.375)

    def test_off_grid_gain_rejected(self):
        idx = make_bucket(resolution=8)
        with pytest.raises(ValueError):
            idx.insert(0, 0.1)

    def test_adjust_moves_between_buckets(self):
        idx = make_bucket()
        idx.insert(0, 1.0)
        idx.insert(1, 2.0)
        idx.adjust(0, 4.0)
        assert idx.gain_of(0) == 5.0
        assert idx.pop_max() == (0, 5.0)

    def test_adjust_missing_node_raises(self):
        idx = make_bucket()
        with pytest.raises(KeyError):
            idx.adjust(3, 1.0)

    def test_remove_is_idempotent(self):
        idx = make_bucket()
        idx.insert(0, 1.0)
        idx.remove(0)
        idx.remove(0)
        assert len(idx) == 0
        assert 0 not in idx

    def test_duplicate_insert_rejected(self):
        idx = make_bucket()
        idx.insert(0, 1.0)
        with pytest.raises(ValueError):
            idx.insert(0, 2.0)

    def test_gain_beyond_bound_rejected(self):
        idx = BucketGainIndex(4, max_abs_gain=2, resolution=1)
        with pytest.raises(ValueError):
            idx.insert(0, 10.0)

    def test_contains_and_len(self):
        idx = make_bucket()
        idx.insert(3, 0.0)
        assert 3 in idx
        assert 4 not in idx
        assert len(idx) == 1


class TestHeapGainIndex:
    def test_insert_and_pop_max(self):
        idx = HeapGainIndex()
        idx.insert(0, 0.7)
        idx.insert(1, -0.3)
        idx.insert(2, 2.5)
        assert idx.pop_max() == (2, 2.5)
        assert idx.pop_max() == (0, 0.7)
        assert idx.pop_max() == (1, -0.3)
        assert idx.pop_max() is None

    def test_accepts_arbitrary_floats(self):
        idx = HeapGainIndex()
        idx.insert(0, 0.1)
        idx.insert(1, 0.3000001)
        assert idx.pop_max()[0] == 1

    def test_adjust_with_stale_entries(self):
        idx = HeapGainIndex()
        idx.insert(0, 10.0)
        idx.insert(1, 5.0)
        idx.adjust(0, -8.0)  # stale (10.0) entry remains in the heap
        assert idx.pop_max() == (1, 5.0)
        assert idx.pop_max() == (0, 2.0)

    def test_remove_then_pop_skips_node(self):
        idx = HeapGainIndex()
        idx.insert(0, 3.0)
        idx.insert(1, 1.0)
        idx.remove(0)
        assert idx.pop_max() == (1, 1.0)
        assert idx.pop_max() is None

    def test_lifo_tie_break(self):
        idx = HeapGainIndex()
        idx.insert(5, 1.0)
        idx.insert(7, 1.0)
        assert idx.pop_max()[0] == 7


class TestFactory:
    """The KL engine picks its gain index itself: ``"auto"`` takes the
    bucket list on the 1/8 grid and the heap off it."""

    @staticmethod
    def bucket_runs(monkeypatch, k, gain_index="auto"):
        """Run one KL search and count the bucket engine's gain-bound
        lookups (only the bucket engines size a bucket array)."""
        calls = []
        original = CSRGraph.bucket_gain_bound

        def spy(self, resolution, k_scaled):
            calls.append((resolution, k_scaled))
            return original(self, resolution, k_scaled)

        monkeypatch.setattr(CSRGraph, "bucket_gain_bound", spy)
        graph = AugmentedSocialGraph.from_edges(
            4, friendships=[(0, 1), (2, 3)], rejections=[(0, 2), (1, 3)]
        )
        state = PartitionState(graph.csr().view(), [0, 0, 1, 1])
        extended_kl_state(state, k, KLConfig(gain_index=gain_index))
        return calls

    def test_auto_picks_bucket_on_grid(self, monkeypatch):
        assert self.bucket_runs(monkeypatch, 0.25) == [(8, 2)]

    def test_auto_picks_heap_off_grid(self, monkeypatch):
        assert self.bucket_runs(monkeypatch, 0.3) == []

    def test_bucket_with_off_grid_k_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="1/8 bucket grid"):
            self.bucket_runs(monkeypatch, 0.3, gain_index="bucket")

    def test_unknown_kind_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown gain index kind"):
            self.bucket_runs(monkeypatch, 1.0, gain_index="fibonacci")


# ----------------------------------------------------------------------
# Property tests: both implementations agree with a naive dict reference.
# ----------------------------------------------------------------------

_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "adjust", "remove", "pop"]),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=-64, max_value=64),  # gain in eighths
    ),
    max_size=60,
)


def _apply_ops(index, ops, resolution=8):
    """Drive an index and a dict model with the same operation stream."""
    model = {}
    results = []
    for op, node, eighths in ops:
        gain = eighths / resolution
        if op == "insert":
            if node in model:
                continue
            model[node] = gain
            index.insert(node, gain)
        elif op == "adjust":
            if node not in model:
                continue
            model[node] += gain
            index.adjust(node, gain)
        elif op == "remove":
            model.pop(node, None)
            index.remove(node)
        else:  # pop
            popped = index.pop_max()
            if model:
                assert popped is not None
                pnode, pgain = popped
                max_gain = max(model.values())
                assert pgain == pytest.approx(max_gain)
                assert model[pnode] == pytest.approx(max_gain)
                del model[pnode]
            else:
                assert popped is None
            results.append(popped)
        assert len(index) == len(model)
    return results


@given(_ops)
@settings(max_examples=100, deadline=None)
def test_bucket_index_matches_dict_model(ops):
    # max |gain|: 16 ops * 8 eighths each is far below 200.
    index = BucketGainIndex(16, max_abs_gain=520, resolution=8)
    _apply_ops(index, ops)


@given(_ops)
@settings(max_examples=100, deadline=None)
def test_heap_index_matches_dict_model(ops):
    _apply_ops(HeapGainIndex(), ops)


@given(_ops)
@settings(max_examples=60, deadline=None)
def test_bucket_and_heap_pop_equal_gains(ops):
    """Both indexes must pop the same *gain values* for the same stream
    (popped nodes may differ only within exact ties)."""
    bucket = BucketGainIndex(16, max_abs_gain=520, resolution=8)
    heap = HeapGainIndex()
    bucket_pops = _apply_ops(bucket, ops)
    heap_pops = _apply_ops(heap, ops)
    bucket_gains = [p[1] for p in bucket_pops if p is not None]
    heap_gains = [p[1] for p in heap_pops if p is not None]
    assert bucket_gains == pytest.approx(heap_gains)


# ----------------------------------------------------------------------
# CSR-path property tests: drive the *real* per-switch update
# (adjust_neighbor_gains over a PartitionState) and check every indexed
# gain against brute-force recomputation via switch_gain.
# ----------------------------------------------------------------------


def _drive_csr_switches(index, state, k, max_switches=12):
    """Pop/switch/adjust like a KL pass, checking gains at every step."""
    eligible = [u for u in state.view.active_nodes() if not state.locked[u]]
    for u in eligible:
        index.insert(u, state.switch_gain(u, k))
    for _ in range(max_switches):
        popped = index.pop_max()
        if popped is None:
            break
        u, gain = popped
        assert not state.locked[u]
        assert state.view.is_active(u)
        assert gain == pytest.approx(state.switch_gain(u, k))
        prev_side = state.sides[u]
        state.switch(u)
        adjust_neighbor_gains(index, state, u, prev_side, k)
        for v in eligible:
            if v in index:
                assert index.gain_of(v) == pytest.approx(state.switch_gain(v, k))
    assert state.verify_counts()


_node_sets = st.sets(st.integers(min_value=0, max_value=23), max_size=8)


@given(graphs_with_sides(), _node_sets)
@settings(max_examples=50, deadline=None)
def test_bucket_index_matches_brute_force_on_csr_path(graph_and_sides, locked_set):
    """On-grid k: the bucket list tracks switch_gain exactly, and frozen
    seeds (locked nodes) stay out of the index entirely."""
    graph, sides = graph_and_sides
    k = 0.625  # 5/8 — on the resolution-8 grid
    locked = [u in locked_set for u in range(graph.num_nodes)]
    state = PartitionState(graph.csr().view(), sides, locked=locked)
    bound = state.view.csr.bucket_gain_bound(8, round(k * 8))
    index = BucketGainIndex(graph.num_nodes, max_abs_gain=bound / 8, resolution=8)
    _drive_csr_switches(index, state, k)
    for u in range(graph.num_nodes):
        if locked[u]:
            assert state.sides[u] == sides[u]


@given(graphs_with_sides(), _node_sets, _node_sets)
@settings(max_examples=50, deadline=None)
def test_heap_index_matches_brute_force_on_residual_view(
    graph_and_sides, locked_set, removed_set
):
    """Off-grid k on a residual view: the lazy heap tracks switch_gain
    computed over *active* neighbors only."""
    graph, sides = graph_and_sides
    k = 0.3  # off-grid: the real sweep would route this to the heap
    removed = {u for u in removed_set if u < graph.num_nodes}
    locked = [u in locked_set for u in range(graph.num_nodes)]
    view = graph.csr().view().without(removed)
    state = PartitionState(view, sides, locked=locked)
    _drive_csr_switches(HeapGainIndex(), state, k)
    for u in removed:
        assert state.sides[u] == sides[u]


def test_rejection_edge_asymmetry_on_csr_path():
    """Rejections are directed: only side-0 → side-1 rejections count,
    so flipping an edge's direction changes the indexed gains."""
    k = 1.0
    sides = [0, 0, 1]
    forward = AugmentedSocialGraph.from_edges(
        3, friendships=[(0, 1)], rejections=[(0, 2)]
    )
    reverse = AugmentedSocialGraph.from_edges(
        3, friendships=[(0, 1)], rejections=[(2, 0)]
    )
    fwd_state = PartitionState(forward.csr().view(), list(sides))
    rev_state = PartitionState(reverse.csr().view(), list(sides))
    # (0 → 2) is a cross rejection (legit caster, suspicious target);
    # (2 → 0) is not, so node 2's switch gain differs by k.
    assert fwd_state.r_cross == 1
    assert rev_state.r_cross == 0
    assert fwd_state.switch_gain(2, k) != rev_state.switch_gain(2, k)
    for state in (fwd_state, rev_state):
        index = HeapGainIndex()
        for u in range(3):
            index.insert(u, state.switch_gain(u, k))
        _u, gain = index.pop_max()
        assert gain == max(state.switch_gain(v, k) for v in range(3))
