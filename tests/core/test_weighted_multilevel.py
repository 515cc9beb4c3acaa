"""Tests for the weighted substrate and the multilevel MAAR solver."""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import ScenarioConfig, build_scenario
from repro.core import AugmentedSocialGraph, Partition, cut_counts, solve_maar
from repro.core.csr import PartitionState, WeightedCSRGraph
from repro.core.kernels import heavy_edge_matching, matching_to_mapping
from repro.core.kl import extended_kl_state
from repro.core.multilevel import MultilevelConfig, solve_maar_multilevel
from repro.metrics import precision_recall

from ..conftest import augmented_graphs, graphs_with_sides, weighted_csr


class TestWeightedGraph:
    def test_weights_accumulate(self):
        """Contraction sums the fine edges that land on one coarse pair."""
        graph = AugmentedSocialGraph.from_edges(
            4,
            friendships=[(0, 2), (0, 3), (1, 2), (0, 1)],
            rejections=[(0, 2), (1, 3), (3, 0)],
        )
        coarse = graph.csr("python").contract([0, 0, 1, 1], 2)
        assert list(coarse.f_idx) == [1, 0]
        assert list(coarse.f_wt) == [3, 3]  # (0,1) is internal and vanishes
        assert list(coarse.ro_idx) == [1, 0]
        assert list(coarse.ro_wt) == [2, 1]
        assert list(coarse.ri_wt) == [1, 2]
        assert list(coarse.node_weight) == [2, 2]

    def test_totals(self):
        graph = weighted_csr(3, [(0, 1, 2), (1, 2, 3)], [(2, 0, 4)])
        assert sum(graph.f_wt) // 2 == 5
        assert sum(graph.ro_wt) == sum(graph.ri_wt) == 4
        assert graph.total_node_weight() == 3

    def test_validation(self):
        plain = AugmentedSocialGraph.from_edges(2, [(0, 1)], []).csr("python")
        arrays = (
            plain.f_ptr,
            plain.f_idx,
            plain.ro_ptr,
            plain.ro_idx,
            plain.ri_ptr,
            plain.ri_idx,
        )
        with pytest.raises(ValueError, match="int64"):
            WeightedCSRGraph(
                2, *arrays, array("d", [1.5, 1.5]), array("q"), array("q")
            )
        ones = array("q", [1, 1])
        with pytest.raises(ValueError, match="f_wt has length 1, expected 2"):
            WeightedCSRGraph(2, *arrays, array("q", [1]), array("q"), array("q"))
        with pytest.raises(ValueError, match="node_weight has length"):
            WeightedCSRGraph(
                2, *arrays, ones, array("q"), array("q"), node_weight=[1]
            )
        unit = WeightedCSRGraph.from_unit(plain)
        with pytest.raises(ValueError, match="unweighted"):
            WeightedCSRGraph.from_unit(unit)


@given(graphs_with_sides(max_nodes=16, max_edges=40))
@settings(max_examples=40, deadline=None)
def test_unit_weights_match_unweighted_counters(case):
    """A unit-weight embedding must reproduce the plain cut counters and
    switch gains exactly."""
    graph, sides = case
    plain = PartitionState(graph.csr().view(), sides)
    unit = PartitionState(WeightedCSRGraph.from_unit(graph.csr()).view(), sides)
    assert (unit.f_cross, unit.r_cross) == (plain.f_cross, plain.r_cross)
    assert (unit.f_cross, unit.r_cross) == cut_counts(graph, sides)
    for u in range(graph.num_nodes):
        assert unit.switch_gain(u, 1.5) == plain.switch_gain(u, 1.5)


@given(graphs_with_sides(max_nodes=14, max_edges=30), st.data())
@settings(max_examples=30, deadline=None)
def test_weighted_switch_matches_recount(case, data):
    """Switches on a contracted graph keep its counters equal to a
    from-scratch recount of the projected fine partition."""
    graph, sides = case
    n = graph.num_nodes
    csr = graph.csr()
    mapping, num_coarse = matching_to_mapping(
        shuffled_matching(csr, data.draw(st.integers(0, 99))), csr.backend
    )
    coarse = csr.contract(mapping, num_coarse)
    state = PartitionState(coarse.view(), [sides[u] for u in range(num_coarse)])
    moves = data.draw(
        st.lists(st.integers(min_value=0, max_value=num_coarse - 1), max_size=15)
    )
    for u in moves:
        state.switch(u)
    fine = [state.sides[mapping[u]] for u in range(n)]
    assert (state.f_cross, state.r_cross) == cut_counts(graph, fine)


def shuffled_matching(csr, seed, locked=None):
    """One heavy-edge matching level over a shuffled tie-break priority,
    as :func:`solve_maar_multilevel` builds each coarser level."""
    priority = list(range(csr.num_nodes))
    random.Random(seed).shuffle(priority)
    return heavy_edge_matching(csr, priority, locked=locked)


def weighted_kl(weighted, k, initial_sides):
    """Run the extended KL engine on a weighted graph."""
    state = PartitionState(
        weighted.view(), initial_sides, [False] * weighted.num_nodes
    )
    return extended_kl_state(state, k)


class TestCoarsening:
    def test_matching_is_valid(self):
        scenario = build_scenario(ScenarioConfig(num_legit=150, num_fakes=30))
        match = shuffled_matching(scenario.graph.csr(), 0)
        for u, v in enumerate(match):
            assert match[v] == u  # symmetric

    def test_locked_nodes_never_matched(self):
        scenario = build_scenario(ScenarioConfig(num_legit=100, num_fakes=20))
        csr = scenario.graph.csr()
        locked = [u < 10 for u in range(csr.num_nodes)]
        match = shuffled_matching(csr, 1, locked)
        for u in range(10):
            assert match[u] == u

    def test_coarsening_preserves_node_weight(self):
        scenario = build_scenario(ScenarioConfig(num_legit=100, num_fakes=20))
        csr = scenario.graph.csr()
        mapping, num_coarse = matching_to_mapping(
            shuffled_matching(csr, 2), csr.backend
        )
        coarse = csr.contract(mapping, num_coarse)
        assert coarse.total_node_weight() == csr.num_nodes
        assert coarse.num_nodes < csr.num_nodes
        assert all(0 <= c < coarse.num_nodes for c in mapping)

    def test_coarse_cut_weight_equals_projected_fine_cut(self):
        """The contraction invariant: for any coarse partition, the cut
        weights equal those of the projected fine partition."""
        scenario = build_scenario(ScenarioConfig(num_legit=120, num_fakes=25))
        csr = scenario.graph.csr()
        mapping, num_coarse = matching_to_mapping(
            shuffled_matching(csr, 3), csr.backend
        )
        coarse = csr.contract(mapping, num_coarse)
        rng = random.Random(4)
        coarse_sides = [rng.randint(0, 1) for _ in range(num_coarse)]
        fine_sides = [coarse_sides[mapping[u]] for u in range(csr.num_nodes)]
        cp = PartitionState(coarse.view(), coarse_sides)
        fp = PartitionState(csr.view(), fine_sides)
        assert cp.f_cross == fp.f_cross
        assert cp.r_cross == fp.r_cross


class TestWeightedKL:
    def test_matches_detection_on_planted_instance(self):
        scenario = build_scenario(ScenarioConfig(num_legit=300, num_fakes=60))
        weighted = WeightedCSRGraph.from_unit(scenario.graph.csr())
        init = [1 if scenario.graph.rej_in[u] else 0 for u in range(weighted.num_nodes)]
        out = weighted_kl(weighted, 2.0, init)
        suspicious = {u for u, s in enumerate(out.sides) if s == 1}
        assert len(suspicious & set(scenario.fakes)) > 55

    def test_invalid_k(self):
        graph = weighted_csr(2)
        with pytest.raises(ValueError):
            weighted_kl(graph, 0.0, [0, 0])


class TestMultilevelSolver:
    def test_detects_planted_spammers(self):
        scenario = build_scenario(ScenarioConfig(num_legit=1000, num_fakes=200, seed=7))
        result = solve_maar_multilevel(scenario.graph)
        assert result.found
        assert result.levels >= 2  # actually coarsened
        metrics = precision_recall(result.suspicious, scenario.fakes)
        assert metrics.recall > 0.95
        assert metrics.precision > 0.9

    def test_acceptance_close_to_flat_solver(self):
        scenario = build_scenario(ScenarioConfig(num_legit=800, num_fakes=160, seed=9))
        multilevel = solve_maar_multilevel(scenario.graph)
        flat = solve_maar(scenario.graph)
        assert multilevel.acceptance_rate <= flat.acceptance_rate + 0.05

    def test_seeds_respected(self):
        scenario = build_scenario(ScenarioConfig(num_legit=400, num_fakes=80, seed=11))
        seeds = scenario.legit[:10]
        result = solve_maar_multilevel(scenario.graph, legit_seeds=seeds)
        assert not set(result.suspicious) & set(seeds)
        spam_seed = scenario.fakes[0]
        result = solve_maar_multilevel(scenario.graph, spammer_seeds=[spam_seed])
        assert spam_seed in result.suspicious

    def test_clean_graph_finds_nothing(self):
        from repro.graphgen import barabasi_albert

        graph = barabasi_albert(300, 3, random.Random(0))
        result = solve_maar_multilevel(graph)
        assert not result.found
        assert result.acceptance_rate == 1.0

    def test_empty_graph(self):
        from repro.core import AugmentedSocialGraph

        result = solve_maar_multilevel(AugmentedSocialGraph(0))
        assert not result.found

    def test_small_graph_skips_coarsening(self):
        scenario = build_scenario(ScenarioConfig(num_legit=100, num_fakes=20, seed=13))
        config = MultilevelConfig(coarsest_nodes=500)
        result = solve_maar_multilevel(scenario.graph, config)
        assert result.levels == 1  # already below the threshold
        assert result.found


class TestMultilevelEngines:
    @pytest.fixture(scope="class")
    def scenario(self):
        return build_scenario(ScenarioConfig(num_legit=800, num_fakes=160, seed=9))

    def test_csr_backends_agree(self, scenario):
        pytest.importorskip("numpy")
        python_result = solve_maar_multilevel(
            scenario.graph, MultilevelConfig(backend="python")
        )
        numpy_result = solve_maar_multilevel(
            scenario.graph, MultilevelConfig(backend="numpy")
        )
        assert python_result.suspicious == numpy_result.suspicious
        assert python_result.k == numpy_result.k
        assert python_result.level_sizes == numpy_result.level_sizes

    def test_jobs_do_not_change_the_result(self, scenario):
        serial = solve_maar_multilevel(scenario.graph, MultilevelConfig(jobs=1))
        fanned = solve_maar_multilevel(
            scenario.graph, MultilevelConfig(jobs=2, executor="thread")
        )
        assert serial.suspicious == fanned.suspicious
        assert serial.k == fanned.k

    def test_timings_recorded(self, scenario):
        result = solve_maar_multilevel(scenario.graph)
        assert result.found
        assert len(result.timings["coarsen"]) == result.levels - 1
        assert result.timings["coarse_sweep"] > 0
        # One refine entry per uncoarsening step plus the finest level.
        assert len(result.timings["refine"]) == result.levels - 1
        assert result.timings["total_seconds"] > 0

    def test_accepts_finalized_csr_graph(self, scenario):
        from_builder = solve_maar_multilevel(scenario.graph)
        from_csr = solve_maar_multilevel(scenario.graph.csr())
        assert from_csr.suspicious == from_builder.suspicious


@given(augmented_graphs(max_nodes=16, max_edges=40))
@settings(max_examples=25, deadline=None)
def test_weighted_kl_reaches_a_valid_local_minimum_on_unit_weights(graph):
    """With unit weights, the weighted KL engine runs the same algorithm
    as the unweighted one up to tie-breaking, so the checkable
    invariants are: the engine's counters match a plain recount of its
    sides, no single switch improves its objective, and it is at least
    as good as its own initial partition."""
    k = 2.0
    init = [1 if graph.rej_in[u] else 0 for u in range(graph.num_nodes)]
    out = weighted_kl(WeightedCSRGraph.from_unit(graph.csr()), k, init)
    assert (out.f_cross, out.r_cross) == cut_counts(graph, out.sides)
    for u in range(graph.num_nodes):
        assert out.switch_gain(u, k) <= 1e-9
    assert out.objective(k) <= Partition(graph, init).objective(k) + 1e-9
