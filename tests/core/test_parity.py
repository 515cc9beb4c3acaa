"""Reference-loop vs CSR-engine parity.

The original dict-adjacency KL/MAAR/Rejecto loops live on as test code
in :mod:`tests.core.reference`. These tests pin the flat-array core to
their behavior: on canonicalized graphs (edges inserted in sorted order,
so the reference loop's insertion-order adjacency equals the CSR's
sorted adjacency) the two paths must produce *identical* partitions,
cut counters, and detected groups — not merely equally good ones.
"""

import pytest
from hypothesis import given, settings

from repro.attacks.scenario import ScenarioConfig, build_scenario
from repro.core import AugmentedSocialGraph, Partition
from repro.core.csr import PartitionState
from repro.core.kl import KLConfig, KLStats, extended_kl, extended_kl_state
from repro.core.maar import MAARConfig, solve_maar
from repro.core.rejecto import Rejecto, RejectoConfig

from ..conftest import graphs_with_sides
from . import reference as ref

FULL_REBUILD = KLConfig(incremental=False)

try:
    import numpy  # noqa: F401

    HAS_NUMPY = True
except ImportError:  # pragma: no cover
    HAS_NUMPY = False


def canonical(graph):
    """Rebuild ``graph`` with sorted edge insertion.

    Sorted insertion makes every builder adjacency list ascending, i.e.
    identical to the CSR ordering, so both engines visit neighbors in
    the same order and tie-breaks resolve identically.
    """
    return AugmentedSocialGraph.from_edges(
        graph.num_nodes,
        friendships=sorted(graph.friendships()),
        rejections=sorted(graph.rejections()),
    )


def scenario_graph(**overrides):
    config = ScenarioConfig(num_legit=300, num_fakes=60).with_overrides(**overrides)
    return build_scenario(config)


SCENARIOS = {
    "baseline": {},
    "collusion": {"collusion_extra_links": 4},
    "self_rejection": {"self_rejection_rate": 0.7, "whitewashed_fraction": 0.5},
}


def assert_maar_results_equal(legacy, new):
    assert legacy.found == new.found
    assert legacy.k == new.k
    assert legacy.acceptance_rate == pytest.approx(new.acceptance_rate)
    if legacy.found:
        assert legacy.suspicious_nodes() == new.suspicious_nodes()
        assert legacy.partition.f_cross == new.partition.f_cross
        assert legacy.partition.r_cross == new.partition.r_cross
    assert len(legacy.per_k) == len(new.per_k)
    for old_c, new_c in zip(legacy.per_k, new.per_k):
        assert old_c.k == new_c.k
        assert old_c.valid == new_c.valid
        assert old_c.f_cross == new_c.f_cross
        assert old_c.r_cross == new_c.r_cross
        assert old_c.suspicious_size == new_c.suspicious_size
        assert old_c.acceptance_rate == pytest.approx(new_c.acceptance_rate)


class TestExtendedKLParity:
    @given(graphs_with_sides())
    @settings(max_examples=40, deadline=None)
    def test_bucket_grid_k_values(self, graph_and_sides):
        graph, sides = graph_and_sides
        graph = canonical(graph)
        for k in (0.125, 1.0, 4.0):
            initial = Partition(graph, list(sides))
            legacy = ref.extended_kl(graph, k, initial)
            new = extended_kl(graph, k, initial)
            assert new.sides == legacy.sides
            assert (new.f_cross, new.r_cross) == (legacy.f_cross, legacy.r_cross)

    @given(graphs_with_sides())
    @settings(max_examples=40, deadline=None)
    def test_off_grid_k_uses_heap_on_both_engines(self, graph_and_sides):
        graph, sides = graph_and_sides
        graph = canonical(graph)
        initial = Partition(graph, list(sides))
        legacy = ref.extended_kl(graph, 0.3, initial)
        new = extended_kl(graph, 0.3, initial)
        assert new.sides == legacy.sides
        assert (new.f_cross, new.r_cross) == (legacy.f_cross, legacy.r_cross)

    @given(graphs_with_sides())
    @settings(max_examples=40, deadline=None)
    def test_locked_nodes_respected_identically(self, graph_and_sides):
        graph, sides = graph_and_sides
        graph = canonical(graph)
        locked = [u % 3 == 0 for u in range(graph.num_nodes)]
        initial = Partition(graph, list(sides))
        legacy = ref.extended_kl(graph, 1.0, initial, locked=locked)
        new = extended_kl(graph, 1.0, initial, locked=locked)
        assert new.sides == legacy.sides
        for u in range(graph.num_nodes):
            if locked[u]:
                assert new.sides[u] == sides[u]


class TestMAARParity:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_sweep_identical(self, name):
        scenario = scenario_graph(**SCENARIOS[name])
        graph = canonical(scenario.graph)
        legacy = ref.solve_maar(graph, MAARConfig())
        new = solve_maar(graph, MAARConfig())
        assert_maar_results_equal(legacy, new)
        assert legacy.found

    def test_seeded_sweep_identical(self):
        scenario = scenario_graph()
        graph = canonical(scenario.graph)
        legit_seeds, spammer_seeds = scenario.sample_seeds(20, 5, seed=11)
        legacy = ref.solve_maar(
            graph,
            MAARConfig(),
            legit_seeds=legit_seeds,
            spammer_seeds=spammer_seeds,
        )
        new = solve_maar(
            graph,
            MAARConfig(),
            legit_seeds=legit_seeds,
            spammer_seeds=spammer_seeds,
        )
        assert_maar_results_equal(legacy, new)
        suspicious = set(new.suspicious_nodes())
        assert suspicious.issuperset(spammer_seeds)
        assert suspicious.isdisjoint(legit_seeds)

    def test_refinement_rounds_identical(self):
        scenario = scenario_graph()
        graph = canonical(scenario.graph)
        legacy = ref.solve_maar(graph, MAARConfig(refine_rounds=2))
        new = solve_maar(graph, MAARConfig(refine_rounds=2))
        assert_maar_results_equal(legacy, new)


class TestParallelSweepParity:
    """Serial vs thread vs process ``k`` sweeps must be bit-identical:
    same best cut, same per-``k`` candidates, same aggregate KL stats,
    same Rejecto groups (the reduction replays the serial tie-breaks on
    ordered worker results)."""

    BACKENDS = ("thread", "process")

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_maar_sweep_identical(self, name, backend):
        graph = canonical(scenario_graph(**SCENARIOS[name]).graph)
        serial = solve_maar(graph, MAARConfig())
        parallel = solve_maar(graph, MAARConfig(jobs=2, executor=backend))
        assert_maar_results_equal(serial, parallel)
        assert serial.found
        assert parallel.suspicious_nodes() == serial.suspicious_nodes()
        assert parallel.stats.passes == serial.stats.passes
        assert parallel.stats.switches_applied == serial.stats.switches_applied
        assert parallel.stats.switches_tested == serial.stats.switches_tested
        assert parallel.stats.objective_history == serial.stats.objective_history

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_seeded_sweep_identical(self, backend):
        scenario = scenario_graph()
        graph = canonical(scenario.graph)
        legit_seeds, spammer_seeds = scenario.sample_seeds(20, 5, seed=11)
        serial = solve_maar(
            graph,
            MAARConfig(),
            legit_seeds=legit_seeds,
            spammer_seeds=spammer_seeds,
        )
        parallel = solve_maar(
            graph,
            MAARConfig(jobs=2, executor=backend),
            legit_seeds=legit_seeds,
            spammer_seeds=spammer_seeds,
        )
        assert_maar_results_equal(serial, parallel)
        assert parallel.suspicious_nodes() == serial.suspicious_nodes()

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rejecto_groups_identical(self, name, backend):
        graph = canonical(scenario_graph(**SCENARIOS[name]).graph)
        serial = Rejecto().detect(graph)
        parallel = Rejecto(
            RejectoConfig(maar=MAARConfig(jobs=2, executor=backend))
        ).detect(graph)
        assert parallel.termination == serial.termination
        assert parallel.rounds_run == serial.rounds_run
        for old_g, new_g in zip(serial.groups, parallel.groups):
            assert new_g.members == old_g.members
            assert new_g.f_cross == old_g.f_cross
            assert new_g.r_cross == old_g.r_cross
            assert new_g.k == old_g.k
            assert new_g.acceptance_rate == pytest.approx(old_g.acceptance_rate)
        assert parallel.detected() == serial.detected()

    def test_warm_start_falls_back_to_serial_semantics(self):
        """``warm_start`` couples the k steps; ``jobs`` must not change
        the result (the sweep ignores the fan-out and stays serial)."""
        graph = canonical(scenario_graph().graph)
        serial = solve_maar(graph, MAARConfig(warm_start=True))
        parallel = solve_maar(graph, MAARConfig(warm_start=True, jobs=2))
        assert_maar_results_equal(serial, parallel)

    def test_refinement_after_parallel_sweep_identical(self):
        graph = canonical(scenario_graph().graph)
        serial = solve_maar(graph, MAARConfig(refine_rounds=2))
        parallel = solve_maar(graph, MAARConfig(refine_rounds=2, jobs=2))
        assert_maar_results_equal(serial, parallel)


def assert_stats_equal(reference: KLStats, other: KLStats) -> None:
    assert other.passes == reference.passes
    assert other.switches_applied == reference.switches_applied
    assert other.switches_tested == reference.switches_tested
    assert other.objective_history == reference.objective_history


class TestIncrementalParity:
    """Dirty-frontier incremental passes vs the full-rebuild reference.

    ``KLConfig(incremental=False)`` re-sweeps all V+E gains every pass;
    the default rebuilds only the previous pass's applied prefix and its
    neighbourhood. The two must be bit-identical — same sides, counters,
    and complete ``KLStats`` including ``objective_history`` (which
    records the start-of-pass objective, so any drift in pass structure
    shows up immediately).
    """

    @given(graphs_with_sides())
    @settings(max_examples=40, deadline=None)
    def test_bucket_passes_identical(self, graph_and_sides):
        graph, sides = graph_and_sides
        graph = canonical(graph)
        locked = [u % 3 == 0 for u in range(graph.num_nodes)]
        for k in (0.125, 1.0, 4.0):
            initial = Partition(graph, list(sides))
            full_stats, inc_stats = KLStats(), KLStats()
            full = extended_kl(
                graph, k, initial, locked=locked,
                config=FULL_REBUILD, stats=full_stats,
            )
            inc = extended_kl(graph, k, initial, locked=locked, stats=inc_stats)
            assert inc.sides == full.sides
            assert (inc.f_cross, inc.r_cross) == (full.f_cross, full.r_cross)
            assert_stats_equal(full_stats, inc_stats)

    @given(graphs_with_sides())
    @settings(max_examples=40, deadline=None)
    def test_heap_passes_identical(self, graph_and_sides):
        graph, sides = graph_and_sides
        graph = canonical(graph)
        initial = Partition(graph, list(sides))
        full_stats, inc_stats = KLStats(), KLStats()
        full = extended_kl(
            graph, 0.3, initial, config=FULL_REBUILD, stats=full_stats
        )
        inc = extended_kl(graph, 0.3, initial, stats=inc_stats)
        assert inc.sides == full.sides
        assert (inc.f_cross, inc.r_cross) == (full.f_cross, full.r_cross)
        assert_stats_equal(full_stats, inc_stats)

    @given(graphs_with_sides())
    @settings(max_examples=25, deadline=None)
    def test_residual_view_passes_identical(self, graph_and_sides):
        graph, sides = graph_and_sides
        graph = canonical(graph)
        removed = [u for u in range(graph.num_nodes) if u % 5 == 4]
        locked = [u % 4 == 0 for u in range(graph.num_nodes)]
        view = graph.csr().view().without(removed)
        for k, config_inc in ((1.0, KLConfig()), (0.3, KLConfig())):
            full_stats, inc_stats = KLStats(), KLStats()
            full = extended_kl_state(
                PartitionState(view, list(sides), locked),
                k, config=FULL_REBUILD, stats=full_stats,
            )
            inc = extended_kl_state(
                PartitionState(view, list(sides), locked),
                k, config=config_inc, stats=inc_stats,
            )
            assert inc.sides == full.sides
            assert (inc.f_cross, inc.r_cross) == (full.f_cross, full.r_cross)
            assert inc.side_sizes == full.side_sizes
            assert_stats_equal(full_stats, inc_stats)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_maar_sweep_identical(self, name):
        graph = canonical(scenario_graph(**SCENARIOS[name]).graph)
        full = solve_maar(graph, MAARConfig(kl=FULL_REBUILD))
        inc = solve_maar(graph, MAARConfig())
        assert_maar_results_equal(full, inc)
        assert_stats_equal(full.stats, inc.stats)
        assert full.found

    def test_rejecto_groups_identical(self):
        graph = canonical(scenario_graph().graph)
        full = Rejecto(RejectoConfig(maar=MAARConfig(kl=FULL_REBUILD))).detect(graph)
        inc = Rejecto().detect(graph)
        assert inc.termination == full.termination
        assert [g.members for g in inc.groups] == [g.members for g in full.groups]
        assert inc.detected() == full.detected()


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy backend unavailable")
class TestBackendParity:
    """python vs numpy CSR backends must be bit-identical end to end:
    the batch kernels fill the same integer/float gain arrays the scalar
    fallback produces, so the engines cannot tell the backends apart."""

    @given(graphs_with_sides())
    @settings(max_examples=25, deadline=None)
    def test_extended_kl_state_identical(self, graph_and_sides):
        graph, sides = graph_and_sides
        graph = canonical(graph)
        removed = [u for u in range(graph.num_nodes) if u % 5 == 4]
        locked = [u % 4 == 0 for u in range(graph.num_nodes)]
        for k in (0.125, 1.0, 0.3):
            results = []
            for backend in ("python", "numpy"):
                view = graph.csr(backend).view().without(removed)
                stats = KLStats()
                out = extended_kl_state(
                    PartitionState(view, list(sides), locked), k, stats=stats
                )
                results.append((out, stats))
            (py_out, py_stats), (np_out, np_stats) = results
            assert np_out.sides == py_out.sides
            assert (np_out.f_cross, np_out.r_cross) == (
                py_out.f_cross,
                py_out.r_cross,
            )
            assert np_out.side_sizes == py_out.side_sizes
            assert_stats_equal(py_stats, np_stats)

    def test_rejecto_detection_identical(self, monkeypatch):
        scenario = scenario_graph()
        results = []
        for backend in ("python", "numpy"):
            # Pin every internal csr("auto") resolution to this backend.
            monkeypatch.setenv("REPRO_BACKEND", backend)
            graph = canonical(scenario.graph)
            results.append(Rejecto().detect(graph))
        py_res, np_res = results
        assert np_res.termination == py_res.termination
        assert [g.members for g in np_res.groups] == [
            g.members for g in py_res.groups
        ]
        assert np_res.detected() == py_res.detected()


class TestRejectoParity:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_detected_groups_identical(self, name):
        scenario = scenario_graph(**SCENARIOS[name])
        graph = canonical(scenario.graph)
        legacy = ref.detect(graph, RejectoConfig())
        new = Rejecto().detect(graph)
        assert new.termination == legacy.termination
        assert new.rounds_run == legacy.rounds_run
        assert len(new.groups) == len(legacy.groups)
        for old_g, new_g in zip(legacy.groups, new.groups):
            assert new_g.members == old_g.members
            assert new_g.f_cross == old_g.f_cross
            assert new_g.r_cross == old_g.r_cross
            assert new_g.acceptance_rate == pytest.approx(old_g.acceptance_rate)
        assert new.detected() == legacy.detected()

    def test_seeded_detection_identical(self):
        scenario = scenario_graph()
        graph = canonical(scenario.graph)
        legit_seeds, spammer_seeds = scenario.sample_seeds(20, 5, seed=3)
        config = RejectoConfig(estimated_spammers=len(scenario.fakes))
        legacy = ref.detect(
            graph,
            RejectoConfig(estimated_spammers=len(scenario.fakes)),
            legit_seeds=legit_seeds,
            spammer_seeds=spammer_seeds,
        )
        new = Rejecto(config).detect(
            graph, legit_seeds=legit_seeds, spammer_seeds=spammer_seeds
        )
        assert new.termination == legacy.termination
        assert [g.members for g in new.groups] == [g.members for g in legacy.groups]
