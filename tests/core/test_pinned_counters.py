"""Pinned work counters of every KL engine and of the multilevel solver.

The bucket-vs-heap and boundary-vs-full parity tests compare engines
that share one pass driver, so a change to that driver moves both sides
of each comparison at once. This module pins the absolute outputs
instead: for fixed-seed cases covering every engine, the pass, tested
and applied counts, the per-pass objective history and a digest of the
final sides must equal the values committed in
``pinned_counters.json``, on every backend.

Regenerate the fixture only when a change is *meant* to move these
numbers (and say why in the change log)::

    PYTHONPATH=src python -m tests.core.test_pinned_counters
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.attacks import ScenarioConfig, build_scenario
from repro.core.csr import PartitionState
from repro.core.kernels import heavy_edge_matching, matching_to_mapping
from repro.core.kl import KLConfig, KLStats, extended_kl_state
from repro.core.multilevel import MultilevelConfig, solve_maar_multilevel

FIXTURE = Path(__file__).with_name("pinned_counters.json")

try:
    import numpy  # noqa: F401

    BACKENDS = ["python", "numpy"]
except ImportError:  # pragma: no cover - the no-numpy CI job
    BACKENDS = ["python"]


def _digest(sides) -> str:
    return hashlib.sha256(bytes(sides)).hexdigest()


def _initial_sides(csr, active, locked_sides):
    """The solvers' default start: every active node that received a
    rejection is suspicious; seeds sit on their pinned side."""
    ri_ptr = csr.ri_ptr
    sides = [
        1 if active[u] and ri_ptr[u + 1] > ri_ptr[u] else 0
        for u in range(csr.num_nodes)
    ]
    for u, side in locked_sides.items():
        sides[u] = side
    return sides


def _run(state, k, config):
    stats = KLStats()
    out = extended_kl_state(state, k, config, stats)
    return {
        "passes": stats.passes,
        "tested": stats.switches_tested,
        "applied": stats.switches_applied,
        "objective_history": stats.objective_history,
        "f_cross": out.f_cross,
        "r_cross": out.r_cross,
        "sides_sha256": _digest(out.sides),
    }


def _residual_state(backend):
    """A Rejecto-style second round: the residual view left after a
    detected group is removed, with locked legitimate and spammer
    seeds."""
    scenario = build_scenario(ScenarioConfig(num_legit=500, num_fakes=100, seed=3))
    csr = scenario.graph.csr(backend)
    removed = scenario.fakes[:30]
    view = csr.view().without(removed)
    legit_seeds, spam_seeds = scenario.sample_seeds(15, 3, seed=5)
    spam_seeds = [u for u in spam_seeds if view.active[u]]
    pinned = {u: 0 for u in legit_seeds}
    pinned.update({u: 1 for u in spam_seeds})
    locked = [u in pinned for u in range(csr.num_nodes)]
    sides = _initial_sides(csr, view.active, pinned)
    return PartitionState(view, sides, locked)


def _contracted_state(backend):
    """One coarsening level of a scenario graph: an int64-weighted
    :class:`~repro.core.csr.WeightedCSRGraph`."""
    scenario = build_scenario(ScenarioConfig(num_legit=400, num_fakes=80, seed=9))
    csr = scenario.graph.csr(backend)
    priority = list(range(csr.num_nodes))
    random.Random(2).shuffle(priority)
    match = heavy_edge_matching(csr, priority, locked=[False] * csr.num_nodes)
    mapping, num_coarse = matching_to_mapping(match, csr.backend)
    coarse = csr.contract(mapping, num_coarse)
    # A super-node starts suspicious when a member received at least
    # three rejections (a fake's typical load, rare for a legitimate user).
    ri_ptr = csr.ri_ptr
    sides = [0] * num_coarse
    for u, cu in enumerate(mapping):
        if ri_ptr[u + 1] - ri_ptr[u] >= 3:
            sides[cu] = 1
    return PartitionState(coarse.view(), sides)


def _kl_cases(backend):
    residual = _residual_state(backend)
    contracted = _contracted_state(backend)
    return {
        "bucket_residual_full": _run(
            residual, 0.5, KLConfig(gain_index="bucket", frontier="full")
        ),
        "bucket_residual_boundary": _run(
            residual, 0.5, KLConfig(gain_index="bucket", frontier="boundary")
        ),
        "weighted_bucket_full": _run(
            contracted, 1.0, KLConfig(gain_index="bucket", frontier="full")
        ),
        "weighted_bucket_boundary": _run(
            contracted, 1.0, KLConfig(gain_index="bucket", frontier="boundary")
        ),
        "heap_residual_off_grid": _run(
            residual, 0.3, KLConfig(gain_index="auto")
        ),
        "heap_weighted_off_grid": _run(
            contracted, 0.7, KLConfig(gain_index="auto", frontier="boundary")
        ),
    }


def _multilevel_case(backend):
    scenario = build_scenario(
        ScenarioConfig(num_legit=1700, num_fakes=300, seed=11)
    )
    result = solve_maar_multilevel(
        scenario.graph, MultilevelConfig(backend=backend, coarsest_nodes=150)
    )
    return {
        "level_sizes": result.level_sizes,
        "k": result.k,
        "acceptance_rate": result.acceptance_rate,
        "suspicious_sha256": hashlib.sha256(
            json.dumps(result.suspicious).encode()
        ).hexdigest(),
        "levels": [
            {key: d[key] for key in ("level", "tested", "moves", "boundary")}
            for d in result.timings["refine_detail"]
        ],
    }


def compute(backend: str) -> dict:
    cases = _kl_cases(backend)
    cases["multilevel"] = _multilevel_case(backend)
    return cases


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("backend", BACKENDS)
def test_counters_match_pinned_values(backend, pinned):
    assert compute(backend) == pinned


def test_cases_are_not_trivial(pinned):
    # Every engine case must do real work, or the pin checks nothing.
    for name, case in pinned.items():
        if name == "multilevel":
            assert len(case["level_sizes"]) >= 3
            assert all(level["tested"] > 0 for level in case["levels"])
            continue
        assert case["passes"] >= 2, name
        assert case["applied"] > 0, name


if __name__ == "__main__":
    values = compute(BACKENDS[-1])
    assert all(compute(b) == values for b in BACKENDS[:-1])
    FIXTURE.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
