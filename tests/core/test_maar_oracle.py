"""Brute-force MAAR oracle: the paper's claims checked by enumeration.

On augmented graphs small enough to enumerate every cut (at most 12
nodes, 4096 cuts) this module checks Theorem 1 and the solver's reported
cut without going through any KL engine: every cut's counters come from
a direct edge scan over a bitmask, and ratios are exact
:class:`fractions.Fraction` values.
"""

from fractions import Fraction

import pytest

from repro.core import MAARConfig, solve_maar
from repro.core.objectives import SUSPICIOUS, acceptance_rate, cut_counts

from ..conftest import random_augmented_graph

MAX_NODES = 12
SEEDS = range(24)


def oracle_graph(seed):
    """A seeded random augmented graph of 6 to ``MAX_NODES`` nodes."""
    num_nodes = 6 + seed % (MAX_NODES - 5)
    return random_augmented_graph(
        num_nodes=num_nodes,
        num_friendships=2 * num_nodes,
        num_rejections=num_nodes + seed % 5,
        seed=seed,
    )


def enumerate_cuts(graph):
    """Every cut as ``(mask, F, R)``: bit ``u`` of ``mask`` set means
    ``u`` is suspicious; ``F`` counts crossing friendships and ``R`` the
    rejections cast from the legitimate side onto the suspicious side."""
    friendships = sorted(graph.friendships())
    rejections = sorted(graph.rejections())
    for mask in range(1 << graph.num_nodes):
        f = sum(1 for u, v in friendships if ((mask >> u) ^ (mask >> v)) & 1)
        r = sum(
            1
            for rejecter, sender in rejections
            if not (mask >> rejecter) & 1 and (mask >> sender) & 1
        )
        yield mask, f, r


def is_valid_cut(size, r_cross, num_nodes, config):
    """The candidate rule of :class:`MAARConfig`, restated."""
    return (
        config.min_suspicious <= size <= config.max_suspicious_fraction * num_nodes
        and size < num_nodes
        and r_cross > 0
        and r_cross >= config.min_evidence * size
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_theorem1_linearization(seed):
    """With ``k*`` the minimum F/R over cuts with R > 0, the linear
    objective ``F − k*·R`` has minimum exactly 0 over all cuts, and every
    cut with R > 0 that attains it has ratio ``k*``."""
    graph = oracle_graph(seed)
    cuts = list(enumerate_cuts(graph))
    k_star = min(Fraction(f, r) for _, f, r in cuts if r > 0)
    objective = {mask: f - k_star * r for mask, f, r in cuts}
    assert min(objective.values()) == 0
    attaining = [(f, r) for mask, f, r in cuts if r > 0 and objective[mask] == 0]
    assert attaining
    for f, r in attaining:
        assert Fraction(f, r) == k_star
    # Section IV-B: minimizing F/R minimizes the acceptance rate F/(F+R).
    best_rate = min(Fraction(f, f + r) for _, f, r in cuts if r > 0)
    assert best_rate == k_star / (1 + k_star)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "config",
    [MAARConfig(), MAARConfig(refine_rounds=2), MAARConfig(init="all_legitimate")],
    ids=["default", "refine", "all_legitimate"],
)
def test_solve_maar_reported_cut(seed, config):
    """The reported cut's counters equal a from-scratch recount, the cut
    is valid, and its acceptance rate is never below the brute-force
    optimum over valid cuts."""
    graph = oracle_graph(seed)
    n = graph.num_nodes
    valid_rates = [
        acceptance_rate(f, r)
        for mask, f, r in enumerate_cuts(graph)
        if is_valid_cut(bin(mask).count("1"), r, n, config)
    ]
    result = solve_maar(graph, config)
    if not valid_rates:
        assert not result.found
        return
    if not result.found:
        assert result.acceptance_rate == 1.0
        return
    sides = result.partition.sides
    f_cross, r_cross = cut_counts(graph, sides)
    assert (result.partition.f_cross, result.partition.r_cross) == (f_cross, r_cross)
    assert result.acceptance_rate == acceptance_rate(f_cross, r_cross)
    size = sum(1 for s in sides if s == SUSPICIOUS)
    assert is_valid_cut(size, r_cross, n, config)
    assert result.acceptance_rate >= min(valid_rates)
