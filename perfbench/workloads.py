"""The benchmark's three workloads: input generation, set-up, solve and
the correctness gate, each through the program's public entry points.

Every workload is serial (``jobs=1``, ``refine_jobs=1``, no process
pool). See ``README.md`` beside this file for why each one exists and
which layers it bypasses.

Run as a script, it writes one batch of inputs (the benchmark does this
in a child process)::

    PYTHONPATH=src python3 perfbench/workloads.py <workload> <dir> <seed>...
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.attacks import (
    ScenarioConfig,
    SybilRegionConfig,
    add_careless_requests,
    build_scenario,
    inject_sybil_region,
    send_friend_spam,
    simulate_legitimate_rejections,
)
from repro.cluster import ClusterConfig, ClusterRunStats, distributed_maar
from repro.core import Rejecto, RejectoConfig
from repro.core.csr import CSRGraph
from repro.core.maar import MAARConfig, solve_maar
from repro.core.multilevel import MultilevelConfig, solve_maar_multilevel
from repro.core.objectives import SUSPICIOUS, acceptance_rate, cut_counts
from repro.experiments.runner import load_graph_source
from repro.graphgen import barabasi_albert
from repro.io import save_augmented_graph
from repro.metrics import precision_recall

__all__ = ["Outcome", "Workload", "WORKLOADS", "generate_batch", "check", "quality"]

#: The untimed warm-up instance runs every code path the timed ones do
#: (lazy imports, first numpy calls, first file opens), at a tenth of
#: the size: a full-size multilevel warm-up would cost a timed instance.
WARMUP_SCALE = 0.1


@dataclass
class Outcome:
    """What one solve reported, in the shape the gate and metrics read.

    ``cuts`` lists every reported cut as ``(suspicious nodes, nodes
    removed before that cut was searched, reported acceptance rate,
    reported (f_cross, r_cross) or None)``; the first cut's rate is the
    instance's ``acceptance_rate`` metric.
    """

    detected: List[int]
    cuts: List[Tuple[List[int], List[int], float, Optional[Tuple[int, int]]]]
    raw: object = None
    cluster_stats: Optional[ClusterRunStats] = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: Seconds of ``--seconds`` each instance is charged: a run solves
    #: ``ceil(seconds / instance_s)`` instances. The two quick workloads
    #: are charged about their wall cost per instance on a 2-vCPU host
    #: (set-up, solve, check, probes). ``multilevel_ba`` is charged 8 s
    #: of its ~11 s, so that a run holds four instances, because a median
    #: of three was too noisy, while the three workloads together still
    #: fit the benchmark's time budget.
    instance_s: float
    #: ``generate(seed, path, scale)`` writes one input and returns its
    #: injected fake ids; ``scale`` shrinks every population size.
    generate: Callable[[int, Path, float], List[int]]
    setup: Callable[[Path], object]
    solve: Callable[[object], Outcome]
    #: Extra checks beyond the cut recount (returns problem strings).
    extra_check: Optional[Callable[[object, Outcome], List[str]]] = None


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _scenario(num_legit: int, num_fakes: int) -> Callable[[int, Path, float], List[int]]:
    def generate(seed: int, path: Path, scale: float) -> List[int]:
        scenario = build_scenario(
            ScenarioConfig(
                num_legit=int(num_legit * scale),
                num_fakes=int(num_fakes * scale),
                seed=seed,
            )
        )
        save_augmented_graph(scenario.graph, path)
        return scenario.fakes

    return generate


def _ba_scenario(seed: int, path: Path, scale: float) -> List[int]:
    """A Barabási–Albert (m=4) legit region of 20,000 users plus 5,000
    fakes running the baseline spam wave, built in the same order as
    ``acquire_million_scenario`` in ``benchmarks/bench_ablation_multilevel.py``."""
    rng = random.Random(seed)
    graph = barabasi_albert(int(20_000 * scale), 4, rng)
    legit = list(range(graph.num_nodes))
    simulate_legitimate_rejections(graph, legit, 0.2, rng)
    fakes = inject_sybil_region(
        graph, SybilRegionConfig(num_fakes=int(5_000 * scale)), rng
    )
    send_friend_spam(graph, fakes, legit, 20, 0.7, rng)
    add_careless_requests(graph, legit, fakes, 0.15, rng)
    save_augmented_graph(graph, path)
    return fakes


def generate_batch(name: str, seeds: Sequence[int], directory: str) -> None:
    """Write instance ``i`` as ``inst-i.txt`` plus its injected fake ids
    as ``inst-i.fakes.json``; instance 0 is the warm-up, at
    :data:`WARMUP_SCALE`. Runs in a child process, so the memory the
    generators use never counts toward the measured process."""
    generate = WORKLOADS[name].generate
    for index, seed in enumerate(seeds):
        path = Path(directory) / f"inst-{index}.txt"
        fakes = generate(seed, path, WARMUP_SCALE if index == 0 else 1.0)
        path.with_suffix(".fakes.json").write_text(json.dumps(sorted(fakes)))


# ----------------------------------------------------------------------
# Set-up: input file on disk -> solvable graph
# ----------------------------------------------------------------------
def _load_text(path: Path):
    """``rejecto detect --graph g.txt``."""
    return load_graph_source(path)


def _load_packed(path: Path):
    """``rejecto graph pack g.txt`` then ``detect --graph g.csrbin``."""
    snapshot = load_graph_source(path).save(path.with_suffix(".csrbin"))
    return CSRGraph.open(snapshot)


# ----------------------------------------------------------------------
# Solves
# ----------------------------------------------------------------------
def _solve_flat(graph) -> Outcome:
    result = Rejecto(RejectoConfig(acceptance_threshold=0.5)).detect(graph)
    cuts = []
    removed: List[int] = []
    for group in result.groups:
        counts = (group.f_cross, group.r_cross)
        cuts.append((group.members, list(removed), group.acceptance_rate, counts))
        removed.extend(group.members)
    return Outcome(detected=result.detected(), cuts=cuts, raw=result)


def _solve_multilevel(graph) -> Outcome:
    result = solve_maar_multilevel(graph, MultilevelConfig())
    cuts = [(result.suspicious, [], result.acceptance_rate, None)]
    return Outcome(
        detected=list(result.suspicious),
        cuts=cuts if result.found else [],
        raw=result,
    )


def _cluster_maar() -> MAARConfig:
    return MAARConfig(k_steps=4)


def _solve_cluster(graph) -> Outcome:
    stats = ClusterRunStats()
    suspicious, rate, best_k = distributed_maar(
        graph, ClusterConfig(), _cluster_maar(), stats=stats
    )
    cuts = [(suspicious, [], rate, None)] if best_k is not None else []
    return Outcome(
        detected=list(suspicious),
        cuts=cuts,
        raw=(suspicious, rate, best_k),
        cluster_stats=stats,
    )


def _cluster_matches_core(graph, outcome: Outcome) -> List[str]:
    """The distributed sweep must report exactly the core solver's cut:
    the equality ``test_distributed_maar_matches_core`` pins."""
    suspicious, rate, best_k = outcome.raw
    reference = solve_maar(graph, _cluster_maar())
    problems = []
    if sorted(suspicious) != sorted(reference.suspicious_nodes()):
        problems.append("suspicious set differs from solve_maar")
    if rate != reference.acceptance_rate:
        problems.append(f"rate {rate!r} != solve_maar {reference.acceptance_rate!r}")
    if best_k != reference.k:
        problems.append(f"best k {best_k!r} != solve_maar {reference.k!r}")
    return problems


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
class _Residual:
    """The input graph minus removed nodes, exposing the edge iteration
    surface :func:`repro.core.objectives.cut_counts` reads."""

    def __init__(self, graph, removed: Sequence[int]) -> None:
        self.graph = graph
        self.gone = set(removed)

    def friendships(self):
        gone = self.gone
        return (
            (u, v) for u, v in self.graph.friendships()
            if u not in gone and v not in gone
        )

    def rejections(self):
        gone = self.gone
        return (
            (u, v) for u, v in self.graph.rejections()
            if u not in gone and v not in gone
        )


def check(workload: Workload, graph, outcome: Outcome) -> List[str]:
    """Problems with one instance's result; empty means it passed.

    Every reported cut is recounted from the input graph with
    :mod:`repro.core.objectives`, and its reported acceptance rate (and
    counters, where the solver reports them) must match exactly.
    """
    if not outcome.cuts:
        return ["no cut found"]
    problems = []
    for index, (members, removed, rate, counts) in enumerate(outcome.cuts):
        if not members:
            problems.append(f"cut {index} is empty")
            continue
        sides = [0] * graph.num_nodes
        for u in members:
            sides[u] = SUSPICIOUS
        f_cross, r_cross = cut_counts(_Residual(graph, removed), sides)
        if counts is not None and counts != (f_cross, r_cross):
            problems.append(f"cut {index}: counters {counts} != recount {(f_cross, r_cross)}")
        if rate != acceptance_rate(f_cross, r_cross):
            problems.append(
                f"cut {index}: rate {rate!r} != recount "
                f"{acceptance_rate(f_cross, r_cross)!r}"
            )
    if workload.extra_check is not None:
        problems.extend(workload.extra_check(graph, outcome))
    return problems


def quality(outcome: Outcome, fakes: Sequence[int]) -> Dict[str, float]:
    scores = precision_recall(outcome.detected, fakes)
    values = {
        "precision": scores.precision,
        "recall": scores.recall,
        "acceptance_rate": outcome.cuts[0][2],
    }
    if outcome.cluster_stats is not None:
        values["wire_mb"] = outcome.cluster_stats.network.bytes_sent / 2**20
    return values


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "rejecto_flat",
            instance_s=2.1,
            generate=_scenario(3000, 600),
            setup=_load_text,
            solve=_solve_flat,
        ),
        Workload(
            "multilevel_ba",
            instance_s=8.0,
            generate=_ba_scenario,
            setup=_load_packed,
            solve=_solve_multilevel,
        ),
        Workload(
            "cluster_table2",
            instance_s=4.2,
            generate=_scenario(4000, 800),
            setup=_load_packed,
            solve=_solve_cluster,
            extra_check=_cluster_matches_core,
        ),
    )
}


if __name__ == "__main__":
    generate_batch(sys.argv[1], [int(s) for s in sys.argv[3:]], sys.argv[2])
