"""Reference KL, MAAR and Rejecto loops over the builder's adjacency.

These are the original list-of-lists implementations that the flat-array
CSR engines in :mod:`repro.core` replaced. They live with the tests, not
in the package: ``test_parity.py`` compares the CSR engines against them
bit for bit. On canonicalized graphs (edges inserted in sorted order, so
every adjacency list is ascending like the CSR's) both run the same
greedy discipline over the same neighbour order — same gain arithmetic,
same FM LIFO tie-breaks, same best-prefix rollback — and must return
identical partitions, counters and detected groups.

The module name does not match ``test_*.py``, so pytest never collects
it; it is imported by the parity tests only.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.gains import (
    BUCKET_RESOLUTION,
    BucketGainIndex,
    HeapGainIndex,
    _on_grid,
)
from repro.core.graph import AugmentedSocialGraph
from repro.core.kl import KLConfig, KLStats
from repro.core.maar import (
    KCandidate,
    MAARConfig,
    MAARResult,
    check_seeds,
    initial_partition,
)
from repro.core.partition import Partition
from repro.core.rejecto import DetectedGroup, RejectoConfig, RejectoResult

__all__ = ["extended_kl", "solve_maar", "detect"]

_EPS = 1e-9


# ----------------------------------------------------------------------
# Extended KL (Algorithm 1)
# ----------------------------------------------------------------------
def _initial_gains(partition: Partition, k: float, locked: Sequence[bool]):
    """Per-node switch gains for all unlocked nodes."""
    return [
        (u, partition.switch_gain(u, k))
        for u in range(partition.graph.num_nodes)
        if not locked[u]
    ]


def _max_abs_gain(graph: AugmentedSocialGraph, k: float) -> float:
    """A lifetime bound on ``|gain(u)|``: each incident friendship edge
    contributes at most 1 and each incident rejection edge at most k.

    The two maxima may come from different nodes, so the bound can be
    loose; a gain bound only sizes the bucket array (a uniform offset of
    the bucket indices) and never alters pop order.
    """
    max_f = max((len(adj) for adj in graph.friends), default=0)
    max_r = max(
        (len(graph.rej_out[u]) + len(graph.rej_in[u]) for u in graph.nodes()),
        default=0,
    )
    return max_f + k * max_r


def _gain_index(kind: str, num_nodes: int, max_abs_gain: float, k: float):
    """The engine's index choice: ``"auto"`` takes the bucket list when
    ``k`` sits on the 1/8 grid and the heap otherwise."""
    if kind == "auto":
        kind = "bucket" if _on_grid(k, BUCKET_RESOLUTION) else "heap"
    if kind == "bucket":
        return BucketGainIndex(num_nodes, max_abs_gain)
    if kind == "heap":
        return HeapGainIndex()
    raise ValueError(f"unknown gain index kind {kind!r}")


def extended_kl(
    graph: AugmentedSocialGraph,
    k: float,
    initial: Partition,
    locked: Optional[Sequence[bool]] = None,
    config: Optional[KLConfig] = None,
    stats: Optional[KLStats] = None,
) -> Partition:
    """Minimize ``|F(Ū,U)| − k·|R⃗⟨Ū,U⟩|`` from ``initial`` (copied).

    Honours ``config.gain_index``, ``max_passes`` and ``stall_limit``; every pass rebuilds all gains from scratch.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    config = config or KLConfig()
    n = graph.num_nodes
    if locked is None:
        locked = [False] * n
    partition = initial.copy()
    max_abs = _max_abs_gain(graph, k)
    sides = partition.sides

    for _ in range(config.max_passes):
        if stats is not None:
            stats.passes += 1
            stats.objective_history.append(partition.objective(k))

        index = _gain_index(config.gain_index, n, max_abs, k)
        index.bulk_load(_initial_gains(partition, k, locked))

        # Tentatively switch nodes in greedy max-gain order, tracking the
        # best cumulative-gain prefix of the switch sequence.
        sequence: List[int] = []
        cumulative = 0.0
        best_cumulative = 0.0
        best_length = 0
        stall = 0
        while True:
            if config.stall_limit is not None and stall >= config.stall_limit:
                break
            popped = index.pop_max()
            if popped is None:
                break
            u, gain = popped
            partition.switch(u)
            sequence.append(u)
            cumulative += gain
            if stats is not None:
                stats.switches_tested += 1
            if cumulative > best_cumulative + _EPS:
                best_cumulative = cumulative
                best_length = len(sequence)
                stall = 0
            else:
                stall += 1

            # O(1) gain updates for u's still-indexed neighbours. u's
            # previous side determines every delta's sign.
            prev_side = 1 - sides[u]
            for v in graph.friends[u]:
                if v in index:
                    index.adjust(v, 2.0 if sides[v] == prev_side else -2.0)
            rej_sign = k * (1 - 2 * prev_side)
            for v in graph.rej_out[u]:
                if v in index:
                    index.adjust(v, (2 * sides[v] - 1) * rej_sign)
            for w in graph.rej_in[u]:
                if w in index:
                    index.adjust(w, (2 * sides[w] - 1) * rej_sign)

        # Roll back every switch beyond the best prefix.
        for u in reversed(sequence[best_length:]):
            partition.switch(u)
        if stats is not None:
            stats.switches_applied += best_length
        if best_length == 0:
            break

    return partition


# ----------------------------------------------------------------------
# MAAR sweep (Section IV-D)
# ----------------------------------------------------------------------
def _is_valid_candidate(partition: Partition, config: MAARConfig) -> bool:
    """A cut counts as a spammer candidate only if the suspicious side is
    non-trivial, within the allowed size fraction, and actually receives
    cross rejections."""
    limit = config.max_suspicious_fraction * partition.graph.num_nodes
    size = partition.suspicious_size
    return (
        config.min_suspicious <= size <= limit
        and size < partition.graph.num_nodes
        and partition.r_cross > 0
        and partition.r_cross >= config.min_evidence * size
    )


def _candidate(k: float, partition: Partition, valid: bool) -> KCandidate:
    return KCandidate(
        k=k,
        acceptance_rate=partition.acceptance_rate(),
        ratio=partition.ratio(),
        f_cross=partition.f_cross,
        r_cross=partition.r_cross,
        suspicious_size=partition.suspicious_size,
        valid=valid,
    )


def solve_maar(
    graph: AugmentedSocialGraph,
    config: Optional[MAARConfig] = None,
    legit_seeds: Sequence[int] = (),
    spammer_seeds: Sequence[int] = (),
) -> MAARResult:
    """The serial ``k`` sweep over the builder, plus the optional
    Dinkelbach refinement rounds (``config.jobs`` is ignored)."""
    config = config or MAARConfig()
    check_seeds(graph.num_nodes, legit_seeds, spammer_seeds)
    locked = [False] * graph.num_nodes
    for u in list(legit_seeds) + list(spammer_seeds):
        locked[u] = True

    init = initial_partition(graph, config, legit_seeds, spammer_seeds)
    stats = KLStats()
    best: Optional[Partition] = None
    best_k: Optional[float] = None
    best_key: Tuple[float, int] = (float("inf"), 0)
    per_k: List[KCandidate] = []
    previous = init

    for k in config.k_values():
        start = previous if config.warm_start else init
        candidate = extended_kl(
            graph, k, start, locked=locked, config=config.kl, stats=stats
        )
        previous = candidate
        valid = _is_valid_candidate(candidate, config)
        per_k.append(_candidate(k, candidate, valid))
        if valid:
            key = (candidate.acceptance_rate(), -candidate.r_cross)
            if key < best_key:
                best_key = key
                best = candidate
                best_k = k

    for _ in range(config.refine_rounds if best is not None else 0):
        ratio = best.ratio()
        if not 0 < ratio < float("inf"):
            break
        candidate = extended_kl(
            graph, ratio, best, locked=locked, config=config.kl, stats=stats
        )
        valid = _is_valid_candidate(candidate, config)
        per_k.append(_candidate(ratio, candidate, valid))
        key = (candidate.acceptance_rate(), -candidate.r_cross)
        if not valid or key >= best_key:
            break
        best_key = key
        best = candidate
        best_k = ratio

    return MAARResult(
        partition=best,
        k=best_k,
        acceptance_rate=best_key[0] if best is not None else 1.0,
        per_k=per_k,
        stats=stats,
    )


# ----------------------------------------------------------------------
# Rejecto rounds (Section IV-E)
# ----------------------------------------------------------------------
def detect(
    graph: AugmentedSocialGraph,
    config: Optional[RejectoConfig] = None,
    legit_seeds: Sequence[int] = (),
    spammer_seeds: Sequence[int] = (),
) -> RejectoResult:
    """Detection rounds that materialize each residual graph with
    ``graph.subgraph()`` and solve it with :func:`solve_maar`."""
    config = config or RejectoConfig()
    check_seeds(graph.num_nodes, legit_seeds, spammer_seeds)
    legit_seed_set = set(legit_seeds)
    spammer_seed_set = set(spammer_seeds)
    remaining = list(range(graph.num_nodes))
    groups: List[DetectedGroup] = []
    detected_total = 0
    termination = "max_rounds"

    for round_index in range(config.max_rounds):
        if not remaining:
            termination = "exhausted"
            break
        residual, old_ids = graph.subgraph(remaining)
        position = {old: new for new, old in enumerate(old_ids)}
        result = solve_maar(
            residual,
            config.maar,
            legit_seeds=[position[u] for u in legit_seed_set if u in position],
            spammer_seeds=[position[u] for u in spammer_seed_set if u in position],
        )
        if not result.found:
            termination = "no_cut"
            break
        partition = result.partition
        if (
            config.acceptance_threshold is not None
            and result.acceptance_rate > config.acceptance_threshold
        ):
            termination = "acceptance_threshold"
            break

        # Order members by in-rejection evidence in the residual graph
        # so that detected(limit) trims the weakest evidence last.
        suspicious_local = partition.suspicious_nodes()
        suspicious_local.sort(key=lambda u: len(residual.rej_in[u]), reverse=True)
        members = [old_ids[u] for u in suspicious_local]
        groups.append(
            DetectedGroup(
                members=members,
                acceptance_rate=result.acceptance_rate,
                ratio=partition.ratio(),
                f_cross=partition.f_cross,
                r_cross=partition.r_cross,
                k=result.k if result.k is not None else float("nan"),
                round_index=round_index,
            )
        )
        detected_total += len(members)
        member_set = set(members)
        remaining = [u for u in remaining if u not in member_set]

        if (
            config.estimated_spammers is not None
            and detected_total >= config.estimated_spammers
        ):
            termination = "estimated_spammers"
            break

    return RejectoResult(
        groups=groups, rounds_run=len(groups), termination=termination
    )
