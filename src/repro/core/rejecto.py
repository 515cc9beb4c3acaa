"""Rejecto: iterative detection of friend-spammer groups.

Section IV-E: a single MAAR cut can miss disjoint fake-account groups and
is vulnerable to the *self-rejection* strategy, where an attacker crafts
an artificially low friends-to-rejections cut inside his own accounts to
whitewash the rejecting half. Rejecto therefore runs the MAAR solver over
multiple rounds: each round detects the residual graph's lowest-
acceptance-rate region, prunes it (nodes, friendships, and rejections),
and re-solves. Groups come out ordered by non-decreasing aggregate
acceptance rate, so self-rejections only expose the rejected accounts to
*earlier* detection.

Termination (Section IV-E) is by any combination of: an OSN-provided
estimate of the spammer population, an aggregate-acceptance-rate
threshold (stop once detected cuts look as accepted as normal users'
requests), and a round cap.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from .kernels import active_in_rejections
from .maar import MAARConfig, _solve_maar_view, check_seeds

__all__ = ["RejectoConfig", "DetectedGroup", "RejectoResult", "Rejecto"]

logger = logging.getLogger(__name__)


@dataclass
class RejectoConfig:
    """Detector configuration.

    Attributes
    ----------
    maar:
        Configuration of the per-round MAAR sweep.
    estimated_spammers:
        Stop once at least this many accounts are detected (the paper's
        primary termination: OSNs estimate the fake population from
        sampled-account inspection).
    acceptance_threshold:
        Stop before admitting a group whose aggregate acceptance rate
        exceeds this value — e.g. an estimate of legitimate users'
        acceptance rate (the paper's alternative termination).
    max_rounds:
        Hard cap on detection rounds.
    """

    maar: MAARConfig = field(default_factory=MAARConfig)
    estimated_spammers: Optional[int] = None
    acceptance_threshold: Optional[float] = None
    max_rounds: int = 25


@dataclass
class DetectedGroup:
    """One spammer group cut off in one detection round.

    ``members`` are ids in the *original* graph, ordered by decreasing
    rejection evidence (in-rejections within the round's residual graph),
    so truncating the tail removes the least-implicated accounts first.
    """

    members: List[int]
    acceptance_rate: float
    ratio: float
    f_cross: int
    r_cross: int
    k: float
    round_index: int

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class RejectoResult:
    """Ordered detection outcome."""

    groups: List[DetectedGroup]
    rounds_run: int
    termination: str

    def detected(self, limit: Optional[int] = None) -> List[int]:
        """All detected account ids in detection order.

        With ``limit`` set, returns exactly the first ``limit`` accounts
        — the paper's evaluation declares as many suspicious users as the
        injected fake population, trimming the final group if needed.
        """
        ordered: List[int] = []
        for group in self.groups:
            ordered.extend(group.members)
        if limit is not None:
            ordered = ordered[:limit]
        return ordered

    def detected_set(self, limit: Optional[int] = None) -> Set[int]:
        return set(self.detected(limit))

    @property
    def total_detected(self) -> int:
        return sum(len(group) for group in self.groups)


class Rejecto:
    """The friend-spam detection system of the paper.

    Examples
    --------
    >>> from repro.core import AugmentedSocialGraph, Rejecto, RejectoConfig
    >>> graph = AugmentedSocialGraph.from_edges(
    ...     4, friendships=[(0, 1)], rejections=[(0, 2), (1, 2), (0, 3), (1, 3)]
    ... )
    >>> result = Rejecto(RejectoConfig()).detect(graph)
    >>> sorted(result.detected())
    [2, 3]
    """

    def __init__(self, config: Optional[RejectoConfig] = None) -> None:
        self.config = config or RejectoConfig()

    def detect(
        self,
        graph,
        legit_seeds: Sequence[int] = (),
        spammer_seeds: Sequence[int] = (),
    ) -> RejectoResult:
        """Iteratively uncover friend-spammer groups in ``graph``.

        ``graph`` may be an :class:`AugmentedSocialGraph` builder or a
        finalized :class:`repro.core.csr.CSRGraph`. Seeds are ids in
        ``graph``; legitimate seeds are pinned to the legitimate region
        in every round, spammer seeds to the suspicious region until the
        round that detects them.

        Each round solves over a zero-copy residual *view* of one shared
        CSR snapshot (builder inputs go through ``graph.csr()``) —
        pruning a detected group costs O(V) mask bytes, not an O(V+E)
        ``subgraph()`` deep copy.

        With ``config.maar.jobs > 1`` every round's ``k`` sweep fans out
        through :mod:`repro.core.parallel` (rounds themselves stay
        sequential — each prunes the view the next one solves on); the
        detected groups are bit-identical to the serial sweep's.
        """
        check_seeds(graph.num_nodes, legit_seeds, spammer_seeds)
        config = self.config
        view = graph.csr().view()
        legit_seed_set = set(legit_seeds)
        spammer_seed_set = set(spammer_seeds)
        groups: List[DetectedGroup] = []
        detected_total = 0
        termination = "max_rounds"

        for round_index in range(config.max_rounds):
            if view.num_active == 0:
                termination = "exhausted"
                break
            active = view.active
            result = _solve_maar_view(
                view,
                config.maar,
                legit_seeds=[u for u in sorted(legit_seed_set) if active[u]],
                spammer_seeds=[u for u in sorted(spammer_seed_set) if active[u]],
            )
            if not result.found:
                termination = "no_cut"
                logger.debug("round %d: no valid MAAR cut, stopping", round_index)
                break
            state = result.partition
            assert state is not None
            if (
                config.acceptance_threshold is not None
                and result.acceptance_rate > config.acceptance_threshold
            ):
                termination = "acceptance_threshold"
                logger.debug(
                    "round %d: acceptance rate %.3f above threshold %.3f, stopping",
                    round_index,
                    result.acceptance_rate,
                    config.acceptance_threshold,
                )
                break

            # Order members by in-rejection evidence within the residual
            # view (active rejecters only) so that detected(limit) trims
            # the weakest evidence last. One batch kernel sweep counts
            # every member's active rejecters at once.
            members = state.suspicious_nodes()
            evidence = active_in_rejections(view)
            members.sort(key=evidence.__getitem__, reverse=True)
            groups.append(
                DetectedGroup(
                    members=members,
                    acceptance_rate=result.acceptance_rate,
                    ratio=state.ratio(),
                    f_cross=state.f_cross,
                    r_cross=state.r_cross,
                    k=result.k if result.k is not None else float("nan"),
                    round_index=round_index,
                )
            )
            detected_total += len(members)
            logger.info(
                "round %d: cut %d accounts at acceptance rate %.3f "
                "(k=%s, %d detected so far)",
                round_index,
                len(members),
                result.acceptance_rate,
                result.k,
                detected_total,
            )
            view = view.without(members)

            if (
                config.estimated_spammers is not None
                and detected_total >= config.estimated_spammers
            ):
                termination = "estimated_spammers"
                break

        return RejectoResult(
            groups=groups,
            rounds_run=len(groups),
            termination=termination,
        )
