"""Weighted rejection-augmented graph builders.

Merged parallel edges of a coarsened graph keep their multiplicity, so
coarse graphs need *weighted* friendships and rejections. This module
provides the dict-adjacency builder side of that representation:

* :class:`WeightedAugmentedGraph` — adjacency dicts carrying float
  weights, for both the undirected friendship layer and the directed
  rejection layer, finalized by ``csr()`` into a weighted
  :class:`~repro.core.csr.CSRGraph`;
* :class:`WeightedPartition` — the MAAR cut counters and switch gains
  over weighted edges.

Objective semantics are identical to the unweighted case with every
edge count replaced by a weight sum; an unweighted graph embedded with
all weights 1 reproduces the plain objective exactly (property-tested).

The multilevel solver (:mod:`repro.core.multilevel`) never goes through
these builders: it contracts CSR graphs directly, and contraction of a
unit-weight graph only ever sums unit edges, so every coarse level is an
int64-weighted :class:`~repro.core.csr.WeightedCSRGraph` whose gains are
exact integers. :meth:`repro.core.csr.CSRGraph.from_weighted` finalizes
integral builders into the same representation; only *float*-weighted
builders stay off the :mod:`repro.core.kernels` batch paths, because
their gains are float *sums* whose summation order is part of the
reproducibility contract.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .graph import AugmentedSocialGraph
from .objectives import LEGITIMATE, SUSPICIOUS

__all__ = ["WeightedAugmentedGraph", "WeightedPartition"]


class WeightedAugmentedGraph:
    """Weighted friendships (symmetric) and rejections (directed)."""

    __slots__ = (
        "num_nodes",
        "friends",
        "rej_out",
        "rej_in",
        "node_weight",
        "_csr_cache",
    )

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be >= 0, got {num_nodes}")
        self.num_nodes = num_nodes
        self.friends: List[Dict[int, float]] = [dict() for _ in range(num_nodes)]
        self.rej_out: List[Dict[int, float]] = [dict() for _ in range(num_nodes)]
        self.rej_in: List[Dict[int, float]] = [dict() for _ in range(num_nodes)]
        #: how many original nodes each node represents (coarsening)
        self.node_weight: List[int] = [1] * num_nodes
        self._csr_cache = None

    @classmethod
    def from_graph(cls, graph: AugmentedSocialGraph) -> "WeightedAugmentedGraph":
        """Embed an unweighted augmented graph with unit weights."""
        weighted = cls(graph.num_nodes)
        for u, v in graph.friendships():
            weighted.add_friendship(u, v, 1.0)
        for rejecter, sender in graph.rejections():
            weighted.add_rejection(rejecter, sender, 1.0)
        return weighted

    def add_friendship(self, u: int, v: int, weight: float) -> None:
        """Accumulate friendship weight between ``u`` and ``v``."""
        if u == v:
            raise ValueError(f"self-friendship on node {u}")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.friends[u][v] = self.friends[u].get(v, 0.0) + weight
        self.friends[v][u] = self.friends[v].get(u, 0.0) + weight
        self._csr_cache = None

    def add_rejection(self, rejecter: int, sender: int, weight: float) -> None:
        """Accumulate rejection weight on the edge ``⟨rejecter, sender⟩``."""
        if rejecter == sender:
            raise ValueError(f"self-rejection on node {rejecter}")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.rej_out[rejecter][sender] = (
            self.rej_out[rejecter].get(sender, 0.0) + weight
        )
        self.rej_in[sender][rejecter] = (
            self.rej_in[sender].get(rejecter, 0.0) + weight
        )
        self._csr_cache = None

    def csr(self, backend: str = "auto"):
        """Finalize into a weighted :class:`repro.core.csr.CSRGraph`.

        Cached until the next ``add_friendship``/``add_rejection``, same
        lifecycle as the unweighted builder's ``csr()``.
        """
        from .csr import CSRGraph, resolve_backend

        backend = resolve_backend(backend)
        cache = self._csr_cache
        if cache is None or cache.backend != backend:
            cache = CSRGraph.from_weighted(self, backend=backend)
            self._csr_cache = cache
        return cache

    def total_friendship_weight(self) -> float:
        return sum(sum(adj.values()) for adj in self.friends) / 2.0

    def total_rejection_weight(self) -> float:
        return sum(sum(adj.values()) for adj in self.rej_out)


class WeightedPartition:
    """Bipartition with weighted MAAR cut counters."""

    __slots__ = ("graph", "sides", "f_cross", "r_cross")

    def __init__(self, graph: WeightedAugmentedGraph, sides: Sequence[int]) -> None:
        if len(sides) != graph.num_nodes:
            raise ValueError(
                f"sides has length {len(sides)}, expected {graph.num_nodes}"
            )
        self.graph = graph
        self.sides: List[int] = list(sides)
        self.f_cross = 0.0
        self.r_cross = 0.0
        for u in range(graph.num_nodes):
            for v, weight in graph.friends[u].items():
                if u < v and self.sides[u] != self.sides[v]:
                    self.f_cross += weight
            if self.sides[u] == LEGITIMATE:
                for v, weight in graph.rej_out[u].items():
                    if self.sides[v] == SUSPICIOUS:
                        self.r_cross += weight

    def switch(self, u: int) -> None:
        """Move ``u`` to the other side, updating weighted counters."""
        graph, sides = self.graph, self.sides
        s = sides[u]
        for v, weight in graph.friends[u].items():
            self.f_cross += weight if sides[v] == s else -weight
        if s == LEGITIMATE:
            for v, weight in graph.rej_out[u].items():
                if sides[v] == SUSPICIOUS:
                    self.r_cross -= weight
            for w, weight in graph.rej_in[u].items():
                if sides[w] == LEGITIMATE:
                    self.r_cross += weight
        else:
            for v, weight in graph.rej_out[u].items():
                if sides[v] == SUSPICIOUS:
                    self.r_cross += weight
            for w, weight in graph.rej_in[u].items():
                if sides[w] == LEGITIMATE:
                    self.r_cross -= weight
        sides[u] = 1 - s

    def switch_gain(self, u: int, k: float) -> float:
        """Gain of switching ``u`` for ``W = f_cross − k·r_cross``."""
        graph, sides = self.graph, self.sides
        s = sides[u]
        friends_delta = 0.0
        for v, weight in graph.friends[u].items():
            friends_delta += weight if sides[v] == s else -weight
        rej_delta = 0.0
        if s == LEGITIMATE:
            for v, weight in graph.rej_out[u].items():
                if sides[v] == SUSPICIOUS:
                    rej_delta -= weight
            for w, weight in graph.rej_in[u].items():
                if sides[w] == LEGITIMATE:
                    rej_delta += weight
        else:
            for v, weight in graph.rej_out[u].items():
                if sides[v] == SUSPICIOUS:
                    rej_delta += weight
            for w, weight in graph.rej_in[u].items():
                if sides[w] == LEGITIMATE:
                    rej_delta -= weight
        return -(friends_delta - k * rej_delta)

    def suspicious_size(self) -> int:
        """Number of *original* nodes on the suspicious side."""
        return sum(
            self.graph.node_weight[u]
            for u, s in enumerate(self.sides)
            if s == SUSPICIOUS
        )

    def objective(self, k: float) -> float:
        return self.f_cross - k * self.r_cross
