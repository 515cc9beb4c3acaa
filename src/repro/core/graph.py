"""Rejection-augmented social graph.

The paper (Section III-A) models an OSN under friend spam as an augmented
social graph ``G = (V, F, R⃗)``:

* ``V`` — the user set, represented here as dense integer ids ``0..n-1``.
* ``F`` — the set of *undirected* friendships ``(u, v)``, each created by a
  mutually accepted friend request.
* ``R⃗`` — the set of *directed* social rejections ``⟨u, v⟩`` meaning that
  user ``u`` rejected, ignored, or reported a friend request sent by ``v``.
  Multiple rejections between the same pair collapse into a single edge,
  exactly as in the paper.

:class:`AugmentedSocialGraph` is the mutable *builder*: adjacency lives in
``list[list[int]]`` structures convenient for incremental edge insertion.
The hot paths (extended KL, the MAAR sweep, Rejecto's rounds) do not run on
the builder — they run on its immutable flat-array finalization,
:class:`repro.core.csr.CSRGraph`, obtained from :meth:`AugmentedSocialGraph.csr`
(cached; invalidated by any mutation).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

__all__ = ["AugmentedSocialGraph", "GraphError"]


class GraphError(ValueError):
    """Raised for structurally invalid graph operations."""


def _pair(u: int, v: int) -> Tuple[int, int]:
    """Canonical undirected key for a friendship."""
    return (u, v) if u <= v else (v, u)


class AugmentedSocialGraph:
    """A social graph augmented with directed social rejections.

    Parameters
    ----------
    num_nodes:
        Number of users. Node ids are the dense integers ``0..num_nodes-1``.

    Notes
    -----
    Friendships are undirected and deduplicated; rejections are directed
    and deduplicated per direction (``⟨u, v⟩`` and ``⟨v, u⟩`` are distinct
    edges). Self-loops are rejected for both edge types because neither a
    self-friendship nor a self-rejection is meaningful in the model.
    """

    __slots__ = (
        "num_nodes",
        "friends",
        "rej_out",
        "rej_in",
        "_friend_set",
        "_rej_set",
        "_csr_cache",
    )

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        self.num_nodes = num_nodes
        #: friends[u] lists the friends of u (undirected adjacency).
        self.friends: List[List[int]] = [[] for _ in range(num_nodes)]
        #: rej_out[u] lists users whose requests u rejected (u --> v).
        self.rej_out: List[List[int]] = [[] for _ in range(num_nodes)]
        #: rej_in[v] lists users that rejected v's requests.
        self.rej_in: List[List[int]] = [[] for _ in range(num_nodes)]
        self._friend_set: set = set()
        self._rej_set: set = set()
        self._csr_cache = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        friendships: Iterable[Tuple[int, int]] = (),
        rejections: Iterable[Tuple[int, int]] = (),
    ) -> "AugmentedSocialGraph":
        """Build a graph from explicit edge lists.

        ``friendships`` are undirected pairs; ``rejections`` are directed
        ``(rejecter, rejected_sender)`` pairs. Duplicate edges are ignored.
        """
        graph = cls(num_nodes)
        for u, v in friendships:
            graph.add_friendship(u, v)
        for u, v in rejections:
            graph.add_rejection(u, v)
        return graph

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.num_nodes:
            raise GraphError(f"node {u} out of range [0, {self.num_nodes})")

    def add_node(self) -> int:
        """Append a new isolated node and return its id."""
        self.friends.append([])
        self.rej_out.append([])
        self.rej_in.append([])
        self.num_nodes += 1
        self._csr_cache = None
        return self.num_nodes - 1

    def add_nodes(self, count: int) -> List[int]:
        """Append ``count`` isolated nodes, returning their ids."""
        if count < 0:
            raise GraphError(f"count must be non-negative, got {count}")
        return [self.add_node() for _ in range(count)]

    def add_friendship(self, u: int, v: int) -> bool:
        """Add the undirected friendship ``(u, v)``.

        Returns ``True`` if the edge was new, ``False`` if it already
        existed (the graph is left unchanged in that case).
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self-friendship on node {u} is not allowed")
        key = _pair(u, v)
        if key in self._friend_set:
            return False
        self._friend_set.add(key)
        self.friends[u].append(v)
        self.friends[v].append(u)
        self._csr_cache = None
        return True

    def add_rejection(self, rejecter: int, sender: int) -> bool:
        """Add the directed rejection ``⟨rejecter, sender⟩``.

        ``rejecter`` turned down (or reported) a friend request sent by
        ``sender``. Returns ``True`` if the edge was new.
        """
        self._check_node(rejecter)
        self._check_node(sender)
        if rejecter == sender:
            raise GraphError(f"self-rejection on node {rejecter} is not allowed")
        key = (rejecter, sender)
        if key in self._rej_set:
            return False
        self._rej_set.add(key)
        self.rej_out[rejecter].append(sender)
        self.rej_in[sender].append(rejecter)
        self._csr_cache = None
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has_friendship(self, u: int, v: int) -> bool:
        """Whether the undirected friendship ``(u, v)`` exists."""
        return _pair(u, v) in self._friend_set

    def has_rejection(self, rejecter: int, sender: int) -> bool:
        """Whether ``rejecter`` has rejected a request from ``sender``."""
        return (rejecter, sender) in self._rej_set

    def degree(self, u: int) -> int:
        """Number of friends of ``u``."""
        self._check_node(u)
        return len(self.friends[u])

    def rejections_received(self, u: int) -> int:
        """Number of distinct users that rejected ``u``'s requests."""
        self._check_node(u)
        return len(self.rej_in[u])

    def rejections_cast(self, u: int) -> int:
        """Number of distinct users whose requests ``u`` rejected."""
        self._check_node(u)
        return len(self.rej_out[u])

    @property
    def num_friendships(self) -> int:
        """Total number of undirected friendships ``|F|``."""
        return len(self._friend_set)

    @property
    def num_rejections(self) -> int:
        """Total number of directed rejection edges ``|R⃗|``."""
        return len(self._rej_set)

    def friendships(self) -> Iterator[Tuple[int, int]]:
        """Iterate friendships as canonical ``(min, max)`` pairs."""
        return iter(self._friend_set)

    def rejections(self) -> Iterator[Tuple[int, int]]:
        """Iterate rejection edges as ``(rejecter, sender)`` pairs."""
        return iter(self._rej_set)

    def nodes(self) -> range:
        """All node ids."""
        return range(self.num_nodes)

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def csr(self, backend: str = "auto"):
        """Finalize into an immutable :class:`repro.core.csr.CSRGraph`.

        The snapshot is cached and reused until the next mutation
        (``add_node``/``add_friendship``/``add_rejection``), so repeated
        solver calls on the same graph pay the O(V+E) conversion once.
        Adjacency is sorted ascending in the snapshot, making downstream
        iteration order independent of edge insertion order.
        """
        from .csr import CSRGraph, resolve_backend

        backend = resolve_backend(backend)
        cache = self._csr_cache
        if cache is None or cache.backend != backend:
            cache = CSRGraph.from_builder(self, backend=backend)
            self._csr_cache = cache
        return cache

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "AugmentedSocialGraph":
        """Deep copy of the graph."""
        clone = AugmentedSocialGraph(self.num_nodes)
        clone.friends = [list(adj) for adj in self.friends]
        clone.rej_out = [list(adj) for adj in self.rej_out]
        clone.rej_in = [list(adj) for adj in self.rej_in]
        clone._friend_set = set(self._friend_set)
        clone._rej_set = set(self._rej_set)
        return clone

    def subgraph(
        self, keep: Sequence[int]
    ) -> Tuple["AugmentedSocialGraph", List[int]]:
        """Induced subgraph on the nodes in ``keep``.

        Returns ``(graph, old_ids)`` where ``old_ids[new_id]`` maps each
        node of the subgraph back to its id in this graph. Edges are
        inserted in sorted order so the subgraph's adjacency lists are
        ascending — deterministic regardless of this graph's insertion
        history.
        """
        old_ids = sorted(set(keep))
        for u in old_ids:
            self._check_node(u)
        new_id: Dict[int, int] = {old: new for new, old in enumerate(old_ids)}
        sub = AugmentedSocialGraph(len(old_ids))
        for u, v in sorted(self._friend_set):
            if u in new_id and v in new_id:
                sub.add_friendship(new_id[u], new_id[v])
        for u, v in sorted(self._rej_set):
            if u in new_id and v in new_id:
                sub.add_rejection(new_id[u], new_id[v])
        return sub, old_ids

    def merged_with(self, other: "AugmentedSocialGraph") -> "AugmentedSocialGraph":
        """Disjoint union: ``other``'s node ids are shifted by ``num_nodes``."""
        merged = self.copy()
        offset = merged.num_nodes
        merged.add_nodes(other.num_nodes)
        for u, v in other.friendships():
            merged.add_friendship(u + offset, v + offset)
        for u, v in other.rejections():
            merged.add_rejection(u + offset, v + offset)
        return merged

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export to a ``networkx.MultiDiGraph``-free pair of graphs.

        Returns ``(friendship_graph, rejection_digraph)``; requires
        networkx to be importable (it is an optional dependency).
        """
        import networkx as nx

        fg = nx.Graph()
        fg.add_nodes_from(range(self.num_nodes))
        fg.add_edges_from(self._friend_set)
        rg = nx.DiGraph()
        rg.add_nodes_from(range(self.num_nodes))
        rg.add_edges_from(self._rej_set)
        return fg, rg

    @classmethod
    def from_networkx(cls, friendship_graph, rejection_digraph=None) -> "AugmentedSocialGraph":
        """Import from networkx graphs with integer node labels."""
        nodes = set(friendship_graph.nodes())
        if rejection_digraph is not None:
            nodes |= set(rejection_digraph.nodes())
        if not all(isinstance(n, int) and n >= 0 for n in nodes):
            raise GraphError("from_networkx requires non-negative integer node labels")
        num_nodes = max(nodes) + 1 if nodes else 0
        graph = cls(num_nodes)
        for u, v in friendship_graph.edges():
            graph.add_friendship(u, v)
        if rejection_digraph is not None:
            for u, v in rejection_digraph.edges():
                graph.add_rejection(u, v)
        return graph

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:
        return (
            f"AugmentedSocialGraph(nodes={self.num_nodes}, "
            f"friendships={self.num_friendships}, rejections={self.num_rejections})"
        )
