"""Extended Kernighan-Lin search over rejection-augmented social graphs.

This module implements Algorithm 1 of the paper (Section IV-D). The
classic KL/FM bisection minimizes the number of cross-part edges of an
undirected graph; Rejecto's extension differs in three ways:

1. **Weighted, mixed edges.** Friendship edges carry weight ``+1`` and
   rejection edges carry weight ``−k``, so the search minimizes the
   linearized MAAR objective ``W(U) = |F(Ū,U)| − k·|R⃗⟨Ū,U⟩|``.
2. **Single-node switching.** The paper drops KL's node-*pair*
   interchange because the sizes of the spammer and legitimate regions
   are unknown a priori; part sizes must be free to drift.
3. **Directional rejection accounting.** Only rejections cast by the
   legitimate side onto the suspicious side enter the objective, so the
   gain of a switch is asymmetric in the rejection edges' direction.

Each *pass* tentatively switches every unlocked node exactly once, in
greedy max-gain order (a Fiduccia-Mattheyses-style bucket list yields the
max in O(1)); negative-gain switches are still performed to climb out of
local minima. The pass then keeps the prefix of switches with the highest
cumulative gain and rolls the rest back. Passes repeat until no prefix
improves the objective.

Seed nodes (Section IV-F) are *locked*: they are pre-placed on their
known side and never enter the gain index, which prunes the misleading
low-ratio cuts inside the legitimate region from the search space.

Engine
------
Every search runs on the flat-array
:class:`repro.core.csr.PartitionState`. On the default 1/8 ``k`` grid
it uses an *inlined* integer-scaled bucket list: counter updates and
neighbour gain adjustments happen in one fused sweep per switched node,
with zero per-edge function calls. The int64-weighted coarse graphs of
the multilevel hierarchy (:class:`~repro.core.csr.WeightedCSRGraph`)
run a weighted twin of the same fused engine; off-grid ``k``
(Dinkelbach refinement) and weighted residual views fall back to the
lazy heap. The original
list-of-lists loop survives only as the test-side reference that
``tests/core/test_parity.py`` compares these engines against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from .csr import PartitionState, switch_deltas
from .gains import BUCKET_RESOLUTION, HeapGainIndex, _on_grid
from .graph import AugmentedSocialGraph
from .kernels import (
    boundary_nodes,
    gain_deltas,
    heap_gains,
    weighted_boundary_nodes,
    weighted_gain_deltas,
    weighted_heap_gains,
)
from .partition import Partition

__all__ = [
    "KLConfig",
    "KLStats",
    "extended_kl",
    "extended_kl_state",
    "refine_subset",
    "adjust_neighbor_gains",
]

_EPS = 1e-9


@dataclass
class KLConfig:
    """Tuning knobs for the extended KL search.

    Attributes
    ----------
    gain_index:
        ``"bucket"`` (FM bucket list), ``"heap"`` (lazy-deletion heap) or
        ``"auto"`` (bucket when ``k`` sits on the 1/8 grid of
        :data:`~repro.core.gains.BUCKET_RESOLUTION` — which the default
        geometric ``k`` sequence ``k = 1/8 · 2^i`` always does — and the
        graph is unweighted or weighted on an all-active view).
    max_passes:
        Upper bound on improvement passes. KL converges in a handful of
        passes in practice [21]; the bound only guards pathologies.
    stall_limit:
        If set, a pass stops tentatively switching once this many
        consecutive switches failed to improve the best prefix gain.
        ``None`` performs the full pass (the paper's behaviour); a finite
        limit trades a little cut quality for a large speedup on big
        graphs (see the ablation benchmark).
    incremental:
        When ``True`` (default), passes after the first rebuild their
        gain structure from the *dirty frontier* — the previous pass's
        applied prefix plus its neighbours, the only nodes whose
        start-of-pass gains can have changed — instead of re-sweeping
        all V+E edges. Bit-identical to the full rebuild (gains are
        recomputed to the same integers/floats and re-inserted in the
        same ascending node order); ``False`` forces the full O(V+E)
        re-sweep every pass, kept as the parity/benchmark reference.
    frontier:
        ``"full"`` (default) loads every unlocked active node into the
        gain index — the classic KL pass, whose tentative sweep costs
        O(V+E) even when the partition is nearly converged. When the
        start point is already good (multilevel uncoarsening projects a
        refined coarse cut), ``"boundary"`` seeds the pass from
        :func:`~repro.core.kernels.boundary_nodes` instead: the nodes on
        the cut or with a positive switch gain, plus their neighbours.
        The scope then *grows* — every applied prefix admits its dirty
        frontier, and at convergence a closure sweep readmits any
        positive-gain node the scope missed — so the scoped search never
        stops while a profitable single switch exists anywhere (the
        invariant ``tests/core/test_refinement.py`` checks on arbitrary
        workloads). On refinement workloads the scoped pass is almost
        always bit-identical to the full one — partitions, counters and
        objective history (pinned on fixed workloads in the same test
        file); rarely (~0.5 % of random refinement workloads) the two
        take different compound-move paths through interior nodes and
        settle on equally converged cuts whose objectives differ by a
        move or two, in either direction. On arbitrary start points the
        full engine may hill-climb through interior nodes the scope
        never admits, so ``"full"`` remains the default.
    """

    gain_index: str = "auto"
    max_passes: int = 30
    stall_limit: Optional[int] = None
    incremental: bool = True
    frontier: str = "full"


@dataclass
class KLStats:
    """Diagnostics of one :func:`extended_kl` run."""

    passes: int = 0
    switches_applied: int = 0
    switches_tested: int = 0
    objective_history: List[float] = field(default_factory=list)


# ----------------------------------------------------------------------
# CSR engine
# ----------------------------------------------------------------------
def adjust_neighbor_gains(
    index, state: PartitionState, u: int, prev_side: int, k: float
) -> None:
    """Apply the O(1)-per-edge gain updates for the neighbours of a node
    that just switched away from ``prev_side``.

    This is the single shared update rule of every engine (core bucket,
    core heap, weighted, distributed): friends move by ``±2·w``; each
    rejection edge moves its *other* endpoint by ``(2·side−1)·k·(1−2·
    prev_side)·w``. Exported so the property tests can drive the gain
    indexes through the exact production update path.
    """
    _adjust_gains(index, state.view, state.sides, u, prev_side, k)


def _adjust_gains(index, view, sides, u: int, prev_side: int, k: float) -> None:
    """Body of :func:`adjust_neighbor_gains` over raw ``(view, sides)``
    (shared with :func:`refine_subset`, which carries no state object)."""
    csr = view.csr
    fp, fi, op, oi, ip_, ii = csr.hot()
    active = view.active
    weights = csr.hot_weights()
    rej_sign = k * (1 - 2 * prev_side)
    if weights is None:
        for i in range(fp[u], fp[u + 1]):
            v = fi[i]
            if active[v] and v in index:
                index.adjust(v, 2.0 if sides[v] == prev_side else -2.0)
        for i in range(op[u], op[u + 1]):
            v = oi[i]
            if active[v] and v in index:
                index.adjust(v, (2 * sides[v] - 1) * rej_sign)
        for i in range(ip_[u], ip_[u + 1]):
            w = ii[i]
            if active[w] and w in index:
                index.adjust(w, (2 * sides[w] - 1) * rej_sign)
    else:
        fw, ow, iw = weights
        for i in range(fp[u], fp[u + 1]):
            v = fi[i]
            if active[v] and v in index:
                index.adjust(
                    v, 2.0 * fw[i] if sides[v] == prev_side else -2.0 * fw[i]
                )
        for i in range(op[u], op[u + 1]):
            v = oi[i]
            if active[v] and v in index:
                index.adjust(v, (2 * sides[v] - 1) * rej_sign * ow[i])
        for i in range(ip_[u], ip_[u + 1]):
            w = ii[i]
            if active[w] and w in index:
                index.adjust(w, (2 * sides[w] - 1) * rej_sign * iw[i])


def _run_bucket_passes(
    state: PartitionState, k: float, config: KLConfig, stats: Optional[KLStats]
) -> None:
    """The fused integer-scaled FM bucket engine (unweighted, on-grid k).

    Gains are stored as integers scaled by ``BUCKET_RESOLUTION``; on the 1/8
    grid every float gain is binary-exact, so the integer engine
    reproduces the float reference loop's pop order and best-prefix
    decisions bit for bit. The per-switch loop fuses the cut-counter
    update with the neighbour bucket relinks — one sweep per incident
    edge, no function calls — which is where the end-to-end speedup over
    the original list-of-lists engine came from (see
    ``BENCH_gain_index.json``).

    Pass-invariant setup (the gain bound) comes memoized from
    :meth:`CSRGraph.bucket_gain_bound`; pass 1 fills the start-of-pass
    bucket indices with the batch :func:`gain_deltas` kernel, and later
    passes refresh only the previous pass's dirty frontier (see
    ``KLConfig.incremental``). The full-graph bound can exceed the old
    active-only one on residual views — that only offset-shifts every
    bucket index uniformly, so pop order and recorded gains (``b −
    offset``) are untouched.
    """
    view = state.view
    csr = view.csr
    # Active-filtered adjacency: every neighbour in these arrays is
    # active, so the hot loops below carry no per-edge mask checks.
    fp, fi, op, oi, ip_, ii = view.hot_active()
    active = view.active
    sides = state.sides
    locked = state.locked
    n = csr.num_nodes
    res = BUCKET_RESOLUTION
    k_scaled = round(k * res)
    two_res = 2 * res
    f_cross = state.f_cross
    r_cross = state.r_cross
    stall_limit = config.stall_limit

    bound = csr.bucket_gain_bound(res, k_scaled)
    offset = bound + 1
    num_buckets = 2 * bound + 3
    absent = -1

    eligible = [u for u in range(n) if active[u] and not locked[u]]
    # Boundary frontier (KLConfig.frontier="boundary"): restrict the
    # tentative passes to the cut frontier instead of the whole graph.
    # The scope grows with every applied prefix's dirty frontier, and
    # the convergence closure below readmits any positive-gain node the
    # scope missed, so no profitable single switch is ever left behind.
    scope: Optional[List[bool]] = None
    if config.frontier == "boundary":
        scope = [False] * n
        scoped = []
        for u in boundary_nodes(view, sides, k):
            if not locked[u]:
                scope[u] = True
                scoped.append(u)
        eligible = scoped
    gain_b: Optional[List[int]] = None  # start-of-pass bucket index per node
    dirty: Optional[Set[int]] = None  # None -> full rebuild

    for _ in range(config.max_passes):
        if stats is not None:
            stats.passes += 1
            stats.objective_history.append(f_cross - k * r_cross)

        # Refresh start-of-pass bucket indices. Pass 1 (and the
        # non-incremental reference mode) rebuilds every eligible node
        # via the batch kernel; later passes recompute only the dirty
        # frontier — identical integers either way. On the numpy backend
        # a large frontier flips back to the batch kernel (a pure-speed
        # choice: both paths produce the same values).
        refresh_all = (
            gain_b is None
            or dirty is None
            or (csr.backend == "numpy" and 4 * len(dirty) > len(eligible))
        )
        if refresh_all and scope is not None and csr.backend != "numpy":
            # Scoped python rebuilds sweep only the frontier — the same
            # scalar recomputation as the dirty path, same integers —
            # so a small boundary never pays the full O(V+E) kernel.
            if gain_b is None:
                gain_b = [0] * n
            dirty = set(eligible)
            refresh_all = False
        if refresh_all:
            fd_all, rd_all = gain_deltas(view, sides)
            if gain_b is None:
                gain_b = [0] * n
            for u in eligible:
                gain_b[u] = k_scaled * rd_all[u] - fd_all[u] * res + offset
        else:
            # dirty ⊆ active (the prefix is eligible, the frontier comes
            # from the filtered adjacency), so only locks need checking.
            for u in dirty:
                if locked[u]:
                    continue
                s = sides[u]
                fd = 0
                for v in fi[fp[u] : fp[u + 1]]:
                    fd += 1 if sides[v] == s else -1
                rd = 0
                if s:
                    for v in oi[op[u] : op[u + 1]]:
                        if sides[v]:
                            rd += 1
                    for w in ii[ip_[u] : ip_[u + 1]]:
                        if not sides[w]:
                            rd -= 1
                else:
                    for v in oi[op[u] : op[u + 1]]:
                        if sides[v]:
                            rd -= 1
                    for w in ii[ip_[u] : ip_[u + 1]]:
                        if not sides[w]:
                            rd += 1
                gain_b[u] = k_scaled * rd - fd * res + offset

        heads = [absent] * num_buckets
        nxt = [absent] * n
        prv = [absent] * n
        bucket_of = [absent] * n
        max_b = -1
        size = 0

        # Insert in ascending node order (the reference discipline — LIFO
        # within each bucket). The lists above are fresh, so only the
        # displaced head needs a prv write.
        for u in eligible:
            b = gain_b[u]
            h = heads[b]
            nxt[u] = h
            if h >= 0:
                prv[h] = u
            heads[b] = u
            bucket_of[u] = b
            if b > max_b:
                max_b = b
            size += 1

        sequence: List[tuple] = []
        cumulative = 0
        best_cumulative = 0
        best_length = 0
        stall = 0
        while size:
            if stall_limit is not None and stall >= stall_limit:
                break
            while heads[max_b] < 0:
                max_b -= 1
            b = max_b
            u = heads[b]
            nx = nxt[u]
            heads[b] = nx
            if nx >= 0:
                prv[nx] = absent
            bucket_of[u] = absent
            size -= 1

            s = sides[u]
            fd = 0
            rd = 0
            # Fused switch: counter deltas and neighbour bucket relinks in
            # one sweep per edge, in the reference order (friends, rejections
            # cast, rejections received). Slice iteration over the
            # filtered adjacency — no index arithmetic, no mask checks.
            for v in fi[fp[u] : fp[u + 1]]:
                if sides[v] == s:
                    fd += 1
                    d = two_res
                else:
                    fd -= 1
                    d = -two_res
                bv = bucket_of[v]
                if bv >= 0:
                    nbv = bv + d
                    nx2 = nxt[v]
                    pv2 = prv[v]
                    if pv2 >= 0:
                        nxt[pv2] = nx2
                    else:
                        heads[bv] = nx2
                    if nx2 >= 0:
                        prv[nx2] = pv2
                    h = heads[nbv]
                    nxt[v] = h
                    prv[v] = absent
                    if h >= 0:
                        prv[h] = v
                    heads[nbv] = v
                    bucket_of[v] = nbv
                    if nbv > max_b:
                        max_b = nbv
            if s:
                rs = -k_scaled
                rd_on_susp = 1
                rd_on_legit = -1
            else:
                rs = k_scaled
                rd_on_susp = -1
                rd_on_legit = 1
            for v in oi[op[u] : op[u + 1]]:
                if sides[v]:
                    rd += rd_on_susp
                    d = rs
                else:
                    d = -rs
                bv = bucket_of[v]
                if bv >= 0:
                    nbv = bv + d
                    nx2 = nxt[v]
                    pv2 = prv[v]
                    if pv2 >= 0:
                        nxt[pv2] = nx2
                    else:
                        heads[bv] = nx2
                    if nx2 >= 0:
                        prv[nx2] = pv2
                    h = heads[nbv]
                    nxt[v] = h
                    prv[v] = absent
                    if h >= 0:
                        prv[h] = v
                    heads[nbv] = v
                    bucket_of[v] = nbv
                    if nbv > max_b:
                        max_b = nbv
            for v in ii[ip_[u] : ip_[u + 1]]:
                if sides[v]:
                    d = rs
                else:
                    rd += rd_on_legit
                    d = -rs
                bv = bucket_of[v]
                if bv >= 0:
                    nbv = bv + d
                    nx2 = nxt[v]
                    pv2 = prv[v]
                    if pv2 >= 0:
                        nxt[pv2] = nx2
                    else:
                        heads[bv] = nx2
                    if nx2 >= 0:
                        prv[nx2] = pv2
                    h = heads[nbv]
                    nxt[v] = h
                    prv[v] = absent
                    if h >= 0:
                        prv[h] = v
                    heads[nbv] = v
                    bucket_of[v] = nbv
                    if nbv > max_b:
                        max_b = nbv

            f_cross += fd
            r_cross += rd
            sides[u] = 1 - s
            sequence.append((u, fd, rd))
            cumulative += b - offset
            if stats is not None:
                stats.switches_tested += 1
            if cumulative > best_cumulative:
                best_cumulative = cumulative
                best_length = len(sequence)
                stall = 0
            else:
                stall += 1

        # Roll back every switch beyond the best prefix (exact integer
        # reversal of the recorded deltas).
        for u, fd, rd in reversed(sequence[best_length:]):
            f_cross -= fd
            r_cross -= rd
            sides[u] = 1 - sides[u]
        if stats is not None:
            stats.switches_applied += best_length
        if best_length == 0:
            if scope is None:
                break
            # Convergence closure: one batch sweep readmits every active
            # positive-gain node outside the scope. If none exists the
            # scoped search has genuinely converged — no profitable
            # single switch remains anywhere in the graph.
            fd_all, rd_all = gain_deltas(view, sides)
            fresh = [
                u
                for u in range(n)
                if active[u]
                and not locked[u]
                and not scope[u]
                and k_scaled * rd_all[u] - fd_all[u] * res > 0
            ]
            if not fresh:
                break
            for u in fresh:
                scope[u] = True
                gain_b[u] = k_scaled * rd_all[u] - fd_all[u] * res + offset
            # In-scope gains are untouched (the pass applied nothing),
            # and the fresh nodes' gains were just filled — nothing is
            # dirty for the next pass.
            eligible = sorted(eligible + fresh)
            dirty = set()
            continue
        track_dirty = config.incremental and not (
            csr.backend == "numpy" and 4 * best_length > len(eligible)
        )
        if track_dirty or scope is not None:
            # Rolled-back switches are net no-ops, so only the applied
            # prefix and its neighbourhood can enter the next pass with
            # a changed gain. (When the prefix alone already exceeds the
            # batch-rebuild threshold, skip collecting the frontier —
            # the next pass rebuilds in full either way. In boundary
            # mode the frontier is always collected: it is also how the
            # scope grows.)
            dirty = set()
            for u, _, _ in sequence[:best_length]:
                dirty.add(u)
                dirty.update(fi[fp[u] : fp[u + 1]])
                dirty.update(oi[op[u] : op[u + 1]])
                dirty.update(ii[ip_[u] : ip_[u + 1]])
            if scope is not None:
                grown = [v for v in dirty if not scope[v] and not locked[v]]
                if grown:
                    for v in grown:
                        scope[v] = True
                    eligible = sorted(eligible + grown)
            if not track_dirty:
                dirty = None
        else:
            dirty = None

    state.f_cross = f_cross
    state.r_cross = r_cross
    ones = 0
    for u in range(n):
        if active[u] and sides[u]:
            ones += 1
    state.side_sizes = [view.num_active - ones, ones]


def _run_bucket_passes_weighted(
    state: PartitionState, k: float, config: KLConfig, stats: Optional[KLStats]
) -> None:
    """The fused FM bucket engine for int64-weighted graphs.

    Same greedy discipline as :func:`_run_bucket_passes` with every edge
    contributing its integer weight: the bucket index is still the exact
    integer ``k_scaled·rd − fd·res + offset`` (weighted ``fd``/``rd`` are
    int64 sums — order-insensitive, hence backend-identical), the bound
    comes from the weighted :func:`~repro.core.kernels.scaled_gain_bound`
    via the same memoized :meth:`CSRGraph.bucket_gain_bound`, and the
    best-prefix comparison is exact integer arithmetic. This is what the
    integer-weight coarse representation buys: the multilevel refinement
    sheds the float heap without giving up bit-for-bit reproducibility.

    Weights are positional against the *full* CSR slot arrays, so this
    engine requires an all-active view (``hot_active`` re-packs slots and
    would misalign them); the dispatcher falls back to the heap on
    residual views.
    """
    view = state.view
    csr = view.csr
    fp, fi, op, oi, ip_, ii = csr.hot()
    fw, ow, iw = csr.hot_weights()
    sides = state.sides
    locked = state.locked
    n = csr.num_nodes
    res = BUCKET_RESOLUTION
    k_scaled = round(k * res)
    two_res = 2 * res
    f_cross = state.f_cross
    r_cross = state.r_cross
    stall_limit = config.stall_limit

    bound = csr.bucket_gain_bound(res, k_scaled)
    offset = bound + 1
    num_buckets = 2 * bound + 3
    absent = -1

    eligible = [u for u in range(n) if not locked[u]]
    # Boundary frontier: same scoped discipline as the unweighted engine
    # (seed from the weighted frontier kernel, grow with every applied
    # prefix, closure sweep at convergence).
    scope: Optional[List[bool]] = None
    if config.frontier == "boundary":
        scope = [False] * n
        scoped = []
        for u in weighted_boundary_nodes(view, sides, k):
            if not locked[u]:
                scope[u] = True
                scoped.append(u)
        eligible = scoped
    gain_b: Optional[List[int]] = None  # start-of-pass bucket index per node
    dirty: Optional[Set[int]] = None  # None -> full rebuild

    for _ in range(config.max_passes):
        if stats is not None:
            stats.passes += 1
            stats.objective_history.append(f_cross - k * r_cross)

        refresh_all = (
            gain_b is None
            or dirty is None
            or (csr.backend == "numpy" and 4 * len(dirty) > len(eligible))
        )
        if refresh_all and scope is not None and csr.backend != "numpy":
            if gain_b is None:
                gain_b = [0] * n
            dirty = set(eligible)
            refresh_all = False
        if refresh_all:
            fd_all, rd_all = weighted_gain_deltas(view, sides)
            if gain_b is None:
                gain_b = [0] * n
            for u in eligible:
                gain_b[u] = k_scaled * rd_all[u] - fd_all[u] * res + offset
        else:
            for u in dirty:
                if locked[u]:
                    continue
                s = sides[u]
                fd = 0
                for v, w in zip(fi[fp[u] : fp[u + 1]], fw[fp[u] : fp[u + 1]]):
                    fd += w if sides[v] == s else -w
                rd = 0
                if s:
                    for v, w in zip(
                        oi[op[u] : op[u + 1]], ow[op[u] : op[u + 1]]
                    ):
                        if sides[v]:
                            rd += w
                    for v, w in zip(
                        ii[ip_[u] : ip_[u + 1]], iw[ip_[u] : ip_[u + 1]]
                    ):
                        if not sides[v]:
                            rd -= w
                else:
                    for v, w in zip(
                        oi[op[u] : op[u + 1]], ow[op[u] : op[u + 1]]
                    ):
                        if sides[v]:
                            rd -= w
                    for v, w in zip(
                        ii[ip_[u] : ip_[u + 1]], iw[ip_[u] : ip_[u + 1]]
                    ):
                        if not sides[v]:
                            rd += w
                gain_b[u] = k_scaled * rd - fd * res + offset

        heads = [absent] * num_buckets
        nxt = [absent] * n
        prv = [absent] * n
        bucket_of = [absent] * n
        max_b = -1
        size = 0

        for u in eligible:
            b = gain_b[u]
            h = heads[b]
            nxt[u] = h
            if h >= 0:
                prv[h] = u
            heads[b] = u
            bucket_of[u] = b
            if b > max_b:
                max_b = b
            size += 1

        sequence: List[tuple] = []
        cumulative = 0
        best_cumulative = 0
        best_length = 0
        stall = 0
        while size:
            if stall_limit is not None and stall >= stall_limit:
                break
            while heads[max_b] < 0:
                max_b -= 1
            b = max_b
            u = heads[b]
            nx = nxt[u]
            heads[b] = nx
            if nx >= 0:
                prv[nx] = absent
            bucket_of[u] = absent
            size -= 1

            s = sides[u]
            fd = 0
            rd = 0
            for v, w in zip(fi[fp[u] : fp[u + 1]], fw[fp[u] : fp[u + 1]]):
                if sides[v] == s:
                    fd += w
                    d = two_res * w
                else:
                    fd -= w
                    d = -two_res * w
                bv = bucket_of[v]
                if bv >= 0:
                    nbv = bv + d
                    nx2 = nxt[v]
                    pv2 = prv[v]
                    if pv2 >= 0:
                        nxt[pv2] = nx2
                    else:
                        heads[bv] = nx2
                    if nx2 >= 0:
                        prv[nx2] = pv2
                    h = heads[nbv]
                    nxt[v] = h
                    prv[v] = absent
                    if h >= 0:
                        prv[h] = v
                    heads[nbv] = v
                    bucket_of[v] = nbv
                    if nbv > max_b:
                        max_b = nbv
            if s:
                rs = -k_scaled
                rd_on_susp = 1
                rd_on_legit = -1
            else:
                rs = k_scaled
                rd_on_susp = -1
                rd_on_legit = 1
            for v, w in zip(oi[op[u] : op[u + 1]], ow[op[u] : op[u + 1]]):
                if sides[v]:
                    rd += rd_on_susp * w
                    d = rs * w
                else:
                    d = -rs * w
                bv = bucket_of[v]
                if bv >= 0:
                    nbv = bv + d
                    nx2 = nxt[v]
                    pv2 = prv[v]
                    if pv2 >= 0:
                        nxt[pv2] = nx2
                    else:
                        heads[bv] = nx2
                    if nx2 >= 0:
                        prv[nx2] = pv2
                    h = heads[nbv]
                    nxt[v] = h
                    prv[v] = absent
                    if h >= 0:
                        prv[h] = v
                    heads[nbv] = v
                    bucket_of[v] = nbv
                    if nbv > max_b:
                        max_b = nbv
            for v, w in zip(ii[ip_[u] : ip_[u + 1]], iw[ip_[u] : ip_[u + 1]]):
                if sides[v]:
                    d = rs * w
                else:
                    rd += rd_on_legit * w
                    d = -rs * w
                bv = bucket_of[v]
                if bv >= 0:
                    nbv = bv + d
                    nx2 = nxt[v]
                    pv2 = prv[v]
                    if pv2 >= 0:
                        nxt[pv2] = nx2
                    else:
                        heads[bv] = nx2
                    if nx2 >= 0:
                        prv[nx2] = pv2
                    h = heads[nbv]
                    nxt[v] = h
                    prv[v] = absent
                    if h >= 0:
                        prv[h] = v
                    heads[nbv] = v
                    bucket_of[v] = nbv
                    if nbv > max_b:
                        max_b = nbv

            f_cross += fd
            r_cross += rd
            sides[u] = 1 - s
            sequence.append((u, fd, rd))
            cumulative += b - offset
            if stats is not None:
                stats.switches_tested += 1
            if cumulative > best_cumulative:
                best_cumulative = cumulative
                best_length = len(sequence)
                stall = 0
            else:
                stall += 1

        for u, fd, rd in reversed(sequence[best_length:]):
            f_cross -= fd
            r_cross -= rd
            sides[u] = 1 - sides[u]
        if stats is not None:
            stats.switches_applied += best_length
        if best_length == 0:
            if scope is None:
                break
            fd_all, rd_all = weighted_gain_deltas(view, sides)
            fresh = [
                u
                for u in range(n)
                if not locked[u]
                and not scope[u]
                and k_scaled * rd_all[u] - fd_all[u] * res > 0
            ]
            if not fresh:
                break
            for u in fresh:
                scope[u] = True
                gain_b[u] = k_scaled * rd_all[u] - fd_all[u] * res + offset
            eligible = sorted(eligible + fresh)
            dirty = set()
            continue
        track_dirty = config.incremental and not (
            csr.backend == "numpy" and 4 * best_length > len(eligible)
        )
        if track_dirty or scope is not None:
            dirty = set()
            for u, _, _ in sequence[:best_length]:
                dirty.add(u)
                dirty.update(fi[fp[u] : fp[u + 1]])
                dirty.update(oi[op[u] : op[u + 1]])
                dirty.update(ii[ip_[u] : ip_[u + 1]])
            if scope is not None:
                grown = [v for v in dirty if not scope[v] and not locked[v]]
                if grown:
                    for v in grown:
                        scope[v] = True
                    eligible = sorted(eligible + grown)
            if not track_dirty:
                dirty = None
        else:
            dirty = None

    state.f_cross = f_cross
    state.r_cross = r_cross
    ones = sum(sides)
    state.side_sizes = [n - ones, ones]


def _run_heap_passes(
    state: PartitionState, k: float, config: KLConfig, stats: Optional[KLStats]
) -> None:
    """The generic engine: lazy-deletion heap gains over the CSR state.

    Handles arbitrary float ``k`` (Dinkelbach refinement) and weighted
    residual views; same greedy discipline as the bucket engine. Initial
    gains come from the batch :func:`heap_gains` /
    :func:`weighted_heap_gains` kernels on the numpy backend
    (bit-identical — one IEEE-double expression over the same integers)
    and from ``state.switch_gain`` otherwise; later passes refresh only
    the dirty frontier.
    """
    view = state.view
    csr = view.csr
    active = view.active
    sides = state.sides
    locked = state.locked
    n = csr.num_nodes
    stall_limit = config.stall_limit
    vectorize = csr.backend == "numpy"
    batch_gains = weighted_heap_gains if csr.weighted else heap_gains

    eligible = [u for u in range(n) if active[u] and not locked[u]]
    # Boundary frontier: the heap engine serves off-grid k (Dinkelbach
    # polish) and weighted residual views, so it carries the same scoped
    # discipline as the bucket engines.
    scope: Optional[List[bool]] = None
    if config.frontier == "boundary":
        kernel = weighted_boundary_nodes if csr.weighted else boundary_nodes
        scope = [False] * n
        scoped = []
        for u in kernel(view, sides, k):
            if not locked[u]:
                scope[u] = True
                scoped.append(u)
        eligible = scoped
    gains: Optional[List[float]] = None  # start-of-pass gain per node
    dirty: Optional[Set[int]] = None  # None -> full rebuild

    for _ in range(config.max_passes):
        if stats is not None:
            stats.passes += 1
            stats.objective_history.append(state.objective(k))

        refresh_all = (
            gains is None
            or dirty is None
            or (vectorize and 4 * len(dirty) > len(eligible))
        )
        if refresh_all and scope is not None and not vectorize:
            if gains is None:
                gains = [0.0] * n
            dirty = set(eligible)
            refresh_all = False
        if refresh_all:
            if vectorize:
                gains = batch_gains(view, sides, k)
            else:
                if gains is None:
                    gains = [0.0] * n
                for u in eligible:
                    gains[u] = state.switch_gain(u, k)
        else:
            for u in dirty:
                if active[u] and not locked[u]:
                    gains[u] = state.switch_gain(u, k)

        index = HeapGainIndex()
        index.bulk_load((u, gains[u]) for u in eligible)

        sequence: List[int] = []
        cumulative = 0.0
        best_cumulative = 0.0
        best_length = 0
        stall = 0
        while True:
            if stall_limit is not None and stall >= stall_limit:
                break
            popped = index.pop_max()
            if popped is None:
                break
            u, gain = popped
            prev_side = sides[u]
            state.switch(u)
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
            adjust_neighbor_gains(index, state, u, prev_side, k)

        for u in reversed(sequence[best_length:]):
            state.switch(u)
        if stats is not None:
            stats.switches_applied += best_length
        if best_length == 0:
            if scope is None:
                break
            all_gains = batch_gains(view, sides, k) if vectorize else None
            fresh = []
            for u in range(n):
                if active[u] and not locked[u] and not scope[u]:
                    g = (
                        all_gains[u]
                        if all_gains is not None
                        else state.switch_gain(u, k)
                    )
                    if g > 0.0:
                        fresh.append(u)
                        gains[u] = g
            if not fresh:
                break
            for u in fresh:
                scope[u] = True
            eligible = sorted(eligible + fresh)
            dirty = set()
            continue
        track_dirty = config.incremental and not (
            vectorize and 4 * best_length > len(eligible)
        )
        if track_dirty or scope is not None:
            fp, fi, op, oi, ip_, ii = csr.hot()
            dirty = set()
            for u in sequence[:best_length]:
                dirty.add(u)
                dirty.update(fi[fp[u] : fp[u + 1]])
                dirty.update(oi[op[u] : op[u + 1]])
                dirty.update(ii[ip_[u] : ip_[u + 1]])
            if scope is not None:
                grown = [
                    v
                    for v in dirty
                    if active[v] and not locked[v] and not scope[v]
                ]
                if grown:
                    for v in grown:
                        scope[v] = True
                    eligible = sorted(eligible + grown)
            if not track_dirty:
                dirty = None
        else:
            dirty = None


def extended_kl_state(
    state: PartitionState,
    k: float,
    config: Optional[KLConfig] = None,
    stats: Optional[KLStats] = None,
) -> PartitionState:
    """Minimize the linearized objective over a CSR partition state.

    The input state is copied, not mutated (it shares the residual view
    and lock vector). This is the engine entry point shared by
    :func:`extended_kl`, the MAAR sweep, Rejecto's residual rounds, and
    the weighted multilevel refinement.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    config = config or KLConfig()
    out = state.copy()
    kind = config.gain_index
    csr = out.view.csr
    weighted = csr.weighted
    if config.frontier not in ("full", "boundary"):
        raise ValueError(
            f"unknown frontier {config.frontier!r}; expected 'full' or "
            "'boundary'"
        )
    # The weighted bucket engine indexes the positional weight arrays of
    # the *full* slot layout, so it needs an all-active view; residual
    # weighted views fall back to the heap. (Unweighted buckets run on
    # the re-packed hot_active adjacency, so any view works.)
    bucket_ok = not weighted or out.view.num_active == csr.num_nodes
    if kind == "auto":
        kind = (
            "bucket" if bucket_ok and _on_grid(k, BUCKET_RESOLUTION) else "heap"
        )
    if kind == "bucket":
        if not bucket_ok:
            raise ValueError(
                "the weighted bucket engine requires an all-active view "
                "(weights are positional); pass gain_index='heap' or 'auto'"
            )
        if not _on_grid(k, BUCKET_RESOLUTION):
            raise ValueError(
                f"k={k} is off the 1/{BUCKET_RESOLUTION} bucket grid; "
                "pass gain_index='heap' or 'auto'"
            )
        if weighted:
            _run_bucket_passes_weighted(out, k, config, stats)
        else:
            _run_bucket_passes(out, k, config, stats)
    elif kind == "heap":
        _run_heap_passes(out, k, config, stats)
    else:
        raise ValueError(f"unknown gain index kind {kind!r}")
    return out


def refine_subset(
    view,
    sides: List[int],
    locked: Sequence[bool],
    nodes: Sequence[int],
    k: float,
    config: Optional[KLConfig] = None,
):
    """Extended-KL passes restricted to a fixed candidate subset, in place.

    The region-parallel multilevel refinement decomposes the cut
    frontier into connected boundary regions
    (:func:`~repro.core.multilevel.solve_maar_multilevel`) and refines
    each through this entry point: the usual greedy tentative pass with
    FM LIFO tie-breaks and best-prefix rollback, but only ``nodes`` may
    switch — every other side is read-only context. Because the regions
    are closed under all three adjacency layers, two calls on distinct
    regions never read each other's writes: their ``(delta_f,
    delta_r)`` add exactly and their move sets are disjoint, which is
    what makes the region merge independent of worker count and
    execution order. Gains use the lazy-deletion heap, so any positive
    ``k`` and both unweighted and int64-weighted graphs work.

    ``sides`` is mutated to the refined labels. Returns ``(moved,
    delta_f, delta_r, tested, applied)``: the ascending list of nodes
    whose side net-changed, the exact cut-counter deltas those moves
    caused, and the tentative/applied switch counts.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    config = config or KLConfig()
    csr = view.csr
    active = view.active
    cand = sorted(u for u in set(nodes) if active[u] and not locked[u])
    entry = {u: sides[u] for u in cand}
    delta_f = delta_r = 0
    tested = applied = 0

    for _ in range(config.max_passes):
        index = HeapGainIndex()
        pairs = []
        for u in cand:
            # Exact counter deltas against the full side vector
            # (out-of-region neighbours included).
            fd, rd = switch_deltas(csr, active, sides, u)
            pairs.append((u, -(fd - k * rd)))
        index.bulk_load(pairs)

        sequence: List[tuple] = []
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
            fd, rd = switch_deltas(csr, active, sides, u)
            prev_side = sides[u]
            sides[u] = 1 - prev_side
            sequence.append((u, fd, rd))
            cumulative += gain
            tested += 1
            if cumulative > best_cumulative + _EPS:
                best_cumulative = cumulative
                best_length = len(sequence)
                stall = 0
            else:
                stall += 1
            _adjust_gains(index, view, sides, u, prev_side, k)

        for u, _fd, _rd in reversed(sequence[best_length:]):
            sides[u] = 1 - sides[u]
        applied += best_length
        for _u, fd, rd in sequence[:best_length]:
            delta_f += fd
            delta_r += rd
        if best_length == 0:
            break

    moved = sorted(u for u in cand if sides[u] != entry[u])
    return moved, delta_f, delta_r, tested, applied


def extended_kl(
    graph: AugmentedSocialGraph,
    k: float,
    initial: Partition,
    locked: Optional[Sequence[bool]] = None,
    config: Optional[KLConfig] = None,
    stats: Optional[KLStats] = None,
) -> Partition:
    """Minimize ``|F(Ū,U)| − k·|R⃗⟨Ū,U⟩|`` from the given initial partition.

    Parameters
    ----------
    graph:
        The rejection-augmented social graph.
    k:
        The rejection weight of the linearized objective (positive).
    initial:
        Starting partition; it is copied, not mutated.
    locked:
        Optional per-node flags; locked nodes (seeds) never switch.
    config:
        Search configuration; defaults to :class:`KLConfig`.
    stats:
        Optional diagnostics accumulator.

    Returns
    -------
    Partition
        The improved partition.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    config = config or KLConfig()
    n = graph.num_nodes
    if locked is None:
        locked = [False] * n
    elif len(locked) != n:
        raise ValueError(f"locked has length {len(locked)}, expected {n}")
    state = PartitionState(graph.csr().view(), initial.sides, locked)
    out = extended_kl_state(state, k, config, stats)
    return Partition.from_counts(graph, out.sides, out.f_cross, out.r_cross)
