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
:class:`repro.core.csr.PartitionState` through one pass driver,
:func:`_run_passes`: it picks the candidates (all active unlocked
nodes, a boundary scope, or a fixed region), refreshes the
start-of-pass gains, rolls back past the best prefix, keeps
:class:`KLStats`, and decides convergence. The engines supply only the
tentative pass. On the default 1/8 ``k`` grid that pass is an
*inlined* integer-scaled bucket list: counter deltas and neighbour
gain adjustments happen in one fused sweep per switched node, with zero
per-edge function calls. The int64-weighted coarse graphs of the
multilevel hierarchy (:class:`~repro.core.csr.WeightedCSRGraph`) run a
weighted twin of the same fused pass; off-grid ``k`` (Dinkelbach
refinement), weighted residual views and the region refinement of
:func:`refine_subset` use the lazy heap pass. The original
list-of-lists loop survives only as the test-side reference that
``tests/core/test_parity.py`` compares these engines against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import compress
from typing import Callable, List, Optional, Sequence

from .csr import PartitionState, switch_deltas
from .gains import BUCKET_RESOLUTION, HeapGainIndex, _on_grid
from .graph import AugmentedSocialGraph
from .kernels import (
    boundary_nodes,
    gain_deltas,
    weighted_boundary_nodes,
    weighted_gain_deltas,
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


def _run_passes(
    view,
    sides: List[int],
    locked: Sequence[bool],
    k: float,
    config: KLConfig,
    stats: Optional[KLStats],
    gain: Callable[[int, int], float],
    run_pass: Callable,
    f_cross,
    r_cross,
    nodes: Optional[List[int]] = None,
):
    """The pass driver of every KL search: Algorithm 1's outer loop.

    Each pass refreshes the start-of-pass gains, lets ``run_pass`` switch
    the candidates tentatively in max-gain order, keeps the best prefix,
    rolls the rest back, and repeats until no prefix improves (or
    ``config.max_passes`` is reached). The engines differ only in
    ``run_pass(eligible, gains) -> (sequence, best_length)``: one
    tentative pass that leaves every ``(u, fd, rd)`` switch of
    ``sequence`` applied to ``sides``. Everything else lives here.

    * **Candidates.** ``nodes`` (region refinement, already filtered to
      active unlocked ids) is a fixed set. Otherwise every active
      unlocked node is a candidate (``frontier="full"``), or a *scope*
      seeded by :func:`~repro.core.kernels.boundary_nodes`
      (``"boundary"``) that grows with every applied prefix's dirty
      frontier; at convergence a closure sweep readmits every
      positive-gain node outside the scope, so the scoped search never
      stops while a profitable single switch exists anywhere.
    * **Gain refresh.** ``gain(fd, rd)`` turns a node's exact switch
      deltas into the engine's gain (scaled integer for the buckets,
      float for the heap). Pass 1 — and every pass after one that did
      not track its dirty frontier — rebuilds all candidates with the
      batch :func:`~repro.core.kernels.gain_deltas` kernel (or its
      weighted twin); the python backend rebuilds scopes and regions
      node by node instead, so a small frontier never pays the O(V+E)
      kernel. Later passes recompute only the *dirty frontier* — the
      previous applied prefix plus its neighbours, the only nodes whose
      gains can have changed — with
      :func:`~repro.core.csr.switch_deltas`, flipping back to the batch
      kernel on the numpy backend when that frontier exceeds a quarter
      of the candidates. Every path yields the same values.

    The batch kernels are module globals looked up at call time, so a
    rebinding of ``kl.gain_deltas`` and its siblings reaches every
    engine. Mutates ``sides``; returns the final ``(f_cross, r_cross)``
    (the prefix deltas added to the given counters).
    """
    csr = view.csr
    active = view.active
    n = csr.num_nodes
    fp, fi, op, oi, ip_, ii = view.hot_active()
    scope: Optional[List[bool]] = None
    if nodes is not None:
        batch = None
        eligible = nodes
        gains = {}
    else:
        batch = weighted_gain_deltas if csr.weighted else gain_deltas
        gains = [0] * n
        if config.frontier == "boundary":
            frontier = weighted_boundary_nodes if csr.weighted else boundary_nodes
            scope = [False] * n
            eligible = []
            for u in frontier(view, sides, k):
                if not locked[u]:
                    scope[u] = True
                    eligible.append(u)
        else:
            eligible = [u for u in range(n) if active[u] and not locked[u]]
    vectorize = batch is not None and csr.backend == "numpy"
    dirty = None  # None: rebuild every candidate

    for pass_no in range(config.max_passes):
        if stats is not None:
            stats.passes += 1
            stats.objective_history.append(f_cross - k * r_cross)

        if dirty is None or (vectorize and 4 * len(dirty) > len(eligible)):
            if vectorize or (batch is not None and scope is None):
                fd_all, rd_all = batch(view, sides)
                for u in eligible:
                    gains[u] = gain(fd_all[u], rd_all[u])
                dirty = ()
            else:
                dirty = eligible
        for u in dirty:
            if active[u] and not locked[u]:
                fd, rd = switch_deltas(csr, active, sides, u)
                gains[u] = gain(fd, rd)

        sequence, best_length = run_pass(eligible, gains)
        # Roll back every switch beyond the best prefix and book the
        # prefix's exact counter deltas.
        for u, _, _ in sequence[best_length:]:
            sides[u] = 1 - sides[u]
        prefix = sequence[:best_length]
        for _, fd, rd in prefix:
            f_cross += fd
            r_cross += rd
        if stats is not None:
            stats.switches_tested += len(sequence)
            stats.switches_applied += best_length

        if best_length == 0:
            if scope is None:
                break
            # Convergence closure: one batch sweep readmits every active
            # positive-gain node outside the scope. If none exists the
            # scoped search has genuinely converged. In-scope gains are
            # untouched (the pass applied nothing), and the fresh nodes'
            # gains are filled here — nothing is dirty for the next pass.
            fd_all, rd_all = batch(view, sides)
            fresh = []
            for u in range(n):
                if active[u] and not locked[u] and not scope[u]:
                    g = gain(fd_all[u], rd_all[u])
                    if g > 0:
                        fresh.append(u)
                        gains[u] = g
            if not fresh:
                break
            for u in fresh:
                scope[u] = True
            eligible = sorted(eligible + fresh)
            dirty = ()
            continue
        if pass_no + 1 == config.max_passes:
            break
        # Rolled-back switches are net no-ops, so only the applied prefix
        # and its neighbourhood can enter the next pass with a changed
        # gain. When the prefix alone exceeds the batch-rebuild threshold
        # the next pass rebuilds in full, so the frontier is collected
        # only where the scope grows with it.
        track_dirty = config.incremental and not (
            vectorize and 4 * best_length > len(eligible)
        )
        if track_dirty or scope is not None:
            dirty = set()
            for u, _, _ in prefix:
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
    return f_cross, r_cross


def _bucket_pass(
    adjacency, sides, k_scaled: int, bound: int, stall_limit, eligible, gains
):
    """One tentative pass of the fused integer-scaled FM bucket engine
    (unweighted graph, on-grid ``k``).

    Gains are integers scaled by ``BUCKET_RESOLUTION``; on the 1/8 grid
    every float gain is binary-exact, so the integer engine reproduces
    the float reference loop's pop order and best-prefix decisions bit
    for bit. The per-switch loop fuses the switch's counter deltas with
    the neighbour bucket relinks — one sweep per incident edge, no
    function calls — which is where the end-to-end speedup over the
    original list-of-lists engine came from (see
    ``BENCH_gain_index.json``).

    ``adjacency`` is the view's active-filtered
    :meth:`~repro.core.csr.CSRView.hot_active` arrays, so the hot loops
    carry no per-edge mask checks. ``bound`` comes memoized from
    :meth:`CSRGraph.bucket_gain_bound`; the full-graph bound can exceed
    an active-only one on residual views, which only offset-shifts
    every bucket index uniformly — pop order and recorded gains (``b −
    offset``) are untouched.
    """
    fp, fi, op, oi, ip_, ii = adjacency
    n = len(sides)
    two_res = 2 * BUCKET_RESOLUTION
    offset = bound + 1
    absent = -1
    heads = [absent] * (2 * bound + 3)
    nxt = [absent] * n
    prv = [absent] * n
    bucket_of = [absent] * n
    max_b = -1
    size = 0

    # Insert in ascending node order (the reference discipline — LIFO
    # within each bucket). The lists above are fresh, so only the
    # displaced head needs a prv write.
    for u in eligible:
        b = gains[u] + offset
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

        sides[u] = 1 - s
        sequence.append((u, fd, rd))
        cumulative += b - offset
        if cumulative > best_cumulative:
            best_cumulative = cumulative
            best_length = len(sequence)
            stall = 0
        else:
            stall += 1
    return sequence, best_length


def _weighted_bucket_pass(
    adjacency, weights, sides, k_scaled: int, bound: int, stall_limit, eligible, gains
):
    """One tentative pass of the fused FM bucket engine on an int64-weighted
    graph.

    Same greedy discipline as :func:`_bucket_pass` with every edge
    contributing its integer weight: the bucket index is still the exact
    integer ``k_scaled·rd − fd·res + offset`` (weighted ``fd``/``rd`` are
    int64 sums — order-insensitive, hence backend-identical), the bound
    comes from the weighted :func:`~repro.core.kernels.scaled_gain_bound`
    via the same memoized :meth:`CSRGraph.bucket_gain_bound`, and the
    best-prefix comparison is exact integer arithmetic. This is what the
    integer-weight coarse representation buys: the multilevel refinement
    sheds the float heap without giving up bit-for-bit reproducibility.

    Weights are positional against the *full* CSR slot arrays
    (``adjacency`` is :meth:`CSRGraph.hot`), so this engine requires an
    all-active view; :func:`extended_kl_state` falls back to the heap on
    residual views.
    """
    fp, fi, op, oi, ip_, ii = adjacency
    fw, ow, iw = weights
    n = len(sides)
    two_res = 2 * BUCKET_RESOLUTION
    offset = bound + 1
    absent = -1
    heads = [absent] * (2 * bound + 3)
    nxt = [absent] * n
    prv = [absent] * n
    bucket_of = [absent] * n
    max_b = -1
    size = 0

    for u in eligible:
        b = gains[u] + offset
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

        sides[u] = 1 - s
        sequence.append((u, fd, rd))
        cumulative += b - offset
        if cumulative > best_cumulative:
            best_cumulative = cumulative
            best_length = len(sequence)
            stall = 0
        else:
            stall += 1
    return sequence, best_length


def _heap_pass(view, sides, k: float, stall_limit, eligible, gains):
    """One tentative pass over a lazy-deletion heap: any positive ``k``,
    any view, unweighted or int64-weighted.

    Same greedy discipline as the bucket engines, with float gains and
    an ``_EPS`` margin on the best-prefix test. Each popped node's exact
    counter deltas come from :func:`~repro.core.csr.switch_deltas`, and
    its neighbours' gains move by the shared
    :func:`adjust_neighbor_gains` rule.
    """
    csr = view.csr
    active = view.active
    index = HeapGainIndex()
    index.bulk_load((u, gains[u]) for u in eligible)

    sequence: List[tuple] = []
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
        fd, rd = switch_deltas(csr, active, sides, u)
        prev_side = sides[u]
        sides[u] = 1 - prev_side
        sequence.append((u, fd, rd))
        cumulative += gain
        if cumulative > best_cumulative + _EPS:
            best_cumulative = cumulative
            best_length = len(sequence)
            stall = 0
        else:
            stall += 1
        _adjust_gains(index, view, sides, u, prev_side, k)
    return sequence, best_length


def _heap_gain(k: float) -> Callable[[int, int], float]:
    """The heap engine's float gain of a switch: the single IEEE-double
    expression :meth:`PartitionState.switch_gain` evaluates."""
    return lambda fd, rd: -(fd - k * rd)


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
    view = out.view
    csr = view.csr
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
    bucket_ok = not weighted or view.num_active == csr.num_nodes
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
        res = BUCKET_RESOLUTION
        k_scaled = round(k * res)
        bound = csr.bucket_gain_bound(res, k_scaled)
        if weighted:
            run_pass = partial(
                _weighted_bucket_pass,
                csr.hot(),
                csr.hot_weights(),
                out.sides,
                k_scaled,
                bound,
                config.stall_limit,
            )
        else:
            run_pass = partial(
                _bucket_pass,
                view.hot_active(),
                out.sides,
                k_scaled,
                bound,
                config.stall_limit,
            )

        def gain(fd: int, rd: int) -> int:
            return k_scaled * rd - fd * res

    elif kind == "heap":
        run_pass = partial(_heap_pass, view, out.sides, k, config.stall_limit)
        gain = _heap_gain(k)
    else:
        raise ValueError(f"unknown gain index kind {kind!r}")
    out.f_cross, out.r_cross = _run_passes(
        view,
        out.sides,
        out.locked,
        k,
        config,
        stats,
        gain,
        run_pass,
        out.f_cross,
        out.r_cross,
    )
    ones = sum(compress(out.sides, view.active))
    out.side_sizes = [view.num_active - ones, ones]
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
    execution order. Gains use the lazy-deletion heap pass of
    :func:`extended_kl_state` (computed node by node, never by a
    whole-graph kernel), so any positive ``k`` and both unweighted and
    int64-weighted graphs work; ``config.gain_index`` and
    ``config.frontier`` do not apply.

    ``sides`` is mutated to the refined labels. Returns ``(moved,
    delta_f, delta_r, tested, applied)``: the ascending list of nodes
    whose side net-changed, the exact cut-counter deltas those moves
    caused, and the tentative/applied switch counts.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    config = config or KLConfig()
    active = view.active
    cand = sorted(u for u in set(nodes) if active[u] and not locked[u])
    entry = [sides[u] for u in cand]
    stats = KLStats()
    delta_f, delta_r = _run_passes(
        view,
        sides,
        locked,
        k,
        config,
        stats,
        _heap_gain(k),
        partial(_heap_pass, view, sides, k, config.stall_limit),
        0,
        0,
        nodes=cand,
    )
    moved = [u for u, side in zip(cand, entry) if sides[u] != side]
    return moved, delta_f, delta_r, stats.switches_tested, stats.switches_applied


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
