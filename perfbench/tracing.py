"""Boundary-wrapped tracing for the traced benchmark run.

The program has no tracing of its own yet, so the traced run records
spans from outside: :func:`rebound` temporarily replaces the public
names that a caller module looks up at call time (a module attribute
such as ``repro.core.maar.extended_kl_state``, or a class attribute such
as ``CSRGraph.bucket_gain_bound``) with wrappers that open a span around
the original call, and restores every original on exit. Nothing under
``src/`` changes; untraced runs never see a wrapper.

Spans are kept in memory as ``(name, start, end, parent)`` records and
exported once, as Chrome trace-event JSON, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro import io as repro_io
from repro.cluster.engine import DistributedKL
from repro.core import kl as kl_module
from repro.core import maar as maar_module
from repro.core import multilevel as multilevel_module
from repro.core.csr import CSRGraph
from repro.core.kl import KLStats

__all__ = ["Span", "Tracer", "rebound", "BINDINGS", "KERNELS"]

#: Batch kernels timed per call, under ``kernels.<name>``.
KERNELS = (
    "gain_deltas",
    "weighted_gain_deltas",
    "boundary_nodes",
    "weighted_boundary_nodes",
)


class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: Optional[int]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent


class Tracer:
    """In-memory span tree plus counters for one traced instance."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.maxima: Dict[str, float] = {}
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), parent)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: each span's duration minus the
        part of it that its direct children cover (children of one span
        never overlap, since every traced run is serial)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: Dict[str, float] = {}
        for span, covered in zip(self.spans, child_time):
            own = span.end - span.start - covered
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        return out

    def chrome_events(self, tid: int, origin: float) -> List[dict]:
        """Complete (``"ph": "X"``) trace events, microseconds since
        ``origin``; ``tid`` separates instances in the viewer."""
        return [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": 1,
                "tid": tid,
                "args": {"index": index, "parent": span.parent},
            }
            for index, span in enumerate(self.spans)
        ]


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _timed(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _timed_sweep(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``sweep_k_states(init, k_values, ...)``: one call is one sweep of
    ``len(k_values)`` KL runs."""

    @functools.wraps(fn)
    def wrapper(init, k_values, *args, **kwargs):
        tracer.count(name + ".k_runs", len(k_values))
        with tracer.span(name):
            return fn(init, k_values, *args, **kwargs)

    return wrapper


def _timed_kl(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``extended_kl_state(state, k, config=None, stats=None)``: reads the
    pass/switch counters the engine already keeps in :class:`KLStats`.
    A caller that passed no stats gets a private one; the engine only
    ever appends to it, so the search itself is unchanged."""

    @functools.wraps(fn)
    def wrapper(state, k, config=None, stats=None):
        own = stats if stats is not None else KLStats()
        before = (own.passes, own.switches_tested, own.switches_applied)
        with tracer.span(name):
            out = fn(state, k, config, own)
        tracer.count("kl.passes", own.passes - before[0])
        tracer.count("kl.tested", own.switches_tested - before[1])
        tracer.count("kl.applied", own.switches_applied - before[2])
        return out

    return wrapper


def _timed_bound(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``CSRGraph.bucket_gain_bound``: a bucket array of a pass holds
    ``2·bound + 3`` slots."""

    @functools.wraps(fn)
    def wrapper(self, resolution, k_scaled):
        with tracer.span(name):
            bound = fn(self, resolution, k_scaled)
        tracer.maximum("kl.bucket_slots_max", 2 * bound + 3)
        return bound

    return wrapper


#: Every rebound name: ``(owner, attribute, span name)``. Module
#: attributes are rebound in the module whose code calls them, because a
#: ``from x import f`` copies the binding into the caller's namespace.
BINDINGS: List[Tuple[object, str, str]] = [
    (repro_io, "load_augmented_graph", "io.load"),
    (CSRGraph, "from_edges", "csr.build"),
    (CSRGraph, "save", "storage.save"),
    (CSRGraph, "open", "storage.open"),
    (maar_module, "sweep_k_states", "maar.sweep"),
    (maar_module, "extended_kl_state", "kl"),
    (CSRGraph, "bucket_gain_bound", "kl.bucket_gain_bound"),
    (multilevel_module, "sweep_k_states", "multilevel.coarse_sweep"),
    (multilevel_module, "extended_kl_state", "kl"),
    (multilevel_module, "heavy_edge_matching", "multilevel.hem"),
    (CSRGraph, "contract", "multilevel.contract"),
    (multilevel_module, "refine_subset", "multilevel.refine_subset"),
    (DistributedKL, "run", "cluster.run"),
] + [(kl_module, kernel, "kernels." + kernel) for kernel in KERNELS] + [
    (multilevel_module, kernel, "kernels." + kernel)
    for kernel in ("gain_deltas", "weighted_gain_deltas")
]

_SPECIAL = {
    "maar.sweep": _timed_sweep,
    "multilevel.coarse_sweep": _timed_sweep,
    "kl": _timed_kl,
    "kl.bucket_gain_bound": _timed_bound,
}


def _wrap(tracer: Tracer, name: str, original):
    make = _SPECIAL.get(name, _timed)
    if isinstance(original, classmethod):
        return classmethod(make(tracer, name, original.__func__))
    return make(tracer, name, original)


@contextlib.contextmanager
def rebound(tracer: Tracer) -> Iterator[None]:
    """Install a wrapper for every name in :data:`BINDINGS` for the
    ``with`` body, then put the original objects back, whatever the body
    raised."""
    originals = []
    try:
        for owner, attribute, name in BINDINGS:
            # ``vars`` keeps a class attribute's descriptor (classmethod),
            # so restoring it puts back exactly what was there.
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(tracer, name, original))
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
