"""Executor layer for fanning independent solver runs out to workers.

The MAAR sweep (Section IV-D) runs one extended-KL search per ``k`` on a
geometric grid; with the default ``warm_start=False`` every step starts
from the *same* initial partition over the *same* immutable
:class:`~repro.core.csr.CSRGraph` snapshot, so the steps are independent
— exactly the shape the paper's Spark implementation (Section V)
exploits across a cluster. This module provides the laptop-scale
equivalent: a tiny ordered-``map`` abstraction with three backends.

Backends
--------
``serial``
    Plain in-process loop. The reference every other backend is pinned
    to (``tests/core/test_parity.py`` asserts bit-identical results).
``thread``
    ``concurrent.futures.ThreadPoolExecutor``. Zero setup cost and
    shares every object directly, but the pure-Python KL loops hold the
    GIL, so it mostly helps as the portable fallback on platforms
    without ``fork``.
``process``
    ``concurrent.futures.ProcessPoolExecutor``. On fork platforms
    (Linux, macOS with the ``fork`` start method) the shared payload is
    published to a module-level registry *before* the pool forks, so
    workers inherit the immutable CSR arrays zero-copy via
    copy-on-write — nothing is pickled except the per-task items and
    the (small) results. On spawn-only platforms the payload is pickled
    once into each worker through the pool initializer;
    :class:`~repro.core.csr.CSRGraph` strips its derived caches on
    pickling so the transfer is just the flat ``array`` buffers.
``auto``
    ``process`` when ``fork`` is available, else ``thread``; ``serial``
    whenever ``jobs <= 1`` or there is at most one item.

Determinism
-----------
:func:`parallel_map` always returns results in input order, so any
reduction that iterates the returned list reproduces the serial loop's
tie-break order exactly. Worker exceptions propagate to the caller.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Optional

__all__ = [
    "BACKENDS",
    "available_backends",
    "chunk_evenly",
    "default_jobs",
    "fork_available",
    "parallel_map",
    "resolve_executor",
    "warn_jobs_ignored",
]

#: Concrete backend names (``"auto"`` resolves to one of these).
BACKENDS = ("serial", "thread", "process")


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def available_backends() -> List[str]:
    """The concrete backends usable on this platform (all three — the
    process backend falls back to spawn+pickle where fork is missing)."""
    return list(BACKENDS)


def default_jobs() -> int:
    """Worker count used when a caller asks for "all cores"."""
    return os.cpu_count() or 1


def warn_jobs_ignored(logger, owner: str, jobs: int, reason: str) -> None:
    """Emit the standard "``jobs`` ignored" warning.

    Every solver that accepts a ``jobs`` knob but cannot honour it for
    the current configuration (such as coupled sweep steps) warns
    through this helper so the message shape — *which* config, *how
    many* jobs, *why* it runs serially — stays uniform and the tests can
    pin it once.
    """
    logger.warning("%s(jobs=%d) ignored: %s", owner, jobs, reason)


def chunk_evenly(items: Iterable[Any], jobs: int) -> List[List[Any]]:
    """Split ``items`` into at most ``jobs`` contiguous, near-equal chunks.

    Deterministic: chunk sizes differ by at most one (longer chunks
    first) and concatenating the chunks reproduces the input order
    exactly, so fanning chunks out through :func:`parallel_map` and
    merging the ordered results is independent of the worker count.
    Returns no empty chunks (an empty input yields an empty list).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = list(items)
    count = min(jobs, len(tasks))
    if count <= 1:
        return [tasks] if tasks else []
    base, extra = divmod(len(tasks), count)
    chunks: List[List[Any]] = []
    start = 0
    for i in range(count):
        size = base + (1 if i < extra else 0)
        chunks.append(tasks[start : start + size])
        start += size
    return chunks


def resolve_executor(executor: str, jobs: int) -> str:
    """Normalize an ``executor`` request to a concrete backend name.

    ``"auto"`` picks ``"serial"`` for ``jobs <= 1``, else ``"process"``
    on fork platforms and ``"thread"`` otherwise. Explicit backend names
    are honoured as given (useful for pinning tests); unknown names
    raise ``ValueError``.
    """
    if executor == "auto":
        if jobs <= 1:
            return "serial"
        return "process" if fork_available() else "thread"
    if executor not in BACKENDS:
        raise ValueError(
            f"unknown executor {executor!r}; expected one of "
            f"{('auto',) + BACKENDS}"
        )
    return executor


# ----------------------------------------------------------------------
# Shared-payload registry
# ----------------------------------------------------------------------
# Parent processes publish the read-only payload here under a fresh token
# before creating a fork pool; forked workers find it in their inherited
# copy of this module (copy-on-write, zero transfer). Spawned workers
# populate their own registry via the pool initializer instead.
_SHARED: Dict[int, Any] = {}
_TOKENS = itertools.count(1)


def _init_spawn_worker(token: int, payload: bytes) -> None:
    """Pool initializer for spawn platforms: unpickle the shared payload
    once per worker instead of once per task."""
    _SHARED[token] = pickle.loads(payload)


def _call_with_shared(token: int, fn: Callable[[Any, Any], Any], item: Any) -> Any:
    """Per-task trampoline run inside process-pool workers."""
    return fn(item, _SHARED.get(token))


def parallel_map(
    fn: Callable[[Any, Any], Any],
    items: Iterable[Any],
    shared: Any = None,
    jobs: int = 1,
    executor: str = "auto",
) -> List[Any]:
    """Apply ``fn(item, shared)`` to every item, preserving input order.

    Parameters
    ----------
    fn:
        A module-level callable (the process backend pickles it by
        reference). Receives ``(item, shared)``.
    items:
        The per-task inputs. Consumed eagerly.
    shared:
        Read-only payload distributed to workers: shared directly by the
        serial/thread backends, inherited zero-copy via fork COW by the
        process backend on fork platforms, pickled once per worker on
        spawn platforms (so it must be picklable there).
    jobs:
        Worker count; values ``<= 1`` run serially.
    executor:
        ``"auto"``, ``"serial"``, ``"thread"``, or ``"process"``.

    Returns
    -------
    list
        ``[fn(item, shared) for item in items]`` — the serial semantics,
        whatever the backend. Exceptions raised by ``fn`` propagate.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = list(items)
    backend = resolve_executor(executor, jobs)
    if backend == "serial" or jobs <= 1 or len(tasks) <= 1:
        return [fn(item, shared) for item in tasks]
    workers = min(jobs, len(tasks))

    if backend == "thread":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda item: fn(item, shared), tasks))

    # Process backend.
    token = next(_TOKENS)
    context = multiprocessing.get_context("fork" if fork_available() else None)
    initializer: Optional[Callable] = None
    initargs: tuple = ()
    if context.get_start_method() == "fork":
        _SHARED[token] = shared
    else:  # pragma: no cover - exercised only on spawn-only platforms
        initializer = _init_spawn_worker
        initargs = (token, pickle.dumps(shared))
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=initializer,
            initargs=initargs,
        ) as pool:
            return list(
                pool.map(
                    _call_with_shared,
                    itertools.repeat(token),
                    itertools.repeat(fn),
                    tasks,
                )
            )
    finally:
        _SHARED.pop(token, None)
