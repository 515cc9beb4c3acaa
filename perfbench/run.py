"""Steady end-to-end benchmark of the Rejecto reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload rejecto_flat --seed 1 --seconds 25 --trace 0

Workloads: ``rejecto_flat``, ``multilevel_ba``, ``cluster_table2``
(see ``perfbench/README.md``). One run:

1. derives ``n + 1`` distinct instance seeds from ``--seed`` (``n`` is
   ``--seconds`` divided by the seconds each instance is charged)
   and writes every input to disk from a child process, before any
   timing starts;
2. solves a tenth-size instance untimed, as a warm-up;
3. for each other instance: ``gc.collect()``, time the set-up (input
   file to solvable graph), ``gc.collect()``, time the solve, then check
   the result outside the timed region; a :class:`HostProbe` timed
   before, between and after the two calls gauges the host's speed;
4. prints every metric by name with its unit, and as the last line one
   JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: per-instance medians of
the set-up and solve times (rescaled to the probe's reference speed;
the raw wall medians are printed too), the process's peak RSS, and
batch means of precision, recall and acceptance rate. ``--trace 1`` solves every
instance twice, once plain and once with the layer wrappers of
``tracing.py`` installed (in alternating order), and reports the
per-layer metrics plus ``trace.overhead``; it also writes the spans as
Chrome trace-event JSON under ``.bench_work/results/``.

The exit code is 1 when any instance fails its correctness check.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import repro  # noqa: E402

if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
    raise ImportError(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")

from benchmeta import bench_metadata  # noqa: E402
from repro.cluster import NetworkModel  # noqa: E402

from tracing import KERNELS, Tracer, rebound  # noqa: E402
from workloads import WORKLOADS, Workload, check, quality  # noqa: E402

WORK_DIR = ROOT / ".bench_work"

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MiB",
    "precision": "ratio",
    "recall": "ratio",
    "acceptance_rate": "ratio",
}

KERNEL_METRICS = {
    f"kernels.{kernel}_{suffix}": unit
    for kernel in KERNELS
    for suffix, unit in (("s", "s"), ("calls", "count"))
}

PER_LAYER = {
    "io.load_s": "s",
    "csr.build_s": "s",
    "storage.save_s": "s",
    "storage.open_s": "s",
    "storage.file_mb": "MiB",
    "maar.sweeps": "count",
    "maar.sweep_s": "s",
    "maar.k_runs": "count",
    "kl.calls": "count",
    "kl.s": "s",
    "kl.passes": "count",
    "kl.tested": "count",
    "kl.applied": "count",
    "kl.applied_ratio": "ratio",
    "kl.bucket_slots_max": "count",
    **KERNEL_METRICS,
    "multilevel.coarsen_s": "s",
    "multilevel.hem_s": "s",
    "multilevel.contract_s": "s",
    "multilevel.levels": "count",
    "multilevel.coarsest_nodes": "count",
    "multilevel.coarse_sweep_s": "s",
    "multilevel.refine_s": "s",
    "multilevel.refine_finest_s": "s",
    "multilevel.refine_subset_calls": "count",
    "multilevel.refine_tested": "count",
    "multilevel.refine_moves": "count",
    "multilevel.frontier_nodes": "count",
    "cluster.run_s": "s",
    "cluster.passes": "count",
    "cluster.tested": "count",
    "cluster.applied": "count",
    "net.messages": "count",
    "net.bytes": "count",
    "net.bytes_avoided": "count",
    "net.simulated_s": "s",
    "prefetch.hit_rate": "ratio",
    "prefetch.fetch_batches": "count",
    "prefetch.records_fetched": "count",
    "trace.overhead": "ratio",
}


def batch_size(workload: Workload, seconds: float) -> int:
    return max(1, math.ceil(seconds / workload.instance_s))


def instance_seeds(name: str, seed: int, count: int) -> List[int]:
    """``count`` distinct instance seeds, a pure function of the run's
    workload name and seed."""
    return random.Random(f"{name}:{seed}").sample(range(2**31), count)


def _generate(name: str, seeds: Sequence[int], directory: Path) -> List[List[int]]:
    """Write every input from a child process and wait for it; returns
    each instance's injected fake ids."""
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), name, str(directory),
         *map(str, seeds)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        check=True,
    )
    return [
        json.loads((directory / f"inst-{i}.fakes.json").read_text())
        for i in range(len(seeds))
    ]


class HostProbe:
    """A fixed pure-Python computation timed around every timed call, as
    a gauge of the host's current speed.

    It imitates the KL engine's inner loop on a fixed random 4-regular
    graph of 131,072 nodes in flat CSR lists: walk the adjacency of
    10,000 nodes in a fixed random order, count cut edges, and file each
    node in a gain bucket. Its working set matters: a tight arithmetic
    loop, or the same walk over a 32,768-node graph, tracked the host's
    phases less well (see README). It is the benchmark's own code, so no
    change to ``src/`` moves it.
    """

    #: Time of one :meth:`measure` on an uncontended core of a 2-vCPU KVM
    #: guest (Intel Xeon); rescaled times are times on a host running at
    #: this speed.
    REFERENCE_S = 0.008

    def __init__(self) -> None:
        rng = random.Random(0)
        n = 1 << 17
        ids = list(range(n))  # shared int objects, as in a CSR index list
        self.adjacency = [ids[rng.randrange(n)] for _ in range(4 * n)]
        self.sides = [rng.randrange(2) for _ in range(n)]
        self.order = [ids[rng.randrange(n)] for _ in range(10_000)]

    def _once(self) -> float:
        start = time.perf_counter()
        adjacency = self.adjacency
        sides = self.sides
        buckets: Dict[int, List[int]] = {}
        for u in self.order:
            side = sides[u]
            gain = 0
            for j in range(4 * u, 4 * u + 4):
                gain += 1 if sides[adjacency[j]] != side else -1
            buckets.setdefault(gain, []).append(u)
        return time.perf_counter() - start

    def measure(self) -> float:
        """Median of three timed passes."""
        return statistics.median(self._once() for _ in range(3))


def _measure(
    workload: Workload,
    path: Path,
    fakes: Sequence[int],
    probe: HostProbe,
    tracer: Optional[Tracer] = None,
) -> Tuple[Dict[str, object], object]:
    """Set up and solve one instance, then check it. Returns the row
    and the solve's :class:`~workloads.Outcome` (None if it raised).

    Each timed call is bracketed by ``probe``; its time is reported both
    as measured (``*_wall_s``) and rescaled by the mean of its two
    brackets to :attr:`HostProbe.REFERENCE_S` (``setup_s``,
    ``solve_s``), which takes out the host's slow and fast phases."""
    row: Dict[str, object] = {}
    outcome = None

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    try:
        with rebound(tracer) if tracer else contextlib.nullcontext():
            probes = [probe.measure()]
            gc.collect()
            with span("setup"):
                start = time.perf_counter()
                graph = workload.setup(path)
                row["setup_wall_s"] = time.perf_counter() - start
            probes.append(probe.measure())
            gc.collect()
            with span("solve"):
                start = time.perf_counter()
                outcome = workload.solve(graph)
                row["solve_wall_s"] = time.perf_counter() - start
            probes.append(probe.measure())
        row["probe_s"] = probes
        for name, (before, after) in (("setup", probes[:2]), ("solve", probes[1:])):
            row[name + "_s"] = (
                row[name + "_wall_s"] * probe.REFERENCE_S * 2 / (before + after)
            )
        problems = check(workload, graph, outcome)
        if not problems:
            row.update(quality(outcome, fakes))
    except Exception:  # a raising instance is a failed instance, not a crash
        problems = [traceback.format_exc()]
    row["problems"] = problems
    row["failed"] = bool(problems)
    return row, outcome


#: Span name -> metric reporting that span's total self time.
SELF_TIMES = {
    "io.load": "io.load_s",
    "csr.build": "csr.build_s",
    "storage.save": "storage.save_s",
    "storage.open": "storage.open_s",
    "maar.sweep": "maar.sweep_s",
    "kl": "kl.s",
    "multilevel.hem": "multilevel.hem_s",
    "multilevel.contract": "multilevel.contract_s",
    "cluster.run": "cluster.run_s",
    **{m[:-2]: m for m, unit in KERNEL_METRICS.items() if unit == "s"},
}
#: Span name -> metric counting that span's calls.
CALL_COUNTS = {
    "maar.sweep": "maar.sweeps",
    "kl": "kl.calls",
    "multilevel.refine_subset": "multilevel.refine_subset_calls",
    **{m[:-6]: m for m, unit in KERNEL_METRICS.items() if unit == "count"},
}


def layer_values(tracer: Tracer, outcome, snapshot: Path) -> Dict[str, float]:
    """Every per-layer metric of one traced instance. Span metrics are
    self times; layers the workload does not run read 0."""
    values: Dict[str, float] = dict.fromkeys(PER_LAYER, 0)
    own = tracer.self_times()
    calls = tracer.calls()
    for span_name, metric in SELF_TIMES.items():
        values[metric] = own.get(span_name, 0.0)
    for span_name, metric in CALL_COUNTS.items():
        values[metric] = calls.get(span_name, 0)
    counters = tracer.counters
    values["maar.k_runs"] = counters.get("maar.sweep.k_runs", 0)
    for name in ("kl.passes", "kl.tested", "kl.applied"):
        values[name] = counters.get(name, 0)
    if values["kl.tested"]:
        values["kl.applied_ratio"] = values["kl.applied"] / values["kl.tested"]
    values["kl.bucket_slots_max"] = tracer.maxima.get("kl.bucket_slots_max", 0)
    if "storage.save" in calls:
        values["storage.file_mb"] = snapshot.stat().st_size / 2**20

    timings = getattr(outcome.raw, "timings", None)
    if timings:
        refine = timings["refine"]
        detail = timings["refine_detail"]
        values.update(
            {
                "multilevel.coarsen_s": sum(timings["coarsen"], 0.0),
                "multilevel.levels": outcome.raw.levels,
                "multilevel.coarsest_nodes": outcome.raw.level_sizes[-1],
                "multilevel.coarse_sweep_s": timings["coarse_sweep"],
                "multilevel.refine_s": sum(refine, 0.0),
                "multilevel.refine_finest_s": refine[-1] if refine else 0.0,
                "multilevel.refine_tested": sum(d["tested"] for d in detail),
                "multilevel.refine_moves": sum(d["moves"] for d in detail),
                "multilevel.frontier_nodes": sum(d["boundary"] for d in detail),
            }
        )
    stats = outcome.cluster_stats
    if stats is not None:
        network = stats.network
        values.update(
            {
                "cluster.passes": stats.passes,
                "cluster.tested": stats.switches_tested,
                "cluster.applied": stats.switches_applied,
                "net.messages": network.messages,
                "net.bytes": network.bytes_sent,
                "net.bytes_avoided": network.bytes_avoided,
                "net.simulated_s": network.simulated_seconds(NetworkModel()),
                "prefetch.hit_rate": stats.prefetch_hit_rate,
                "prefetch.fetch_batches": stats.fetch_batches,
                "prefetch.records_fetched": stats.records_fetched,
            }
        )
    return values


def _median(rows: Sequence[dict], key: str) -> float:
    values = [row[key] for row in rows if key in row]
    return statistics.median(values) if values else float("nan")


def _mean(rows: Sequence[dict], key: str) -> float:
    values = [row[key] for row in rows if key in row]
    return statistics.fmean(values) if values else float("nan")


def end_to_end(rows: Sequence[dict]) -> Dict[str, float]:
    return {
        "setup_s": _median(rows, "setup_s"),
        "solve_s": _median(rows, "solve_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "precision": _mean(rows, "precision"),
        "recall": _mean(rows, "recall"),
        "acceptance_rate": _mean(rows, "acceptance_rate"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record (see module docstring)."""
    workload = WORKLOADS[name]
    count = batch_size(workload, seconds)
    seeds = instance_seeds(name, seed, count + 1)
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    inputs = WORK_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    try:
        fakes = _generate(name, seeds, inputs)
        paths = [inputs / f"inst-{i}.txt" for i in range(len(seeds))]
        probe = HostProbe()
        warmup, _ = _measure(workload, paths[0], fakes[0], probe)
        plain: List[dict] = []
        traced: List[dict] = []
        layers: List[Dict[str, float]] = []
        events: List[dict] = []
        origin = time.perf_counter()
        for i in range(1, len(seeds)):
            # Alternate which pass goes first so neither gets a warmer heap.
            order = ((False, True) if i % 2 else (True, False)) if trace else (False,)
            for with_trace in order:
                if not with_trace:
                    plain.append(_measure(workload, paths[i], fakes[i], probe)[0])
                    continue
                tracer = Tracer()
                row, outcome = _measure(workload, paths[i], fakes[i], probe, tracer)
                traced.append(row)
                events.extend(tracer.chrome_events(i, origin))
                if outcome is not None:
                    layers.append(
                        layer_values(tracer, outcome, paths[i].with_suffix(".csrbin"))
                    )
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    rows = [warmup] + plain + traced
    failed = sum(row["failed"] for row in rows)
    e2e = end_to_end(plain)
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "meta": bench_metadata(),
        "instances": count,
        "warmup_seed": seeds[0],
        "instance_seeds": seeds[1:],
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "fail_rate": failed / len(rows),
        "end_to_end": e2e,
        "rows": {"warmup": warmup, "plain": plain, "traced": traced},
    }
    for extra in ("setup_wall_s", "solve_wall_s", "wire_mb"):
        if any(extra in row for row in plain):
            record[extra] = _median(plain, extra)
    if trace:
        per_layer = {
            metric: statistics.median(v[metric] for v in layers) if layers else 0.0
            for metric in PER_LAYER
            if metric != "trace.overhead"
        }
        per_layer["trace.overhead"] = (
            _median(traced, "solve_s") / _median(plain, "solve_s") - 1
        )
        record["per_layer"] = per_layer
        trace_path = results / f"{name}-seed{seed}.trace.json"
        trace_path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms",
                        "otherData": record["meta"]})
        )
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    print(f"workload {args.workload}: {record['instances']} timed instances, "
          f"seeds {record['instance_seeds']}, warm-up seed {record['warmup_seed']}")
    print("meta " + json.dumps(record["meta"], sort_keys=True))
    for metric, value in metrics.items():
        print(f"{metric} {value!r} {units[metric]}")
    print(f"fail_rate {record['fail_rate']!r} ratio")
    for extra, unit in (("setup_wall_s", "s"), ("solve_wall_s", "s"), ("wire_mb", "MiB")):
        if extra in record:
            print(f"{extra} {record[extra]!r} {unit} (not gated)")
    for row in record["rows"]["warmup"], *record["rows"]["plain"], *record["rows"]["traced"]:
        for problem in row["problems"]:
            print("FAILED: " + problem.strip().replace("\n", "\n  "))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
