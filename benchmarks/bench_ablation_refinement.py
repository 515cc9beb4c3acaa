"""Ablation: the region fan-out of the multilevel refinement.

Each uncoarsened level refines only around its movable frontier, split
into connected regions that are pairwise non-adjacent and merged in
input order, so the region fan-out width
``MultilevelConfig(refine_jobs=...)`` must never change the partition.
This benchmark sweeps ``refine_jobs`` over one scenario, asserts that
every width reproduces ``refine_jobs=1`` exactly, and records the refine
leg (the sum of the per-level refine timings) next to the end-to-end
solve and the detection quality against the planted fakes.

Writes ``BENCH_refinement.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_ablation_refinement.py          # full
    PYTHONPATH=src python benchmarks/bench_ablation_refinement.py --smoke  # CI
"""

import argparse
import json
import time
from pathlib import Path

from benchmeta import bench_metadata
from repro.attacks import ScenarioConfig, build_scenario
from repro.core import solve_maar_multilevel
from repro.core.multilevel import MultilevelConfig
from repro.metrics import precision_recall

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_refinement.json"

FULL_SCALE = (3000, 600)
SMOKE_SCALE = (400, 80)
SEED = 7
JOBS = (1, 2)


def _solve_row(graph, fakes, refine_jobs):
    config = MultilevelConfig(refine_jobs=refine_jobs)
    start = time.perf_counter()
    result = solve_maar_multilevel(graph, config)
    seconds = time.perf_counter() - start
    metrics = precision_recall(result.suspicious, fakes)
    detail = result.timings["refine_detail"]
    return {
        "refine_jobs": refine_jobs,
        "seconds": seconds,
        "refine_seconds": sum(result.timings["refine"]),
        "sweep_seconds": result.timings["coarse_sweep"],
        "coarsen_seconds": sum(result.timings["coarsen"]),
        "scopes": sorted({d["scope"] for d in detail}),
        "tested": sum(d["tested"] for d in detail),
        "moves": sum(d["moves"] for d in detail),
        "found": result.found,
        "suspicious": sorted(result.suspicious),
        "k": result.k,
        "acceptance_rate": result.acceptance_rate,
        "precision": metrics.precision,
        "recall": metrics.recall,
    }


def jobs_sweep(num_legit, num_fakes):
    """One row per ``refine_jobs`` width over one scenario.

    Returns the rows (with ``suspicious`` stripped down to a count) and
    asserts inline that no width changes the partition and that the
    planted population is detected.
    """
    scenario = build_scenario(
        ScenarioConfig(num_legit=num_legit, num_fakes=num_fakes, seed=SEED)
    )
    rows = [_solve_row(scenario.graph, scenario.fakes, jobs) for jobs in JOBS]
    solo = rows[0]
    for wide in rows[1:]:
        assert wide["suspicious"] == solo["suspicious"], (
            f"refine_jobs={wide['refine_jobs']} changed the partition"
        )
        assert wide["k"] == solo["k"]
        assert (wide["tested"], wide["moves"]) == (solo["tested"], solo["moves"])
    for row in rows:
        assert row["recall"] > 0.9, row
        assert row["precision"] > 0.9, row
        row["suspicious"] = len(row["suspicious"])
    return rows


def run_report(smoke=False):
    num_legit, num_fakes = SMOKE_SCALE if smoke else FULL_SCALE
    return {
        "meta": bench_metadata(),
        "smoke": smoke,
        "num_legit": num_legit,
        "num_fakes": num_fakes,
        "jobs_sweep": jobs_sweep(num_legit, num_fakes),
    }


def write_report(payload):
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return OUTPUT_PATH


def bench_refinement(benchmark):
    """pytest-benchmark entry: smoke scale, all invariants asserted."""
    payload = benchmark.pedantic(
        run_report, kwargs={"smoke": True}, rounds=1, iterations=1
    )
    assert payload["jobs_sweep"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small scale (CI rot check; does not overwrite a full report)",
    )
    args = parser.parse_args(argv)
    payload = run_report(smoke=args.smoke)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.smoke:
        print("\nsmoke run ok (report not written)")
        return 0
    path = write_report(payload)
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
