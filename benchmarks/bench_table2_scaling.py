"""Table II: execution time vs input graph size.

Two measurements:

* the paper's mini-cluster scaling study (``scaling_study``): near-linear
  runtime growth with graph size, "provided that the volume of the
  aggregate memory in the cluster suffices" — here, provided the single
  process holds the partitions;
* shard distribution by payload vs by snapshot reference, same graph.

The committed ``BENCH_table2.json`` also holds an ``engine_scaling``
table comparing the list-of-lists engine with the CSR engine; it is the
historical record of that change and is no longer produced.

Each cluster row also reports the prefetch hit rate, the per-kind
message/byte breakdown, and — where a pre-PR baseline exists — the
payload-byte reduction and wall-clock speedup delivered by the
CSR-sharded engine (batched block-slice fetches + delta broadcasts)
over the dict-record implementation it replaced.

Running this module directly (``PYTHONPATH=src python
benchmarks/bench_table2_scaling.py``) writes the per-size wall-clock
numbers to ``BENCH_table2.json`` at the repo root. ``--smoke`` runs a
small two-size study with full protocol assertions and writes nothing —
the CI guard for the cluster wire format.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

from benchmeta import bench_metadata, cluster_stats_payload
from repro.attacks import ScenarioConfig, build_scenario
from repro.cluster import ClusterConfig, ClusterRunStats, distributed_maar
from repro.core import MAARConfig
from repro.core.csr import CSRGraph
from repro.experiments import ScalingConfig, scaling_study

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_table2.json"

CONFIG = ScalingConfig(user_counts=(1000, 2000, 4000, 8000))

#: Pre-PR ``BENCH_table2.json`` cluster rows (dict-record workers,
#: full-vector broadcasts, estimate_bytes accounting) — the reference
#: the payload-reduction and speedup columns are computed against.
PRE_PR_BASELINE = {
    1000: {"network_bytes": 3_051_168, "wall_seconds": 0.4379},
    2000: {"network_bytes": 6_140_760, "wall_seconds": 0.7233},
    4000: {"network_bytes": 13_075_320, "wall_seconds": 1.8123},
    8000: {"network_bytes": 35_885_584, "wall_seconds": 3.9037},
}


def cluster_row_payload(row):
    """One cluster-scaling row, with the pre-PR comparison when the size
    has a recorded baseline."""
    payload = {
        "users": row.users,
        "edges": row.edges,
        "rejections": row.rejections,
        "build_seconds": row.build_seconds,
        "wall_seconds": row.wall_seconds,
        "microseconds_per_edge": row.microseconds_per_edge,
        "network_messages": row.network_messages,
        "network_bytes": row.network_bytes,
        "prefetch_hit_rate": row.prefetch_hit_rate,
        "fetch_batches": row.fetch_batches,
        "bytes_by_kind": dict(row.bytes_by_kind),
    }
    baseline = PRE_PR_BASELINE.get(row.users)
    if baseline:
        payload["pre_pr_network_bytes"] = baseline["network_bytes"]
        payload["pre_pr_wall_seconds"] = baseline["wall_seconds"]
        payload["payload_reduction"] = (
            baseline["network_bytes"] / max(1, row.network_bytes)
        )
        payload["wall_speedup"] = baseline["wall_seconds"] / max(
            1e-9, row.wall_seconds
        )
    return payload


def run_shard_transport(users=4000, k_steps=2, seed=7):
    """Payload-mode vs reference-mode distribution, same graph.

    Packs the scenario graph into a snapshot, runs the full distributed
    sweep once per transport, asserts the results are identical, and
    reports the upload-byte reduction the shard references deliver.
    """
    num_fakes = max(10, users // 10)
    scenario = build_scenario(
        ScenarioConfig(num_legit=users - num_fakes, num_fakes=num_fakes, seed=seed)
    )
    csr = scenario.graph.csr()
    maar = MAARConfig(k_steps=k_steps)
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        snap = Path(tmp) / "scenario.csrbin"
        csr.save(snap)
        for transport, graph in (
            ("payload", csr),
            ("reference", CSRGraph.open(snap)),
        ):
            stats = ClusterRunStats()
            start = time.perf_counter()
            nodes, rate, k = distributed_maar(
                graph,
                cluster_config=ClusterConfig(shard_transport=transport),
                maar_config=maar,
                stats=stats,
            )
            runs[transport] = {
                "result": (tuple(nodes), rate, k),
                "wall_seconds": time.perf_counter() - start,
                "upload_bytes": stats.network.bytes_by_kind.get("upload", 0),
                "total_bytes": stats.network.bytes_sent,
                "bytes_avoided": stats.network.bytes_avoided,
            }
    assert runs["payload"]["result"] == runs["reference"]["result"], (
        "shard-reference mode must be bit-identical to payload mode"
    )
    result = runs["payload"].pop("result")
    runs["reference"].pop("result")
    return {
        "users": users,
        "suspicious": len(result[0]),
        "identical_results": True,
        "payload": runs["payload"],
        "reference": runs["reference"],
        "upload_reduction": runs["payload"]["upload_bytes"]
        / max(1, runs["reference"]["upload_bytes"]),
    }


def run_table2(config=CONFIG):
    """The full Table II payload: cluster study + shard transports."""
    study = scaling_study(config)
    return {
        "meta": bench_metadata(),
        "cluster_scaling": [cluster_row_payload(row) for row in study.rows],
        "shard_transport": run_shard_transport(),
    }


def write_report(payload):
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return OUTPUT_PATH


def run_smoke():
    """CI guard: a two-size study with full wire-protocol assertions.

    Verifies the sharded engine end to end — per-kind byte accounting,
    delta broadcasts actually in use, prefetching effective, and
    shard-reference distribution bit-identical to payloads — without
    touching ``BENCH_table2.json``.
    """
    from repro.core import MAARConfig as MC

    config = ScalingConfig(user_counts=(400, 800), k_steps=2)
    study = scaling_study(config)
    assert len(study.rows) == 2
    for row in study.rows:
        kinds = row.bytes_by_kind
        # The full protocol must be visible in the breakdown: block
        # uploads, one full sync per run, per-pass gains, slice fetches.
        for kind in ("upload", "broadcast", "gains", "fetch"):
            assert kind in kinds and kinds[kind] > 0, (kind, kinds)
        assert sum(kinds.values()) == row.network_bytes
        assert row.prefetch_hit_rate > 0.5, row.prefetch_hit_rate
        assert row.fetch_batches > 0

    # Delta broadcasts engage whenever a run takes more than one pass.
    stats = ClusterRunStats()
    scenario = build_scenario(ScenarioConfig(num_legit=720, num_fakes=80))
    distributed_maar(scenario.graph, maar_config=MC(k_steps=4), stats=stats)
    kinds = stats.network.bytes_by_kind
    runs = stats.network.by_kind["broadcast"] // ClusterConfig().num_workers
    assert stats.passes > runs, "expected multi-pass runs in the smoke scenario"
    assert "delta" in kinds, "multi-pass runs must emit delta broadcasts"
    assert stats.network.by_kind["delta"] % ClusterConfig().num_workers == 0
    assert sum(kinds.values()) == stats.network.bytes_sent

    # Shard references: identical results, and the distribution upload
    # shrinks by at least an order of magnitude even at smoke scale.
    comparison = run_shard_transport(users=600, k_steps=2)
    assert comparison["identical_results"]
    assert comparison["reference"]["bytes_avoided"] > 0
    assert comparison["upload_reduction"] > 10, comparison["upload_reduction"]
    print(json.dumps(cluster_stats_payload(stats), indent=2, sort_keys=True))
    print("table2 smoke OK")


def bench_table2(run_once):
    result = run_once(scaling_study, CONFIG)
    edges = [row.edges for row in result.rows]
    times = [row.wall_seconds for row in result.rows]
    assert edges == sorted(edges)
    assert times[-1] > times[0]
    # Near-linear: per-edge cost varies by far less than the 8x size span.
    per_edge = [row.microseconds_per_edge for row in result.rows]
    assert max(per_edge) < 6 * min(per_edge)


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        run_smoke()
        sys.exit(0)
    report = run_table2()
    path = write_report(report)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwrote {path}")
