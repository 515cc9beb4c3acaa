"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

The determinism test solves one small batch of every workload twice in
trace mode (about two minutes on a 2-vCPU host).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from repro.attacks import ScenarioConfig, build_scenario
from repro.core.csr import CSRGraph
from repro.io import save_augmented_graph

HERE = Path(__file__).resolve().parent

#: Work counters ROADMAP wants CI to gate on; they must repeat exactly.
COUNTERS = (
    "kl.tested",
    "kl.applied",
    "maar.sweeps",
    "multilevel.levels",
    "multilevel.refine_moves",
    "net.bytes",
    "net.messages",
)
QUALITY = ("precision", "recall", "acceptance_rate")


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_rebound_restores_every_original_name():
    originals = [(o, a, vars(o)[a]) for o, a, _ in tracing.BINDINGS]
    with pytest.raises(RuntimeError):
        with tracing.rebound(tracing.Tracer()):
            assert all(vars(o)[a] is not f for o, a, f in originals)
            raise RuntimeError("escape mid-trace")
    assert all(vars(o)[a] is f for o, a, f in originals)


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    own = tracer.self_times()
    assert own["inner"] == inner.end - inner.start
    assert own["outer"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start)
    )


def test_gate_rejects_a_misreported_rate(tmp_path):
    scenario = build_scenario(ScenarioConfig(num_legit=300, num_fakes=60, seed=3))
    path = tmp_path / "g.txt"
    save_augmented_graph(scenario.graph, path)
    flat = workloads.WORKLOADS["rejecto_flat"]
    graph = flat.setup(path)
    outcome = flat.solve(graph)
    assert workloads.check(flat, graph, outcome) == []
    members, removed, rate, counts = outcome.cuts[0]
    outcome.cuts[0] = (members, removed, rate * 0.5, counts)
    assert workloads.check(flat, graph, outcome)


def test_cluster_gate_compares_against_the_core_solver(tmp_path):
    scenario = build_scenario(ScenarioConfig(num_legit=300, num_fakes=60, seed=3))
    path = tmp_path / "g.txt"
    save_augmented_graph(scenario.graph, path)
    cluster = workloads.WORKLOADS["cluster_table2"]
    graph = cluster.setup(path)
    assert isinstance(graph, CSRGraph) and graph.snapshot_path is not None
    outcome = cluster.solve(graph)
    assert workloads.check(cluster, graph, outcome) == []
    suspicious, rate, best_k = outcome.raw
    outcome.raw = (suspicious[1:], rate, best_k)
    assert workloads.check(cluster, graph, outcome)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_repeats_quality_and_counters(name):
    seconds = workloads.WORKLOADS[name].instance_s  # one timed instance
    first, second = (run.run_workload(name, 5, seconds, trace=True) for _ in "ab")
    for record in first, second:
        assert record["failed"] == 0, record["rows"]
        # The wrappers must not change what the program computes.
        for plain, traced in zip(record["rows"]["plain"], record["rows"]["traced"]):
            assert [plain[q] for q in QUALITY] == [traced[q] for q in QUALITY]
    for metric in QUALITY:
        assert first["end_to_end"][metric] == second["end_to_end"][metric]
    for counter in COUNTERS:
        assert first["per_layer"][counter] == second["per_layer"][counter]
    assert set(first["per_layer"]) == set(run.PER_LAYER)
    trace = json.loads((run.ROOT / first["trace_file"]).read_text())
    assert {event["ph"] for event in trace["traceEvents"]} == {"X"}


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, a run exits non-zero
    and prints no result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "rejecto_flat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
