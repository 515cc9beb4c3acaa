"""Tests for the operator-facing CLI commands (detect extras,
shard-detect)."""

import io as iomod
import random

import pytest

from repro.attacks import (
    CompromiseEvent,
    ScenarioConfig,
    TimelineConfig,
    build_scenario,
    simulate_timeline,
)
from repro.cli import _run_command, build_parser, main
from repro.core import AugmentedSocialGraph, WeightedCSRGraph
from repro.core.storage import MAGIC, save_snapshot
from repro.graphgen import powerlaw_cluster
from repro.io import save_augmented_graph


def run_cli(argv):
    args = build_parser().parse_args(argv)
    out = iomod.StringIO()
    _run_command(args, out=out)
    return out.getvalue()


class TestDetectExtras:
    def test_forensics_flag(self, tmp_path):
        scenario = build_scenario(
            ScenarioConfig(num_legit=200, num_fakes=40, seed=81)
        )
        path = tmp_path / "g.txt"
        save_augmented_graph(scenario.graph, path)
        output = run_cli(
            ["detect", "--graph", str(path), "--estimated", "40", "--forensics"]
        )
        assert "Detection forensics" in output
        assert "rejections" in output


class TestShardDetect:
    def test_end_to_end(self, tmp_path):
        rng = random.Random(82)
        base = powerlaw_cluster(300, 4.0, 0.68, rng)
        hijacked = sorted(rng.sample(range(300), 20))
        timeline = simulate_timeline(
            base,
            [CompromiseEvent(u, 1) for u in hijacked],
            TimelineConfig(num_days=3, spam_daily_requests=15),
            rng,
        )
        paths = []
        for day, shard in enumerate(timeline.daily_shards()):
            path = tmp_path / f"day{day}.txt"
            save_augmented_graph(shard, path)
            paths.append(str(path))
        output = run_cli(
            [
                "shard-detect",
                "--graphs",
                *paths,
                "--estimated",
                "20",
                "--threshold",
                "0.6",
            ]
        )
        assert "interval 0: flagged 0" in output
        assert "interval 1: flagged" in output
        assert "total distinct accounts flagged:" in output
        # The onset interval reports first-time flags.
        assert "first-time: 0)" in output.splitlines()[0]

    def test_requires_graphs(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["shard-detect"])


class TestInputErrors:
    """Unreadable or malformed graph inputs end the run with one
    ``rejecto: error:`` line on stderr and exit code 2, not a
    traceback."""

    @staticmethod
    def write_input(tmp_path, kind):
        path = tmp_path / f"{kind}.txt"
        if kind == "malformed":
            path.write_text("F 0 1\nF 0 x\n")
        elif kind == "truncated_snapshot":
            path.write_bytes(MAGIC + b"\x01")
        elif kind == "weighted_flags_without_int64":
            # A weighted snapshot (flags 7) with its int64 bit cleared.
            csr = AugmentedSocialGraph.from_edges(4, [(0, 1)], [(2, 3)]).csr()
            save_snapshot(WeightedCSRGraph.from_unit(csr), path)
            raw = bytearray(path.read_bytes())
            raw[16:24] = (5).to_bytes(8, "little")
            path.write_bytes(bytes(raw))
        return path

    @pytest.mark.parametrize("command", ["detect", "multilevel"])
    @pytest.mark.parametrize(
        "kind, message",
        [
            ("missing", "No such file"),
            ("malformed", "malformed.txt:2"),
            ("truncated_snapshot", "truncated"),
            ("weighted_flags_without_int64", "invalid flags"),
        ],
    )
    def test_clean_error_and_exit_code(
        self, tmp_path, capsys, command, kind, message
    ):
        path = self.write_input(tmp_path, kind)
        assert main([command, "--graph", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("rejecto: error: ")
        assert message in lines[0]
