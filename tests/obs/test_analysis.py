"""End-to-end tests: trace file -> summarize/diff -> CLI output."""

import json

import pytest

from repro.obs.analysis import diff_summaries, output_port_name, summarize_trace
from repro.obs.cli import main as obs_main
from repro.obs.sink import JsonlSink
from repro.obs.telemetry import Telemetry
from repro.sim.config import NetworkConfig, SimulationConfig, TrafficConfig
from repro.sim.timing_model import NetworkSimulator


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """One real timing-model trace, shared by the read-only tests."""
    path = tmp_path_factory.mktemp("traces") / "run.jsonl"
    config = SimulationConfig(
        network=NetworkConfig(width=2, height=2),
        traffic=TrafficConfig(injection_rate=0.02),
        warmup_cycles=200,
        measure_cycles=1_500,
        seed=3,
    )
    telemetry = Telemetry(sink=JsonlSink(path))
    NetworkSimulator(config, telemetry=telemetry).run()
    return path


class TestSummarize:
    def test_manifest_and_counters_round_trip(self, trace_path):
        summary = summarize_trace(trace_path)
        assert summary.algorithm == "SPAA-base"
        assert summary.manifest.seed == 3
        counts = summary.arbitration_counts()
        assert "SPAA-base" in counts
        spaa = counts["SPAA-base"]
        assert spaa["grants"] > 0
        assert spaa["nominations"] >= spaa["grants"]
        assert spaa["conflicts"] == spaa["nominations"] - spaa["grants"]

    def test_event_counts_and_wall_time(self, trace_path):
        summary = summarize_trace(trace_path)
        assert summary.event_counts["inject"] > 0
        assert summary.event_counts["deliver"] > 0
        assert summary.wall_time_s is not None and summary.wall_time_s > 0

    def test_port_utilization_is_sane(self, trace_path):
        summary = summarize_trace(trace_path)
        per_output = summary.utilization_by_output()
        assert per_output
        for mean_util, max_util in per_output.values():
            assert 0.0 <= mean_util <= max_util <= 1.0

    def test_mean_latency_from_histogram(self, trace_path):
        summary = summarize_trace(trace_path)
        latency = summary.mean_latency_cycles()
        assert latency is not None and latency > 0

    def test_schema_mismatch_rejected(self, tmp_path, trace_path):
        bad = tmp_path / "bad.jsonl"
        records = []
        with trace_path.open() as handle:
            for line in handle:
                records.append(json.loads(line))
        records[0]["schema_version"] = 999
        bad.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        with pytest.raises(ValueError, match="schema"):
            summarize_trace(bad)
        # non-strict readers still get the aggregates
        summary = summarize_trace(bad, strict_schema=False)
        assert summary.arbitration_counts()

    def test_torn_final_line_is_reported_not_fatal(self, tmp_path, trace_path):
        # a killed worker's trace: intact records, then one cut mid-write
        lines = trace_path.read_text().splitlines(keepends=True)
        torn = tmp_path / "torn.jsonl"
        torn.write_text("".join(lines[:40]) + lines[40][:12])
        summary = summarize_trace(torn)
        assert summary.truncated and summary.as_dict()["truncated"]
        assert sum(summary.event_counts.values()) == 39  # 40 minus manifest
        assert "truncated" not in summary.event_counts
        assert not summarize_trace(trace_path).truncated

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            summarize_trace(tmp_path / "nope.jsonl")


class TestDiff:
    def test_diff_of_identical_traces_is_flat(self, trace_path):
        a = summarize_trace(trace_path)
        b = summarize_trace(trace_path)
        deltas = diff_summaries(a, b)
        assert deltas
        for delta in deltas:
            assert delta.delta == 0


class TestOutputPortName:
    def test_known_and_unknown(self):
        assert output_port_name(0) == "NORTH"
        assert output_port_name(42) == "42"


class TestCli:
    def test_summarize_renders_tables(self, trace_path, capsys):
        assert obs_main(["summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "Arbitration counters" in out
        assert "SPAA-base" in out
        assert "utilization" in out

    def test_diff_command(self, trace_path, capsys):
        assert obs_main(["diff", str(trace_path), str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "B vs A" in out

    def test_ports_command(self, trace_path, capsys):
        assert obs_main(["ports", str(trace_path), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "busy cycles" in out

    def test_missing_trace_returns_error(self, tmp_path, capsys):
        assert obs_main(["summarize", str(tmp_path / "gone.jsonl")]) == 1
        assert "repro obs" in capsys.readouterr().err

    def test_summarize_survives_a_torn_tail_but_not_a_corrupt_middle(
        self, tmp_path, capsys
    ):
        grant = (
            '{"time":1.0,"node":0,"row":1,"packet":2,"output":3,'
            '"busy_cycles":4.0,"kind":"grant"}\n'
        )
        torn = tmp_path / "torn.jsonl"
        torn.write_text(grant + '{"kind":"gra')
        assert obs_main(["summarize", str(torn)]) == 0
        assert "truncated: torn final line" in capsys.readouterr().out
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text(grant + '{"kind":"gra\n' + grant)
        assert obs_main(["summarize", str(corrupt)]) == 1
        assert "corrupt.jsonl:2" in capsys.readouterr().err

    def test_output_flag_writes_file(self, trace_path, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert (
            obs_main(["summarize", str(trace_path), "--output", str(target)])
            == 0
        )
        assert "Arbitration counters" in target.read_text()

    def test_experiments_cli_delegates_obs(self, trace_path, capsys):
        from repro.experiments.cli import main as experiments_main

        assert experiments_main(["obs", "summarize", str(trace_path)]) == 0
        assert "Arbitration counters" in capsys.readouterr().out
