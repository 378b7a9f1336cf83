"""Tests for the benchmark perf-record subsystem (repro.obs.perf)."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.obs.analysis import MetricDelta
from repro.obs.cli import main as obs_main
from repro.obs.perf import (
    AreaRecord,
    BenchMetric,
    BenchRecord,
    PerfRecorder,
    PerfSession,
    append_history,
    baseline_for,
    bench_filename,
    check_bench_coverage,
    diff_area_records,
    gate_area,
    load_history,
    machine_fingerprint,
    run_gate,
)
from repro.obs.profiler import PhaseProfiler

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def _record(
    area: str = "arbiters",
    run_id: str = "run-a",
    preset: str = "smoke",
    wall_s: float = 1.0,
    metric_value: float = 100.0,
    fingerprint: dict | None = None,
) -> AreaRecord:
    return AreaRecord(
        area=area,
        run_id=run_id,
        created_at="2026-08-07T00:00:00+00:00",
        git_sha="deadbeef",
        preset=preset,
        fingerprint=fingerprint or machine_fingerprint(),
        benches=[
            BenchRecord(
                name="test_speed",
                module=f"bench_{area}",
                wall_s=wall_s,
                metrics=(
                    BenchMetric("ops_per_s", metric_value, unit="ops/s"),
                ),
                phases=({"name": "arbitration", "seconds": wall_s, "samples": 1},),
            )
        ],
    )


class TestRecordRoundTrip:
    def test_area_record_round_trips_through_dict(self):
        record = _record()
        clone = AreaRecord.from_dict(record.to_dict())
        assert clone == record

    def test_area_record_round_trips_through_file(self, tmp_path):
        record = _record()
        path = tmp_path / bench_filename(record.area)
        record.write(path)
        assert AreaRecord.load(path) == record

    def test_bench_record_extra_survives(self):
        bench = BenchRecord(
            name="t", module="bench_x", wall_s=0.5,
            extra={"overhead_fraction": -0.003},
        )
        assert BenchRecord.from_dict(bench.to_dict()).extra == {
            "overhead_fraction": -0.003
        }


class TestRecorderAndSession:
    def test_recorder_builds_record_with_metrics_and_phases(self):
        recorder = PerfRecorder("test_x", "bench_arbiters")
        recorder.metric("ops_per_s", 10.0, unit="ops/s")
        recorder.metric("ops_per_s", 20.0, unit="ops/s")  # replaces
        with recorder.phase("arbitration"):
            pass
        recorder.note(context="abc")
        record = recorder.finish(wall_s=1.25)
        assert record.wall_s == 1.25
        assert record.metric("ops_per_s").value == 20.0
        assert [p["name"] for p in record.phases] == ["arbitration"]
        assert record.extra == {"context": "abc"}

    def test_recorder_merges_external_profiler_and_records(self):
        recorder = PerfRecorder("test_x", "bench_figure10")
        source = PhaseProfiler(enabled=True)
        began = source.begin()
        source.add("traversal", began)
        recorder.merge_profile(source)
        recorder.merge_profile(
            {"phases": [{"name": "traversal", "seconds": 1.0, "samples": 3}]}
        )
        record = recorder.finish(wall_s=0.1)
        (phase,) = record.phases
        assert phase["name"] == "traversal"
        assert phase["samples"] == 4

    def test_session_routes_modules_to_areas_and_writes(self, tmp_path):
        session = PerfSession(preset="smoke")
        for module in ("bench_arbiters", "bench_figure8", "bench_figure10"):
            recorder = PerfRecorder("test_y", module)
            recorder.metric("m", 1.0)
            session.add(recorder.finish(0.5))
        paths = session.write(tmp_path)
        assert sorted(p.name for p in paths) == [
            "BENCH_arbiters.json", "BENCH_figures.json"
        ]
        figures = AreaRecord.load(tmp_path / "BENCH_figures.json")
        assert len(figures.benches) == 2
        history = load_history(tmp_path / "results" / "perf" / "history.jsonl")
        assert [r.area for r in history] == ["arbiters", "figures"]
        assert history[0].run_id == history[1].run_id

    def test_session_keeps_unmapped_modules(self, tmp_path):
        session = PerfSession()
        recorder = PerfRecorder("test_z", "bench_novel")
        recorder.metric("m", 1.0)
        session.add(recorder.finish(0.1))
        assert session.unmapped_modules == {"bench_novel"}
        (path,) = session.write(tmp_path)
        assert path.name == "BENCH_novel.json"


class TestProfilerMerge:
    def test_merge_adds_seconds_and_samples(self):
        a = PhaseProfiler(enabled=True)
        b = PhaseProfiler(enabled=True)
        for profiler in (a, b):
            began = profiler.begin()
            profiler.add("arbitration", began)
        a.merge(b)
        (summary,) = a.summaries()
        assert summary.samples == 2

    def test_record_round_trip(self):
        a = PhaseProfiler(enabled=True)
        began = a.begin()
        a.add("delivery", began)
        clone = PhaseProfiler.from_record(a.to_record())
        assert clone.to_record()["phases"] == a.to_record()["phases"]

    def test_merge_record_accumulates_into_existing_phase(self):
        a = PhaseProfiler(enabled=True)
        a.merge_record(
            {"phases": [{"name": "delivery", "seconds": 2.0, "samples": 5}]}
        )
        a.merge_record(
            {"phases": [{"name": "delivery", "seconds": 1.0, "samples": 1}]}
        )
        (summary,) = a.summaries()
        assert summary.seconds == pytest.approx(3.0)
        assert summary.samples == 6


class TestHistoryAndBaseline:
    def test_append_and_load_history(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history(path, _record(run_id="one").to_dict())
        append_history(path, _record(run_id="two").to_dict())
        assert [r.run_id for r in load_history(path)] == ["one", "two"]
        assert load_history(tmp_path / "missing.jsonl") == []

    def test_baseline_prefers_latest_comparable(self):
        current = _record(run_id="now")
        history = [
            _record(run_id="old", metric_value=50.0),
            _record(run_id="newer", metric_value=75.0),
            _record(run_id="now"),  # same run: excluded
            _record(run_id="other-preset", preset="fast"),
            _record(
                run_id="other-machine",
                fingerprint={**machine_fingerprint(), "cpu_count": 999},
            ),
        ]
        baseline = baseline_for(current, history)
        assert baseline is not None and baseline.run_id == "newer"

    def test_no_comparable_baseline(self):
        current = _record(run_id="now")
        other = _record(
            run_id="other",
            fingerprint={**machine_fingerprint(), "python": "0.0.0"},
        )
        assert baseline_for(current, [other, current]) is None


class TestDiff:
    def test_diff_covers_wall_and_metrics(self):
        deltas = diff_area_records(
            _record(run_id="a", wall_s=1.0, metric_value=100.0),
            _record(run_id="b", wall_s=2.0, metric_value=50.0),
        )
        by_name = {d.name: d for d in deltas}
        assert by_name["test_speed.wall_s"].delta == pytest.approx(1.0)
        assert by_name["test_speed.ops_per_s"].relative == pytest.approx(-0.5)

    def test_one_sided_bench_reads_zero_and_renders_na(self):
        left = _record(run_id="a")
        right = _record(run_id="b")
        right.benches[0].name = "test_other"
        deltas = {d.name: d for d in diff_area_records(left, right)}
        missing = deltas["test_other.wall_s"]
        assert missing.a == 0.0
        assert missing.relative is None
        assert missing.relative_text == "n/a"

    def test_metric_delta_zero_baseline_is_na_everywhere(self):
        delta = MetricDelta("m", 0.0, 3.0)
        assert delta.relative is None
        assert delta.relative_text == "n/a"
        assert delta.as_dict()["relative"] is None
        assert json.loads(json.dumps(delta.as_dict()))["relative"] is None

    def test_metric_delta_nonzero_baseline_formats_percent(self):
        assert MetricDelta("m", 2.0, 3.0).relative_text == "+50.0%"


class TestGate:
    def test_identical_records_pass(self):
        current = _record(run_id="now")
        baseline = _record(run_id="base")
        assert gate_area(current, baseline, tolerance=0.5) == []

    def test_drift_within_tolerance_passes(self):
        current = _record(run_id="now", wall_s=1.3, metric_value=80.0)
        baseline = _record(run_id="base", wall_s=1.0, metric_value=100.0)
        assert gate_area(current, baseline, tolerance=0.5) == []

    def test_two_x_slowdown_fails_both_directions(self):
        current = _record(run_id="now", wall_s=2.0, metric_value=40.0)
        baseline = _record(run_id="base", wall_s=1.0, metric_value=100.0)
        violations = gate_area(current, baseline, tolerance=0.5)
        assert {v.metric for v in violations} == {"wall_s", "ops_per_s"}
        for violation in violations:
            assert violation.regression == pytest.approx(1.0 if
                violation.metric == "wall_s" else 0.6)
            assert "regressed" in violation.describe()

    def test_regression_exactly_at_tolerance_passes(self):
        # The band is inclusive: a halved throughput is regression 0.5,
        # not beyond it, so tolerance 0.5 lets it through.
        current = _record(run_id="now", metric_value=50.0)
        baseline = _record(run_id="base", metric_value=100.0)
        assert gate_area(current, baseline, tolerance=0.5) == []

    @pytest.mark.parametrize(
        "module, metric",
        [("bench_service", "coordinator_overhead_fraction")],
    )
    def test_rising_overhead_fraction_fails_the_gate(self, module, metric):
        """An overhead is a cost: the benches must record it as
        lower-is-better, or the gate flags the improvement and waves
        the regression through."""
        source = (BENCHMARKS / f"{module}.py").read_text("utf-8")
        (call,) = [
            node
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "metric"
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == metric
        ]
        options = {k.arg: ast.literal_eval(k.value) for k in call.keywords}

        def area(overhead: float) -> AreaRecord:
            recorder = PerfRecorder("test_overhead", module)
            recorder.metric(metric, overhead, **options)
            record = _record(area="sweeps")
            record.benches = [recorder.finish(wall_s=1.0)]
            return record

        (violation,) = gate_area(area(0.10), area(0.02), tolerance=0.5)
        assert violation.metric == metric
        assert violation.regression == pytest.approx(4.0)
        assert gate_area(area(0.02), area(0.10), tolerance=0.5) == []

    def test_zero_baseline_metric_gates_nothing(self):
        current = _record(run_id="now", metric_value=1.0)
        baseline = _record(run_id="base", metric_value=0.0)
        assert gate_area(current, baseline) == []

    def test_run_gate_records_baseline_when_history_empty(self, tmp_path):
        _record(run_id="now").write(tmp_path / bench_filename("arbiters"))
        history_path = tmp_path / "history.jsonl"
        report = run_gate(root=tmp_path, history_path=history_path)
        assert report.ok
        assert report.statuses == {"arbiters": "baseline-recorded"}
        assert [r.run_id for r in load_history(history_path)] == ["now"]
        # Re-running the gate against the identical record passes "ok"
        # without appending a duplicate history line.
        again = run_gate(root=tmp_path, history_path=history_path)
        assert again.ok and again.statuses == {"arbiters": "baseline-recorded"}
        assert len(load_history(history_path)) == 1

    def test_run_gate_passes_identical_then_fails_doctored(self, tmp_path):
        history_path = tmp_path / "history.jsonl"
        append_history(history_path, _record(run_id="base").to_dict())
        record_path = tmp_path / bench_filename("arbiters")
        _record(run_id="now").write(record_path)
        report = run_gate(root=tmp_path, history_path=history_path)
        assert report.ok and report.statuses == {"arbiters": "ok"}
        # Synthetic 2x slowdown: the gate must trip.
        _record(run_id="now", wall_s=2.0, metric_value=50.0).write(record_path)
        report = run_gate(root=tmp_path, history_path=history_path)
        assert not report.ok
        assert report.statuses == {"arbiters": "regressed"}
        assert report.to_dict()["violations"]

    def test_run_gate_without_records_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no BENCH"):
            run_gate(root=tmp_path, history_path=tmp_path / "h.jsonl")


class TestCoverageCheck:
    GOOD = (
        "def test_speed(benchmark, perf_record):\n"
        "    perf_record.metric('ops_per_s', 1.0)\n"
    )

    def test_instrumented_module_passes(self, tmp_path):
        (tmp_path / "bench_good.py").write_text(self.GOOD)
        assert check_bench_coverage(tmp_path) == []

    def test_missing_fixture_is_reported(self, tmp_path):
        (tmp_path / "bench_bad.py").write_text("def test_speed(benchmark):\n    pass\n")
        (problem,) = check_bench_coverage(tmp_path)
        assert "perf_record fixture" in problem

    def test_missing_metric_is_reported(self, tmp_path):
        (tmp_path / "bench_bad.py").write_text(
            "def test_speed(perf_record):\n    pass\n"
        )
        (problem,) = check_bench_coverage(tmp_path)
        assert "metric" in problem

    def test_empty_dir_is_a_problem(self, tmp_path):
        (problem,) = check_bench_coverage(tmp_path)
        assert "no bench_*.py" in problem


class TestCli:
    def test_perf_gate_exit_codes(self, tmp_path, capsys):
        history_path = tmp_path / "history.jsonl"
        append_history(history_path, _record(run_id="base").to_dict())
        record_path = tmp_path / bench_filename("arbiters")
        _record(run_id="now").write(record_path)
        argv = [
            "perf", "gate", "--root", str(tmp_path),
            "--history", str(history_path),
        ]
        assert obs_main(argv) == 0
        assert "PASS" in capsys.readouterr().out
        _record(run_id="now", wall_s=2.0, metric_value=50.0).write(record_path)
        assert obs_main(argv) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "regressed" in out

    def test_perf_gate_json(self, tmp_path, capsys):
        record_path = tmp_path / bench_filename("arbiters")
        _record(run_id="now").write(record_path)
        code = obs_main([
            "perf", "gate", "--root", str(tmp_path),
            "--history", str(tmp_path / "history.jsonl"), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["statuses"] == {"arbiters": "baseline-recorded"}

    def test_perf_diff_json_renders_null_relative(self, tmp_path, capsys):
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        left = _record(run_id="a")
        right = _record(run_id="b")
        right.benches[0].name = "test_other"
        left.write(path_a)
        right.write(path_b)
        assert obs_main(["perf", "diff", str(path_a), str(path_b), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {d["name"]: d for d in payload["deltas"]}
        assert by_name["test_other.wall_s"]["relative"] is None

    def test_perf_diff_text_renders_na(self, tmp_path, capsys):
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        left = _record(run_id="a")
        right = _record(run_id="b")
        right.benches[0].name = "test_other"
        left.write(path_a)
        right.write(path_b)
        assert obs_main(["perf", "diff", str(path_a), str(path_b)]) == 0
        assert "n/a" in capsys.readouterr().out

    def test_perf_report_renders_history(self, tmp_path, capsys):
        history_path = tmp_path / "history.jsonl"
        append_history(history_path, _record(run_id="base").to_dict())
        assert obs_main([
            "perf", "report", "--root", str(tmp_path),
            "--history", str(history_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "Perf trajectory" in out and "arbiters" in out

    def test_perf_check_cli(self, tmp_path, capsys):
        (tmp_path / "bench_good.py").write_text(TestCoverageCheck.GOOD)
        assert obs_main(["perf", "check", str(tmp_path)]) == 0
        (tmp_path / "bench_bad.py").write_text("def test_speed():\n    pass\n")
        assert obs_main(["perf", "check", str(tmp_path)]) == 1
