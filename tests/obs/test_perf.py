"""Tests for the benchmark perf-record subsystem (repro.obs.perf)."""

from __future__ import annotations

import json

import pytest

from repro.obs.analysis import MetricDelta
from repro.obs.cli import main as obs_main
from repro.obs.perf import (
    AreaRecord,
    BenchMetric,
    BenchRecord,
    PerfRecorder,
    PerfSession,
    bench_filename,
    diff_area_records,
    machine_fingerprint,
)


def _record(
    area: str = "arbiters",
    run_id: str = "run-a",
    wall_s: float = 1.0,
    metric_value: float = 100.0,
) -> AreaRecord:
    return AreaRecord(
        area=area,
        run_id=run_id,
        created_at="2026-08-07T00:00:00+00:00",
        git_sha="deadbeef",
        preset="smoke",
        fingerprint=machine_fingerprint(),
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
        for _ in range(2):  # a repeated block accumulates into one phase
            with recorder.phase("arbitration"):
                pass
        recorder.note(context="abc")
        record = recorder.finish(wall_s=1.25)
        assert record.wall_s == 1.25
        assert record.metric("ops_per_s").value == 20.0
        (phase,) = record.phases
        assert set(phase) == {"name", "seconds", "samples"}
        assert phase["name"] == "arbitration" and phase["samples"] == 2
        assert phase["seconds"] >= 0.0
        assert record.extra == {"context": "abc"}

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
        arbiters = AreaRecord.load(tmp_path / "BENCH_arbiters.json")
        assert arbiters.run_id == figures.run_id
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "BENCH_arbiters.json", "BENCH_figures.json"
        ]

    def test_session_keeps_unmapped_modules(self, tmp_path):
        session = PerfSession()
        recorder = PerfRecorder("test_z", "bench_novel")
        recorder.metric("m", 1.0)
        session.add(recorder.finish(0.1))
        assert session.unmapped_modules == {"bench_novel"}
        (path,) = session.write(tmp_path)
        assert path.name == "BENCH_novel.json"


def _session(*names: str, module: str = "bench_figure10") -> PerfSession:
    session = PerfSession()
    for name in names:
        session.add(PerfRecorder(name, module).finish(0.5))
    return session


class TestPartialRunKeepsTheAreaFile:
    @pytest.mark.parametrize(
        "ran, count, missing",
        [
            (("test_b",), 1, "test_a, test_c"),
            (("test_a", "test_b", "test_renamed"), 2, "test_c"),
        ],
        ids=["subset", "renamed-bench"],
    )
    def test_partial_run_leaves_the_file_alone_and_says_so(
        self, tmp_path, ran, count, missing
    ):
        _session("test_a", "test_b", "test_c").write(tmp_path)
        path = tmp_path / "BENCH_figures.json"
        before = path.read_bytes()
        partial = _session(*ran)
        assert partial.write(tmp_path) == []
        assert path.read_bytes() == before
        assert partial.kept == [
            f"BENCH_figures.json kept - partial run ({count} of 3 benches; "
            f"not run: {missing})"
        ]

    def test_superset_run_rewrites_the_file(self, tmp_path):
        first = _session("test_a", "test_b")
        first.write(tmp_path)
        path = tmp_path / "BENCH_figures.json"
        old_run = AreaRecord.load(path).run_id
        bigger = _session("test_a", "test_b", "test_new")
        assert bigger.write(tmp_path) == [path]
        assert bigger.kept == []
        record = AreaRecord.load(path)
        assert [b.name for b in record.benches] == [
            "test_a", "test_b", "test_new"
        ]
        assert record.run_id != old_run

    def test_other_areas_of_the_same_session_are_still_written(self, tmp_path):
        _session("test_a", "test_b").write(tmp_path)
        session = _session("test_a")
        session.add(PerfRecorder("test_k", "bench_kernels").finish(0.1))
        (written,) = session.write(tmp_path)
        assert written.name == "BENCH_kernels.json"
        assert len(session.kept) == 1


class TestCollectedBenches:
    """A bench no longer collected is gone; one collected but not run is
    a partial run.  Replays ``BENCH_overhead.json`` after one of its
    benches was deleted: four records on file plus the deleted one."""

    ON_FILE = [
        ("bench_obs_overhead", "test_counters_only_overhead_is_moderate"),
        ("bench_obs_overhead", "test_disabled_telemetry_overhead_under_two_percent"),
        ("bench_obs_overhead", "test_event_tracing_runs_and_reports"),
        ("bench_resilience_overhead", "test_detached_resilience_overhead_under_two_percent"),
        ("bench_resilience_overhead", "test_guarded_run_overhead_is_moderate"),
    ]
    DELETED = ON_FILE[1]
    COLLECTED = set(ON_FILE) - {DELETED}

    @staticmethod
    def session(benches) -> PerfSession:
        session = PerfSession()
        for module, name in benches:
            session.add(PerfRecorder(name, module).finish(0.5))
        return session

    @pytest.fixture
    def path(self, tmp_path):
        self.session(self.ON_FILE).write(tmp_path)
        return tmp_path / "BENCH_overhead.json"

    def test_a_full_run_drops_the_deleted_bench(self, path):
        full = self.session(sorted(self.COLLECTED))
        assert full.write(path.parent, collected=self.COLLECTED) == [path]
        assert full.kept == []
        assert sorted(
            (b.module, b.name) for b in AreaRecord.load(path).benches
        ) == sorted(self.COLLECTED)

    def test_without_collected_names_the_stale_bench_keeps_the_file(self, path):
        full = self.session(sorted(self.COLLECTED))
        assert full.write(path.parent) == []
        assert full.kept == [
            "BENCH_overhead.json kept - partial run (4 of 5 benches; not run: "
            "test_disabled_telemetry_overhead_under_two_percent)"
        ]

    def test_a_deselected_run_is_still_kept(self, path):
        """``-k``: every bench is collected, one of them runs."""
        before = path.read_bytes()
        selected = self.session([self.ON_FILE[0]])
        assert selected.write(path.parent, collected=self.COLLECTED) == []
        assert path.read_bytes() == before
        assert selected.kept == [
            "BENCH_overhead.json kept - partial run (1 of 4 benches; not run: "
            "test_detached_resilience_overhead_under_two_percent, "
            "test_event_tracing_runs_and_reports, "
            "test_guarded_run_overhead_is_moderate)"
        ]

    def test_benches_of_a_module_not_collected_keep_the_file(self, path):
        """One module run alone leaves its area-mates' records alone."""
        obs = {bench for bench in self.COLLECTED if bench[0] == "bench_obs_overhead"}
        one_module = self.session(sorted(obs))
        assert one_module.write(path.parent, collected=obs) == []
        assert one_module.kept == [
            "BENCH_overhead.json kept - partial run (2 of 4 benches; not run: "
            "test_detached_resilience_overhead_under_two_percent, "
            "test_guarded_run_overhead_is_moderate)"
        ]


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


class TestCli:
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

    def test_perf_report_renders_bench_records(self, tmp_path, capsys):
        _record(run_id="base").write(tmp_path / bench_filename("arbiters"))
        _record(area="kernels", run_id="base").write(
            tmp_path / bench_filename("kernels")
        )
        assert obs_main(["perf", "report", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Bench records" in out
        assert "arbiters" in out and "kernels" in out and "ops_per_s=100" in out
        assert obs_main([
            "perf", "report", "--root", str(tmp_path), "--area", "kernels",
            "--json",
        ]) == 0
        (only,) = json.loads(capsys.readouterr().out)
        assert only["area"] == "kernels"

    def test_perf_report_without_records_says_so(self, tmp_path, capsys):
        assert obs_main(["perf", "report", "--root", str(tmp_path)]) == 0
        assert "no BENCH_*.json" in capsys.readouterr().out

    def test_missing_git_sha_renders_as_a_dash(self, tmp_path, capsys):
        record = _record()
        record.git_sha = None  # git_sha() outside a checkout
        record.write(tmp_path / bench_filename("arbiters"))
        assert AreaRecord.load(tmp_path / bench_filename("arbiters")).git_sha is None
        assert obs_main(["perf", "report", "--root", str(tmp_path)]) == 0
        (row,) = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("arbiters  2026-08-07")
        ]
        assert row.split()[2] == "-"

    @pytest.mark.parametrize(
        "breakage", ["no-area", "no-wall_s", "no-phase-seconds", "not-json"]
    )
    def test_malformed_record_is_an_error_exit_naming_the_file(
        self, tmp_path, capsys, breakage
    ):
        data = _record().to_dict()
        if breakage == "no-area":
            del data["area"]
        elif breakage == "no-wall_s":
            del data["benches"][0]["wall_s"]
        elif breakage == "no-phase-seconds":
            del data["benches"][0]["phases"][0]["seconds"]
        path = tmp_path / bench_filename("arbiters")
        path.write_text(
            "{torn" if breakage == "not-json" else json.dumps(data), "utf-8"
        )
        good = tmp_path / "good.json"
        _record().write(good)
        for argv in (
            ["perf", "report", "--root", str(tmp_path)],
            ["perf", "diff", str(path), str(good)],
            ["perf", "diff", str(good), str(path)],
        ):
            assert obs_main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "repro obs:" in captured.err and str(path) in captured.err

    def test_missing_record_file_is_an_error_exit(self, tmp_path, capsys):
        assert obs_main([
            "perf", "diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")
        ]) == 1
        assert "repro obs:" in capsys.readouterr().err
