"""Checkpointed sweeps: the journal, resume splicing, and retry logic."""

import json
import math

import pytest

from repro.resilience.checkpoint import SweepJournal, rate_key
from repro.resilience.faults import FaultConfig
from repro.resilience.invariants import InvariantConfig
from repro.resilience.watchdog import WatchdogConfig
from repro.sim.config import NetworkConfig, SimulationConfig, TrafficConfig
from repro.sim.metrics import BNFPoint
from repro.sim.sweep import SweepGuard, SweepPointError, sweep_algorithm


def tiny_config(seed: int = 3) -> SimulationConfig:
    return SimulationConfig(
        network=NetworkConfig(width=2, height=2),
        traffic=TrafficConfig(injection_rate=0.01),
        warmup_cycles=200,
        measure_cycles=800,
        seed=seed,
    )


def sample_point(rate: float = 0.01) -> BNFPoint:
    return BNFPoint(
        offered_rate=rate,
        throughput=0.125,
        latency_ns=42.5,
        transaction_latency_ns=120.0,
        packets_delivered=960,
    )


class TestRateKey:
    def test_distinct_floats_get_distinct_keys(self):
        assert rate_key(0.3) != rate_key(0.30000000000000004)

    def test_key_round_trips(self):
        for rate in (0.3, 0.30000000000000004, 1e-3, 0.045):
            assert float(rate_key(rate)) == rate


class TestSweepJournal:
    def test_success_round_trips_the_point(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.journal.jsonl")
        point = sample_point()
        journal.record_success("SPAA-base", 0.01, point, attempts=2)

        fresh = SweepJournal(journal.path)
        restored = fresh.completed_point("SPAA-base", 0.01)
        assert restored is not None
        assert restored.offered_rate == point.offered_rate
        assert restored.throughput == point.throughput
        assert restored.latency_ns == point.latency_ns
        assert restored.packets_delivered == point.packets_delivered

    def test_missing_file_is_empty(self, tmp_path):
        journal = SweepJournal(tmp_path / "absent.jsonl")
        assert journal.completed_point("PIM1", 0.01) is None
        assert journal.completed_count() == 0

    def test_latest_record_wins(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record_failure("PIM1", 0.02, attempt=1, error="boom")
        assert journal.completed_point("PIM1", 0.02) is None
        assert journal.failures()
        journal.record_success("PIM1", 0.02, sample_point(0.02))
        assert journal.completed_point("PIM1", 0.02) is not None
        assert not journal.failures()

    def test_float_twin_rates_are_distinct_points(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record_success("PIM1", 0.3, sample_point(0.3))
        assert journal.completed_point("PIM1", 0.30000000000000004) is None

    def test_corrupt_line_is_a_loud_error(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text('{"algorithm": "PIM1"\n')
        with pytest.raises(ValueError, match="corrupt journal line"):
            SweepJournal(path).load()

    def test_nan_latency_survives_the_round_trip(self, tmp_path):
        """Unsaturated smoke points can carry NaN transaction latency."""
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        point = BNFPoint(
            offered_rate=0.002, throughput=0.01, latency_ns=30.0,
            transaction_latency_ns=math.nan, packets_delivered=5,
        )
        journal.record_success("WFA-base", 0.002, point)
        restored = SweepJournal(journal.path).completed_point("WFA-base", 0.002)
        assert math.isnan(restored.transaction_latency_ns)


class TestOutcomeRecords:
    """The generic outcome API the chaos campaign journals through."""

    def test_outcome_round_trips(self, tmp_path):
        journal = SweepJournal(tmp_path / "campaign.jsonl")
        outcome = {"status": "deadlock", "digest": "abc123", "metrics": {}}
        journal.record_outcome("injected-deadlock", 6.0, outcome)

        fresh = SweepJournal(journal.path)
        assert fresh.outcome_for("injected-deadlock", 6.0) == outcome
        assert fresh.outcome_for("injected-deadlock", 7.0) is None

    def test_failing_outcome_still_counts_as_completed(self, tmp_path):
        """A failing scenario is completed campaign work: resume skips it."""
        journal = SweepJournal(tmp_path / "campaign.jsonl")
        journal.record_outcome("s001-aaaa", 1.0, {"status": "crash"})
        fresh = SweepJournal(journal.path)
        assert fresh.completed_count() == 1
        assert not fresh.failures()
        assert fresh.outcome_for("s001-aaaa", 1.0)["status"] == "crash"

    def test_outcome_for_ignores_sweep_points(self, tmp_path):
        journal = SweepJournal(tmp_path / "mixed.jsonl")
        journal.record_success("PIM1", 0.02, sample_point(0.02))
        assert journal.outcome_for("PIM1", 0.02) is None
        assert journal.completed_point("PIM1", 0.02) is not None

    def test_outcomes_survive_compaction(self, tmp_path):
        journal = SweepJournal(tmp_path / "campaign.jsonl")
        journal.record_outcome("s000-aaaa", 0.0, {"status": "ok", "v": 1})
        journal.record_outcome("s000-aaaa", 0.0, {"status": "ok", "v": 2})
        assert journal.compact() == 1
        assert SweepJournal(journal.path).outcome_for(
            "s000-aaaa", 0.0
        ) == {"status": "ok", "v": 2}


class TestCompaction:
    def test_compact_drops_superseded_records(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record_failure("PIM1", 0.02, attempt=1, error="boom")
        journal.record_failure("PIM1", 0.02, attempt=2, error="boom again")
        journal.record_success("PIM1", 0.02, sample_point(0.02), attempts=3)
        journal.record_success("WFA-base", 0.02, sample_point(0.02))
        assert journal.compact() == 2
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["status"] == "ok" for line in lines)

    def test_compact_replays_to_the_same_state(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record_failure("PIM1", 0.02, attempt=1, error="flaky")
        journal.record_success("PIM1", 0.02, sample_point(0.02), attempts=2)
        journal.record_failure("SPAA-base", 0.045, attempt=1, error="dead")
        before = SweepJournal(journal.path)
        before_point = before.completed_point("PIM1", 0.02)
        before_failures = before.failures()
        journal.compact()
        after = SweepJournal(journal.path)
        assert after.completed_point("PIM1", 0.02).as_dict() == (
            before_point.as_dict()
        )
        assert after.failures() == before_failures
        assert after.completed_count() == 1

    def test_compact_is_a_noop_when_nothing_to_drop(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record_success("PIM1", 0.02, sample_point(0.02))
        text_before = journal.path.read_text()
        assert journal.compact() == 0
        assert journal.path.read_text() == text_before

    def test_compact_on_a_missing_file_is_safe(self, tmp_path):
        assert SweepJournal(tmp_path / "absent.jsonl").compact() == 0

    def test_crash_in_the_rename_window_leaves_a_whole_journal(
        self, tmp_path, monkeypatch
    ):
        """Kill compaction at the worst moment: between the temp-file
        write and the atomic rename.  The journal must still be the
        complete pre-compaction file, and a retry must succeed."""
        import os

        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record_failure("PIM1", 0.02, attempt=1, error="boom")
        journal.record_success("PIM1", 0.02, sample_point(0.02), attempts=2)
        text_before = journal.path.read_text()

        real_replace = os.replace
        calls = {"n": 0}

        def crashy_replace(src, dst):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("simulated crash before rename")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", crashy_replace)
        with pytest.raises(OSError, match="simulated crash"):
            journal.compact()
        # Old journal intact; replaying it reconstructs the same state.
        assert journal.path.read_text() == text_before
        recovered = SweepJournal(journal.path)
        assert recovered.completed_point("PIM1", 0.02) is not None
        # The retry goes through and actually shrinks the file.
        assert recovered.compact() == 1
        assert len(journal.path.read_text().splitlines()) == 1

    def test_compact_fsyncs_the_directory_after_the_rename(
        self, tmp_path, monkeypatch
    ):
        """Durability ordering: the rename's directory entry is fsynced,
        and only after os.replace has happened."""
        import os

        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record_failure("PIM1", 0.02, attempt=1, error="boom")
        journal.record_success("PIM1", 0.02, sample_point(0.02))

        events: list[str] = []
        real_replace = os.replace
        real_fsync = os.fsync
        dir_fd_stats = {}

        def spy_replace(src, dst):
            events.append("replace")
            return real_replace(src, dst)

        def spy_fsync(fd):
            import stat

            if stat.S_ISDIR(os.fstat(fd).st_mode):
                events.append("fsync-dir")
                dir_fd_stats["ino"] = os.fstat(fd).st_ino
            return real_fsync(fd)

        monkeypatch.setattr(os, "replace", spy_replace)
        monkeypatch.setattr(os, "fsync", spy_fsync)
        assert journal.compact() == 1
        assert "fsync-dir" in events
        assert events.index("fsync-dir") > events.index("replace")
        assert dir_fd_stats["ino"] == os.stat(tmp_path).st_ino

    def test_directory_fsync_failure_is_not_fatal(self, tmp_path, monkeypatch):
        """Platforms that cannot fsync a directory still compact."""
        from repro.resilience import checkpoint

        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record_failure("PIM1", 0.02, attempt=1, error="boom")
        journal.record_success("PIM1", 0.02, sample_point(0.02))

        def refuse(path, flags):
            raise OSError("directories not openable here")

        monkeypatch.setattr(checkpoint.os, "open", refuse)
        assert journal.compact() == 1
        assert len(journal.path.read_text().splitlines()) == 1

    def test_compacted_journal_preserves_resume_semantics(self, tmp_path):
        """A retried-then-compacted journal resumes exactly like the
        uncompacted one: completed points splice, failed points re-run."""
        journal_path = tmp_path / "sweep.jsonl"
        invariants = InvariantConfig(
            check_interval_cycles=100.0, max_wait_cycles=1e-9
        )
        with pytest.raises(SweepPointError):
            sweep_algorithm(
                tiny_config(),
                rates=(0.005, 0.02),
                invariants=invariants,
                journal=SweepJournal(journal_path),
                max_attempts=2,
            )
        full = sweep_algorithm(
            tiny_config(),
            rates=(0.005,),
            journal=SweepJournal(journal_path),
        )
        SweepJournal(journal_path).compact()
        resumed = sweep_algorithm(
            tiny_config(),
            rates=(0.005, 0.02),
            journal=SweepJournal(journal_path),
            resume=True,
        )
        assert resumed.points[0].as_dict() == full.points[0].as_dict()
        assert [p.offered_rate for p in resumed.points] == [0.005, 0.02]

    def test_successful_resume_compacts_the_journal(self, tmp_path):
        """The sweep runners call compact() after a completed resume."""
        journal_path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(journal_path)
        journal.record_failure("PIM1", 0.005, attempt=1, error="flaky once")
        sweep_algorithm(
            tiny_config().with_algorithm("PIM1"),
            rates=(0.005,),
            journal=journal,
            resume=True,
        )
        lines = journal_path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["status"] == "ok"


class TestSweepResume:
    def test_resume_splices_journalled_points(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        config = tiny_config()
        first = sweep_algorithm(
            config, rates=(0.005, 0.02), journal=SweepJournal(journal_path)
        )
        lines_after_first = journal_path.read_text().count("\n")

        progress: list[str] = []
        resumed = sweep_algorithm(
            config,
            rates=(0.005, 0.02),
            progress=progress.append,
            journal=SweepJournal(journal_path),
            resume=True,
        )
        # No new journal lines: nothing re-ran.
        assert journal_path.read_text().count("\n") == lines_after_first
        assert sum("resumed from journal" in line for line in progress) == 2
        assert [p.as_dict() for p in resumed.points] == [
            p.as_dict() for p in first.points
        ]

    def test_resume_runs_only_the_missing_points(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        config = tiny_config()
        sweep_algorithm(
            config, rates=(0.005,), journal=SweepJournal(journal_path)
        )
        curve = sweep_algorithm(
            config,
            rates=(0.005, 0.02),
            journal=SweepJournal(journal_path),
            resume=True,
        )
        assert [p.offered_rate for p in curve.points] == [0.005, 0.02]
        records = [
            json.loads(line)
            for line in journal_path.read_text().splitlines()
        ]
        assert [r["rate"] for r in records] == [0.005, 0.02]


class TestRetries:
    def test_failures_are_journalled_then_raised(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        # An impossible invariant bound: every buffered packet is
        # instantly "too old", so every attempt fails.
        invariants = InvariantConfig(
            check_interval_cycles=100.0, max_wait_cycles=1e-9
        )
        with pytest.raises(SweepPointError) as excinfo:
            sweep_algorithm(
                tiny_config(),
                rates=(0.02,),
                invariants=invariants,
                journal=SweepJournal(journal_path),
                max_attempts=2,
            )
        assert excinfo.value.attempts == 2
        records = [
            json.loads(line)
            for line in journal_path.read_text().splitlines()
        ]
        assert [r["status"] for r in records] == ["failed", "failed"]
        assert [r["attempt"] for r in records] == [1, 2]
        assert "invariant" in records[0]["error"]

    def test_max_attempts_validated(self):
        with pytest.raises(ValueError):
            sweep_algorithm(tiny_config(), rates=(0.01,), max_attempts=0)

    def test_guarded_point_records_resilience_summary(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        sweep_algorithm(
            tiny_config(),
            rates=(0.02,),
            faults=FaultConfig(seed=5, flit_drop_rate=2e-3),
            invariants=InvariantConfig(),
            watchdog=WatchdogConfig(window_cycles=500.0),
            journal=SweepJournal(journal_path),
        )
        record = json.loads(journal_path.read_text().splitlines()[0])
        resilience = record["resilience"]
        assert resilience["drained_clean"] is True
        assert resilience["invariant_violations"] == 0
        assert resilience["packets_dropped"] == 0
        assert resilience["link_retries"] == resilience["faults_injected"]


class TestSweepGuard:
    def test_scoped_derives_per_panel_journals(self, tmp_path):
        guard = SweepGuard(journal_path=tmp_path)
        scoped = guard.scoped("4x4_random")
        assert scoped.journal_path == tmp_path / "4x4_random.journal.jsonl"
        # No journal directory: scoping is a no-op.
        assert SweepGuard().scoped("4x4_random") == SweepGuard()

    def test_scoped_derives_per_panel_trace_dirs(self, tmp_path):
        scoped = SweepGuard(
            journal_path=tmp_path / "j", telemetry_dir=tmp_path / "t"
        ).scoped("fig11b")
        assert scoped.journal_path == tmp_path / "j" / "fig11b.journal.jsonl"
        assert scoped.telemetry_dir == tmp_path / "t" / "fig11b"
        unset = SweepGuard(max_attempts=2).scoped("fig11b")
        assert unset.journal_path is None and unset.telemetry_dir is None

    def test_sweep_kwargs_builds_a_journal(self, tmp_path):
        guard = SweepGuard(
            faults=FaultConfig(seed=1, flit_drop_rate=1e-3),
            journal_path=tmp_path / "x.jsonl",
            resume=True,
            max_attempts=3,
        )
        kwargs = guard.sweep_kwargs()
        assert isinstance(kwargs["journal"], SweepJournal)
        assert kwargs["resume"] is True
        assert kwargs["max_attempts"] == 3
        assert kwargs["faults"] is guard.faults

    def test_unguarded_sweep_unchanged_by_empty_guard(self):
        kwargs = SweepGuard().sweep_kwargs()
        assert kwargs["journal"] is None
        assert kwargs["faults"] is None


class TestTornTail:
    """Crash-mid-append recovery: salvage the tail, never mid-file rot."""

    def seeded_journal(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record_success("PIM1", 0.01, sample_point(0.01))
        journal.record_success("SPAA-base", 0.02, sample_point(0.02))
        return journal

    def test_torn_final_line_is_salvaged(self, tmp_path):
        journal = self.seeded_journal(tmp_path)
        with journal.path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "sweep-point", "status": "ok", "alg')
        fresh = SweepJournal(journal.path)
        fresh.load()
        assert fresh.salvaged_tail is not None
        assert fresh.salvaged_tail.startswith('{"kind"')
        # The intact prefix loads; the in-flight point simply retries.
        assert fresh.completed_point("PIM1", 0.01) is not None
        assert fresh.completed_point("SPAA-base", 0.02) is not None
        assert fresh.completed_count() == 2

    def test_next_append_discards_the_torn_tail(self, tmp_path):
        journal = self.seeded_journal(tmp_path)
        with journal.path.open("a", encoding="utf-8") as handle:
            handle.write('{"torn": tru')
        fresh = SweepJournal(journal.path)
        fresh.record_success("WFA-base", 0.03, sample_point(0.03))
        # The file is valid JSONL again: the torn bytes are gone and
        # every surviving record parses.
        text = journal.path.read_text()
        assert '{"torn"' not in text
        records = [json.loads(line) for line in text.splitlines()]
        assert len(records) == 3
        reloaded = SweepJournal(journal.path)
        reloaded.load()
        assert reloaded.salvaged_tail is None
        assert reloaded.completed_count() == 3

    def test_mid_file_corruption_still_raises(self, tmp_path):
        journal = self.seeded_journal(tmp_path)
        lines = journal.path.read_text().splitlines()
        lines[0] = lines[0][:20]  # truncate a *non-final* record
        journal.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt journal line"):
            SweepJournal(journal.path).load()

    def test_final_invalid_line_with_newline_still_raises(self, tmp_path):
        """A final line whose newline made it to disk cannot be a torn
        append -- that is corruption, and it must stay loud."""
        journal = self.seeded_journal(tmp_path)
        with journal.path.open("a", encoding="utf-8") as handle:
            handle.write('{"broken": \n')
        with pytest.raises(ValueError, match="corrupt journal line"):
            SweepJournal(journal.path).load()

    def test_valid_final_line_missing_newline_is_completed(self, tmp_path):
        """The crash can also land between the record write and its
        newline; the next append must complete the line, not glue two
        records together."""
        journal = self.seeded_journal(tmp_path)
        with journal.path.open("r+b") as handle:
            handle.seek(0, 2)
            handle.truncate(handle.tell() - 1)  # drop the last "\n"
        fresh = SweepJournal(journal.path)
        fresh.load()
        assert fresh.completed_count() == 2
        fresh.record_success("WFA-base", 0.03, sample_point(0.03))
        records = [
            json.loads(line)
            for line in journal.path.read_text().splitlines()
        ]
        assert [r["algorithm"] for r in records] == [
            "PIM1", "SPAA-base", "WFA-base",
        ]

    def test_compact_drops_the_torn_tail(self, tmp_path):
        journal = self.seeded_journal(tmp_path)
        journal.record_failure("PIM1", 0.01, attempt=1, error="boom")
        with journal.path.open("a", encoding="utf-8") as handle:
            handle.write('{"torn": tru')
        fresh = SweepJournal(journal.path)
        assert fresh.compact() > 0
        text = journal.path.read_text()
        assert '{"torn"' not in text
        for line in text.splitlines():
            json.loads(line)

    def test_resume_after_torn_tail_completes_the_sweep(self, tmp_path):
        """Acceptance: a sweep killed mid-append resumes cleanly."""
        journal_path = tmp_path / "sweep.jsonl"
        sweep_algorithm(
            tiny_config(),
            rates=(0.005,),
            journal=SweepJournal(journal_path),
        )
        with journal_path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "sweep-point", "status": "ok"')
        curve = sweep_algorithm(
            tiny_config(),
            rates=(0.005, 0.02),
            journal=SweepJournal(journal_path),
            resume=True,
        )
        assert len(curve.points) == 2
        replayed = SweepJournal(journal_path)
        assert replayed.completed_count() == 2
        assert replayed.salvaged_tail is None
