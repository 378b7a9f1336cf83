"""Campaign determinism, resume, failure capture and exact replay."""

import json
from dataclasses import replace

from repro.chaos import (
    INJECTED_DEADLOCK_NAME,
    ScenarioOutcome,
    campaign_scenarios,
    load_bundle,
    replay_bundle,
    run_campaign,
)
from repro.chaos.campaign import JOURNAL_NAME, MANIFEST_NAME
from repro.resilience.checkpoint import SweepJournal

from tests.chaos.conftest import campaign_config


class TestDeterminism:
    def test_manifests_identical_across_worker_counts(
        self, serial_campaign, pooled_campaign
    ):
        """Acceptance: same seed -> byte-identical manifest, serial or
        pooled.  The manifest carries every scenario digest and outcome
        digest, so byte equality pins the whole campaign's results."""
        _, serial = serial_campaign
        _, pooled = pooled_campaign
        assert serial.manifest_path.read_bytes() == (
            pooled.manifest_path.read_bytes()
        )

    def test_outcome_digests_match_pairwise(
        self, serial_campaign, pooled_campaign
    ):
        _, serial = serial_campaign
        _, pooled = pooled_campaign
        assert serial.status_totals() == pooled.status_totals()
        for index, outcome in serial.outcomes.items():
            assert outcome.digest() == pooled.outcomes[index].digest()

    def test_scenario_list_is_shared_with_resume(self, serial_campaign):
        config, result = serial_campaign
        assert campaign_scenarios(config) == result.scenarios


class TestCampaignProducts:
    def test_injected_deadlock_is_captured_with_a_bundle(
        self, serial_campaign
    ):
        _, result = serial_campaign
        assert result.status_totals()["deadlock"] == 1
        failures = {
            scenario.scenario_id: (outcome, bundle)
            for scenario, outcome, bundle in result.failures
        }
        outcome, bundle = failures[INJECTED_DEADLOCK_NAME]
        assert outcome.status == "deadlock"
        assert bundle.exists()
        record = load_bundle(bundle)
        assert record["scenario"]["name"] == INJECTED_DEADLOCK_NAME
        assert record["fault_digest"]
        assert record["trace_tail"], "the trace tail rides in the bundle"

    def test_failures_are_not_crashes(self, serial_campaign):
        """A deadlock is explained chaos product, not a harness bug."""
        _, result = serial_campaign
        assert result.failures
        assert result.crashed == []

    def test_manifest_is_wall_clock_free(self, serial_campaign):
        _, result = serial_campaign
        manifest = json.loads(result.manifest_path.read_text())
        assert manifest["kind"] == "chaos-campaign"
        text = result.manifest_path.read_text()
        for banned in ("time", "elapsed", "duration", "date"):
            assert banned not in text.lower().replace(
                "runtime", ""
            ), f"manifest must not record {banned!r}"

    def test_journal_holds_every_outcome(self, serial_campaign):
        config, result = serial_campaign
        journal = SweepJournal(config.output_dir / JOURNAL_NAME)
        for scenario in result.scenarios:
            cached = journal.outcome_for(
                scenario.scenario_id, float(scenario.index)
            )
            assert ScenarioOutcome.from_dict(cached).digest() == (
                result.outcomes[scenario.index].digest()
            )


class TestResume:
    def test_resume_skips_everything_and_reproduces_the_manifest(
        self, serial_campaign
    ):
        config, original = serial_campaign
        manifest_before = original.manifest_path.read_bytes()
        resumed = run_campaign(replace(config, resume=True))
        assert resumed.resumed == len(original.scenarios)
        assert resumed.manifest_path.read_bytes() == manifest_before
        for index, outcome in original.outcomes.items():
            assert resumed.outcomes[index].digest() == outcome.digest()

    def test_without_resume_nothing_is_skipped(self, tmp_path):
        config = campaign_config(
            tmp_path, count=1, inject_deadlock=False, traces=False
        )
        first = run_campaign(config)
        again = run_campaign(config)
        assert first.resumed == 0 and again.resumed == 0
        assert first.outcomes[0].digest() == again.outcomes[0].digest()


class TestReplay:
    def test_replay_reproduces_the_injected_deadlock(self, serial_campaign):
        """Acceptance: the bundle re-executes digest-identically."""
        _, result = serial_campaign
        bundle = next(
            bundle
            for scenario, _, bundle in result.failures
            if scenario.scenario_id == INJECTED_DEADLOCK_NAME
        )
        replay = replay_bundle(bundle)
        assert replay.reproduced
        assert "reproduced" in replay.describe()
        assert replay.replayed.status == "deadlock"

    def test_replay_accepts_the_bundle_directory(self, serial_campaign):
        config, _ = serial_campaign
        directory = (
            config.output_dir / "bundles" / INJECTED_DEADLOCK_NAME
        )
        assert replay_bundle(directory).reproduced

    def test_tampered_bundle_fails_loudly(self, serial_campaign, tmp_path):
        import pytest

        config, _ = serial_campaign
        bundle = (
            config.output_dir
            / "bundles"
            / INJECTED_DEADLOCK_NAME
            / "bundle.json"
        )
        record = json.loads(bundle.read_text())
        record["outcome"]["status"] = "ok"
        forged = tmp_path / "bundle.json"
        forged.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="digest mismatch"):
            replay_bundle(forged)

    def test_wrong_kind_rejected(self, tmp_path):
        import pytest

        path = tmp_path / "bundle.json"
        path.write_text(json.dumps({"kind": "lunch-order"}))
        with pytest.raises(ValueError, match="not a chaos replay bundle"):
            load_bundle(path)


class TestManifestReport:
    def test_report_command_renders_the_manifest(
        self, serial_campaign, capsys
    ):
        from repro.chaos.cli import main

        config, _ = serial_campaign
        assert main(["report", str(config.output_dir)]) == 0
        out = capsys.readouterr().out
        assert INJECTED_DEADLOCK_NAME in out
        assert "deadlock=1" in out

    def test_report_without_a_manifest_fails(self, tmp_path, capsys):
        from repro.chaos.cli import main

        assert main(["report", str(tmp_path)]) == 1
        assert MANIFEST_NAME in capsys.readouterr().err


class TestSupervisedCampaign:
    """Scenarios under a PointSupervisor: wedges become data, not hangs."""

    @staticmethod
    def _supervised_config(output_dir, **overrides):
        from repro.resilience.supervisor import SupervisorConfig

        return campaign_config(
            output_dir,
            workers=2,
            inject_deadlock=False,
            count=2,
            # Staleness must comfortably exceed a healthy worker's beat
            # gap when N CPU-bound workers share few cores, or loaded
            # hosts reap spuriously and break manifest determinism.
            supervisor=SupervisorConfig(
                point_timeout_s=60.0,
                heartbeat_stale_s=5.0,
                poll_interval_s=0.02,
                reap_grace_s=2.0,
            ),
            **overrides,
        )

    def test_supervised_matches_plain_pool(self, tmp_path, serial_campaign):
        """Without faults, supervision changes nothing: outcome digests
        equal the serial campaign's."""
        from repro.resilience.supervisor import SupervisorConfig

        _, serial = serial_campaign
        config = campaign_config(
            tmp_path / "supervised",
            workers=2,
            supervisor=SupervisorConfig(point_timeout_s=120.0),
        )
        result = run_campaign(config)
        for index, outcome in serial.outcomes.items():
            assert result.outcomes[index].digest() == outcome.digest()

    def test_wedged_scenario_reaped_as_timeout(self, tmp_path, monkeypatch):
        import time as _time

        from repro.chaos.campaign import WEDGE_SCENARIO_ENV

        config = self._supervised_config(tmp_path / "wedged")
        wedged_id = campaign_scenarios(config)[0].scenario_id
        monkeypatch.setenv(WEDGE_SCENARIO_ENV, wedged_id)
        started = _time.monotonic()
        result = run_campaign(config)
        assert _time.monotonic() - started < 30.0, "reap must not hang"
        outcome = result.outcomes[0]
        assert outcome.status == "timeout"
        assert "reaped by supervisor" in outcome.detail
        # A timeout is explained chaos product: it does not fail the
        # campaign, but it is captured with a bundle like any failure.
        assert result.crashed == []
        assert any(
            scenario.scenario_id == wedged_id
            for scenario, _, _ in result.failures
        )
        # Every other scenario still completed.
        assert all(
            result.outcomes[s.index].status != "timeout"
            for s in result.scenarios
            if s.scenario_id != wedged_id
        )

    def test_wedged_manifest_byte_identical_across_reruns(
        self, tmp_path, monkeypatch
    ):
        """Acceptance: the supervised reap is deterministic data -- the
        manifest (static timeout detail included) is byte-identical on
        a rerun."""
        from repro.chaos.campaign import WEDGE_SCENARIO_ENV

        config_a = self._supervised_config(tmp_path / "a")
        config_b = self._supervised_config(tmp_path / "b")
        wedged_id = campaign_scenarios(config_a)[0].scenario_id
        monkeypatch.setenv(WEDGE_SCENARIO_ENV, wedged_id)
        result_a = run_campaign(config_a)
        result_b = run_campaign(config_b)
        assert result_a.manifest_path.read_bytes() == (
            result_b.manifest_path.read_bytes()
        )
        manifest = json.loads(result_a.manifest_path.read_text())
        assert manifest["supervisor"]["timeouts"] == 1
        assert manifest["supervisor"]["heartbeat_stale_s"] == 5.0
        assert manifest["totals"]["timeout"] == 1

    def test_resume_skips_the_recorded_timeout(self, tmp_path, monkeypatch):
        from dataclasses import replace as _replace

        from repro.chaos.campaign import WEDGE_SCENARIO_ENV

        config = self._supervised_config(tmp_path / "resume")
        wedged_id = campaign_scenarios(config)[0].scenario_id
        monkeypatch.setenv(WEDGE_SCENARIO_ENV, wedged_id)
        first = run_campaign(config)
        monkeypatch.delenv(WEDGE_SCENARIO_ENV)
        resumed = run_campaign(_replace(config, resume=True))
        # Chaos outcomes are data: the recorded timeout is completed
        # campaign work, so resume skips it rather than re-running.
        assert resumed.resumed == len(first.scenarios)
        assert resumed.outcomes[0].status == "timeout"


class TestPlainPoolWorkerDeath:
    def test_dead_worker_costs_exactly_one_scenario_a_crash(
        self, tmp_path, monkeypatch, serial_campaign
    ):
        """``workers=N`` with no SupervisorConfig: a worker that dies
        takes only its own scenario down, with the static crash detail,
        and the manifest keeps the plain (supervisor-free) shape.  The
        pool is scripted in memory -- what a real death looks like to
        the scheduler is pinned in tests/resilience/test_supervisor.py.
        """
        from repro.chaos import campaign
        from repro.chaos.runner import run_scenario
        from repro.resilience.supervisor import PointSupervisor
        from tests.resilience.test_scheduler import ScriptedTransport

        _, serial = serial_campaign
        config = campaign_config(tmp_path, workers=2, traces=False)
        script = {
            scenario.index: [("done", run_scenario(scenario, None))]
            for scenario in campaign_scenarios(config)
        }
        script[0] = [("left",)]

        def scripted_pool(runner, workers, config, resubmit_crashed):
            return PointSupervisor(
                runner,
                ScriptedTransport(script, holders=workers),
                config,
                resubmit_crashed=resubmit_crashed,
            )

        monkeypatch.setattr(campaign, "PointSupervisor", scripted_pool)
        result = run_campaign(config)
        assert result.outcomes[0].status == "crash"
        assert result.outcomes[0].detail == campaign.CRASH_DETAIL
        for index, outcome in serial.outcomes.items():
            if index:
                assert result.outcomes[index].digest() == outcome.digest()
        assert [s.index for s, _, _ in result.crashed] == [0]
        manifest = json.loads(result.manifest_path.read_text())
        assert "supervisor" not in manifest
