"""Service CLI end to end: real processes, real SIGKILLs.

The heavyweight acceptance test lives here: a coordinator serving a
chaos campaign over two worker *processes* is SIGKILLed mid-campaign
and restarted with ``--resume``; the journal lock left by the corpse
is taken over, completed scenarios are not re-run, and the final
manifest is byte-identical to a single-host supervised run.
"""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.chaos import cli as chaos_cli
from repro.chaos.campaign import CampaignConfig, run_campaign
from repro.chaos.scenario import ScenarioSpace
from repro.experiments import cli as experiments_cli
from repro.resilience.supervisor import SupervisorConfig
from repro.service import cli as service_cli_module
from repro.service.jobs import check_job

SRC = str(Path(__file__).resolve().parents[2] / "src")

CAMPAIGN_ARGS = [
    "--preset", "smoke", "--no-traces", "--seed", "11",
    "--point-timeout", "60", "--quiet",
]


def free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def service_cli(*args, **popen_kwargs):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.cli", *args],
        env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        **popen_kwargs,
    )


def start_workers(port, count=2):
    return [
        service_cli(
            "work", "--connect", f"127.0.0.1:{port}",
            "--name", f"w{i}", "--seed", str(i),
        )
        for i in range(count)
    ]


def reap(processes, timeout_s=30):
    codes = []
    for process in processes:
        try:
            codes.append(process.wait(timeout=timeout_s))
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)
            codes.append("killed")
    return codes


def single_host_reference(output_dir: Path, count: int = 3):
    return run_campaign(
        CampaignConfig(
            output_dir=output_dir,
            seed=11,
            count=count,
            space=ScenarioSpace.smoke(),
            inject_deadlock=False,
            traces=False,
            workers=2,
            supervisor=SupervisorConfig(
                point_timeout_s=60.0, heartbeat_stale_s=60.0
            ),
        )
    )


def wait_for_journal_lines(journal: Path, count: int, timeout_s: float = 120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if journal.exists():
            lines = [l for l in journal.read_text().splitlines() if l.strip()]
            if len(lines) >= count:
                return lines
        time.sleep(0.02)
    raise TimeoutError(f"{journal} never reached {count} records")


class TestServeEndToEnd:
    def test_fleet_campaign_matches_reference_manifest(self, tmp_path):
        reference = single_host_reference(tmp_path / "single")
        port = free_port()
        out = tmp_path / "fleet"
        serve = service_cli(
            "serve", "chaos", "--output-dir", str(out), "--count", "3",
            *CAMPAIGN_ARGS, "--port", str(port), "--wait-workers", "2",
        )
        workers = start_workers(port)
        stdout, stderr = serve.communicate(timeout=180)
        assert serve.returncode == 0, stderr[-2000:]
        assert reap(workers) == [0, 0], "workers must exit 0 on shutdown"
        assert (out / "campaign_manifest.json").read_bytes() == (
            reference.manifest_path.read_bytes()
        )

    def test_coordinator_sigkill_then_resume_restart(self, tmp_path):
        """The crash-safety acceptance path: SIGKILL the coordinator
        mid-campaign, restart with --resume on the same port, and the
        manifest still matches the single-host reference byte for
        byte -- no lost work, no double-recorded work, no manual
        lock cleanup."""
        # Smoke scenarios run in tens of milliseconds; a wide campaign
        # keeps plenty of work in flight when the SIGKILL lands.
        reference = single_host_reference(tmp_path / "single", count=24)
        port = free_port()
        out = tmp_path / "fleet"
        serve = service_cli(
            "serve", "chaos", "--output-dir", str(out), "--count", "24",
            *CAMPAIGN_ARGS, "--port", str(port), "--wait-workers", "2",
        )
        workers = start_workers(port)
        try:
            # Let at least one scenario land in the journal, then
            # murder the coordinator mid-campaign.
            wait_for_journal_lines(out / "campaign.journal.jsonl", 2)
            os.kill(serve.pid, signal.SIGKILL)
            serve.wait(timeout=30)
            assert (out / "campaign.journal.jsonl.lock").exists(), (
                "a SIGKILLed coordinator must leave its lock (that is "
                "what stale takeover is for)"
            )
            # Workers are now reconnecting with jittered backoff; the
            # restarted coordinator takes over the stale lock, resumes
            # from the journal, and re-leases only the remainder.
            restart = service_cli(
                "serve", "chaos", "--output-dir", str(out), "--count", "24",
                *CAMPAIGN_ARGS, "--resume", "--port", str(port),
                "--wait-workers", "2",
            )
            stdout, stderr = restart.communicate(timeout=180)
            assert restart.returncode == 0, stderr[-2000:]
            assert reap(workers) == [0, 0]
        finally:
            reap(workers, timeout_s=1)
        assert (out / "campaign_manifest.json").read_bytes() == (
            reference.manifest_path.read_bytes()
        )
        records = [
            json.loads(line)
            for line in (out / "campaign.journal.jsonl").read_text().splitlines()
        ]
        scenario_ids = [
            r["algorithm"]  # the journal's generic key holds scenario_id
            for r in records
            if r.get("kind") == "chaos-scenario"
        ]
        assert len(scenario_ids) == len(set(scenario_ids)), (
            "exactly-once journaling: no scenario recorded twice"
        )

    def test_status_and_submit_against_idle_coordinator(self, tmp_path):
        port = free_port()
        serve = service_cli("serve", "--port", str(port), "--quiet")
        workers = []
        try:
            deadline = time.monotonic() + 30
            status = None
            while time.monotonic() < deadline:
                probe = service_cli(
                    "status", "--connect", f"127.0.0.1:{port}", "--json"
                )
                stdout, _ = probe.communicate(timeout=30)
                # The provider is installed just after the listener
                # opens; keep probing until the full status shape shows.
                if probe.returncode == 0 and "state" in json.loads(stdout):
                    status = json.loads(stdout)
                    break
                time.sleep(0.1)
            assert status is not None, "status verb never connected"
            assert status["state"] == "idle"
            assert status["workers"] == []

            workers = start_workers(port, count=1)
            out = tmp_path / "submitted"
            submit = service_cli(
                "submit", "chaos", "--connect", f"127.0.0.1:{port}",
                "--output-dir", str(out), "--count", "1", "--preset",
                "smoke", "--no-traces", "--quiet",
            )
            stdout, stderr = submit.communicate(timeout=30)
            assert submit.returncode == 0, stderr[-2000:]
            assert "submitted chaos" in stdout

            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if (out / "campaign_manifest.json").exists():
                    break
                time.sleep(0.2)
            else:
                pytest.fail("submitted campaign never finished")
        finally:
            serve.kill()
            serve.wait(timeout=10)
            reap(workers, timeout_s=5)


def ask(port: int, frame: dict) -> dict:
    """One raw frame to the coordinator, its one reply back."""
    return service_cli_module._ask(f"127.0.0.1:{port}", frame)


def wait_for_state(port: int, state: str, timeout_s: float = 30.0) -> dict:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            status = ask(port, {"type": "status"})
        except OSError:
            status = None  # the listener is not up yet
        if status and status.get("state") == state:
            return status
        time.sleep(0.1)
    raise TimeoutError(f"coordinator never reported {state!r}")


GUARDED_FIG10 = [
    "fig10", "--preset", "smoke", "--panel", "4x4", "--invariants",
    "--faults", "drop=1e-3,seed=9", "--quiet",
]


def journal_records(directory: Path) -> list[str]:
    return sorted(
        line
        for journal in directory.glob("*.journal.jsonl")
        for line in journal.read_text().splitlines()
    )


def option_lines() -> list[list[str]]:
    """One job argv per option string of the two job command lines."""
    campaign = next(
        action.choices["run"]
        for action in chaos_cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    lines = []
    for kind, parser, required in (
        ("fig10", experiments_cli.build_parser(), []),
        ("chaos", campaign, ["--output-dir", "out"]),
    ):
        for action in parser._actions:
            for option in action.option_strings:
                if option in ("-h", "--help", *required):
                    continue
                if action.nargs == 0:
                    value = []
                elif action.choices:
                    value = [str(next(iter(action.choices)))]
                else:
                    value = ["2"]  # parses as int, float, path or spec
                lines.append([kind, *required, option, *value])
    assert len(lines) > 25
    return lines


class TestJobIsTheLocalCommandLine:
    def test_guarded_fleet_sweep_journals_what_the_local_pool_does(
        self, tmp_path
    ):
        """Every fig10 flag works after ``serve`` -- here the guards the
        old re-declared flag table had dropped -- and means what it
        means locally: same faults, same invariant checks, same
        journal records as the ``--workers 2`` command line."""
        local = service_cli(
            *GUARDED_FIG10, "--journal-dir", str(tmp_path / "local"),
            "--workers", "2",
        )
        stdout, stderr = local.communicate(timeout=300)
        assert local.returncode == 0, stderr[-2000:]
        port = free_port()
        serve = service_cli(
            "serve", *GUARDED_FIG10, "--journal-dir", str(tmp_path / "fleet"),
            "--port", str(port), "--wait-workers", "2",
        )
        workers = start_workers(port)
        fleet_stdout, stderr = serve.communicate(timeout=300)
        assert serve.returncode == 0, stderr[-2000:]
        assert reap(workers) == [0, 0]
        records = journal_records(tmp_path / "fleet")
        assert records == journal_records(tmp_path / "local")
        assert any('"faults_injected":4' in record for record in records)
        # One report path: the fleet report is the local report, byte
        # for byte (the wall-clock line goes to stderr).
        assert "[fig10 regenerated in" in stderr
        assert fleet_stdout == stdout

    @pytest.mark.parametrize(
        "verb", [["serve", "--port", "1"], ["submit", "--connect", "h:1"]],
        ids=lambda verb: verb[0],
    )
    @pytest.mark.parametrize("line", option_lines(), ids=" ".join)
    def test_every_job_flag_is_accepted_after_serve_and_submit(
        self, line, verb
    ):
        """Flag parity by construction: there is no second flag table,
        so whatever the local parsers declare is a fleet flag."""
        args, job = service_cli_module.build_parser().parse_known_args(
            [*verb, *line]
        )
        if verb[0] == "serve" and "--quiet" in line:
            assert args.quiet and job == line[:-1]  # serve re-appends it
        else:
            assert job == line
        check_job(job)  # exits on a flag the job's own parser rejects

    def test_serve_flags_may_sit_anywhere_in_the_line(self):
        job = [
            "chaos", "--count", "3", "--preset", "smoke", "--output-dir", "O",
        ]
        serve_flags = ["--port", "7", "--wait-workers", "2"]
        parser = service_cli_module.build_parser()
        for position in range(len(job) + 1):
            if position and job[position - 1].startswith("--"):
                continue  # never between a job flag and its value
            line = [*job[:position], *serve_flags, *job[position:]]
            args, rest = parser.parse_known_args(["serve", *line])
            assert rest == job, line
            assert (args.port, args.wait_workers) == (7, 2)

    def test_work_and_status_still_reject_stray_arguments(self, capsys):
        for line in (
            ["work", "--connect", "127.0.0.1:1", "fig10"],
            ["status", "--connect", "127.0.0.1:1", "--preset", "smoke"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                service_cli_module.main(line)
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_a_job_its_own_command_line_rejects_never_reaches_the_wire(self):
        for line in (
            ["submit", "--connect", "127.0.0.1:1"],
            ["submit", "--connect", "127.0.0.1:1", "fig8"],
            ["submit", "--connect", "127.0.0.1:1", "fig10", "--no-such-flag"],
            ["serve", "chaos", "--count", "3"],  # no --output-dir
        ):
            with pytest.raises(SystemExit) as exit_info:
                service_cli_module.main(line)
            assert exit_info.value.code not in (0, None), line


class TestIdleCoordinatorSurvivesBadJobs:
    def test_bogus_submit_is_refused_and_the_coordinator_stays_idle(
        self, tmp_path
    ):
        """A raw frame the job's own parser would not accept is answered
        with ``error`` (it used to be acked, then kill the coordinator
        and shut the fleet down); a job that fails at run time is
        reported and the coordinator goes back to idle."""
        port = free_port()
        log = tmp_path / "serve.err"
        with log.open("w") as stderr:
            serve = subprocess.Popen(
                [sys.executable, "-m", "repro.experiments.cli",
                 "serve", "--port", str(port), "--quiet"],
                env={**os.environ, "PYTHONPATH": SRC},
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            )
        try:
            wait_for_state(port, "idle")
            for bogus in (
                {"kind": "chaos"},
                "fig10",
                None,
                [],
                ["fig10", 7],
                ["fig8"],
                ["fig10", "--no-such-flag"],
                ["chaos", "--count", "3"],
            ):
                reply = ask(port, {"type": "submit", "job": bogus})
                assert reply["type"] == "error", bogus
                assert reply["detail"], bogus
            assert wait_for_state(port, "idle")["workers"] == []
            # Parses, but dies at run time: accepted, reported, survived.
            reply = ask(port, {"type": "submit", "job": ["fig10", "--resume"]})
            assert reply["type"] == "ok"
            deadline = time.monotonic() + 60
            while "job failed" not in log.read_text():
                assert time.monotonic() < deadline, log.read_text()
                time.sleep(0.1)
            assert "--resume requires --journal-dir" in log.read_text()
            wait_for_state(port, "idle")
            assert serve.poll() is None, "the coordinator must still be up"
        finally:
            serve.kill()
            serve.wait(timeout=10)
