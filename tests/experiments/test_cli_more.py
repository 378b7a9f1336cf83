"""Additional CLI coverage: panels, presets, output handling."""

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig8"])
        assert args.preset == "fast"
        assert args.trials == 1000
        assert args.output is None
        assert not args.quiet

    def test_preset_choices(self):
        parser = build_parser()
        for preset in ("paper", "fast", "smoke"):
            assert parser.parse_args(["fig10", "--preset", preset]).preset == \
                preset
        with pytest.raises(SystemExit):
            parser.parse_args(["fig10", "--preset", "warp"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestSupervisorFlags:
    @staticmethod
    def _guard(*flags):
        from repro.experiments.cli import _sweep_guard

        return _sweep_guard(build_parser().parse_args(["fig10", *flags]))

    def test_quarantine_after_applies_without_point_timeout(self):
        """Every --workers > 1 sweep runs under the scheduler, so
        --quarantine-after must not depend on --point-timeout."""
        supervisor = self._guard(
            "--workers", "2", "--quarantine-after", "5"
        ).supervisor
        assert supervisor.quarantine_after == 5
        assert supervisor.point_timeout_s is None
        assert supervisor.heartbeat_stale_s is None

    def test_a_fleet_is_a_pool_with_no_workers_flag(self):
        """``serve fig10 --quarantine-after 5``: the guard exists, carries
        the fleet and the knob, and needs no --point-timeout."""
        from repro.experiments.cli import _sweep_guard

        args = build_parser().parse_args(["fig10", "--quarantine-after", "5"])
        args.fleet = fleet = object()
        guard = _sweep_guard(args)
        assert guard.fleet is fleet
        assert guard.supervisor.quarantine_after == 5
        assert guard.supervisor.point_timeout_s is None

    def test_point_timeout_arms_deadline_and_staleness(self):
        supervisor = self._guard(
            "--workers", "2", "--point-timeout", "30"
        ).supervisor
        assert supervisor.point_timeout_s == 30.0
        assert supervisor.heartbeat_stale_s == 30.0
        assert supervisor.quarantine_after == 3

    def test_serial_run_builds_no_guard(self):
        assert self._guard() is None

    def test_bad_values_rejected(self):
        with pytest.raises(SystemExit, match="quarantine-after"):
            self._guard("--workers", "2", "--quarantine-after", "0")
        with pytest.raises(SystemExit, match="point-timeout"):
            self._guard("--workers", "2", "--point-timeout", "0")

    @pytest.mark.parametrize("window", ["nan", "inf", "-5", "0"])
    def test_bad_watchdog_window_is_a_usage_error(self, window):
        """Caught when the guard is built, before any point runs: a NaN
        window would otherwise fail every point mid-run."""
        with pytest.raises(SystemExit, match="bad --watchdog: window_cycles"):
            self._guard("--watchdog", window)


class TestMain:
    def test_fig9_quiet(self, capsys):
        assert main(["fig9", "--trials", "25", "--quiet"]) == 0
        captured = capsys.readouterr()
        assert "Figure 9" in captured.out
        # Wall-clock time never reaches a report (or a file written
        # from one): it goes to stderr.
        assert "regenerated in" not in captured.out
        assert "regenerated in" in captured.err

    def test_fig10_single_panel_smoke(self, capsys):
        # Restrict to the 4x4 panel at the smoke preset: seconds, not
        # minutes -- but still a full CLI round trip through the
        # timing model.
        code = main([
            "fig10", "--preset", "smoke", "--panel", "4x4", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "4x4, Random Traffic" in out
        assert "F10.4x4-spaa-wfa" in out and "F10.8x8-spaa-wfa" not in out

    def test_fig11_panel_letter(self, capsys):
        code = main(["fig11", "--preset", "smoke", "--panel", "b", "--quiet"])
        assert code == 0
        assert "Figure 11b" in capsys.readouterr().out

    def test_fig11_bad_panel(self):
        with pytest.raises(SystemExit, match="a, b and c"):
            main(["fig11", "--panel", "z", "--preset", "smoke"])

    def test_output_file_written(self, tmp_path, capsys):
        target = tmp_path / "nested" / "fig9.txt"
        main(["fig9", "--trials", "25", "--quiet", "--output", str(target)])
        capsys.readouterr()
        assert target.exists()
        assert "Figure 9" in target.read_text()
