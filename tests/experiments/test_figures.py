"""End-to-end tests of the figure regenerators (tiny settings).

The scoreboard (``repro-experiments score``) judges the paper's claims;
these tests check the *plumbing*: every regenerator runs, returns
complete series, and formats without error.
"""

from dataclasses import replace

import pytest

from repro.experiments import claims, figure8, figure9, figure10, figure11
from repro.experiments.cli import build_parser, main
from repro.sim.metrics import BNFCurve, BNFPoint


class TestFigure8:
    def test_runs_and_formats(self):
        result = figure8.run_figure8(trials=40, fractions=(0.5, 1.0))
        assert set(result.series) == {"MCM", "WFA", "PIM", "PIM1", "SPAA"}
        assert all(len(v) == 2 for v in result.series.values())
        assert result.saturation_load >= 4
        text = figure8.format_figure8(result)
        assert "Figure 8" in text and "MCM" in text

    def test_gap_over_spaa(self):
        result = figure8.run_figure8(trials=100, fractions=(1.0,))
        assert result.gap_over_spaa("MCM") > 0
        assert result.gap_over_spaa("SPAA") == 0


class TestFigure9:
    def test_runs_and_formats(self):
        result = figure9.run_figure9(trials=40, occupancies=(0.0, 0.75))
        assert set(result.series) == {"MCM", "WFA", "PIM", "PIM1", "SPAA"}
        assert result.spread_at(0.0) > result.spread_at(0.75)
        text = figure9.format_figure9(result)
        assert "Figure 9" in text


class TestFigure10:
    def test_single_panel_smoke(self):
        panel = figure10.Panel("tiny", 4, 4, "uniform", (0.01,))
        curves = figure10.run_panel(panel, preset="smoke",
                                    algorithms=("SPAA-base",))
        assert curves["SPAA-base"].points[0].packets_delivered > 0

    def test_result_formats_with_gains(self):
        tiny = replace(figure10.PANELS[0], rates=(0.01, 0.03))
        result = figure10.run_figure10(preset="smoke", panels=(tiny,))
        text = figure10.format_figure10(result)
        assert "Figure 10 panel" in text
        rows = {row.claim.id: row for row in claims.score("fig10", result)}
        # Only the 4x4 panel ran, so only its rows (and the ceiling).
        assert "F10.4x4-spaa-wfa" in rows and "F10.8x8-spaa-wfa" not in rows
        assert rows["F10.throughput-ceiling"].status == "reproduced"

    def test_panel_definitions_match_the_paper(self):
        names = [panel.name for panel in figure10.PANELS]
        assert names == [
            "4x4, Random Traffic",
            "8x8, Random Traffic",
            "8x8, Bit Reversal",
            "8x8, Perfect Shuffle",
        ]
        assert figure10.PRESETS["paper"] == (15_000, 60_000)


class TestFigure11:
    def test_panel_definitions_match_the_paper(self):
        by_letter = {figure11.letter(panel): panel for panel in figure11.PANELS}
        assert by_letter["a"].pipeline_scale == 2
        assert by_letter["b"].mshr_limit == 64
        assert (by_letter["c"].width, by_letter["c"].height) == (12, 12)

    def test_single_panel_smoke(self):
        panel = figure10.Panel(
            "tiny 2x", 4, 4, "uniform", (0.02,), pipeline_scale=2,
            slug="fig11a",
        )
        result = figure11.run_figure11(preset="smoke", panels=(panel,))
        text = figure11.format_figure11(result)
        assert "Figure 11a" in text
        assert result.panels["tiny 2x"]["SPAA-rotary"].points


class TestClaims:
    def test_arb_latency_cost_smoke(self):
        result = claims.run_arb_latency_cost(preset="smoke", latencies=(3, 6))
        assert len(result.throughputs) == 2
        assert result.loss_per_cycle() == result.loss_per_cycle()

    def test_format_claims(self):
        result = claims.ClaimsResult(
            claims.ArbLatencyCostResult((3, 8), (0.5, 0.4)),
            claims.PipeliningGainResult({
                name: BNFCurve(name, [BNFPoint(0.01, throughput, 122.0)])
                for name, throughput in (("SPAA-base", 0.54),
                                         (claims.WFA_3CYCLE, 0.5))
            }),
            claims.OscillationResult({"4x4": (0.1, None), "8x8": (0.2, 9)}),
        )
        text = claims.format_claims(result)
        assert "Claim T1" in text and "Claim T2" in text
        assert claims.WFA_3CYCLE in text and "0.540" in text

    def test_loss_per_cycle_math(self):
        result = claims.ArbLatencyCostResult((3, 8), (1.0, 0.75))
        assert result.loss_per_cycle() == pytest.approx(0.05)


class TestCli:
    def test_parser_accepts_all_experiments(self):
        parser = build_parser()
        for name in ("fig8", "fig9", "fig10", "fig11", "claims", "score"):
            assert parser.parse_args([name]).experiment == name

    def test_cli_runs_fig8(self, capsys, tmp_path):
        out = tmp_path / "fig8.txt"
        code = main(["fig8", "--trials", "30", "--output", str(out)])
        assert code == 0
        assert "Figure 8" in capsys.readouterr().out
        assert out.exists()
        assert "Figure 8" in out.read_text()

    def test_cli_rejects_unknown_panel(self):
        with pytest.raises(SystemExit):
            main(["fig10", "--panel", "nonexistent", "--preset", "smoke"])
