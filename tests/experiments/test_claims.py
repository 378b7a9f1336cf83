"""Tests for the in-text-claim experiments and the claims table.

The table tests run on synthetic results: no simulation.
"""

import math
from pathlib import Path

import pytest

from repro.core.registry import STANDALONE_ALGORITHMS, TIMING_ALGORITHMS
from repro.experiments import claims, figure10, figure11
from repro.experiments.claims import (
    CLAIMS,
    ArbLatencyCostResult,
    Claim,
    ClaimsResult,
    OscillationResult,
    PipeliningGainResult,
    format_claims,
    run_saturation_oscillation,
)
from repro.experiments.cli import _EXPERIMENTS, main
from repro.experiments.figure8 import Figure8Result
from repro.experiments.figure9 import Figure9Result
from repro.experiments.figure10 import Figure10Result
from repro.experiments.figure11 import Figure11Result
from repro.sim.metrics import BNFCurve, BNFPoint
from repro.sim.sweep import throughput_gain_at_latency

REPO = Path(__file__).resolve().parents[2]


def _curve(label, points):
    """A curve from (throughput, latency_ns) pairs in offered-load order."""
    return BNFCurve(label, [
        BNFPoint(0.01 * (i + 1), throughput, latency)
        for i, (throughput, latency) in enumerate(points)
    ])


def _panel(algorithms, scale=1.0):
    """Curves spanning 50-400 ns, so every fixed-latency row resolves."""
    return {
        name: _curve(name, [(0.2 * scale * (1 + i / 10), 50.0),
                            (0.5 * scale * (1 + i / 10), 150.0),
                            (0.6 * scale * (1 + i / 10), 300.0),
                            (0.55 * scale * (1 + i / 10), 400.0)])
        for i, name in enumerate(algorithms)
    }


def _tiny_results():
    series = {name: (1.0 + i, 7.0 - i / 2) for i, name in
              enumerate(reversed(STANDALONE_ALGORITHMS))}
    fig10 = Figure10Result("smoke", {
        panel.name: _panel(TIMING_ALGORITHMS) for panel in figure10.PANELS
    })
    fig11 = Figure11Result("smoke", {
        panel.name: _panel(("PIM1", "WFA-rotary", "SPAA-rotary"))
        for panel in figure11.PANELS
    }, {panel.name: panel for panel in figure11.PANELS})
    return {
        "fig8": Figure8Result(32, (0.5, 1.0), series),
        "fig9": Figure9Result(32, (0.0, 0.25, 0.5, 0.75), {
            name: (3.0 + i, 2.5 + i / 10, 2.0 + i / 50, 1.5)
            for i, name in enumerate(STANDALONE_ALGORITHMS)
        }),
        "fig10": fig10,
        "fig11": fig11,
        "claims": ClaimsResult(
            ArbLatencyCostResult((3, 8), (1.0, 0.8)),
            PipeliningGainResult(_panel(("SPAA-base", claims.WFA_3CYCLE))),
            OscillationResult({"4x4": (0.05, 6), "8x8": (0.1, 9)}),
        ),
    }


class TestClaimsTable:
    def test_row_ids_are_unique(self):
        ids = [claim.id for claim in CLAIMS]
        assert len(ids) == len(set(ids))

    def test_every_row_names_an_experiment_verb(self):
        assert {claim.experiment for claim in CLAIMS} == set(_EXPERIMENTS)

    def test_every_read_runs_on_a_tiny_result(self):
        results = _tiny_results()
        for experiment, result in results.items():
            scored = claims.score(experiment, result)
            expected = [c.id for c in CLAIMS if c.experiment == experiment]
            assert [row.claim.id for row in scored] == expected
            for row in scored:
                assert math.isfinite(row.value), row
                assert row.status in ("reproduced", "not reproduced"), row

    def test_bands_are_ordered(self):
        for claim in CLAIMS:
            low, high = claim.band
            assert low < high, claim.id


def _scored(monkeypatch, band, *values):
    """Score one synthetic row per reading (a value or an exception)."""
    def reader(value):
        def read(result):
            if isinstance(value, Exception):
                raise value
            return value
        return read

    monkeypatch.setattr(claims, "CLAIMS", tuple(
        Claim(f"X.{i}", "fig8", "synthetic", "~+10%", reader(value), band)
        for i, value in enumerate(values)
    ))
    return claims.score("fig8", None)


class TestStatus:
    def test_band_edges_are_inclusive(self, monkeypatch):
        low, high = claims.about(0.10)
        rows = _scored(monkeypatch, (low, high), low, high,
                       math.nextafter(low, 0.0), math.nextafter(high, 1.0))
        assert [row.status for row in rows] == [
            "reproduced", "reproduced", "not reproduced", "not reproduced"
        ]

    def test_nan_and_inf_are_not_resolved(self, monkeypatch):
        rows = _scored(monkeypatch, claims.more_than(0.6),
                       math.nan, math.inf, -math.inf)
        assert [row.status for row in rows] == ["not resolved"] * 3
        assert "inf" in claims.render(rows)

    def test_refused_reading_says_why(self, monkeypatch):
        (row,) = _scored(monkeypatch, claims.POSITIVE,
                         claims.Unresolved("too slow"))
        assert row.value is None
        assert row.status == "not resolved (too slow)"

    def test_missing_data_skips_the_row(self, monkeypatch):
        assert _scored(monkeypatch, claims.POSITIVE, KeyError("panel")) == []

    def test_positive_excludes_zero(self, monkeypatch):
        rows = _scored(monkeypatch, claims.POSITIVE, 0.0, 1e-9)
        assert [row.status for row in rows] == ["not reproduced", "reproduced"]

    def test_band_rules(self):
        assert claims.about(0.24) == (0.12, 0.48)
        assert claims.more_than(0.6) == (0.6, math.inf)
        assert claims.within(0.10) == (-0.10, 0.10)
        assert claims.within(0.05) == (-0.05, 0.05)
        assert claims.within(0.10, 7.0) == pytest.approx((6.3, 7.7))


class TestFixedLatencyRange:
    """A fixed-latency reading outside either curve's measured latency
    range is refused, not read off the curve's first point or peak."""

    PAIR = {
        "SPAA-rotary": _curve("SPAA-rotary",
                              [(0.13, 87.1), (0.41, 135.7), (0.48, 272.4)]),
        "SPAA-base": _curve("SPAA-base",
                            [(0.13, 87.5), (0.40, 137.4), (0.36, 303.0)]),
    }

    def _read(self, latency_ns):
        return claims._gain(
            lambda pair: pair, "SPAA-rotary", "SPAA-base", latency_ns
        )(self.PAIR)

    def test_target_beyond_the_slowest_point(self):
        with pytest.raises(claims.Unresolved,
                           match=r"^SPAA-rotary slowest 272 ns < 280 ns$"):
            self._read(280.0)

    def test_target_below_the_fastest_point(self):
        with pytest.raises(claims.Unresolved,
                           match=r"^SPAA-base fastest 88 ns > 87 ns$"):
            self._read(87.2)

    def test_target_inside_both_ranges_reads_the_crossing(self):
        assert self._read(200.0) == throughput_gain_at_latency(
            self.PAIR["SPAA-rotary"], self.PAIR["SPAA-base"], 200.0
        )

    def test_the_unguarded_helper_still_reads_the_peak(self):
        """throughput_gain_at_latency is unchanged (the e2e claim metric
        reads it): past the slowest point it compares the peak."""
        gain = throughput_gain_at_latency(
            self.PAIR["SPAA-rotary"], self.PAIR["SPAA-base"], 280.0
        )
        assert math.isfinite(gain)


SPANS = """# title

prose before
<!-- score:stamp -->
old stamp
<!-- /score:stamp -->
middle prose, | with a table | of its own |
<!-- score:fig8 -->
| old | table |
<!-- /score:fig8 -->
trailing prose
"""


class TestExperimentsRewrite:
    def test_only_marker_spans_change(self):
        text = claims.rewrite_spans(SPANS, {"stamp": "new", "fig8": "| a |"})
        assert text == SPANS.replace("old stamp", "new").replace(
            "| old | table |", "| a |"
        )

    def test_rewrite_is_idempotent(self):
        spans = {"stamp": "new\nstamp", "fig8": "| a |\n| b |"}
        once = claims.rewrite_spans(SPANS, spans)
        assert claims.rewrite_spans(once, spans) == once

    def test_unnamed_spans_are_kept(self):
        assert claims.rewrite_spans(SPANS, {"stamp": "x"}).count("| old |") == 1

    def test_missing_markers_raise(self):
        with pytest.raises(ValueError, match="fig9"):
            claims.rewrite_spans(SPANS, {"stamp": "x", "fig9": "y"})

    def test_the_repo_document_has_every_span(self):
        text = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
        claims.rewrite_spans(text, dict.fromkeys(["stamp", *_EXPERIMENTS], ""))

    def test_score_without_markers_is_a_usage_error(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "EXPERIMENTS.md").write_text(SPANS)
        with pytest.raises(SystemExit) as exit_info:
            main(["score", "--preset", "smoke", "--quiet"])
        assert exit_info.value.code == 2
        assert "fig10" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_score_without_the_document_is_a_usage_error(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["score", "--preset", "smoke", "--quiet"])
        assert exit_info.value.code == 2


class TestOscillationStudy:
    def test_smoke_run_produces_both_sizes(self):
        result = run_saturation_oscillation(preset="smoke", sizes=(2, 4))
        assert set(result.by_network) == {"2x2", "4x4"}
        for cv, period in result.by_network.values():
            assert cv >= 0.0
            assert period is None or period >= 1

    def test_period_accessor(self):
        result = OscillationResult(by_network={"4x4": (0.2, 7)})
        assert result.period("4x4") == 7
        with pytest.raises(KeyError):
            result.period("9x9")


class TestFormatting:
    def test_format_with_oscillation_section(self):
        text = format_claims(_tiny_results()["claims"]._replace(
            oscillation=OscillationResult(by_network={"4x4": (0.05, None),
                                                      "8x8": (0.31, 9)}),
        ))
        assert "Claim T3" in text
        assert "none detected" in text
        assert "9" in text


class TestLossPerCycleEdgeCases:
    def test_zero_baseline(self):
        assert ArbLatencyCostResult((3, 8), (0.0, 0.0)).loss_per_cycle() == 0.0

    def test_single_latency(self):
        assert ArbLatencyCostResult((3,), (1.0,)).loss_per_cycle() == 0.0
