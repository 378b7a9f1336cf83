"""The paper's claims: the in-text ablations and one table of every claim.

The ``claims`` experiment runs the in-text ablations:

* **T1** -- "each additional cycle added to the 21364 router's
  arbitration pipeline degraded the network throughput by roughly 5%
  under heavy load" (measured with SPAA).  We sweep SPAA's arbitration
  latency from 3 to 8 cycles at a heavy load and report the loss per
  added cycle.
* **T2** -- "if we could implement WFA as a three-cycle arbitration
  mechanism like SPAA, then pipelining is the key difference ...
  SPAA provides a throughput boost of about 8%" (8x8, random traffic,
  ~122 ns).  We sweep WFA-base with the hypothetical 3-cycle timing
  beside SPAA-base.
* **T3** -- "the network produces a cyclic pattern of network link
  utilization with extremely high levels of uniform random input
  traffic ... The period of this cycle increases with the diameter of
  the network" (section 3.4).  We overload 4x4 and 8x8 networks, bucket
  the delivered throughput into windows, and compare the oscillation
  strength and dominant period.

:data:`CLAIMS` holds every paper claim a run can measure, one
:class:`Claim` per row: the experiment whose result it reads (a verb of
``repro-experiments``), the paper's words and number, a ``read`` from
that result to one float, and an inclusive ``band``.  A reading inside
the band is *reproduced*, outside it *not reproduced*; a NaN or
infinite reading, or an :class:`Unresolved` one, is *not resolved*.
A row whose ``paper`` carries a ``%`` shows its reading and band as
percentages.

Bands come from the paper's wording, one rule per wording, never from
a measurement:

* "about X" -> ``[X/2, 2X]`` (:func:`about`);
* "more than X" -> ``[X, inf)`` (:func:`more_than`);
* "similar" / "close" -> within +-10% (:func:`within`);
* "disappears" / "negligible" -> within +-5% (:func:`within`);
* an ordering or a direction -> ``> 0`` (:data:`POSITIVE`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from repro.core.timing import SPAA_TIMING, WFA_3CYCLE_TIMING
from repro.experiments import figure10, figure11
from repro.experiments.figure10 import Panel, panel_config
from repro.experiments.report import curves_table, format_table
from repro.sim.metrics import BNFCurve
from repro.sim.observers import ThroughputTimeline
from repro.sim.sweep import sweep_algorithm, throughput_gain_at_latency
from repro.sim.timing_model import NetworkSimulator


@dataclass(frozen=True)
class ArbLatencyCostResult:
    """Claim T1: throughput vs arbitration pipeline latency."""

    latencies: tuple[int, ...]
    throughputs: tuple[float, ...]

    def loss_per_cycle(self) -> float:
        """Mean relative throughput loss per added arbitration cycle."""
        first, last = self.throughputs[0], self.throughputs[-1]
        cycles = self.latencies[-1] - self.latencies[0]
        if first <= 0 or cycles <= 0:
            return 0.0
        return (1.0 - last / first) / cycles


def run_arb_latency_cost(
    preset: str = "fast",
    latencies: tuple[int, ...] = (3, 4, 5, 6, 7, 8),
    seed: int = 42,
) -> ArbLatencyCostResult:
    """Sweep SPAA's arbitration latency under heavy load (claim T1)."""
    base = panel_config(figure10.PANELS[1], preset, seed).with_rate(0.03)
    throughputs = []
    for latency in latencies:
        timing = replace(SPAA_TIMING, latency=latency)
        config = replace(base, arbitration_override=timing)
        throughputs.append(NetworkSimulator(config).bnf_point().throughput)
    return ArbLatencyCostResult(tuple(latencies), tuple(throughputs))


#: T2's unpipelined comparison curve.
WFA_3CYCLE = "WFA-base 3-cycle"


@dataclass(frozen=True)
class PipeliningGainResult:
    """Claim T2: SPAA vs a hypothetical 3-cycle (unpipelined) WFA."""

    #: "SPAA-base" and :data:`WFA_3CYCLE` -> their BNF curves
    curves: dict[str, BNFCurve]


def run_pipelining_gain(
    preset: str = "fast",
    rates: tuple[float, ...] = (0.005, 0.01, 0.02, 0.03, 0.045),
    seed: int = 42,
) -> PipeliningGainResult:
    """Isolate the pipelining benefit (claim T2).

    Both configurations use 3-cycle arbitration; the only difference
    left is the initiation interval (1 vs 3) -- pipelining itself.
    """
    base = panel_config(figure10.PANELS[1], preset, seed).with_rate(0.03)
    return PipeliningGainResult({
        "SPAA-base": sweep_algorithm(replace(base, algorithm="SPAA-base"), rates),
        WFA_3CYCLE: sweep_algorithm(
            replace(
                base,
                algorithm="WFA-base",
                arbitration_override=WFA_3CYCLE_TIMING,
            ),
            rates,
        ),
    })


@dataclass(frozen=True)
class OscillationResult:
    """Claim T3: windowed-throughput oscillation per network size."""

    #: network label -> (oscillation coefficient of variation,
    #: dominant period in windows or None)
    by_network: dict[str, tuple[float, int | None]]

    def period(self, label: str) -> int | None:
        return self.by_network[label][1]


def run_saturation_oscillation(
    preset: str = "fast",
    sizes: tuple[int, ...] = (4, 8),
    overload_rate: float = 0.1,
    window_cycles: float = 500.0,
    seed: int = 42,
) -> OscillationResult:
    """Measure the clog/clear cycle of saturated networks (claim T3)."""
    by_network: dict[str, tuple[float, int | None]] = {}
    for size in sizes:
        label = f"{size}x{size}"
        config = panel_config(
            Panel(label, size, size, "uniform", ()), preset, seed
        ).with_rate(overload_rate)
        simulator = NetworkSimulator(config)
        timeline = ThroughputTimeline(window_cycles=window_cycles)
        simulator.attach_observer(timeline)
        simulator.run()
        skip = int(config.warmup_cycles // window_cycles)
        by_network[label] = (
            timeline.oscillation(skip), timeline.dominant_period(skip)
        )
    return OscillationResult(by_network=by_network)


class ClaimsResult(NamedTuple):
    """The ``claims`` experiment: T1, T2 and T3."""

    latency_cost: ArbLatencyCostResult
    pipelining: PipeliningGainResult
    oscillation: OscillationResult


def run_claims(preset: str = "fast", seed: int = 42) -> ClaimsResult:
    return ClaimsResult(
        run_arb_latency_cost(preset, seed=seed),
        run_pipelining_gain(preset, seed=seed),
        run_saturation_oscillation(preset, seed=seed),
    )


def format_claims(result: ClaimsResult) -> str:
    latency_cost, pipelining, oscillation = result
    return "\n\n".join((
        format_table(
            ("arbitration latency (cycles)", "flits/router/ns"),
            list(zip(latency_cost.latencies, latency_cost.throughputs)),
            title="Claim T1: throughput vs arbitration latency under heavy "
                  "load (8x8, SPAA-base)",
        ),
        "Claim T2: SPAA-base vs a 3-cycle WFA-base (8x8, random traffic)\n"
        + curves_table(pipelining.curves),
        format_table(
            ("network", "throughput oscillation (CV)",
             "dominant period (windows)"),
            [
                (label, f"{cv:.2f}",
                 "none detected" if period is None else str(period))
                for label, (cv, period) in oscillation.by_network.items()
            ],
            title="Claim T3: windowed throughput under overload",
        ),
    ))


# -- the claims table --------------------------------------------------------


class Unresolved(Exception):
    """A reading the data cannot give; the message says why."""


class Claim(NamedTuple):
    id: str
    experiment: str  # the repro-experiments verb whose result `read` takes
    text: str
    paper: str
    read: Callable[[object], float]
    band: tuple[float, float]  # inclusive


def about(x: float) -> tuple[float, float]:
    return (x / 2, 2 * x)


def more_than(x: float) -> tuple[float, float]:
    return (x, math.inf)


def within(tolerance: float, of: float = 0.0) -> tuple[float, float]:
    """+-tolerance around zero (a relative reading) or relative to *of*."""
    spread = tolerance * (abs(of) or 1.0)
    return (of - spread, of + spread)


POSITIVE = (math.ulp(0.0), math.inf)  # "> 0" with inclusive edges


def _over(a: float, b: float) -> float:
    return a / b - 1.0 if b else math.inf


def _gain(curves_of, winner: str, loser: str, latency_ns: float):
    """*winner*'s throughput gain over *loser* at *latency_ns*, the
    paper's fixed-latency comparison.  Unresolved when *latency_ns* lies
    outside either curve's measured latency range, where a curve would
    read its first point or its peak rather than a crossing."""
    def read(result) -> float:
        curves = curves_of(result)
        for name in (winner, loser):
            latencies = [point.latency_ns for point in curves[name].points]
            fastest, slowest = min(latencies), max(latencies)
            if not fastest <= latency_ns <= slowest:
                edge = (f"slowest {slowest:.0f} ns <" if slowest < latency_ns
                        else f"fastest {fastest:.0f} ns >")
                raise Unresolved(f"{name} {edge} {latency_ns:.0f} ns")
        return throughput_gain_at_latency(
            curves[winner], curves[loser], latency_ns
        )
    return read


def _panel(figure, index: int):
    name = figure.PANELS[index].name
    return lambda result: result.panels[name]


P4, P8, BITREV, SHUFFLE = (_panel(figure10, i) for i in range(4))
F11A, F11B, F11C = (_panel(figure11, i) for i in range(3))


def _fold(curve: BNFCurve) -> float:
    """How far the heaviest load's throughput sits below the peak."""
    return _over(curve.peak_throughput(), curve.points[-1].throughput)


def _period(result: ClaimsResult, label: str) -> float:
    period = result.oscillation.period(label)
    return math.nan if period is None else float(period)


def _ordering(result) -> float:
    """The smallest margin of MCM >= WFA ~ PIM > PIM1 > SPAA."""
    at = result.matches_at_saturation
    return min(_over(at("PIM1"), at("SPAA")),
               _over(min(at("WFA"), at("PIM")), at("PIM1")))


def _shrinks(result) -> float:
    """The smallest drop of the spread from one occupancy to the next."""
    spreads = [result.spread_at(occupancy) for occupancy in result.occupancies]
    return min(a - b for a, b in zip(spreads, spreads[1:]))


CLAIMS: tuple[Claim, ...] = (
    Claim("F8.mcm-over-spaa", "fig8",
          "MCM over SPAA at the MCM saturation load", "~+36%",
          lambda r: r.gap_over_spaa("MCM"), about(0.36)),
    Claim("F8.pim1-over-spaa", "fig8",
          "PIM1's number of matches is 14% higher than SPAA's", "+14%",
          lambda r: r.gap_over_spaa("PIM1"), about(0.14)),
    Claim("F8.wfa-pim-close-to-mcm", "fig8",
          "WFA's and PIM's matches are almost close to MCM's", "~0%",
          lambda r: _over(min(r.matches_at_saturation(a) for a in ("WFA", "PIM")),
                          r.matches_at_saturation("MCM")), within(0.10)),
    Claim("F8.mcm-near-seven", "fig8",
          "MCM is usually very close to the maximum, seven", "~7",
          lambda r: r.matches_at_saturation("MCM"), within(0.10, 7.0)),
    Claim("F8.ordering", "fig8",
          "MCM >= WFA ~ PIM > PIM1 > SPAA at the saturation load", "> 0%",
          _ordering, POSITIVE),
    Claim("F9.similar-at-50", "fig9",
          "at 50% occupancy SPAA's matching is similar to the others'", "~0%",
          lambda r: r.spread_at(0.5), within(0.10)),
    Claim("F9.gone-at-75", "fig9",
          "the difference completely disappears at 75% occupancy", "~0%",
          lambda r: r.spread_at(0.75), within(0.05)),
    Claim("F9.gap-shrinks", "fig9",
          "the spread shrinks at every occupancy step", "> 0%",
          _shrinks, POSITIVE),
    Claim("F10.4x4-spaa-wfa", "fig10",
          "4x4: SPAA-base over WFA-base @ ~83 ns", "~+11%",
          _gain(P4, "SPAA-base", "WFA-base", 83.0), about(0.11)),
    Claim("F10.4x4-spaa-pim1", "fig10",
          "4x4: SPAA-base over PIM1 @ ~83 ns", "~+11%",
          _gain(P4, "SPAA-base", "PIM1", 83.0), about(0.11)),
    Claim("F10.4x4-base-rotary", "fig10",
          "4x4 does not collapse: SPAA-base's peak is close to SPAA-rotary's",
          "~0%", lambda r: _over(*(P4(r)[a].peak_throughput()
                                   for a in ("SPAA-base", "SPAA-rotary"))),
          within(0.10)),
    Claim("F10.4x4-min-latency", "fig10",
          "minimum average packet latency (4x4)", "~45 ns",
          lambda r: min(p.latency_ns for c in P4(r).values() for p in c.points),
          about(45.0)),
    Claim("F10.8x8-spaa-wfa", "fig10",
          "8x8: SPAA-base over WFA-base @ ~122 ns", "~+24%",
          _gain(P8, "SPAA-base", "WFA-base", 122.0), about(0.24)),
    Claim("F10.8x8-spaa-pim1", "fig10",
          "8x8: SPAA-base over PIM1 @ ~122 ns", "~+24%",
          _gain(P8, "SPAA-base", "PIM1", 122.0), about(0.24)),
    Claim("F10.8x8-pim1-wfa", "fig10",
          "8x8: PIM1 and WFA-base perform similarly @ ~122 ns", "~0%",
          _gain(P8, "PIM1", "WFA-base", 122.0), within(0.10)),
    Claim("F10.8x8-base-folds", "fig10",
          "8x8: beyond saturation SPAA-base's throughput degrades", "> 0%",
          lambda r: _fold(P8(r)["SPAA-base"]), POSITIVE),
    Claim("F10.8x8-wfa-folds-less", "fig10",
          "8x8: WFA-base degrades less than SPAA-base", "> 0%",
          lambda r: _fold(P8(r)["SPAA-base"]) - _fold(P8(r)["WFA-base"]),
          POSITIVE),
    Claim("F10.8x8-rotary-climbs", "fig10",
          "8x8: at the heaviest load SPAA-rotary beats SPAA-base", "> 0%",
          lambda r: _over(*(P8(r)[a].points[-1].throughput
                            for a in ("SPAA-rotary", "SPAA-base"))), POSITIVE),
    Claim("F10.8x8-spaa-rotary", "fig10",
          "8x8: SPAA-rotary over SPAA-base @ ~280 ns", "~+43%",
          _gain(P8, "SPAA-rotary", "SPAA-base", 280.0), about(0.43)),
    Claim("F10.8x8-wfa-rotary", "fig10",
          "8x8: WFA-rotary over WFA-base @ ~280 ns", "~+16%",
          _gain(P8, "WFA-rotary", "WFA-base", 280.0), about(0.16)),
    Claim("F10.bitrev-spaa-wfa", "fig10",
          "bit reversal, qualitatively similar: SPAA-base over WFA-base "
          "@ ~122 ns", "> 0%",
          _gain(BITREV, "SPAA-base", "WFA-base", 122.0), POSITIVE),
    Claim("F10.shuffle-spaa-wfa", "fig10",
          "perfect shuffle, likewise: SPAA-base over WFA-base @ ~122 ns",
          "> 0%", _gain(SHUFFLE, "SPAA-base", "WFA-base", 122.0), POSITIVE),
    Claim("F10.throughput-ceiling", "fig10",
          "delivered throughput stays under the 2.4 flits/router/ns maximum",
          "<= 2.4", lambda r: max(c.peak_throughput() for curves in
                                  r.panels.values() for c in curves.values()),
          (0.0, 2.4)),
    Claim("F11a.spaa-over-wfa", "fig11",
          "2x pipeline: SPAA-rotary over WFA-rotary @ ~100 ns", ">+60%",
          _gain(F11A, "SPAA-rotary", "WFA-rotary", 100.0), more_than(0.60)),
    Claim("F11a.spaa-over-pim1", "fig11",
          "2x pipeline: SPAA-rotary over PIM1 @ ~100 ns", ">+60%",
          _gain(F11A, "SPAA-rotary", "PIM1", 100.0), more_than(0.60)),
    Claim("F11b.spaa-over-wfa", "fig11",
          "64 outstanding misses: SPAA-rotary over WFA-rotary @ ~200 ns",
          "~+13%", _gain(F11B, "SPAA-rotary", "WFA-rotary", 200.0), about(0.13)),
    Claim("F11c.spaa-over-wfa", "fig11",
          "12x12: SPAA-rotary over WFA-rotary @ ~200 ns", "~+18%",
          _gain(F11C, "SPAA-rotary", "WFA-rotary", 200.0), about(0.18)),
    Claim("F11c.wfa-keeps-climbing", "fig11",
          "12x12: at extreme load WFA-rotary keeps climbing", "> 0%",
          lambda r: _over(*(p.throughput for p in
                            F11C(r)["WFA-rotary"].points[:-3:-1])), POSITIVE),
    Claim("T1", "claims",
          "each added arbitration cycle costs throughput under heavy load",
          "~5%", lambda r: r.latency_cost.loss_per_cycle(), about(0.05)),
    Claim("T2", "claims",
          "pipelining alone: SPAA-base over a 3-cycle WFA-base @ ~122 ns",
          "~+8%", _gain(lambda r: r.pipelining.curves, "SPAA-base", WFA_3CYCLE,
                        122.0), about(0.08)),
    Claim("T3.cyclic", "claims",
          "overload cycles: a dominant period on 8x8 (windows)", "> 0",
          lambda r: _period(r, "8x8"), POSITIVE),
    Claim("T3.period-grows", "claims",
          "the period grows with the diameter: 8x8 minus 4x4 (windows)", "> 0",
          lambda r: _period(r, "8x8") - _period(r, "4x4"), POSITIVE),
)


class Scored(NamedTuple):
    claim: Claim
    value: float | None  # None when the reading was refused
    status: str


def score(experiment: str, result) -> list[Scored]:
    """The rows of *experiment* that *result* holds the data for (a
    ``--panel`` run holds only its panels), read and judged."""
    scored = []
    for claim in (c for c in CLAIMS if c.experiment == experiment):
        try:
            value = float(claim.read(result))
        except KeyError:
            continue
        except Unresolved as reason:
            scored.append(Scored(claim, None, f"not resolved ({reason})"))
            continue
        low, high = claim.band
        status = ("not resolved" if not math.isfinite(value)
                  else "reproduced" if low <= value <= high
                  else "not reproduced")
        scored.append(Scored(claim, value, status))
    return scored


def _number(value: float, percent: bool) -> str:
    if not math.isfinite(value):
        return str(value)
    return f"{value:+.1%}" if percent else f"{value:.3g}"


def _cells(row: Scored) -> tuple[str, ...]:
    claim, value, status = row
    percent = "%" in claim.paper
    low, high = claim.band
    band = "> 0" if claim.band == POSITIVE else (
        f"[{_number(low, percent)}, {_number(high, percent)}"
        + (")" if high == math.inf else "]"))
    measured = "-" if value is None else _number(value, percent)
    return (claim.id, claim.paper, measured, band, status)


_HEADERS = ("claim", "paper", "measured", "band", "status")


def render(scored: list[Scored]) -> str:
    """Measured vs paper vs status, one line per row."""
    return format_table(_HEADERS, [_cells(row) for row in scored],
                        title="Paper claims")


def markdown(scored: list[Scored]) -> str:
    """:func:`render`'s cells as a Markdown table, with the paper's words."""
    lines = ["| claim | paper says | " + " | ".join(_HEADERS[1:]) + " |",
             "|---" * (len(_HEADERS) + 1) + "|"]
    for row in scored:
        claim_id, *rest = _cells(row)
        lines.append(f"| {claim_id} | {row.claim.text} | {' | '.join(rest)} |")
    return "\n".join(lines)


_SPAN = re.compile(
    r"(<!-- score:(?P<name>[\w-]+) -->\n).*?(<!-- /score:(?P=name) -->)",
    re.DOTALL,
)


def rewrite_spans(text: str, spans: dict[str, str]) -> str:
    """*text* with the body between each ``<!-- score:NAME -->`` and
    ``<!-- /score:NAME -->`` marker line replaced by ``spans[NAME]``;
    every byte outside the marker pairs stays.  ValueError when a
    span's markers are missing."""
    missing = sorted(set(spans) - {m["name"] for m in _SPAN.finditer(text)})
    if missing:
        raise ValueError("no <!-- score:NAME --> ... <!-- /score:NAME --> "
                         "pair for " + ", ".join(missing))
    return _SPAN.sub(lambda m: m[1] + spans[m["name"]] + "\n" + m[3]
                     if m["name"] in spans else m[0], text)
