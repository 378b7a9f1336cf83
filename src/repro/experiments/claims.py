"""The paper's in-text quantitative claims, as runnable ablations.

* **T1** -- "each additional cycle added to the 21364 router's
  arbitration pipeline degraded the network throughput by roughly 5%
  under heavy load" (measured with SPAA).  We sweep SPAA's arbitration
  latency from 3 to 8 cycles at a heavy load and report the loss per
  added cycle.
* **T2** -- "if we could implement WFA as a three-cycle arbitration
  mechanism like SPAA, then pipelining is the key difference ...
  SPAA provides a throughput boost of about 8%" (8x8, random traffic,
  ~122 ns).  We run WFA-base with the hypothetical 3-cycle timing and
  compare against SPAA-base.
* **T3** -- "the network produces a cyclic pattern of network link
  utilization with extremely high levels of uniform random input
  traffic ... The period of this cycle increases with the diameter of
  the network" (section 3.4).  We overload 4x4 and 8x8 networks, bucket
  the delivered throughput into windows, and compare the oscillation
  strength and dominant period.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.timing import SPAA_TIMING, WFA_3CYCLE_TIMING
from repro.experiments.figure10 import PRESETS
from repro.experiments.report import format_table
from repro.sim.config import (
    NetworkConfig,
    SimulationConfig,
    TrafficConfig,
    saturation_buffer_plan,
)
from repro.sim.observers import ThroughputTimeline
from repro.sim.sweep import sweep_algorithm, throughput_gain_at_latency
from repro.sim.timing_model import NetworkSimulator


def _base_config(preset: str, seed: int) -> SimulationConfig:
    warmup, measure = PRESETS[preset]
    return SimulationConfig(
        algorithm="SPAA-base",
        network=NetworkConfig(
            width=8, height=8, buffer_plan=saturation_buffer_plan()
        ),
        traffic=TrafficConfig(injection_rate=0.03),
        warmup_cycles=warmup,
        measure_cycles=measure,
        seed=seed,
    )


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
    base = _base_config(preset, seed)
    throughputs = []
    for latency in latencies:
        timing = replace(SPAA_TIMING, latency=latency)
        config = replace(base, arbitration_override=timing)
        throughputs.append(NetworkSimulator(config).bnf_point().throughput)
    return ArbLatencyCostResult(tuple(latencies), tuple(throughputs))


@dataclass(frozen=True)
class PipeliningGainResult:
    """Claim T2: SPAA vs a hypothetical 3-cycle (unpipelined) WFA."""

    gain_at_target: float
    target_latency_ns: float


def run_pipelining_gain(
    preset: str = "fast",
    target_latency_ns: float = 122.0,
    rates: tuple[float, ...] = (0.005, 0.01, 0.02, 0.03, 0.045),
    seed: int = 42,
) -> PipeliningGainResult:
    """Isolate the pipelining benefit (claim T2).

    Both configurations use 3-cycle arbitration; the only difference
    left is the initiation interval (1 vs 3) -- pipelining itself.
    """
    base = _base_config(preset, seed)
    spaa = sweep_algorithm(replace(base, algorithm="SPAA-base"), rates)
    wfa3 = sweep_algorithm(
        replace(
            base,
            algorithm="WFA-base",
            arbitration_override=WFA_3CYCLE_TIMING,
        ),
        rates,
    )
    return PipeliningGainResult(
        gain_at_target=throughput_gain_at_latency(spaa, wfa3, target_latency_ns),
        target_latency_ns=target_latency_ns,
    )


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
    warmup, measure = PRESETS[preset]
    by_network: dict[str, tuple[float, int | None]] = {}
    for size in sizes:
        config = SimulationConfig(
            algorithm="SPAA-base",
            network=NetworkConfig(
                width=size, height=size, buffer_plan=saturation_buffer_plan()
            ),
            traffic=TrafficConfig(injection_rate=overload_rate),
            warmup_cycles=warmup,
            measure_cycles=measure,
            seed=seed,
        )
        simulator = NetworkSimulator(config)
        timeline = ThroughputTimeline(window_cycles=window_cycles)
        simulator.attach_observer(timeline)
        simulator.run()
        skip = int(warmup // window_cycles)
        by_network[f"{size}x{size}"] = (
            timeline.oscillation(skip), timeline.dominant_period(skip)
        )
    return OscillationResult(by_network=by_network)


def format_claims(
    latency_cost: ArbLatencyCostResult,
    pipelining: PipeliningGainResult,
    oscillation: "OscillationResult | None" = None,
) -> str:
    t1 = format_table(
        ("arbitration latency (cycles)", "flits/router/ns"),
        list(zip(latency_cost.latencies, latency_cost.throughputs)),
        title=(
            "Claim T1: throughput vs arbitration latency under heavy load "
            f"(measured loss/cycle = {latency_cost.loss_per_cycle():.1%}, "
            "paper ~5%)"
        ),
    )
    t2 = format_table(
        ("comparison", "measured", "paper"),
        [(
            "SPAA-base over 3-cycle WFA-base "
            f"@{pipelining.target_latency_ns:.0f}ns",
            f"{pipelining.gain_at_target:+.1%}",
            "~+8%",
        )],
        title="Claim T2: the pipelining-only gain (8x8, random traffic)",
    )
    parts = [t1, t2]
    if oscillation is not None:
        rows = []
        for label, (cv, period) in oscillation.by_network.items():
            rows.append((label, f"{cv:.2f}",
                         "none detected" if period is None else str(period)))
        parts.append(format_table(
            ("network", "throughput oscillation (CV)", "dominant period (windows)"),
            rows,
            title="Claim T3: cyclic clog/clear under overload "
                  "(paper: period grows with network diameter)",
        ))
    return "\n\n".join(parts)


def main(preset: str = "fast") -> None:  # pragma: no cover - CLI glue
    print(format_claims(run_arb_latency_cost(preset), run_pipelining_gain(preset)))


if __name__ == "__main__":  # pragma: no cover
    main()
