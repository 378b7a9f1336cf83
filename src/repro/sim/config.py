"""Configuration dataclasses for the two performance models."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

from repro.core.antistarvation import AntiStarvationConfig
from repro.core.timing import ArbitrationTiming
from repro.network.channels import BufferPlan
from repro.network.packets import PacketClass
from repro.network.links import ClockSpec, LinkSpec
from repro.router.connection_matrix import ConnectionMatrix

#: The 21364 product scales to 128 processors; larger networks (the
#: paper's 12x12 study) are legitimate what-if configurations but get a
#: gentle warning so nobody mistakes them for buildable systems.
HARDWARE_NODE_LIMIT = 128

DESTINATION_PATTERNS = ("uniform", "bit-reversal", "perfect-shuffle")

#: Revision of the timing model's behaviour, stamped on every file
#: ``repro-experiments score`` writes.  A declared modelling change
#: bumps it and re-scores in the same change.
MODEL_REVISION = 1


@dataclass(frozen=True)
class NetworkConfig:
    """Shape and clocking of the simulated torus network.

    Attributes:
        width, height: torus dimensions (4x4, 8x8 and 12x12 in the
            paper).
        clocks: core and link clock frequencies.
        link: hop latency parameters.
        buffer_plan: per-input-port buffer partitioning (316 packets).
        matrix: the 16x7 connection matrix wiring.
        pipeline_scale: 2 models the twice-deeper, twice-faster router
            of Figure 11a -- it doubles both clocks, every pipeline
            latency, and the arbitration timings.
    """

    width: int = 4
    height: int = 4
    clocks: ClockSpec = field(default_factory=ClockSpec)
    link: LinkSpec = field(default_factory=LinkSpec)
    buffer_plan: BufferPlan = field(default_factory=BufferPlan)
    matrix: ConnectionMatrix = field(default_factory=ConnectionMatrix)
    pipeline_scale: int = 1

    def __post_init__(self) -> None:
        if self.pipeline_scale < 1:
            raise ValueError("pipeline_scale must be >= 1")
        if self.width * self.height > HARDWARE_NODE_LIMIT:
            warnings.warn(
                f"{self.width}x{self.height} exceeds the 21364's "
                f"{HARDWARE_NODE_LIMIT}-processor limit; simulating a "
                "what-if configuration (as the paper does for 12x12)",
                stacklevel=3,
            )

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    @property
    def effective_clocks(self) -> ClockSpec:
        """Clocks after pipeline scaling (Figure 11a doubles both)."""
        if self.pipeline_scale == 1:
            return self.clocks
        return ClockSpec(
            core_ghz=self.clocks.core_ghz * self.pipeline_scale,
            link_ghz=self.clocks.link_ghz * self.pipeline_scale,
        )

    @property
    def effective_link(self) -> LinkSpec:
        """Per-hop latencies after pipeline scaling (deeper pipes)."""
        if self.pipeline_scale == 1:
            return self.link
        return LinkSpec(
            pin_to_pin_cycles=self.link.pin_to_pin_cycles * self.pipeline_scale,
            link_latency_network_clocks=self.link.link_latency_network_clocks,
            local_port_cycles=self.link.local_port_cycles * self.pipeline_scale,
        )


@dataclass(frozen=True)
class TrafficConfig:
    """Synthetic coherence traffic (paper section 4.2).

    Attributes:
        pattern: destination selection -- ``uniform``, ``bit-reversal``
            or ``perfect-shuffle``.
        injection_rate: offered load, in new coherence transactions per
            node per core cycle.  Attempts finding all MSHRs busy are
            dropped, which is exactly how a 16-outstanding-miss
            processor self-throttles.
        two_hop_fraction: share of 2-hop transactions (request + block
            response); the rest are 3-hop (request + forward + block
            response).  The paper uses 0.7 / 0.3.
        mshr_limit: outstanding misses per processor (16 for the
            21364, 64 in Figure 11b).
        memory_latency_ns: memory response time (73 ns).
        l2_latency_cycles: on-chip L2 response time (25 cycles).
    """

    pattern: str = "uniform"
    injection_rate: float = 0.01
    two_hop_fraction: float = 0.7
    mshr_limit: int = 16
    memory_latency_ns: float = 73.0
    l2_latency_cycles: float = 25.0
    #: share of transactions that are I/O reads (READ_IO out, WRITE_IO
    #: back via the I/O ports on the deadlock-free channels).  The
    #: paper's mix has no I/O traffic; this is an extension knob.
    io_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.pattern not in DESTINATION_PATTERNS:
            raise ValueError(
                f"pattern {self.pattern!r} not in {DESTINATION_PATTERNS}"
            )
        if self.injection_rate <= 0:
            raise ValueError("injection_rate must be positive")
        if not 0.0 <= self.two_hop_fraction <= 1.0:
            raise ValueError("two_hop_fraction must be within [0, 1]")
        if self.mshr_limit < 1:
            raise ValueError("mshr_limit must be positive")
        if self.memory_latency_ns < 0 or self.l2_latency_cycles < 0:
            raise ValueError("latencies cannot be negative")
        if not 0.0 <= self.io_fraction <= 1.0:
            raise ValueError("io_fraction must be within [0, 1]")


@dataclass(frozen=True)
class SimulationConfig:
    """One timing-model run.

    The paper simulates 75 000 cycles per point; the ``fast`` preset
    trades statistical tightness for wall-clock time in benchmarks.
    """

    algorithm: str = "SPAA-base"
    network: NetworkConfig = field(default_factory=NetworkConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    warmup_cycles: int = 15_000
    measure_cycles: int = 60_000
    seed: int = 42
    antistarvation: AntiStarvationConfig = field(
        default_factory=AntiStarvationConfig
    )
    #: replace the algorithm's registry timing (before pipeline
    #: scaling); used by the ablation studies -- e.g. a hypothetical
    #: 3-cycle WFA, or SPAA with a stretched arbitration latency.
    arbitration_override: ArbitrationTiming | None = None

    def __post_init__(self) -> None:
        if self.warmup_cycles < 0 or self.measure_cycles <= 0:
            raise ValueError("cycle counts must be positive")

    @property
    def total_cycles(self) -> int:
        return self.warmup_cycles + self.measure_cycles

    def with_rate(self, injection_rate: float) -> "SimulationConfig":
        """A copy at a different offered load (sweep helper)."""
        return replace(
            self, traffic=replace(self.traffic, injection_rate=injection_rate)
        )

    def with_algorithm(self, algorithm: str) -> "SimulationConfig":
        """A copy running a different arbitration algorithm."""
        return replace(self, algorithm=algorithm)


def paper_run(config: SimulationConfig) -> SimulationConfig:
    """Stretch a config to the paper's 75 000-cycle runs."""
    return replace(config, warmup_cycles=15_000, measure_cycles=60_000)


def fast_run(config: SimulationConfig) -> SimulationConfig:
    """Shrink a config for benchmarks and smoke tests."""
    return replace(config, warmup_cycles=4_000, measure_cycles=12_000)


def saturation_buffer_plan() -> BufferPlan:
    """Lean buffering that lets tree saturation bind (see DESIGN.md §5).

    Our packet-granular model frees an input-buffer slot at grant time
    and sinks local traffic without limit, so with the hardware's full
    316-packet buffers the 16-outstanding-miss population can never
    back-pressure the network and the paper's beyond-saturation
    collapse has nothing to bite on.  This calibrated plan shrinks the
    adaptive partitions until back-pressure binds at roughly the
    paper's saturation point, which recovers the Figure 10 dynamics:
    base policies collapse beyond saturation, Rotary-Rule variants
    keep climbing.  Pre-saturation results are unaffected (buffers do
    not fill there).
    """
    return BufferPlan(
        adaptive_capacity={
            PacketClass.REQUEST: 3,
            PacketClass.FORWARD: 2,
            PacketClass.BLOCK_RESPONSE: 3,
            PacketClass.NONBLOCK_RESPONSE: 2,
        }
    )
