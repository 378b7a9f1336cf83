"""Simulation layer: kernel, configs, metrics, standalone & timing models."""

from repro.sim.config import (
    DESTINATION_PATTERNS,
    HARDWARE_NODE_LIMIT,
    NetworkConfig,
    SimulationConfig,
    TrafficConfig,
    saturation_buffer_plan,
)
from repro.sim.engine import EventQueue
from repro.sim.metrics import (
    BNFCurve,
    BNFPoint,
    NetworkStats,
    ReservoirSampler,
    RunningStats,
)
from repro.sim.observers import (
    BufferOccupancyProbe,
    PacketTrace,
    PacketTracer,
    ThroughputTimeline,
)
from repro.sim.standalone import (
    StandaloneConfig,
    StandaloneRouterModel,
    find_mcm_saturation_load,
    measure_matches,
)
from repro.sim.sweep import (
    PointResult,
    PointSpec,
    SweepGuard,
    SweepPointError,
    geometric_rates,
    parse_trace_filename,
    sweep_algorithm,
    sweep_algorithms,
    throughput_gain_at_latency,
    trace_filename,
)
from repro.sim.timing_model import (
    NetworkSimulator,
    simulate,
    simulate_bnf_point,
)
from repro.sim.traffic import (
    BitReversalPattern,
    DestinationPattern,
    PerfectShufflePattern,
    PoissonInjector,
    UniformPattern,
    make_pattern,
)

__all__ = [
    "BNFCurve",
    "BNFPoint",
    "BitReversalPattern",
    "BufferOccupancyProbe",
    "PacketTrace",
    "PacketTracer",
    "ThroughputTimeline",
    "DESTINATION_PATTERNS",
    "DestinationPattern",
    "EventQueue",
    "HARDWARE_NODE_LIMIT",
    "NetworkConfig",
    "NetworkSimulator",
    "NetworkStats",
    "PerfectShufflePattern",
    "PointResult",
    "PointSpec",
    "PoissonInjector",
    "ReservoirSampler",
    "RunningStats",
    "SimulationConfig",
    "StandaloneConfig",
    "StandaloneRouterModel",
    "SweepGuard",
    "SweepPointError",
    "TrafficConfig",
    "UniformPattern",
    "find_mcm_saturation_load",
    "geometric_rates",
    "make_pattern",
    "measure_matches",
    "parse_trace_filename",
    "saturation_buffer_plan",
    "simulate",
    "simulate_bnf_point",
    "sweep_algorithm",
    "sweep_algorithms",
    "throughput_gain_at_latency",
    "trace_filename",
]
