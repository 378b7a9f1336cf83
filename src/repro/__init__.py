"""repro: a reproduction of the Alpha 21364 router arbitration study.

Implements SPAA, the Rotary Rule and the comparison arbitration
algorithms (PIM, PIM1, WFA, MCM, OPF) from Mukherjee et al., "A
Comparative Study of Arbitration Algorithms for the Alpha 21364
Pipelined Router" (ASPLOS 2002), together with the full simulation
substrate needed to regenerate every figure in the paper: the 2D torus
network, the 21364 pipelined router, virtual cut-through routing with
escape channels, the coherence-protocol workload, and the standalone
and timing performance models.

Quickstart::

    from repro.sim import StandaloneConfig, measure_matches
    print(measure_matches(StandaloneConfig(algorithm="SPAA", load=64)))

    from repro.sim import SimulationConfig, simulate_bnf_point
    point = simulate_bnf_point(SimulationConfig(algorithm="SPAA-rotary"))
    print(point.throughput, point.latency_ns)
"""

from repro.core import (
    MCMArbiter,
    OPFArbiter,
    PIMArbiter,
    SPAAArbiter,
    WavefrontArbiter,
    make_arbiter,
)
from repro.sim import (
    NetworkSimulator,
    SimulationConfig,
    StandaloneConfig,
    measure_matches,
    simulate,
    simulate_bnf_point,
)

__version__ = "1.0.0"

__all__ = [
    "MCMArbiter",
    "NetworkSimulator",
    "OPFArbiter",
    "PIMArbiter",
    "SPAAArbiter",
    "SimulationConfig",
    "StandaloneConfig",
    "WavefrontArbiter",
    "__version__",
    "make_arbiter",
    "measure_matches",
    "simulate",
    "simulate_bnf_point",
]
