"""Seeded random fault scenarios: the campaign's unit of work.

A :class:`ChaosScenario` is a *complete, self-contained* description
of one adversarial run -- which model (timing torus or standalone
matching), which algorithm, which traffic, which fault schedule, and
every seed involved.  Scenarios are generated from a single campaign
seed by :func:`generate_scenarios`, so the same seed always produces
the same scenario list; and because a scenario carries everything the
runner needs, a scenario serialized into a replay bundle re-executes
bitwise identically months later.

Identity is content-addressed: :meth:`ChaosScenario.digest` hashes the
canonical JSON form, and the default ``scenario_id`` embeds the digest
prefix so two campaigns can never silently conflate different
scenarios that share an index.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, fields, replace

from repro.core.registry import STANDALONE_ALGORITHMS, TIMING_ALGORITHMS
from repro.resilience.faults import FaultConfig
from repro.resilience.watchdog import WatchdogConfig
from repro.sim.config import DESTINATION_PATTERNS
from repro.sim.traffic import pattern_fits

SCENARIO_KINDS = ("timing", "standalone")

#: fixed name of the deliberately-injected deadlock scenario, so CI can
#: replay ``bundles/injected-deadlock/bundle.json`` without globbing.
INJECTED_DEADLOCK_NAME = "injected-deadlock"


def canonical_json(value) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _encode_cycles(value: float):
    """JSON-safe stall duration (``inf`` is a legal permanent stall)."""
    return "inf" if math.isinf(value) else value


def _decode_cycles(value) -> float:
    return math.inf if value == "inf" else float(value)


@dataclass(frozen=True)
class ChaosScenario:
    """One adversarial run, fully specified (seeds included).

    The fault dimensions mirror :class:`~repro.resilience.FaultConfig`;
    a dimension left at its zero value is *inactive* (see
    :func:`active_fault_dimensions`), which is what the shrinker
    minimizes.  Timing-model dimensions (pattern, rate, torus size,
    cycle counts, watchdog) are ignored by standalone scenarios and
    vice versa (load, occupancy, trials), but every field always
    serializes so the digest never depends on the kind.
    """

    index: int
    kind: str
    algorithm: str
    seed: int
    name: str = ""
    # -- fault dimensions (zero value = inactive) -------------------------
    fault_seed: int = 0
    flit_drop_rate: float = 0.0
    flit_corrupt_rate: float = 0.0
    grant_suppression_rate: float = 0.0
    grant_misroute_rate: float = 0.0
    stall_node: int | None = None
    stall_start_cycle: float = 0.0
    stall_cycles: float = 0.0
    # -- timing-model dimensions ------------------------------------------
    pattern: str = "uniform"
    injection_rate: float = 0.01
    width: int = 2
    height: int = 2
    warmup_cycles: int = 300
    measure_cycles: int = 1500
    watchdog_window: float = 400.0
    remediate: bool = False
    drain_budget: float = 20_000.0
    # -- standalone-model dimensions --------------------------------------
    load: int = 16
    occupancy: float = 0.0
    trials: int = 200

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"kind {self.kind!r} not in {SCENARIO_KINDS}")
        WatchdogConfig(window_cycles=self.watchdog_window)  # the runner's check

    @property
    def scenario_id(self) -> str:
        """Stable handle: the explicit name, or index + digest prefix."""
        return self.name or f"s{self.index:03d}-{self.digest()[:8]}"

    def fault_config(self) -> FaultConfig | None:
        """The scenario's fault schedule; None when no dimension is active."""
        if not active_fault_dimensions(self):
            return None
        return FaultConfig(
            seed=self.fault_seed,
            flit_drop_rate=self.flit_drop_rate,
            flit_corrupt_rate=self.flit_corrupt_rate,
            grant_suppression_rate=self.grant_suppression_rate,
            grant_misroute_rate=self.grant_misroute_rate,
            stall_node=self.stall_node,
            stall_start_cycle=self.stall_start_cycle,
            stall_cycles=self.stall_cycles,
        )

    def as_dict(self) -> dict:
        """Canonical JSON-serializable form (bundles, manifests, digests)."""
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        record["stall_cycles"] = _encode_cycles(self.stall_cycles)
        return record

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosScenario":
        """Inverse of :meth:`as_dict` (replay-bundle loading)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"scenario record has unknown fields {sorted(unknown)} "
                "(bundle from a newer schema?)"
            )
        kwargs = dict(data)
        if "stall_cycles" in kwargs:
            kwargs["stall_cycles"] = _decode_cycles(kwargs["stall_cycles"])
        return cls(**kwargs)

    def digest(self) -> str:
        """Content hash of the full scenario (identity across runs)."""
        return hashlib.sha256(
            canonical_json(self.as_dict()).encode()
        ).hexdigest()


#: (dimension name, predicate) -- a scenario's *active* fault dimensions.
_FAULT_DIMENSIONS = (
    ("flit-drop", lambda s: s.flit_drop_rate > 0.0),
    ("flit-corrupt", lambda s: s.flit_corrupt_rate > 0.0),
    ("grant-suppression", lambda s: s.grant_suppression_rate > 0.0),
    ("grant-misroute", lambda s: s.grant_misroute_rate > 0.0),
    ("stall", lambda s: s.stall_node is not None and s.stall_cycles > 0),
)


def active_fault_dimensions(scenario: ChaosScenario) -> tuple[str, ...]:
    """Names of the fault dimensions this scenario actually exercises."""
    return tuple(
        name for name, active in _FAULT_DIMENSIONS if active(scenario)
    )


def fault_schedule_digest(scenario: ChaosScenario) -> str | None:
    """Content hash of the fault schedule alone (None when fault-free).

    The schedule is fully determined by the fault dimensions plus the
    fault seed, so hashing the config hashes the schedule.
    """
    if not active_fault_dimensions(scenario):
        return None
    payload = {
        "fault_seed": scenario.fault_seed,
        "flit_drop_rate": scenario.flit_drop_rate,
        "flit_corrupt_rate": scenario.flit_corrupt_rate,
        "grant_suppression_rate": scenario.grant_suppression_rate,
        "grant_misroute_rate": scenario.grant_misroute_rate,
        "stall_node": scenario.stall_node,
        "stall_start_cycle": scenario.stall_start_cycle,
        "stall_cycles": _encode_cycles(scenario.stall_cycles),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@dataclass(frozen=True)
class ScenarioSpace:
    """The distribution :func:`generate_scenarios` samples from.

    The defaults keep scenarios small (tiny tori, short windows) so a
    20-scenario campaign finishes in tens of seconds; :meth:`smoke` is
    smaller still, for CI.  Fault rates are drawn uniformly up to the
    ``max_*`` bounds, and each dimension is independently active with
    probability ``dimension_rate`` -- most scenarios exercise one or
    two dimensions, some none (clean controls), some several.
    """

    timing_algorithms: tuple[str, ...] = TIMING_ALGORITHMS
    standalone_algorithms: tuple[str, ...] = STANDALONE_ALGORITHMS
    patterns: tuple[str, ...] = DESTINATION_PATTERNS
    torus_sizes: tuple[tuple[int, int], ...] = ((2, 2), (3, 3))
    injection_rate_range: tuple[float, float] = (0.002, 0.02)
    warmup_cycles: int = 300
    measure_cycles: int = 1500
    watchdog_window: float = 400.0
    drain_budget: float = 20_000.0
    loads: tuple[int, ...] = (8, 16, 32)
    occupancies: tuple[float, ...] = (0.0, 0.25, 0.5)
    trials: int = 200
    standalone_fraction: float = 0.25
    dimension_rate: float = 0.45
    max_flit_drop_rate: float = 5e-3
    max_flit_corrupt_rate: float = 5e-3
    max_suppression_rate: float = 0.05
    max_misroute_rate: float = 0.05
    max_stall_cycles: float = 400.0
    remediate_fraction: float = 0.5

    @classmethod
    def smoke(cls) -> "ScenarioSpace":
        """The CI preset: 2x2 only, short windows, few trials."""
        return cls(
            torus_sizes=((2, 2),),
            warmup_cycles=200,
            measure_cycles=800,
            watchdog_window=300.0,
            drain_budget=10_000.0,
            trials=80,
        )


def _draw_fault_dimensions(
    rng: random.Random, space: ScenarioSpace, standalone: bool, num_nodes: int
) -> dict:
    """One scenario's fault dimensions (only random stalls are finite --
    permanent stalls are reserved for the injected-deadlock scenario)."""
    dims: dict = {"fault_seed": rng.randrange(1 << 30)}
    if not standalone:
        if rng.random() < space.dimension_rate:
            dims["flit_drop_rate"] = round(
                rng.uniform(0.0, space.max_flit_drop_rate), 6
            )
        if rng.random() < space.dimension_rate:
            dims["flit_corrupt_rate"] = round(
                rng.uniform(0.0, space.max_flit_corrupt_rate), 6
            )
    if rng.random() < space.dimension_rate:
        dims["grant_suppression_rate"] = round(
            rng.uniform(0.0, space.max_suppression_rate), 6
        )
    if not standalone and rng.random() < space.dimension_rate:
        dims["grant_misroute_rate"] = round(
            rng.uniform(0.0, space.max_misroute_rate), 6
        )
    if rng.random() < space.dimension_rate:
        dims["stall_node"] = rng.randrange(num_nodes)
        if standalone:
            # The standalone stall window is measured in trial indices.
            dims["stall_start_cycle"] = float(rng.randrange(space.trials // 2))
            dims["stall_cycles"] = float(
                rng.randrange(1, max(2, space.trials // 4))
            )
        else:
            horizon = space.warmup_cycles + space.measure_cycles
            dims["stall_start_cycle"] = round(rng.uniform(0.0, horizon / 2), 1)
            dims["stall_cycles"] = round(
                rng.uniform(50.0, space.max_stall_cycles), 1
            )
    return dims


def generate_scenarios(
    campaign_seed: int,
    count: int,
    space: ScenarioSpace | None = None,
    include_standalone: bool = True,
) -> list[ChaosScenario]:
    """The campaign's scenario list -- a pure function of its arguments.

    Everything random is drawn from one ``random.Random(campaign_seed)``
    in a fixed order, so the same (seed, count, space,
    include_standalone) always yields the identical list: that is what
    makes campaign resume, cross-worker determinism and months-later
    replay possible.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    space = space if space is not None else ScenarioSpace()
    rng = random.Random(campaign_seed)
    scenarios = []
    for index in range(count):
        standalone = (
            include_standalone and rng.random() < space.standalone_fraction
        )
        if standalone:
            faults = _draw_fault_dimensions(rng, space, True, num_nodes=1)
            scenarios.append(
                ChaosScenario(
                    index=index,
                    kind="standalone",
                    algorithm=rng.choice(space.standalone_algorithms),
                    seed=rng.randrange(1 << 30),
                    load=rng.choice(space.loads),
                    occupancy=rng.choice(space.occupancies),
                    trials=space.trials,
                    **faults,
                )
            )
        else:
            width, height = rng.choice(space.torus_sizes)
            faults = _draw_fault_dimensions(
                rng, space, False, num_nodes=width * height
            )
            low, high = space.injection_rate_range
            scenarios.append(
                ChaosScenario(
                    index=index,
                    kind="timing",
                    algorithm=rng.choice(space.timing_algorithms),
                    seed=rng.randrange(1 << 30),
                    # Only patterns that exist on the drawn torus:
                    # 3x3 has no bit-reversal or perfect-shuffle.
                    pattern=rng.choice([
                        pattern
                        for pattern in space.patterns
                        if pattern_fits(pattern, width * height)
                    ]),
                    injection_rate=round(rng.uniform(low, high), 6),
                    width=width,
                    height=height,
                    warmup_cycles=space.warmup_cycles,
                    measure_cycles=space.measure_cycles,
                    watchdog_window=space.watchdog_window,
                    remediate=rng.random() < space.remediate_fraction,
                    drain_budget=space.drain_budget,
                    **faults,
                )
            )
    return scenarios


def injected_deadlock_scenario(
    index: int, space: ScenarioSpace | None = None
) -> ChaosScenario:
    """A scenario guaranteed to deadlock: router 0 stalled forever.

    Used by CI to prove the failure-capture path end to end: the
    campaign must classify it as a deadlock, write its replay bundle,
    and ``repro chaos replay`` must reproduce it from that bundle.
    ``remediate=True`` also exercises the watchdog's recovery kick --
    which cannot cure a stalled arbiter, so the trace records a
    ``deadlocked`` verdict, not a lost wake-up.
    """
    space = space if space is not None else ScenarioSpace()
    return ChaosScenario(
        index=index,
        kind="timing",
        algorithm="SPAA-base",
        seed=7,
        name=INJECTED_DEADLOCK_NAME,
        fault_seed=7,
        stall_node=0,
        stall_start_cycle=0.0,
        stall_cycles=math.inf,
        pattern="uniform",
        injection_rate=0.01,
        width=2,
        height=2,
        warmup_cycles=space.warmup_cycles,
        measure_cycles=space.measure_cycles,
        watchdog_window=space.watchdog_window,
        remediate=True,
        drain_budget=space.drain_budget,
    )


def disable_dimension(scenario: ChaosScenario, name: str) -> ChaosScenario:
    """A copy with one fault dimension turned off (shrinking primitive)."""
    if name == "flit-drop":
        return replace(scenario, flit_drop_rate=0.0)
    if name == "flit-corrupt":
        return replace(scenario, flit_corrupt_rate=0.0)
    if name == "grant-suppression":
        return replace(scenario, grant_suppression_rate=0.0)
    if name == "grant-misroute":
        return replace(scenario, grant_misroute_rate=0.0)
    if name == "stall":
        return replace(
            scenario, stall_node=None, stall_start_cycle=0.0, stall_cycles=0.0
        )
    raise ValueError(f"unknown fault dimension {name!r}")
