"""The four workloads: what each runs, why it was chosen, how it is checked.

All four are closed loops by construction: one process issues one unit
of work at a time and waits for it.  A *unit* is the smallest thing the
harness times on its own -- a timing-model point, one half of the
standalone grid, one whole supervised sweep -- and a *pass* is every
unit of a workload once.  Units are built (configs, simulators, models,
journals) before the timed body and only ``run`` is timed.

The grids, regimes and algorithm sets are fixed.  Cycle and trial
counts are the issue's sizing numbers times 0.3, so that a pass takes
5-9 s on the 2-core sizing host and a ``run_seconds`` window holds about
three of them; ``--scale`` multiplies them again.  The one exception is
the vectorized large batch, which stays at 10 000 trials: it sits where
kernel throughput falls off, and that is a property of the batch size,
not of the run length.

The seed reaches the program only as ``SimulationConfig.seed`` /
``StandaloneConfig.seed``; the same seed gives the same inputs.
"""

from __future__ import annotations

import math
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import catalog
from repro.resilience import SupervisorConfig, SweepJournal
from repro.sim import (
    BNFCurve,
    BNFPoint,
    NetworkConfig,
    NetworkSimulator,
    SimulationConfig,
    StandaloneConfig,
    StandaloneRouterModel,
    TrafficConfig,
    saturation_buffer_plan,
    sweep_algorithms,
    throughput_gain_at_latency,
)
from repro.sim.parallel import SweepSupervisionError

#: link bandwidth bound on delivered throughput: 4 torus + 2 local
#: output ports cannot sink more than this per router.
MAX_THROUGHPUT_FLITS_PER_ROUTER_NS = 2.4

#: the fixed load of the supervised workload (never more than nproc on
#: the 2-core sizing host; the run record holds cpu_count).
SWEEP_WORKERS = 2


@dataclass
class Output:
    """One point's (or cell's) simulated result, in comparable form."""

    point: str
    #: simulated statistics; floats as ``repr`` strings so a reference
    #: file compares bit for bit (and NaN equals NaN)
    stats: dict
    #: what ``work_per_cpu_s`` counts for this point
    work: int
    #: the layer's own result object, for the paper claims
    result: object = None
    #: failed checks, as text
    problems: list[str] = field(default_factory=list)


class Workload:
    """What the harness needs from a workload; see the four below."""

    name: str
    why: str
    #: what ``work_per_cpu_s`` counts
    work_unit: str

    def build(self, seed: int, scale: float, directory: Path) -> list:
        """Set-up: construct every unit of one pass (not timed)."""
        raise NotImplementedError

    def warm_up(self, seed: int, scale: float, directory: Path) -> None:
        """One untimed point: lazy imports, registries, caches."""
        raise NotImplementedError

    def verify(self, outputs: dict[str, Output]) -> None:
        """Checks across the outputs of one pass; appends to ``problems``."""

    def claim(self, outputs: dict[str, Output]) -> tuple[float, float] | None:
        """(measured, paper) for the workload's headline claim, in percent."""
        return None

    def model_means(self, outputs: dict[str, Output]) -> dict[str, float]:
        """Means of the simulated statistics over a pass of BNF points."""
        points = [output.result for output in outputs.values()]
        return {
            "model.throughput_flits_per_router_ns": _mean_of_finite(
                point.throughput for point in points
            ),
            "model.packet_latency_ns": _mean_of_finite(
                point.latency_ns for point in points
            ),
            "model.transaction_latency_ns": _mean_of_finite(
                point.transaction_latency_ns for point in points
            ),
        }

    def model_metrics(self, outputs: dict[str, Output]) -> dict[str, float]:
        """The simulated (exact for a seed) metrics of one whole pass."""
        metrics = self.model_means(outputs)
        claim = self.claim(outputs)
        if claim is not None:
            measured, paper = claim
            metrics["model.paper_claim_abs_err_pp"] = _mean_of_finite(
                [abs(measured - paper)]
            )
        return metrics


def _mean_of_finite(values) -> float:
    """Mean over the finite values; 0.0 when a tiny --scale leaves none."""
    finite = [value for value in values if math.isfinite(value)]
    return sum(finite) / len(finite) if finite else 0.0


def _scope(tracer, point: str):
    return tracer.span("point", point=point) if tracer is not None else nullcontext()


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _bnf_stats(point: BNFPoint) -> dict:
    return {
        "packets_delivered": point.packets_delivered,
        "throughput": repr(point.throughput),
        "latency_ns": repr(point.latency_ns),
        "transaction_latency_ns": repr(point.transaction_latency_ns),
    }


def _check_throughput(output: Output, throughput: float) -> None:
    if not throughput <= MAX_THROUGHPUT_FLITS_PER_ROUTER_NS:
        output.problems.append(
            f"throughput {throughput!r} exceeds "
            f"{MAX_THROUGHPUT_FLITS_PER_ROUTER_NS} flits/router/ns"
        )


def _network_config(width: int, height: int) -> NetworkConfig:
    return NetworkConfig(
        width=width, height=height, buffer_plan=saturation_buffer_plan()
    )


# -- timing-model points -----------------------------------------------------


class TimingUnit:
    """One ``NetworkSimulator`` point, null telemetry, run in-process."""

    points = 1
    role = "work"
    failed = 0

    def __init__(self, config: SimulationConfig) -> None:
        self.key = f"{config.algorithm}@{config.traffic.injection_rate!r}"
        self.simulator = NetworkSimulator(config)
        self.point: BNFPoint | None = None

    def run(self, tracer=None) -> None:
        with _scope(tracer, self.key):
            self.point = self.simulator.bnf_point()

    def outputs(self) -> list[Output]:
        sim, point = self.simulator, self.point
        output = Output(
            point=self.key,
            stats={
                **_bnf_stats(point),
                "flits_delivered": sim.stats.flits_delivered,
            },
            work=point.packets_delivered,
            result=point,
        )
        outstanding = (
            sim.total_buffered_packets()
            + sim.total_pending_injections()
            + sim.packets_in_transit
            + sim.packets_sinking
        )
        accounted = sim.total_delivered + sim.total_dropped + outstanding
        if sim.total_injected != accounted:
            output.problems.append(
                f"conservation: injected {sim.total_injected} != delivered + "
                f"dropped + outstanding {accounted}"
            )
        _check_throughput(output, point.throughput)
        return [output]


def _curve(outputs: dict[str, Output], algorithm: str) -> BNFCurve:
    return BNFCurve(
        label=algorithm,
        points=[
            output.result
            for key, output in outputs.items()
            if key.startswith(algorithm + "@")
        ],
    )


def _knee_claim(outputs: dict[str, Output]) -> tuple[float, float]:
    """SPAA-base +11% throughput over WFA-base at 83 ns average latency."""
    gain = throughput_gain_at_latency(
        _curve(outputs, "SPAA-base"), _curve(outputs, "WFA-base"), 83.0
    )
    return 100.0 * gain, 11.0


def _saturated_claim(outputs: dict[str, Output]) -> tuple[float, float]:
    """SPAA-rotary +43% delivered throughput over SPAA-base beyond saturation."""
    rotary = _curve(outputs, "SPAA-rotary").peak_throughput()
    base = _curve(outputs, "SPAA-base").peak_throughput()
    return 100.0 * (rotary / base - 1.0), 43.0


class TimingWorkload(Workload):
    """A grid of timing-model points run serially with null telemetry.

    Uniform 70/30 coherence mix, 16 MSHRs and ``saturation_buffer_plan()``
    on both grids; only the torus, the algorithms, the rates and the run
    length differ.
    """

    work_unit = "packets"

    def __init__(
        self, *, name, why, side, algorithms, rates, warmup, measure, claim
    ) -> None:
        self.name = name
        self.why = why
        self._network = _network_config(side, side)
        self._algorithms = algorithms
        self._rates = rates
        self._warmup = warmup
        self._measure = measure
        self._claim = claim

    def _config(self, algorithm, rate, seed, scale) -> SimulationConfig:
        return SimulationConfig(
            algorithm=algorithm,
            network=self._network,
            traffic=TrafficConfig(injection_rate=rate, mshr_limit=16),
            warmup_cycles=_scaled(self._warmup, scale),
            measure_cycles=_scaled(self._measure, scale),
            seed=seed,
        )

    def build(self, seed, scale, directory) -> list[TimingUnit]:
        return [
            TimingUnit(self._config(algorithm, rate, seed, scale))
            for algorithm in self._algorithms
            for rate in self._rates
        ]

    def warm_up(self, seed, scale, directory) -> None:
        config = self._config(self._algorithms[0], self._rates[0], seed, scale)
        TimingUnit(config).run()

    def claim(self, outputs):
        return self._claim(outputs)


# -- the standalone matching model -------------------------------------------

STANDALONE_LOADS = (8, 16, 32, 64)
OBJECT_ALGORITHMS = ("MCM", "PIM", "PIM1", "WFA", "SPAA")
VECTORIZED_ALGORITHMS = ("PIM1", "WFA", "SPAA", "OPF")
OBJECT_TRIALS = 300
LARGE_BATCH_TRIALS = 10_000


class StandaloneUnit:
    """One half of the standalone grid: every cell of one backend and size."""

    failed = 0

    def __init__(self, key, role, backend, algorithms, trials, seed) -> None:
        self.key = key
        self.role = role
        self.trials = trials
        self.models = [
            (
                f"{algorithm}/{backend}/load{load}/trials{trials}",
                StandaloneRouterModel(
                    StandaloneConfig(
                        algorithm=algorithm, load=load, trials=trials, seed=seed
                    ),
                    backend=backend,
                ),
            )
            for algorithm in algorithms
            for load in STANDALONE_LOADS
        ]
        self.points = len(self.models)
        #: vectorized cells the layer sent down the object path instead
        self.fallbacks = sum(
            model.fallback_reason is not None for _, model in self.models
        )
        self._means: dict[str, float] = {}

    def run(self, tracer=None) -> None:
        for key, model in self.models:
            with _scope(tracer, key):
                self._means[key] = model.run().mean

    def outputs(self) -> list[Output]:
        return [
            Output(
                point=key,
                stats={"mean_matches": repr(mean)},
                work=self.trials,
                result=mean,
            )
            for key, mean in self._means.items()
        ]


def _object_cell(outputs: dict[str, Output], algorithm: str, load: int) -> Output:
    prefix = f"{algorithm}/object/load{load}/"
    return next(out for key, out in outputs.items() if key.startswith(prefix))


class StandaloneWorkload(Workload):
    name = catalog.STANDALONE
    why = (
        "core does all the work of the object half and kernels all of the "
        "vectorized half; router, network, coherence and the event kernel do "
        "none, so timing-model optimisations must read no change here"
    )
    work_unit = "arbitrations"

    def build(self, seed, scale, directory) -> list[StandaloneUnit]:
        small = _scaled(OBJECT_TRIALS, scale)
        large = _scaled(LARGE_BATCH_TRIALS, scale)
        return [
            StandaloneUnit("object", "work", "object", OBJECT_ALGORITHMS, small, seed),
            StandaloneUnit(
                "vectorized-large", "kernel", "vectorized",
                VECTORIZED_ALGORITHMS, large, seed,
            ),
            # The same grid at the object half's size: the scaling ratio's
            # base, and the cells both backends run (bit-for-bit check).
            StandaloneUnit(
                "vectorized-small", None, "vectorized",
                VECTORIZED_ALGORITHMS, small, seed,
            ),
        ]

    def warm_up(self, seed, scale, directory) -> None:
        for backend in ("object", "vectorized"):
            StandaloneUnit("warm-up", None, backend, ("SPAA",), 20, seed).run()

    def verify(self, outputs) -> None:
        """Vectorized == object bit for bit on the cells both halves run."""
        for key, output in outputs.items():
            twin = outputs.get(key.replace("/vectorized/", "/object/"))
            if "/vectorized/" in key and twin is not None:
                if twin.stats != output.stats:
                    output.problems.append(
                        f"vectorized {output.stats['mean_matches']} != object "
                        f"{twin.stats['mean_matches']}"
                    )

    def model_means(self, outputs):
        return {
            "model.matches_per_arbitration": _mean_of_finite(
                out.result for key, out in outputs.items() if "/object/" in key
            )
        }

    def claim(self, outputs):
        """MCM +36% matches over SPAA at the MCM saturation load (32)."""
        mcm = _object_cell(outputs, "MCM", 32).result
        spaa = _object_cell(outputs, "SPAA", 32).result
        return 100.0 * (mcm / spaa - 1.0), 36.0


# -- the supervised, journalled, traced sweep --------------------------------

SWEEP_ALGORITHMS = ("SPAA-base", "WFA-base", "PIM1", "SPAA-rotary")
SWEEP_RATES = tuple(round(0.004 * step, 3) for step in range(1, 7))
SWEEP_KEYS = tuple(
    (algorithm, rate, f"{algorithm}@{rate!r}")
    for algorithm in SWEEP_ALGORITHMS
    for rate in SWEEP_RATES
)


class SweepUnit:
    """The whole 24-point grid through ``sweep_algorithms``, one of three ways.

    ``supervised`` is the workload proper: two spawned workers under a
    ``PointSupervisor``, a journal and JSONL traces.  ``serial-traced``
    (same journal and traces, in-process) and ``serial-plain`` (neither)
    exist for the traced pass's overhead ratios.
    """

    points = len(SWEEP_KEYS)
    role = "work"

    def __init__(self, mode: str, config: SimulationConfig, directory: Path) -> None:
        self.key = mode
        self.mode = mode
        self.config = config
        self.directory = directory
        self.kwargs: dict = {}
        self.journal: SweepJournal | None = None
        if mode != "serial-plain":
            self.journal = SweepJournal(directory / "journal.jsonl")
            self.kwargs.update(
                journal=self.journal, telemetry_dir=directory / "traces"
            )
        if mode == "supervised":
            self.kwargs.update(workers=SWEEP_WORKERS, supervisor=SupervisorConfig())
        self.curves: dict[str, BNFCurve] = {}
        self.failed = 0
        self.trace_bytes = 0

    def _point_scopes(self, tracer):
        """(context, progress callback) that give each point its own scope."""
        if tracer is None:
            return nullcontext(), None
        if self.mode == "supervised":
            # Points overlap in the workers; the parent side is one scope.
            return tracer.span("sweep", point="supervised-parent"), None
        upcoming = iter(key for _, _, key in SWEEP_KEYS[1:])

        def progress(message: str) -> None:
            if " -> " in message:  # a point landed (not a failed attempt)
                following = next(upcoming, None)
                if following is not None:
                    tracer.next_point(following)

        return tracer.points(SWEEP_KEYS[0][2]), progress

    def run(self, tracer=None) -> None:
        scope, progress = self._point_scopes(tracer)
        try:
            with scope:
                self.curves = sweep_algorithms(
                    self.config,
                    SWEEP_ALGORITHMS,
                    SWEEP_RATES,
                    progress=progress,
                    **self.kwargs,
                )
        except SweepSupervisionError as error:
            # Degraded, not aborted: every healthy point is journalled.
            self.failed = len(error.failed) + len(error.quarantined)

    def outputs(self) -> list[Output]:
        """Per-point outputs; reads the trace sizes and removes the directory."""
        outputs = []
        for index, (algorithm, rate, key) in enumerate(SWEEP_KEYS):
            point = journalled = None
            if self.curves:
                point = self.curves[algorithm].points[index % len(SWEEP_RATES)]
            if self.journal is not None:
                journalled = self.journal.completed_point(algorithm, rate)
            if point is None and journalled is None:
                continue  # never landed; counted in ``failed``
            output = Output(
                point=key,
                stats=_bnf_stats(point or journalled),
                work=(point or journalled).packets_delivered,
                result=point or journalled,
            )
            if self.journal is not None and point is not None:
                if journalled is None or _bnf_stats(journalled) != output.stats:
                    output.problems.append(
                        f"journal holds {journalled!r}, sweep returned {point!r}"
                    )
            _check_throughput(output, output.result.throughput)
            outputs.append(output)
        self.failed = max(self.failed, self.points - len(outputs))
        traces = self.directory / "traces"
        if traces.is_dir():
            self.trace_bytes = sum(
                path.stat().st_size for path in traces.rglob("*.jsonl")
            )
        shutil.rmtree(self.directory, ignore_errors=True)
        return outputs


class SweepWorkload(Workload):
    name = catalog.SWEEP
    why = (
        "short points with full JSONL event tracing, journalling and spawned "
        "supervised workers make obs, resilience and sim.parallel do a large "
        "share of the work and the simulator comparatively little"
    )
    work_unit = "packets"

    def _config(self, seed: int, scale: float) -> SimulationConfig:
        return SimulationConfig(
            network=_network_config(4, 4),
            traffic=TrafficConfig(mshr_limit=16),
            warmup_cycles=_scaled(150, scale),
            measure_cycles=_scaled(450, scale),
            seed=seed,
        )

    def build(self, seed, scale, directory, mode="supervised") -> list[SweepUnit]:
        return [SweepUnit(mode, self._config(seed, scale), directory / mode)]

    def warm_up(self, seed, scale, directory) -> None:
        target = directory / "warm-up"
        try:
            sweep_algorithms(
                self._config(seed, scale),
                SWEEP_ALGORITHMS[:1],
                SWEEP_RATES[:1],
                journal=SweepJournal(target / "journal.jsonl"),
                telemetry_dir=target / "traces",
            )
        finally:
            shutil.rmtree(target, ignore_errors=True)


# -- the registry ------------------------------------------------------------

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        TimingWorkload(
            name=catalog.KNEE,
            why=(
                "the fig10 4x4 panel the roadmap states its >=5x bar on; it "
                "spans zero load to past the knee and mixes fan-out-1 "
                "pipelined SPAA with fan-out-2 matrix arbiters, so router, "
                "core and sim all carry load and no platform layer does"
            ),
            side=4,
            algorithms=("SPAA-base", "WFA-base", "PIM1"),
            rates=(0.005, 0.02, 0.045, 0.065),
            warmup=300,
            measure=600,
            claim=_knee_claim,
        ),
        TimingWorkload(
            name=catalog.SATURATED,
            why=(
                "the same router/sim code in the opposite regime: 64 routers "
                "with full buffers, mostly futile launches, can_reserve "
                "back-pressure, escape channels and the Rotary Rule all "
                "engaged, so a cache sized for 16 routers shows here"
            ),
            side=8,
            algorithms=("SPAA-base", "SPAA-rotary"),
            rates=(0.06,),
            warmup=300,
            measure=450,
            claim=_saturated_claim,
        ),
        StandaloneWorkload(),
        SweepWorkload(),
    )
}
