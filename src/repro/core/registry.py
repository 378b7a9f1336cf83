"""Arbiter factory: build any studied algorithm by its paper name."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.base import Arbiter
from repro.core.mcm import MCMArbiter
from repro.core.opf import OPFArbiter
from repro.core.pim import PIMArbiter
from repro.core.spaa import SPAAArbiter
from repro.core.timing import (
    ArbitrationTiming,
    PIM1_TIMING,
    SPAA_TIMING,
    WFA_TIMING,
)
from repro.core.wavefront import WavefrontArbiter


#: How an algorithm's input side presents packets to the arbiter:
#: ``"pool"`` -- every waiting packet, port-capacity constrained (MCM,
#: which searches exhaustively); ``"per-cell"`` -- each read-port
#: arbiter offers per-output candidates (PIM, WFA: the
#: centralized-matrix algorithms); ``"single-output"`` -- one packet
#: aimed at one output per input port (SPAA, OPF).
NOMINATION_STYLES = ("pool", "per-cell", "single-output")


@dataclass(frozen=True, slots=True)
class AlgorithmSpec:
    """Everything the models need to instantiate one algorithm."""

    name: str
    factory: Callable[["ArbiterContext"], Arbiter]
    #: ``None`` for standalone-only algorithms (MCM and full PIM: no
    #: few-cycle hardware implementation, so no timing studies).
    timing: ArbitrationTiming | None
    #: how the standalone model builds this algorithm's nominations.
    nomination_style: str = "per-cell"

    def __post_init__(self) -> None:
        if self.nomination_style not in NOMINATION_STYLES:
            raise ValueError(
                f"nomination_style must be one of {NOMINATION_STYLES}"
            )


@dataclass(frozen=True, slots=True)
class ArbiterContext:
    """Router-shape parameters handed to arbiter factories.

    Attributes:
        num_rows: input-port arbiters (read ports) -- 16 in the 21364.
        num_outputs: output ports -- 7 in the 21364.
        network_rows: rows fed by torus input ports (Rotary Rule).
        rng: per-router random source (PIM's grant/accept steps).
    """

    num_rows: int
    num_outputs: int
    network_rows: tuple[int, ...]
    rng: random.Random


def _registry() -> dict[str, AlgorithmSpec]:
    return {
        "MCM": AlgorithmSpec(
            "MCM", lambda ctx: MCMArbiter(), timing=None,
            nomination_style="pool",
        ),
        "PIM": AlgorithmSpec(
            "PIM",
            lambda ctx: PIMArbiter(ctx.rng, iterations=None),
            timing=None,
        ),
        "PIM1": AlgorithmSpec(
            "PIM1", lambda ctx: PIMArbiter(ctx.rng, iterations=1), timing=PIM1_TIMING
        ),
        "PIM1-rotary": AlgorithmSpec(
            "PIM1-rotary",
            lambda ctx: PIMArbiter(ctx.rng, iterations=1, rotary=True),
            timing=PIM1_TIMING,
        ),
        "WFA-base": AlgorithmSpec(
            "WFA-base",
            lambda ctx: WavefrontArbiter(ctx.num_rows, ctx.num_outputs),
            timing=WFA_TIMING,
        ),
        "WFA-rotary": AlgorithmSpec(
            "WFA-rotary",
            lambda ctx: WavefrontArbiter(
                ctx.num_rows,
                ctx.num_outputs,
                rotary=True,
                network_rows=ctx.network_rows,
            ),
            timing=WFA_TIMING,
        ),
        "SPAA-base": AlgorithmSpec(
            "SPAA-base", lambda ctx: SPAAArbiter(), timing=SPAA_TIMING,
            nomination_style="single-output",
        ),
        "SPAA-rotary": AlgorithmSpec(
            "SPAA-rotary", lambda ctx: SPAAArbiter(rotary=True),
            timing=SPAA_TIMING, nomination_style="single-output",
        ),
        "OPF": AlgorithmSpec(
            "OPF", lambda ctx: OPFArbiter(), timing=SPAA_TIMING,
            nomination_style="single-output",
        ),
    }


ALGORITHMS: dict[str, AlgorithmSpec] = _registry()

#: Algorithms in the standalone matching study (Figures 8 and 9).
STANDALONE_ALGORITHMS: tuple[str, ...] = ("MCM", "WFA", "PIM", "PIM1", "SPAA")

#: Algorithms in the timing study (Figure 10).
TIMING_ALGORITHMS: tuple[str, ...] = (
    "PIM1", "WFA-base", "WFA-rotary", "SPAA-base", "SPAA-rotary"
)


def available_algorithms() -> Sequence[str]:
    """Names accepted by :func:`make_arbiter`."""
    return tuple(ALGORITHMS)


def make_arbiter(name: str, context: ArbiterContext) -> Arbiter:
    """Instantiate the named algorithm for one router.

    The standalone study's short names ``"WFA"`` and ``"SPAA"`` map to
    the base variants.
    """
    spec = ALGORITHMS.get(_canonical(name))
    if spec is None:
        raise ValueError(
            f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
        )
    return spec.factory(context)


def algorithm_timing(name: str) -> ArbitrationTiming:
    """The hardware timing of the named algorithm (timing studies)."""
    spec = ALGORITHMS.get(_canonical(name))
    if spec is None:
        raise ValueError(f"unknown algorithm {name!r}")
    if spec.timing is None:
        raise ValueError(
            f"{spec.name} has no few-cycle hardware implementation; it is "
            "restricted to standalone (non-timing) studies"
        )
    return spec.timing


def nomination_style(name: str) -> str:
    """How the standalone model should nominate for this algorithm."""
    spec = ALGORITHMS.get(_canonical(name))
    if spec is None:
        raise ValueError(f"unknown algorithm {name!r}")
    return spec.nomination_style


def canonical_name(name: str) -> str:
    """Resolve the standalone study's short aliases to registry names.

    ``"WFA"`` and ``"SPAA"`` mean the base variants; every other name
    passes through unchanged (including unknown ones -- callers that
    need existence checks look the result up in :data:`ALGORITHMS`).
    """
    aliases = {"WFA": "WFA-base", "SPAA": "SPAA-base"}
    return aliases.get(name, name)


_canonical = canonical_name
