"""Arbitration algorithms for the Alpha 21364 router study.

This package is the paper's primary contribution: SPAA, the Rotary
Rule, and the comparison algorithms (PIM, PIM1, WFA, MCM, OPF), plus
their hardware timing characteristics and the anti-starvation overlay.
"""

from repro.core.antistarvation import AntiStarvationConfig, AntiStarvationTracker
from repro.core.base import Arbiter, usable_nominations
from repro.core.maxflow import MaxFlow
from repro.core.mcm import MCMArbiter
from repro.core.opf import OPFArbiter
from repro.core.pim import PIMArbiter, expected_convergence_iterations
from repro.core.policies import (
    LeastRecentlySelectedPolicy,
    RotaryRulePolicy,
    SelectionPolicy,
)
from repro.core.registry import (
    ALGORITHMS,
    STANDALONE_ALGORITHMS,
    TIMING_ALGORITHMS,
    AlgorithmSpec,
    ArbiterContext,
    algorithm_timing,
    available_algorithms,
    make_arbiter,
    nomination_style,
)
from repro.core.spaa import SPAAArbiter
from repro.core.timing import (
    ArbitrationTiming,
    PIM1_TIMING,
    SPAA_TIMING,
    WFA_3CYCLE_TIMING,
    WFA_TIMING,
)
from repro.core.types import Grant, Nomination, SourceKind, validate_matching
from repro.core.wavefront import WavefrontArbiter

__all__ = [
    "ALGORITHMS",
    "STANDALONE_ALGORITHMS",
    "TIMING_ALGORITHMS",
    "AlgorithmSpec",
    "AntiStarvationConfig",
    "AntiStarvationTracker",
    "Arbiter",
    "ArbiterContext",
    "ArbitrationTiming",
    "Grant",
    "LeastRecentlySelectedPolicy",
    "MCMArbiter",
    "MaxFlow",
    "Nomination",
    "OPFArbiter",
    "PIM1_TIMING",
    "PIMArbiter",
    "RotaryRulePolicy",
    "SPAAArbiter",
    "SPAA_TIMING",
    "SelectionPolicy",
    "SourceKind",
    "WFA_3CYCLE_TIMING",
    "WFA_TIMING",
    "WavefrontArbiter",
    "algorithm_timing",
    "available_algorithms",
    "expected_convergence_iterations",
    "make_arbiter",
    "nomination_style",
    "usable_nominations",
    "validate_matching",
]
