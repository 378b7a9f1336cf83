"""Synthetic traffic: destination patterns and injection processes.

The paper (section 4.2) selects request destinations with three
patterns.  With source bit-coordinates ``(a_{n-1}, ..., a_1, a_0)``:

* **uniform** -- a uniformly random *other* node;
* **bit-reversal** -- ``(a_0, a_1, ..., a_{n-2}, a_{n-1})``;
* **perfect-shuffle** -- ``(a_{n-2}, a_{n-3}, ..., a_0, a_{n-1})``
  (rotate left by one).

The permutation patterns need a power-of-two node count; the paper
accordingly only pairs them with the 4x4 and 8x8 networks.
"""

from __future__ import annotations

import abc
import random

from repro.network.topology import Torus2D


class DestinationPattern(abc.ABC):
    """Maps a source node to a request's home node."""

    name: str = "pattern"

    @abc.abstractmethod
    def destination(self, source: int) -> int:
        """Home node for a miss issued by *source*."""


class UniformPattern(DestinationPattern):
    """Uniformly random destination, excluding the source itself."""

    name = "uniform"

    def __init__(self, num_nodes: int, rng: random.Random) -> None:
        if num_nodes < 2:
            raise ValueError("uniform traffic needs at least two nodes")
        self._num_nodes = num_nodes
        self._rng = rng

    def destination(self, source: int) -> int:
        destination = self._rng.randrange(self._num_nodes - 1)
        return destination if destination < source else destination + 1


class _BitPermutationPattern(DestinationPattern):
    """Shared machinery for the fixed bit-permutation patterns."""

    def __init__(self, num_nodes: int) -> None:
        if not pattern_fits(self.name, num_nodes):
            raise ValueError(
                f"{self.name} needs a power-of-two node count, got {num_nodes}"
            )
        self._bits = num_nodes.bit_length() - 1
        self._num_nodes = num_nodes

    def destination(self, source: int) -> int:
        if not 0 <= source < self._num_nodes:
            raise ValueError(f"node {source} out of range")
        return self._permute(source)

    @abc.abstractmethod
    def _permute(self, source: int) -> int:
        ...


class BitReversalPattern(_BitPermutationPattern):
    """Destination = source with its bit-coordinates reversed."""

    name = "bit-reversal"

    def _permute(self, source: int) -> int:
        result = 0
        for bit in range(self._bits):
            result = (result << 1) | ((source >> bit) & 1)
        return result


class PerfectShufflePattern(_BitPermutationPattern):
    """Destination = source's bit-coordinates rotated left by one."""

    name = "perfect-shuffle"

    def _permute(self, source: int) -> int:
        high = (source >> (self._bits - 1)) & 1
        return ((source << 1) & (self._num_nodes - 1)) | high


def make_pattern(
    name: str, topology: Torus2D, rng: random.Random
) -> DestinationPattern:
    """Instantiate a destination pattern by its paper name."""
    if name == "uniform":
        return UniformPattern(topology.num_nodes, rng)
    if name == "bit-reversal":
        return BitReversalPattern(topology.num_nodes)
    if name == "perfect-shuffle":
        return PerfectShufflePattern(topology.num_nodes)
    raise ValueError(f"unknown destination pattern {name!r}")


def pattern_fits(name: str, num_nodes: int) -> bool:
    """Whether :func:`make_pattern` can build *name* on *num_nodes* nodes
    (the bit-permutation patterns need a power-of-two count)."""
    return num_nodes >= 2 and (
        name == "uniform" or num_nodes & (num_nodes - 1) == 0
    )


class PoissonInjector:
    """Per-node open-loop injection process.

    Transaction issue attempts arrive as a Poisson process of the
    configured rate (exponential inter-arrival times), the standard
    open-loop load model for BNF sweeps.  Attempts that find all MSHRs
    busy are dropped -- the processor simply cannot issue the miss --
    which reproduces the 21364's natural self-throttling.
    """

    def __init__(self, rate_per_cycle: float, rng: random.Random) -> None:
        if rate_per_cycle <= 0:
            raise ValueError("injection rate must be positive")
        self._rate = rate_per_cycle
        self._rng = rng

    def next_interval(self) -> float:
        """Cycles until the node's next issue attempt."""
        return self._rng.expovariate(self._rate)
