"""Clocking and link timing constants of the 21364 network.

The router core runs at 1.2 GHz while the inter-chip links run at
0.8 GHz (paper section 2.2): a torus output port therefore emits one
flit every 1.5 core cycles, while the two local sink ports deliver one
flit per core cycle.  Link latency is 3 network clocks, and the on-chip
pin-to-pin path adds 13 core cycles.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class ClockSpec:
    """Core and link clock frequencies.

    Attributes:
        core_ghz: router core clock (1.2 GHz in the 21364).
        link_ghz: inter-router link clock (0.8 GHz in the 21364).
    """

    core_ghz: float = 1.2
    link_ghz: float = 0.8

    def __post_init__(self) -> None:
        if self.core_ghz <= 0 or self.link_ghz <= 0:
            raise ValueError("clock frequencies must be positive")
        if self.link_ghz > self.core_ghz:
            raise ValueError("the 21364-style link clock never beats the core")

    @property
    def cycle_ns(self) -> float:
        """One core cycle in nanoseconds (0.8333 ns at 1.2 GHz)."""
        return 1.0 / self.core_ghz

    @property
    def link_cycle_ns(self) -> float:
        """One link (network) clock in nanoseconds."""
        return 1.0 / self.link_ghz

    @property
    def core_cycles_per_flit_on_link(self) -> float:
        """Core cycles per flit on a torus link (1.5 in the 21364)."""
        return self.core_ghz / self.link_ghz


@dataclass(frozen=True, slots=True)
class LinkSpec:
    """Latency parameters of one hop.

    Attributes:
        pin_to_pin_cycles: on-chip latency from a network input pin to
            a network output pin: 13 core cycles (10.8 ns at 1.2 GHz).
            The network-to-network pipeline of Figure 4(b) schedules
            the first flit in ECC, T, DW, LA, RE, GA (6 cycles), the
            crossbar takes 1 more, and synchronization, pad
            receiver/driver and pin<->router transport add 6 (paper
            section 2.2).  The 13 thus already contains the LA/RE/GA
            arbitration stages.
        link_latency_network_clocks: wire latency between chips,
            measured in link clocks (3 in the paper's runs).
        local_port_cycles: local-port pipeline latency (router-table
            lookup and decode for injections, crossbar+ECC for sinks);
            about 3 core cycles, matching the paper's 2.5 ns local-port
            component of the 45 ns minimum latency.
    """

    pin_to_pin_cycles: float = 13.0
    link_latency_network_clocks: float = 3.0
    local_port_cycles: float = 3.0

    def __post_init__(self) -> None:
        if min(
            self.pin_to_pin_cycles,
            self.link_latency_network_clocks,
            self.local_port_cycles,
        ) < 0:
            raise ValueError("latencies cannot be negative")

    def hop_latency_cycles(self, clocks: ClockSpec) -> float:
        """Core cycles for a header to cross one router + link."""
        link_cycles = self.link_latency_network_clocks * (
            clocks.core_ghz / clocks.link_ghz
        )
        return self.pin_to_pin_cycles + link_cycles


@dataclass(frozen=True, slots=True)
class LinkRetrySpec:
    """Link-level retransmission policy (bounded retries + backoff).

    The 21364's inter-chip links carry per-flit ECC and a link-level
    retry protocol: a flit that arrives corrupted (or not at all) is
    retransmitted rather than lost.  We model the recovery path as a
    bounded number of retransmissions with exponential backoff in core
    cycles; a packet that exhausts its retries is dropped with a
    recorded reason (see :mod:`repro.resilience.faults`).

    Attributes:
        max_retries: retransmission attempts before the packet is
            declared lost.
        backoff_base_cycles: pause before the first retransmission, in
            core cycles.
        backoff_factor: multiplier applied per successive retry.
        jitter: fractional randomization of each backoff -- the actual
            wait is the nominal one scaled by a uniform factor in
            ``[1 - jitter, 1 + jitter]``, drawn from the fault
            injector's dedicated (seeded) backoff stream.  Without it,
            every packet faulted in the same burst would retransmit in
            lockstep and re-collide -- the classic retry storm.  0
            restores the deterministic legacy series.
    """

    max_retries: int = 8
    backoff_base_cycles: float = 4.0
    backoff_factor: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.backoff_base_cycles < 0:
            raise ValueError("backoff_base_cycles cannot be negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1 (no shrinking waits)")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def backoff_cycles(self, attempt: int) -> float:
        """Nominal core cycles before retransmission *attempt* (0-based).

        This is the un-jittered policy value; the fault injector's
        :meth:`~repro.resilience.faults.FaultInjector.retry_backoff_cycles`
        applies the seeded jitter on top.
        """
        return self.backoff_base_cycles * self.backoff_factor**attempt


DEFAULT_CLOCKS = ClockSpec()
DEFAULT_LINK = LinkSpec()
DEFAULT_LINK_RETRY = LinkRetrySpec()
