"""Seeded, config-driven fault injection for the timing model.

Three fault families, all driven by one :class:`random.Random` so a
given (config, seed) pair replays the exact same fault schedule:

* **link faults** -- each packet traversal of an inter-router link may
  lose or corrupt a flit (per-flit Bernoulli, so long block responses
  are proportionally more exposed, like real wires).  Both outcomes are
  recovered by the 21364-style link-level retry protocol
  (:class:`repro.network.links.LinkRetrySpec`): bounded
  retransmissions with exponential backoff, after which the packet is
  dropped with a recorded reason instead of silently vanishing;
* **grant faults** -- an individual arbiter grant may be suppressed
  (the packet stays buffered and renominates) or mis-routed to the
  nomination's other candidate output when one is ready;
* **router stall** -- one router's grants are blocked for a window of
  cycles, modeling a glitching arbiter; a permanent stall
  (``stall_cycles=inf``) manufactures the deadlocks the progress
  watchdog exists to catch.

The injector interposes at two seams: the timing model consults
:meth:`FaultInjector.link_fault` on every link arrival, and the router
calls :meth:`FaultInjector.filter_grants` (installed as
``Router.grant_filter``) between the arbitration algorithm and grant
application.  Both seams cost a single ``is None`` check when no
injector is attached.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

from repro.core.types import Grant
from repro.network.links import LinkRetrySpec
from repro.network.packets import Packet
from repro.resilience.backoff import jittered_backoff

#: drop reason recorded when a packet exhausts its link retries.
REASON_LINK_RETRIES_EXHAUSTED = "link-retries-exhausted"


@dataclass(frozen=True)
class FaultConfig:
    """What to break, how often, and how recovery is bounded.

    Attributes:
        seed: fault-schedule RNG seed (independent of the simulation
            seed, so the same traffic can be replayed under different
            fault schedules).
        flit_drop_rate: per-flit probability a flit is lost on a link.
        flit_corrupt_rate: per-flit probability a flit arrives with an
            uncorrectable ECC error.  Both trigger retransmission; they
            are counted separately.
        grant_suppression_rate: per-grant probability the grant is
            silently dropped (the packet renominates later).
        grant_misroute_rate: per-grant probability the grant is
            redirected to the nomination's alternate candidate output,
            when one exists and is still ready.
        stall_node: router whose grants are blocked during the stall
            window; None disables stalling.
        stall_start_cycle: first cycle of the stall window.
        stall_cycles: stall duration; ``math.inf`` stalls forever.
        retry: the link-level retransmission policy.
    """

    seed: int = 0
    flit_drop_rate: float = 0.0
    flit_corrupt_rate: float = 0.0
    grant_suppression_rate: float = 0.0
    grant_misroute_rate: float = 0.0
    stall_node: int | None = None
    stall_start_cycle: float = 0.0
    stall_cycles: float = 0.0
    retry: LinkRetrySpec = field(default_factory=LinkRetrySpec)

    def __post_init__(self) -> None:
        # Reject garbage loudly: a NaN or negative rate would otherwise
        # propagate into the Bernoulli draws and silently disable (or
        # randomize) the fault schedule.
        for name in (
            "flit_drop_rate",
            "flit_corrupt_rate",
            "grant_suppression_rate",
            "grant_misroute_rate",
        ):
            rate = getattr(self, name)
            if not isinstance(rate, (int, float)) or isinstance(rate, bool):
                raise ValueError(f"{name} must be a number, got {rate!r}")
            if math.isnan(rate) or not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {rate!r}")
        if self.flit_drop_rate + self.flit_corrupt_rate > 1.0:
            raise ValueError("flit drop + corrupt rates cannot exceed 1")
        if math.isnan(self.stall_cycles) or self.stall_cycles < 0:
            raise ValueError(
                f"stall_cycles must be non-negative, got {self.stall_cycles!r}"
            )
        if (
            math.isnan(self.stall_start_cycle)
            or math.isinf(self.stall_start_cycle)
            or self.stall_start_cycle < 0
        ):
            raise ValueError(
                "stall_start_cycle must be finite and non-negative, "
                f"got {self.stall_start_cycle!r}"
            )

    @property
    def affects_links(self) -> bool:
        return self.flit_drop_rate > 0.0 or self.flit_corrupt_rate > 0.0

    @property
    def affects_grants(self) -> bool:
        return (
            self.grant_suppression_rate > 0.0
            or self.grant_misroute_rate > 0.0
            or (self.stall_node is not None and self.stall_cycles > 0)
        )

    @property
    def enabled(self) -> bool:
        return self.affects_links or self.affects_grants

    def with_seed(self, seed: int) -> "FaultConfig":
        """A copy with a different fault schedule (retry helper)."""
        return replace(self, seed=seed)


class FaultInjector:
    """One run's fault schedule; attach via ``NetworkSimulator(faults=...)``.

    Keeps its own tally of injected faults (``counts``) so tests can
    assert a schedule actually fired without telemetry attached.
    """

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self._rng = random.Random(config.seed)
        #: dedicated stream for retransmission-backoff jitter.  Kept
        #: separate from the fault-schedule RNG so enabling (or
        #: retuning) jitter never shifts which flits fault -- the
        #: Bernoulli draws above stay on their own seeded sequence.
        self._backoff_rng = random.Random(config.seed ^ 0x6A177E12)
        self.counts: dict[str, int] = {
            "flit-drop": 0,
            "flit-corrupt": 0,
            "grant-suppressed": 0,
            "grant-misrouted": 0,
            "stall-blocked": 0,
        }

    @property
    def affects_links(self) -> bool:
        return self.config.affects_links

    @property
    def affects_grants(self) -> bool:
        return self.config.affects_grants

    @property
    def retry(self) -> LinkRetrySpec:
        return self.config.retry

    def retry_backoff_cycles(self, attempt: int) -> float:
        """Jittered core cycles before retransmission *attempt* (0-based).

        Scales the :class:`LinkRetrySpec` policy's nominal
        ``backoff_base_cycles * backoff_factor**attempt`` by a seeded
        uniform factor in ``[1 - jitter, 1 + jitter]`` so simultaneous
        faulted packets de-synchronize instead of retrying in lockstep.  The
        draw comes from the injector's dedicated backoff stream, so a
        given fault seed replays the exact same jitter schedule.
        """
        retry = self.config.retry
        return jittered_backoff(
            retry.backoff_base_cycles,
            retry.backoff_factor,
            attempt,
            rng=self._backoff_rng,
            jitter=retry.jitter,
        )

    # -- link faults -----------------------------------------------------

    def link_fault(self, packet: Packet) -> str | None:
        """Fault verdict for one link traversal of *packet*.

        Returns ``"flit-drop"``, ``"flit-corrupt"`` or None.  The
        per-flit rates compound over the packet's length, so a 19-flit
        block response is ~6x more exposed than a 3-flit request.
        """
        config = self.config
        per_flit = config.flit_drop_rate + config.flit_corrupt_rate
        if per_flit <= 0.0:
            return None
        survival = (1.0 - per_flit) ** packet.flits
        if self._rng.random() < survival:
            return None
        kind = (
            "flit-drop"
            if self._rng.random() < config.flit_drop_rate / per_flit
            else "flit-corrupt"
        )
        self.counts[kind] += 1
        return kind

    # -- grant faults ----------------------------------------------------

    def stalled(self, node: int, now: float) -> bool:
        config = self.config
        if config.stall_node != node or config.stall_cycles <= 0:
            return False
        end = config.stall_start_cycle + config.stall_cycles
        return config.stall_start_cycle <= now < end

    def filter_grants(self, router, launch, live, grants, now):
        """``Router.grant_filter`` hook: break individual grants.

        Suppressed grants simply vanish from the grant list -- the
        router's loser-release path returns their packets to the
        buffers for renomination, which is exactly how a dropped grant
        wire would behave.  Mis-routed grants are redirected to the
        nomination's other candidate output, but only when that
        alternate hop plan is still ready, so flow control stays
        honest (the fault changes the decision, not the physics).
        """
        config = self.config
        tel = router.telemetry
        if self.stalled(router.node, now):
            self.counts["stall-blocked"] += len(grants)
            if tel.enabled and grants:
                tel.on_grant_fault(now, router.node, "stall-blocked", len(grants))
            return []
        rng = self._rng
        suppression = config.grant_suppression_rate
        misroute = config.grant_misroute_rate
        kept: list[Grant] = []
        suppressed = 0
        misrouted = 0
        taken = {grant.output for grant in grants}
        by_key = None
        for grant in grants:
            if suppression and rng.random() < suppression:
                suppressed += 1
                continue
            if misroute and rng.random() < misroute:
                if by_key is None:
                    by_key = {(n.row, n.packet): n for n in live}
                nomination = by_key.get((grant.row, grant.packet))
                redirected = self._misroute(
                    router, launch, nomination, grant, taken, now
                )
                if redirected is not None:
                    taken.discard(grant.output)
                    taken.add(redirected.output)
                    grant = redirected
                    misrouted += 1
            kept.append(grant)
        if suppressed:
            self.counts["grant-suppressed"] += suppressed
            if tel.enabled:
                tel.on_grant_fault(now, router.node, "grant-suppressed", suppressed)
        if misrouted:
            self.counts["grant-misrouted"] += misrouted
            if tel.enabled:
                tel.on_grant_fault(now, router.node, "grant-misrouted", misrouted)
        return kept

    # -- standalone-model faults -----------------------------------------

    def filter_matching(self, grants: list[Grant], trial: int) -> list[Grant]:
        """Standalone-model seam: break grants at the matching layer.

        The standalone model (Figures 8/9) has no notion of wall-clock
        time or of multiple routers, so the stall window is interpreted
        over *trial indices* (any non-None ``stall_node`` stalls the
        single router under test) and only grant suppression applies
        per grant -- there is no alternate hop plan to mis-route to.
        A suppressed subset of a legal matching is still a legal
        matching, so :class:`~repro.resilience.ArbitrationInvariants`
        stays honest under injection.
        """
        config = self.config
        if (
            config.stall_node is not None
            and config.stall_cycles > 0
            and config.stall_start_cycle
            <= trial
            < config.stall_start_cycle + config.stall_cycles
        ):
            self.counts["stall-blocked"] += len(grants)
            return []
        rate = config.grant_suppression_rate
        if rate <= 0.0 or not grants:
            return grants
        rng = self._rng
        kept = [grant for grant in grants if not rng.random() < rate]
        self.counts["grant-suppressed"] += len(grants) - len(kept)
        return kept

    def _misroute(
        self, router, launch, nomination, grant: Grant, taken: set[int], now: float
    ) -> Grant | None:
        """Redirect *grant* to a ready alternate output, if any."""
        if nomination is None or len(nomination.outputs) < 2:
            return None
        for output in nomination.outputs:
            if output == grant.output or output in taken:
                continue
            plan = launch.plans.get((grant.row, grant.packet, output))
            if plan is not None and router.plan_is_ready(plan, now):
                return Grant(row=grant.row, packet=grant.packet, output=output)
        return None

    def total_faults(self) -> int:
        return sum(self.counts.values())


def parse_fault_spec(spec: str) -> FaultConfig:
    """Parse a compact CLI fault spec into a :class:`FaultConfig`.

    The spec is comma-separated ``key=value`` pairs, e.g.
    ``"drop=1e-3,corrupt=5e-4,seed=7"``.  Keys: ``drop``, ``corrupt``,
    ``suppress``, ``misroute`` (rates); ``stall-node``, ``stall-start``,
    ``stall-cycles`` (``inf`` allowed); ``seed``; ``max-retries``,
    ``backoff`` (retry policy, backoff in base cycles) and ``jitter``
    (fractional backoff randomization in ``[0, 1)``).
    """
    def _float(key: str, value: str) -> float:
        try:
            return float(value)
        except ValueError:
            raise ValueError(
                f"fault spec {key}={value!r}: not a number"
            ) from None

    def _int(key: str, value: str) -> int:
        try:
            return int(value)
        except ValueError:
            raise ValueError(
                f"fault spec {key}={value!r}: not an integer"
            ) from None

    kwargs: dict = {}
    retry_kwargs: dict = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"fault spec entry {part!r} is not key=value")
        key = key.strip().lower()
        value = value.strip()
        if key == "drop":
            kwargs["flit_drop_rate"] = _float(key, value)
        elif key == "corrupt":
            kwargs["flit_corrupt_rate"] = _float(key, value)
        elif key == "suppress":
            kwargs["grant_suppression_rate"] = _float(key, value)
        elif key == "misroute":
            kwargs["grant_misroute_rate"] = _float(key, value)
        elif key == "stall-node":
            kwargs["stall_node"] = _int(key, value)
        elif key == "stall-start":
            kwargs["stall_start_cycle"] = _float(key, value)
        elif key == "stall-cycles":
            kwargs["stall_cycles"] = _float(key, value)
        elif key == "seed":
            kwargs["seed"] = _int(key, value)
        elif key == "max-retries":
            retry_kwargs["max_retries"] = _int(key, value)
        elif key == "backoff":
            retry_kwargs["backoff_base_cycles"] = _float(key, value)
        elif key == "jitter":
            retry_kwargs["jitter"] = _float(key, value)
        else:
            raise ValueError(f"unknown fault spec key {key!r}")
    if retry_kwargs:
        kwargs["retry"] = LinkRetrySpec(**retry_kwargs)
    return FaultConfig(**kwargs)


def permanent_stall(node: int, start_cycle: float = 0.0, seed: int = 0) -> FaultConfig:
    """A config that deadlocks *node* forever -- watchdog test fodder."""
    return FaultConfig(
        seed=seed,
        stall_node=node,
        stall_start_cycle=start_cycle,
        stall_cycles=math.inf,
    )
