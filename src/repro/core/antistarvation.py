"""The 21364's two-color anti-starvation overlay.

The Rotary Rule can starve local-port packets (network traffic always
wins).  The 21364 counters this with a coloring scheme (paper section
3.4): waiting packets carry an *old* or *new* color; when the number of
old-colored packets at a router crosses a threshold the router drains
every old packet before routing any new one.  The paper leaves the
details out of scope, so we implement the sketch directly: a packet's
color turns old after ``age_threshold`` cycles of waiting, and draining
mode engages while at least ``drain_threshold`` old packets wait.

The overlay is algorithm-agnostic: it flags nominations as ``starving``
and every selection policy and arbiter in :mod:`repro.core` honours the
flag ahead of its own prioritization.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.types import Nomination


@dataclass(frozen=True, slots=True)
class AntiStarvationConfig:
    """Tuning knobs for the two-color scheme.

    Attributes:
        age_threshold: waiting cycles after which a packet's color
            turns old.
        drain_threshold: number of old-colored packets at one router
            that triggers draining mode.
        enabled: master switch; the hardware always ships with the
            mechanism, simulations may disable it for ablations.
    """

    age_threshold: int = 2000
    drain_threshold: int = 8
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.age_threshold < 1:
            raise ValueError("age_threshold must be positive")
        if self.drain_threshold < 1:
            raise ValueError("drain_threshold must be positive")


class AntiStarvationTracker:
    """Per-router starvation bookkeeping.

    Call :meth:`classify` with the cycle's nominations; it returns the
    same nominations with ``starving`` set on old-colored packets when
    draining mode is engaged.  Draining mode latches on when the old
    count crosses ``drain_threshold`` and latches off only when every
    old packet has left, matching the "drain all old before any new"
    semantics of the paper.
    """

    def __init__(self, config: AntiStarvationConfig | None = None) -> None:
        self._config = config or AntiStarvationConfig()
        self._draining = False

    @property
    def draining(self) -> bool:
        """Whether the router is currently draining old packets."""
        return self._draining

    def reset(self) -> None:
        self._draining = False

    def classify(
        self, nominations: list[Nomination], now: float = 0.0
    ) -> list[Nomination]:
        """Flag old-colored nominations while draining mode is engaged."""
        if not self._config.enabled:
            return nominations
        old = [n for n in nominations if n.age >= self._config.age_threshold]
        if not self._draining and len(old) >= self._config.drain_threshold:
            self._draining = True
        if self._draining and not old:
            self._draining = False
        if not self._draining:
            return nominations
        old_keys = {(n.row, n.packet) for n in old}
        return [
            _with_starving(n, (n.row, n.packet) in old_keys) for n in nominations
        ]


def _with_starving(nomination: Nomination, starving: bool) -> Nomination:
    if nomination.starving == starving:
        return nomination
    return nomination._replace(starving=starving)
