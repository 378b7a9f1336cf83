"""Output-port selection policies.

When several input-port arbiters nominate packets to the same output
port, the output arbiter breaks the tie with a *selection policy*.  The
paper (section 3) lists random, round-robin, least-recently-selected
(LRS), priority chains and the Rotary Rule.  This module implements
the two the 21364 uses: LRS for SPAA-base and the Rotary Rule (network
traffic first, LRS within each class) for SPAA-rotary.
"""

from __future__ import annotations

import abc
from typing import Sequence

from repro.core.types import Nomination, SourceKind


class SelectionPolicy(abc.ABC):
    """Picks one winner among nominations competing for one output."""

    @abc.abstractmethod
    def select(self, output: int, candidates: Sequence[Nomination]) -> Nomination:
        """Return the winning nomination for *output*.

        ``candidates`` is non-empty; the returned nomination must be
        one of them.
        """

    def notify_grant(self, output: int, winner: Nomination) -> None:
        """Observe a grant so stateful policies can update history."""

    def reset(self) -> None:
        """Restore power-on state."""


def _split_starving(
    candidates: Sequence[Nomination],
) -> Sequence[Nomination]:
    """Anti-starvation overlay: old-colored packets outrank everything.

    The 21364 colors long-waiting packets "old" and drains them before
    any new-colored packet is routed (paper section 3.4).  Every policy
    applies this filter first, so the Rotary Rule can never starve a
    packet indefinitely.
    """
    starving = [c for c in candidates if c.starving]
    return starving if starving else candidates


class LeastRecentlySelectedPolicy(SelectionPolicy):
    """Pick the row granted longest ago for this output (SPAA-base).

    Rows that were never granted rank oldest of all; among those, the
    lowest row index wins, which makes the policy deterministic.
    """

    def __init__(self) -> None:
        self._clock = 0
        self._last_granted: dict[tuple[int, int], int] = {}

    def select(self, output: int, candidates: Sequence[Nomination]) -> Nomination:
        candidates = _split_starving(candidates)
        return min(
            candidates,
            key=lambda nom: (self._last_granted.get((output, nom.row), -1), nom.row),
        )

    def notify_grant(self, output: int, winner: Nomination) -> None:
        self._clock += 1
        self._last_granted[(output, winner.row)] = self._clock

    def reset(self) -> None:
        self._clock = 0
        self._last_granted.clear()


class RotaryRulePolicy(SelectionPolicy):
    """The paper's Rotary Rule: network traffic beats local traffic.

    Named after Massachusetts rotaries, where traffic already in the
    rotary has priority over entering traffic.  Nominations from the
    torus (network) input ports are preferred over nominations from the
    cache, memory-controller and I/O (local) ports; inside each class
    the least-recently-selected row wins, exactly as the paper
    describes for SPAA-rotary and PIM1-rotary.
    """

    def __init__(self) -> None:
        self._lrs = LeastRecentlySelectedPolicy()

    def select(self, output: int, candidates: Sequence[Nomination]) -> Nomination:
        candidates = _split_starving(candidates)
        network = [c for c in candidates if c.source is SourceKind.NETWORK]
        pool = network if network else list(candidates)
        return self._lrs.select(output, pool)

    def notify_grant(self, output: int, winner: Nomination) -> None:
        self._lrs.notify_grant(output, winner)

    def reset(self) -> None:
        self._lrs.reset()
