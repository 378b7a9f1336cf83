"""Abstract base class shared by all arbitration algorithms."""

from __future__ import annotations

import abc
from typing import Sequence

from repro.core.types import Grant, Nomination


class Arbiter(abc.ABC):
    """One arbitration decision engine for a single router.

    Subclasses implement :meth:`arbitrate`, which receives the cycle's
    nominations plus the set of currently-free output ports and returns
    a matching (see :func:`repro.core.types.validate_matching` for the
    exact invariants).  Arbiters may carry state between calls -- e.g.
    round-robin pointers or least-recently-selected history -- so one
    instance must be used per router and :meth:`reset` restores the
    power-on state.
    """

    #: human-readable algorithm name, e.g. ``"SPAA-rotary"``.
    name: str = "arbiter"

    #: grants the last :meth:`arbitrate` call issued but could not keep
    #: (PIM's accept-step waste); the only outcome of a call that its
    #: returned grants do not show, so arbiters that waste none leave 0.
    wasted_grants: int = 0

    @abc.abstractmethod
    def arbitrate(
        self,
        nominations: Sequence[Nomination],
        free_outputs: frozenset[int],
    ) -> list[Grant]:
        """Match nominations to free outputs for one arbitration."""

    def reset(self) -> None:
        """Restore power-on state (no-op for stateless arbiters)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


def usable_nominations(
    nominations: Sequence[Nomination],
    free_outputs: frozenset[int],
) -> list[tuple[Nomination, tuple[int, ...]]]:
    """Pair each nomination with the subset of its outputs that are free.

    Nominations whose candidate outputs are all busy are dropped; the
    remaining ones keep their preference order.  A nomination with every
    output free is paired with its own ``outputs`` tuple (always a
    tuple: :class:`Nomination` coerces it).  Every concrete arbiter
    starts from this filtered view, mirroring the hardware's readiness
    test ("is the targeted output port free?") in the LA stage.
    """
    usable = []
    all_free = free_outputs.issuperset
    for nom in nominations:
        outputs = nom.outputs
        if not all_free(outputs):
            outputs = tuple(o for o in outputs if o in free_outputs)
            if not outputs:
                continue
        usable.append((nom, outputs))
    return usable
