"""SPAA -- the Simple Pipelined Arbitration Algorithm of the Alpha 21364.

SPAA (paper section 3.3) minimizes interaction between input and output
port arbiters so the arbitration fits in three cycles and pipelines
perfectly (a new input arbitration every cycle):

1. *Nominate* -- each input-port arbiter picks at most one packet and
   nominates it to exactly **one** output port.  A nominated packet
   may not be re-nominated until step 3 completes.
2. *Grant* -- each output arbiter independently picks one nomination:
   least-recently-selected input arbiter for ``SPAA-base``, Rotary Rule
   (network ports first, LRS within the class) for ``SPAA-rotary``.
3. *Reset* -- losing nominations are cleared so those packets can be
   nominated again.

Because an input arbiter commits to one output before knowing the
outcome, SPAA suffers arbitration collisions that PIM and WFA avoid --
that is the matching-quality gap of Figure 8, which shrinks to nothing
once most output ports are busy (Figure 9).

This class implements the grant step; the single-output nomination
discipline is the *caller's* job (the router's input arbiters), and is
enforced here by rejecting multi-output nominations.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.base import Arbiter, usable_nominations
from repro.core.policies import LeastRecentlySelectedPolicy, RotaryRulePolicy
from repro.core.types import Grant, Nomination


class SPAAArbiter(Arbiter):
    """Independent per-output grant, one selection policy per arbiter.

    Args:
        rotary: use the Rotary Rule (``SPAA-rotary``) instead of plain
            least-recently-selected (``SPAA-base``).
    """

    def __init__(self, rotary: bool = False) -> None:
        self._policy = (
            RotaryRulePolicy() if rotary else LeastRecentlySelectedPolicy()
        )
        self.name = "SPAA-rotary" if rotary else "SPAA-base"

    def reset(self) -> None:
        self._policy.reset()

    def arbitrate(
        self,
        nominations: Sequence[Nomination],
        free_outputs: frozenset[int],
    ) -> list[Grant]:
        rows_seen: set[int] = set()
        packets_seen: set[int] = set()
        for nom in nominations:
            if len(nom.outputs) != 1:
                raise ValueError(
                    "SPAA input arbiters nominate a packet to exactly one "
                    f"output port; got {nom.outputs}"
                )
            if nom.row in rows_seen:
                raise ValueError(f"row {nom.row} nominated twice in one cycle")
            if nom.packet in packets_seen:
                raise ValueError(
                    f"packet {nom.packet} nominated by two read ports; the "
                    "read-port pair must synchronize"
                )
            rows_seen.add(nom.row)
            packets_seen.add(nom.packet)

        by_output: dict[int, list[Nomination]] = {}
        for nom, outputs in usable_nominations(nominations, free_outputs):
            by_output.setdefault(outputs[0], []).append(nom)

        grants = []
        for output in sorted(by_output):
            winner = self._policy.select(output, by_output[output])
            self._policy.notify_grant(output, winner)
            grants.append(Grant(row=winner.row, packet=winner.packet, output=output))
        return grants
