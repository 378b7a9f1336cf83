"""OPF -- the naive "oldest packet first" straw man of Figure 2.

OPF picks the oldest packet at every input port and sends each to its
preferred output with no coordination at all: when several inputs pick
packets for the same output, all but one collide and are wasted.  The
paper uses OPF only to motivate why arbitration needs either
input/output interaction (PIM, WFA) or careful engineering of the
simple approach (SPAA); we implement it for the worked example of
Figure 2, for tests and as a pedagogical baseline.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.base import Arbiter, usable_nominations
from repro.core.types import Grant, Nomination


class OPFArbiter(Arbiter):
    """Uncoordinated oldest-packet-first arbitration."""

    name = "OPF"

    def arbitrate(
        self,
        nominations: Sequence[Nomination],
        free_outputs: frozenset[int],
    ) -> list[Grant]:
        # Each row fields its oldest nomination, aimed at the packet's
        # first-choice output -- no readiness negotiation, no retry
        # within the cycle.
        head_by_row: dict[int, tuple[Nomination, int]] = {}
        for nom, outputs in usable_nominations(nominations, free_outputs):
            current = head_by_row.get(nom.row)
            if current is None or nom.age > current[0].age:
                head_by_row[nom.row] = (nom, outputs[0])

        grants = []
        packets_seen: set[int] = set()
        outputs_seen: set[int] = set()
        for row in sorted(head_by_row):
            nom, output = head_by_row[row]
            if output in outputs_seen or nom.packet in packets_seen:
                continue  # arbitration collision: the packet is wasted
            grants.append(Grant(row=row, packet=nom.packet, output=output))
            outputs_seen.add(output)
            packets_seen.add(nom.packet)
        return grants
