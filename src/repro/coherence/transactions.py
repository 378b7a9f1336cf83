"""Coherence transactions: the unit of work the network serves.

The paper's traffic mix (section 4.2) is 70% two-coherence-hop
transactions (a 3-flit request answered by a 19-flit block response)
and 30% three-hop transactions (request, 3-flit forward to the owning
cache, then the block response).  A *coherence hop* is one packet,
which may cross many routers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TransactionKind(enum.Enum):
    TWO_HOP = "2-hop"
    THREE_HOP = "3-hop"
    #: an I/O read: READ_IO request out, WRITE_IO-sized data back.
    #: Not part of the paper's 70/30 mix (it ignores I/O traffic);
    #: provided so the I/O ports and the deadlock-free-only routing
    #: discipline can be exercised and studied.
    IO_READ = "io-read"


@dataclass(slots=True)
class Transaction:
    """One outstanding cache miss and its packet trail.

    Attributes:
        tid: transaction id, unique within its run (numbered by the
            :class:`~repro.coherence.protocol.CoherenceEngine`).
        kind: two- or three-hop flow.
        requester: node that missed.
        home: node owning the directory/memory for the line.
        owner: node whose cache holds the line (3-hop only).
        mc_index: which of the home's two memory controllers serves
            the line (0 or 1); decides the request's sink port and the
            response's injection port.
        started_at / completed_at: core-cycle timestamps.
    """

    tid: int
    kind: TransactionKind
    requester: int
    home: int
    owner: int | None
    mc_index: int
    started_at: float
    request_delivered_at: float | None = None
    forward_delivered_at: float | None = None
    completed_at: float | None = None

    @property
    def complete(self) -> bool:
        return self.completed_at is not None

