"""Coherence packet classes and the Packet record.

The 21364 network carries seven classes of coherence packets (paper
section 2.1).  Flits are 39 bits (32 data + 7 ECC); a 19-flit block
response carries a 64-byte cache line (3 header flits + 16 data flits).
"""

from __future__ import annotations

import enum
import itertools

from repro.network.topology import Direction


class PacketClass(enum.Enum):
    """The seven coherence packet classes with their flit counts.

    Where the paper gives a range (block response 18-19 flits,
    non-block response 2-3) we use the larger value, which is the one
    its traffic mix exercises (64-byte block responses).
    """

    REQUEST = ("request", 3)
    FORWARD = ("forward", 3)
    BLOCK_RESPONSE = ("block_response", 19)
    NONBLOCK_RESPONSE = ("nonblock_response", 3)
    WRITE_IO = ("write_io", 19)
    READ_IO = ("read_io", 3)
    SPECIAL = ("special", 1)

    def __init__(self, label: str, flits: int) -> None:
        self.label = label
        self.flits = flits
        self.is_io = label in ("write_io", "read_io")
        #: all classes except SPECIAL get adaptive + VC0 + VC1
        self.has_escape_channels = label != "special"
        #: I/O packets only ride the deadlock-free channels (ordering)
        self.adaptive_allowed = not self.is_io and self.has_escape_channels


FLIT_BITS = 39
DATA_BITS_PER_FLIT = 32
ECC_BITS_PER_FLIT = 7


class Packet:
    """One network packet travelling through the torus.

    A mutable record (plain attributes, ``__slots__`` for speed in the
    simulator's hot path) rather than a dataclass: millions are created
    per run.
    """

    __slots__ = (
        "uid",
        "pclass",
        "source",
        "destination",
        "transaction",
        "injected_at",
        "entered_network_at",
        "hops",
        "escape_vc",
        "waiting_since",
        "last_direction",
        "sink_outputs",
    )

    _uids = itertools.count()

    def __init__(
        self,
        pclass: PacketClass,
        source: int,
        destination: int,
        transaction: int | None = None,
        injected_at: float = 0.0,
        sink_outputs: tuple[int, ...] | None = None,
        uid: int | None = None,
    ) -> None:
        #: unique within a run: the coherence engine numbers its packets
        #: from 0; only a hand-built packet draws from the class counter.
        self.uid = next(Packet._uids) if uid is None else uid
        self.pclass = pclass
        self.source = source
        self.destination = destination
        self.transaction = transaction
        self.injected_at = injected_at
        self.entered_network_at = injected_at
        self.hops = 0
        #: escape virtual channel (0 or 1) once the packet leaves the
        #: adaptive channel; None while adaptively routed.
        self.escape_vc: int | None = None
        self.waiting_since = injected_at
        self.last_direction: Direction | None = None
        #: local output ports the packet may sink through at its
        #: destination router; None means "either L0 or L1" (the
        #: default for responses, both being tied to the cache).
        self.sink_outputs = sink_outputs

    @property
    def flits(self) -> int:
        return self.pclass.flits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.uid} {self.pclass.label} "
            f"{self.source}->{self.destination}>"
        )
