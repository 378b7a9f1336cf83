"""Virtual channels of the 21364 network.

Each non-special coherence class owns a *virtual channel group* of
three channels -- ADAPTIVE, VC0 and VC1 -- and the special class has a
single channel, 19 virtual channels in all (paper section 2.1).
Packets route adaptively in the adaptive channel until blocked, then
fall into the dimension-ordered deadlock-free channels VC0/VC1 (and,
thanks to virtual cut-through, may later return to the adaptive
channel).  Coherence classes are ordered so that, e.g., a request can
never block a block response -- achieved here, as in hardware, by
giving every class its own buffer partition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product

from repro.network.packets import PacketClass


class ChannelKind(enum.Enum):
    ADAPTIVE = "adaptive"
    VC0 = "vc0"
    VC1 = "vc1"


def _is_channel(pclass: PacketClass, kind: ChannelKind) -> bool:
    if pclass is PacketClass.SPECIAL:
        return kind is ChannelKind.ADAPTIVE
    return not (pclass.is_io and kind is ChannelKind.ADAPTIVE)


#: dense index of every (class, kind) pair that is a channel, classes in
#: coherence order and ADAPTIVE, VC0, VC1 within a class.
_CHANNEL_INDEX = {
    pair: index
    for index, pair in enumerate(
        pair for pair in product(PacketClass, ChannelKind) if _is_channel(*pair)
    )
}
NUM_CHANNELS = len(_CHANNEL_INDEX)


@dataclass(frozen=True, slots=True, eq=False)
class VirtualChannel:
    """One of the 19 virtual channels: a (class, kind) pair.

    Hashing and equality are by (class, kind) value with a precomputed
    hash -- the default dataclass hash (which re-hashes two enum
    members every call) dominated early profiles.  The simulator's
    inner loops do not hash channels at all: per-channel state lives in
    lists addressed by :attr:`index`.
    """

    pclass: PacketClass
    kind: ChannelKind
    _hash: int = 0
    #: position in :func:`all_virtual_channels`, 0 .. NUM_CHANNELS - 1
    index: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        index = _CHANNEL_INDEX.get((self.pclass, self.kind))
        if index is None:
            raise ValueError(
                "the special class has a single channel"
                if self.pclass is PacketClass.SPECIAL
                else "I/O packets only use the deadlock-free channels"
            )
        object.__setattr__(self, "_hash", hash((self.pclass, self.kind)))
        object.__setattr__(self, "index", index)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, VirtualChannel):
            return NotImplemented
        return self.pclass is other.pclass and self.kind is other.kind


@lru_cache(maxsize=None)
def all_virtual_channels() -> tuple[VirtualChannel, ...]:
    """The 21364's virtual channels (interned: always the same tuple)."""
    return tuple(VirtualChannel(pclass, kind) for pclass, kind in _CHANNEL_INDEX)


@dataclass(frozen=True)
class BufferPlan:
    """Per-input-port packet-buffer allocation across channels.

    The 21364 provides buffer space for 316 packets per input port;
    the adaptive channels hold the bulk while each escape channel
    (VC0/VC1) holds one or two packets (paper section 2.1).  The
    default plan reserves one packet per escape channel and splits the
    rest over the adaptive channels roughly in proportion to each
    class's share of the coherence traffic.
    """

    adaptive_capacity: dict[PacketClass, int] = field(default_factory=dict)
    escape_capacity: int = 1
    special_capacity: int = 4

    def __post_init__(self) -> None:
        if not self.adaptive_capacity:
            # Defaults sized for the 70/30 request/forward/response mix;
            # together with the escape and special buffers they total
            # the paper's 316 packets (see total_packets).
            object.__setattr__(
                self,
                "adaptive_capacity",
                {
                    PacketClass.REQUEST: 80,
                    PacketClass.FORWARD: 40,
                    PacketClass.BLOCK_RESPONSE: 136,
                    PacketClass.NONBLOCK_RESPONSE: 40,
                },
            )
        if self.escape_capacity < 1:
            raise ValueError("escape channels need at least one buffer")
        for pclass, capacity in self.adaptive_capacity.items():
            if not pclass.adaptive_allowed:
                raise ValueError(f"{pclass} has no adaptive channel")
            if capacity < 1:
                raise ValueError("adaptive capacities must be positive")

    def capacity(self, channel: VirtualChannel) -> int:
        """Packet capacity of one virtual channel at one input port."""
        if channel.pclass is PacketClass.SPECIAL:
            return self.special_capacity
        if channel.kind is ChannelKind.ADAPTIVE:
            return self.adaptive_capacity[channel.pclass]
        # I/O classes ride only VC0/VC1; give them modest FIFO room so
        # the I/O ordering rules (strict escape routing) still flow.
        if channel.pclass.is_io:
            return max(self.escape_capacity, 2)
        return self.escape_capacity

    @cached_property
    def capacities(self) -> tuple[int, ...]:
        """:meth:`capacity` of every channel, by :attr:`VirtualChannel.index`.

        Computed once per plan: every input buffer of a network shares
        the plan, and with it this tuple.
        """
        return tuple(self.capacity(channel) for channel in all_virtual_channels())

    def total_packets(self) -> int:
        """Total packet buffering per input port under this plan."""
        return sum(self.capacities)


def default_buffer_plan() -> BufferPlan:
    """The plan matching the paper's 316 packets per input port."""
    plan = BufferPlan()
    return plan


@lru_cache(maxsize=None)
def adaptive_channel(pclass: PacketClass) -> VirtualChannel:
    """The (interned) adaptive channel of a coherence class."""
    return VirtualChannel(pclass, ChannelKind.ADAPTIVE)


@lru_cache(maxsize=None)
def escape_channel(pclass: PacketClass, index: int) -> VirtualChannel:
    """The (interned) escape channel VC0 or VC1 of a coherence class."""
    if index not in (0, 1):
        raise ValueError("escape channels are VC0 and VC1")
    kind = ChannelKind.VC0 if index == 0 else ChannelKind.VC1
    return VirtualChannel(pclass, kind)


def entry_channel(pclass: PacketClass) -> VirtualChannel:
    """The channel a freshly injected packet of *pclass* starts in.

    Non-I/O packets start in their adaptive channel; I/O packets ride
    only the deadlock-free channels (the 21364's I/O ordering rules)
    and the special class has its single channel.
    """
    if pclass.adaptive_allowed or pclass is PacketClass.SPECIAL:
        return adaptive_channel(pclass)
    return escape_channel(pclass, 0)
