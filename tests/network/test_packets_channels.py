"""Unit tests for packet classes, Packet records and virtual channels."""

import pytest

from repro.network.channels import (
    BufferPlan,
    ChannelKind,
    VirtualChannel,
    adaptive_channel,
    all_virtual_channels,
    default_buffer_plan,
    entry_channel,
    escape_channel,
)
from repro.network.packets import (
    DATA_BITS_PER_FLIT,
    ECC_BITS_PER_FLIT,
    FLIT_BITS,
    Packet,
    PacketClass,
)


class TestPacketClasses:
    def test_paper_flit_counts(self):
        assert PacketClass.REQUEST.flits == 3
        assert PacketClass.FORWARD.flits == 3
        assert PacketClass.BLOCK_RESPONSE.flits == 19
        assert PacketClass.NONBLOCK_RESPONSE.flits == 3
        assert PacketClass.WRITE_IO.flits == 19
        assert PacketClass.READ_IO.flits == 3
        assert PacketClass.SPECIAL.flits == 1

    def test_flit_geometry(self):
        assert FLIT_BITS == 39
        assert DATA_BITS_PER_FLIT + ECC_BITS_PER_FLIT == FLIT_BITS

    def test_block_response_carries_a_cache_line(self):
        """3 header flits + 16 data flits = 64 bytes of data payload."""
        data_flits = PacketClass.BLOCK_RESPONSE.flits - 3
        assert data_flits * DATA_BITS_PER_FLIT == 64 * 8

    def test_io_classification(self):
        assert PacketClass.WRITE_IO.is_io and PacketClass.READ_IO.is_io
        assert not PacketClass.REQUEST.is_io

    def test_adaptive_permission(self):
        """I/O rides only deadlock-free channels (ordering rules)."""
        assert PacketClass.REQUEST.adaptive_allowed
        assert not PacketClass.READ_IO.adaptive_allowed
        assert not PacketClass.SPECIAL.adaptive_allowed


    def test_class_flags_for_all_seven_classes(self):
        """The flags are plain attributes set once per class; the table
        is what the former properties computed (is_io: the two I/O
        classes; escape channels: all but SPECIAL; adaptive: neither)."""
        flags = {
            pclass.name: (
                pclass.is_io, pclass.adaptive_allowed, pclass.has_escape_channels
            )
            for pclass in PacketClass
        }
        assert flags == {
            "REQUEST": (False, True, True),
            "FORWARD": (False, True, True),
            "BLOCK_RESPONSE": (False, True, True),
            "NONBLOCK_RESPONSE": (False, True, True),
            "WRITE_IO": (True, False, True),
            "READ_IO": (True, False, True),
            "SPECIAL": (False, False, False),
        }


class TestPacket:
    def test_unique_uids(self):
        first = Packet(PacketClass.REQUEST, 0, 1)
        second = Packet(PacketClass.REQUEST, 0, 1)
        assert first.uid != second.uid

    def test_initial_state(self):
        packet = Packet(PacketClass.FORWARD, 3, 9, transaction=5, injected_at=12.5)
        assert packet.hops == 0
        assert packet.escape_vc is None
        assert packet.waiting_since == 12.5
        assert packet.flits == 3
        assert packet.sink_outputs is None


class TestVirtualChannels:
    def test_nineteen_channels_total(self):
        """Three per non-special class... minus the I/O adaptive ones.

        The paper counts 19: 3 x 6 non-special classes + 1 special;
        but I/O classes only ride VC0/VC1, so the set we can enqueue
        to is 17 distinct queues -- we still allocate per the paper's
        accounting (the I/O 'adaptive' slots simply do not exist).
        """
        channels = all_virtual_channels()
        assert len(channels) == 17
        adaptive = [c for c in channels if c.kind is ChannelKind.ADAPTIVE]
        assert len(adaptive) == 5  # 4 coherence classes + special

    def test_special_has_single_channel(self):
        with pytest.raises(ValueError):
            VirtualChannel(PacketClass.SPECIAL, ChannelKind.VC0)

    def test_io_has_no_adaptive_channel(self):
        with pytest.raises(ValueError):
            VirtualChannel(PacketClass.READ_IO, ChannelKind.ADAPTIVE)

    def test_interned_lookups(self):
        assert adaptive_channel(PacketClass.REQUEST) is adaptive_channel(
            PacketClass.REQUEST
        )
        assert escape_channel(PacketClass.REQUEST, 0).kind is ChannelKind.VC0
        assert escape_channel(PacketClass.REQUEST, 1).kind is ChannelKind.VC1
        with pytest.raises(ValueError):
            escape_channel(PacketClass.REQUEST, 2)

    def test_entry_channel_per_class(self):
        assert entry_channel(PacketClass.REQUEST).kind is ChannelKind.ADAPTIVE
        assert entry_channel(PacketClass.READ_IO).kind is ChannelKind.VC0
        assert entry_channel(PacketClass.SPECIAL).kind is ChannelKind.ADAPTIVE


class TestBufferPlan:
    def test_default_plan_totals_316_packets(self):
        """The paper: buffer space for 316 packets per input port."""
        assert default_buffer_plan().total_packets() == 316

    def test_escape_channels_hold_one_packet(self):
        plan = default_buffer_plan()
        assert plan.capacity(escape_channel(PacketClass.REQUEST, 0)) == 1
        assert plan.capacity(escape_channel(PacketClass.BLOCK_RESPONSE, 1)) == 1

    def test_adaptive_channels_hold_the_bulk(self):
        plan = default_buffer_plan()
        adaptive_total = sum(
            plan.capacity(adaptive_channel(pclass))
            for pclass in (
                PacketClass.REQUEST,
                PacketClass.FORWARD,
                PacketClass.BLOCK_RESPONSE,
                PacketClass.NONBLOCK_RESPONSE,
            )
        )
        assert adaptive_total > 0.9 * 316 - 20

    def test_custom_plan_validation(self):
        with pytest.raises(ValueError):
            BufferPlan(escape_capacity=0)
        with pytest.raises(ValueError):
            BufferPlan(adaptive_capacity={PacketClass.READ_IO: 5})
        with pytest.raises(ValueError):
            BufferPlan(adaptive_capacity={PacketClass.REQUEST: 0})

    def test_small_plan_for_saturation_studies(self):
        plan = BufferPlan(
            adaptive_capacity={
                PacketClass.REQUEST: 4,
                PacketClass.FORWARD: 2,
                PacketClass.BLOCK_RESPONSE: 4,
                PacketClass.NONBLOCK_RESPONSE: 2,
            }
        )
        assert plan.total_packets() < 40
