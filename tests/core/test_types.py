"""Unit tests for nomination/grant value types and the matching checker."""

import pickle

import pytest

from repro.core.types import Grant, Nomination, SourceKind, validate_matching
from repro.router.ports import InputPort
from repro.sim.standalone import StandalonePacket


def nom(row=0, packet=0, outputs=(0,), **kwargs):
    return Nomination(row=row, packet=packet, outputs=outputs, **kwargs)


#: every field set away from its default
FULL = dict(row=3, packet=17, outputs=(4, 1), source=SourceKind.LOCAL, age=12,
            group=1, group_capacity=2, starving=True)


class TestNomination:
    def test_requires_an_output(self):
        with pytest.raises(ValueError, match="at least one candidate output"):
            nom(outputs=())

    def test_rejects_duplicate_outputs(self):
        with pytest.raises(ValueError, match="duplicate outputs"):
            nom(outputs=(3, 3))

    def test_list_outputs_become_an_immutable_tuple(self):
        nomination = nom(outputs=[0])
        assert nomination.outputs == (0,)
        assert type(nomination.outputs) is tuple
        assert hash(nomination) == hash(nom(outputs=(0,)))
        with pytest.raises(AttributeError):
            nomination.outputs.append(0)

    def test_list_outputs_are_still_checked(self):
        with pytest.raises(ValueError, match="duplicate outputs"):
            nom(outputs=[2, 2])
        with pytest.raises(ValueError, match="at least one candidate output"):
            nom(outputs=[])

    def test_defaults(self):
        nomination = nom(row=2, packet=7, outputs=(1, 4))
        assert nomination.source is SourceKind.NETWORK
        assert nomination.age == 0
        assert nomination.group is None
        assert nomination.group_capacity == 1
        assert not nomination.starving

    def test_is_hashable_and_frozen(self):
        nomination = nom()
        assert hash(nomination) == hash(nom())
        with pytest.raises(AttributeError):
            nomination.row = 5


class TestValueContract:
    """What callers may rely on, whatever class implements the values."""

    def test_nomination_repr(self):
        assert repr(Nomination(**FULL)) == (
            "Nomination(row=3, packet=17, outputs=(4, 1), "
            "source=<SourceKind.LOCAL: 'local'>, age=12, group=1, "
            "group_capacity=2, starving=True)"
        )

    def test_grant_repr(self):
        assert repr(Grant(row=3, packet=17, output=4)) == (
            "Grant(row=3, packet=17, output=4)"
        )

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        for value in (Nomination(**FULL), nom(), Grant(3, 17, 4)):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert back == value
            assert type(back) is type(value)
            assert hash(back) == hash(value)

    @pytest.mark.parametrize("outputs", [(), (2, 2)])
    def test_unpickling_validates(self, outputs):
        fields = (0, 0, outputs, SourceKind.NETWORK, 0, None, 1, False)
        forged = tuple.__new__(Nomination, fields)  # skips the checks
        with pytest.raises(ValueError):
            pickle.loads(pickle.dumps(forged))

    def test_replace_validates(self):
        nomination = Nomination(**FULL)
        assert nomination._replace(starving=False) == Nomination(
            **{**FULL, "starving": False}
        )
        assert nomination._replace(outputs=[1]).outputs == (1,)
        with pytest.raises(ValueError, match="at least one candidate output"):
            nomination._replace(outputs=())
        with pytest.raises(ValueError, match="duplicate outputs"):
            nomination._replace(outputs=(1, 1))

    def test_keyword_equals_positional(self):
        keyword = Nomination(**FULL)
        positional = Nomination(3, 17, (4, 1), SourceKind.LOCAL, 12, 1, 2, True)
        assert keyword == positional
        assert hash(keyword) == hash(positional)
        assert Grant(row=3, packet=17, output=4) == Grant(3, 17, 4)
        assert hash(Grant(row=3, packet=17, output=4)) == hash(Grant(3, 17, 4))

    @pytest.mark.parametrize("name", list(FULL))
    def test_nomination_fields_are_read_only(self, name):
        nomination = Nomination(**FULL)
        with pytest.raises(AttributeError):
            setattr(nomination, name, 0)
        assert nomination == Nomination(**FULL)

    @pytest.mark.parametrize("name", ["row", "packet", "output"])
    def test_grant_fields_are_read_only(self, name):
        grant = Grant(3, 17, 4)
        with pytest.raises(AttributeError):
            setattr(grant, name, 0)

    def test_no_new_attributes(self):
        for value in (nom(), Grant(0, 0, 0)):
            with pytest.raises(AttributeError):
                value.extra = 1

    def test_standalone_packet_fields(self):
        packet = StandalonePacket(uid=5, port=InputPort.EAST, outputs=(2,), age=5)
        assert (packet.uid, packet.port, packet.outputs, packet.age) == (
            5, InputPort.EAST, (2,), 5,
        )
        assert packet == StandalonePacket(5, InputPort.EAST, (2,), 5)
        with pytest.raises(AttributeError):
            packet.uid = 6


class TestValidateMatching:
    def test_accepts_empty(self):
        validate_matching([], [])

    def test_accepts_a_legal_matching(self):
        noms = [nom(row=0, packet=10, outputs=(0, 1)), nom(row=1, packet=11, outputs=(1,))]
        grants = [Grant(0, 10, 0), Grant(1, 11, 1)]
        validate_matching(noms, grants, frozenset({0, 1}))

    def test_rejects_unknown_grant(self):
        with pytest.raises(ValueError, match="does not correspond"):
            validate_matching([], [Grant(0, 0, 0)])

    def test_rejects_wrong_output(self):
        noms = [nom(row=0, packet=1, outputs=(2,))]
        with pytest.raises(ValueError, match="cannot take"):
            validate_matching(noms, [Grant(0, 1, 3)])

    def test_rejects_busy_output(self):
        noms = [nom(row=0, packet=1, outputs=(2,))]
        with pytest.raises(ValueError, match="busy output"):
            validate_matching(noms, [Grant(0, 1, 2)], frozenset({0, 1}))

    def test_rejects_double_granted_output(self):
        noms = [
            nom(row=0, packet=1, outputs=(2,)),
            nom(row=1, packet=2, outputs=(2,)),
        ]
        grants = [Grant(0, 1, 2), Grant(1, 2, 2)]
        with pytest.raises(ValueError, match="output 2 granted twice"):
            validate_matching(noms, grants)

    def test_rejects_double_granted_row(self):
        noms = [
            nom(row=0, packet=1, outputs=(2,)),
            nom(row=0, packet=2, outputs=(3,)),
        ]
        grants = [Grant(0, 1, 2), Grant(0, 2, 3)]
        with pytest.raises(ValueError, match="row 0 granted twice"):
            validate_matching(noms, grants)

    def test_rejects_double_granted_packet(self):
        noms = [
            nom(row=0, packet=1, outputs=(2,)),
            nom(row=1, packet=1, outputs=(3,)),
        ]
        grants = [Grant(0, 1, 2), Grant(1, 1, 3)]
        with pytest.raises(ValueError, match="packet 1 granted twice"):
            validate_matching(noms, grants)

    def test_enforces_group_capacity(self):
        noms = [
            nom(row=0, packet=1, outputs=(0,), group=5, group_capacity=1),
            nom(row=1, packet=2, outputs=(1,), group=5, group_capacity=1),
        ]
        grants = [Grant(0, 1, 0), Grant(1, 2, 1)]
        with pytest.raises(ValueError, match="group 5 exceeded"):
            validate_matching(noms, grants)

    def test_group_capacity_two_allows_two_grants(self):
        noms = [
            nom(row=0, packet=1, outputs=(0,), group=5, group_capacity=2),
            nom(row=1, packet=2, outputs=(1,), group=5, group_capacity=2),
        ]
        validate_matching(noms, [Grant(0, 1, 0), Grant(1, 2, 1)])
