"""Unit tests for SPAA's grant step and nomination discipline."""

import pytest

from repro.core.spaa import SPAAArbiter
from repro.core.types import Grant, Nomination, SourceKind


def nom(row, packet, output, source=SourceKind.NETWORK, age=0):
    return Nomination(row=row, packet=packet, outputs=(output,), source=source, age=age)


class TestNominationDiscipline:
    def test_rejects_multi_output_nominations(self):
        arbiter = SPAAArbiter()
        bad = Nomination(row=0, packet=1, outputs=(0, 1))
        with pytest.raises(ValueError, match="exactly one"):
            arbiter.arbitrate([bad], frozenset({0, 1}))

    def test_rejects_duplicate_rows(self):
        arbiter = SPAAArbiter()
        with pytest.raises(ValueError, match="nominated twice"):
            arbiter.arbitrate([nom(0, 1, 0), nom(0, 2, 1)], frozenset({0, 1}))

    def test_rejects_unsynchronized_read_port_pair(self):
        """Two read ports must never nominate the same packet."""
        arbiter = SPAAArbiter()
        with pytest.raises(ValueError, match="synchronize"):
            arbiter.arbitrate([nom(0, 1, 0), nom(1, 1, 1)], frozenset({0, 1}))


class TestGrantStep:
    def test_uncontended_nominations_all_win(self):
        arbiter = SPAAArbiter()
        noms = [nom(r, 100 + r, r) for r in range(5)]
        grants = arbiter.arbitrate(noms, frozenset(range(7)))
        assert len(grants) == 5

    def test_collision_wastes_losers(self):
        """This is SPAA's defining weakness: no retry within the cycle."""
        arbiter = SPAAArbiter()
        noms = [nom(0, 1, 3), nom(1, 2, 3), nom(2, 3, 3)]
        grants = arbiter.arbitrate(noms, frozenset(range(7)))
        assert len(grants) == 1
        assert grants[0].output == 3

    def test_busy_output_blocks_everyone(self):
        arbiter = SPAAArbiter()
        noms = [nom(0, 1, 3)]
        assert arbiter.arbitrate(noms, frozenset({0, 1, 2})) == []

    def test_base_policy_is_least_recently_selected(self):
        arbiter = SPAAArbiter()
        assert arbiter.name == "SPAA-base"
        first = arbiter.arbitrate([nom(0, 1, 0), nom(1, 2, 0)], frozenset({0}))
        assert first == [Grant(0, 1, 0)]
        second = arbiter.arbitrate([nom(0, 3, 0), nom(1, 4, 0)], frozenset({0}))
        assert second == [Grant(1, 4, 0)]

    def test_rotary_prioritizes_network_rows(self):
        arbiter = SPAAArbiter(rotary=True)
        assert arbiter.name == "SPAA-rotary"
        noms = [
            nom(8, 1, 0, source=SourceKind.LOCAL),
            nom(1, 2, 0, source=SourceKind.NETWORK),
        ]
        grants = arbiter.arbitrate(noms, frozenset({0}))
        assert grants == [Grant(1, 2, 0)]

    def test_base_grants_local_and_network_equally_by_lrs(self):
        arbiter = SPAAArbiter()
        noms = [
            nom(8, 1, 0, source=SourceKind.LOCAL),
            nom(9, 2, 0, source=SourceKind.NETWORK),
        ]
        # Row 8 wins on the row-index tiebreak, not on source kind.
        assert arbiter.arbitrate(noms, frozenset({0}))[0].row == 8

    def test_reset_clears_lrs_history(self):
        arbiter = SPAAArbiter()
        arbiter.arbitrate([nom(0, 1, 0), nom(1, 2, 0)], frozenset({0}))
        arbiter.reset()
        grants = arbiter.arbitrate([nom(0, 3, 0), nom(1, 4, 0)], frozenset({0}))
        assert grants[0].row == 0

    def test_independent_outputs_grant_in_parallel(self):
        """Output arbiters never interact: one per column, no ordering."""
        arbiter = SPAAArbiter()
        noms = [nom(0, 1, 2), nom(1, 2, 4), nom(2, 3, 6)]
        grants = arbiter.arbitrate(noms, frozenset(range(7)))
        assert {g.output for g in grants} == {2, 4, 6}
