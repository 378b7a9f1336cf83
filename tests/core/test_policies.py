"""Unit tests for the output-port selection policies."""

from repro.core.policies import LeastRecentlySelectedPolicy, RotaryRulePolicy
from repro.core.types import Nomination, SourceKind


def nom(row, source=SourceKind.NETWORK, starving=False):
    return Nomination(
        row=row, packet=100 + row, outputs=(0,), source=source,
        starving=starving,
    )


class TestLeastRecentlySelected:
    def test_unselected_rows_win_over_recent_ones(self):
        policy = LeastRecentlySelectedPolicy()
        policy.notify_grant(0, nom(0))
        assert policy.select(0, [nom(0), nom(7)]).row == 7

    def test_oldest_grant_wins(self):
        policy = LeastRecentlySelectedPolicy()
        policy.notify_grant(0, nom(3))
        policy.notify_grant(0, nom(5))
        assert policy.select(0, [nom(3), nom(5)]).row == 3

    def test_history_is_per_output(self):
        policy = LeastRecentlySelectedPolicy()
        policy.notify_grant(0, nom(1))
        # For output 2 neither row has history; lowest row wins.
        assert policy.select(2, [nom(1), nom(4)]).row == 1

    def test_ties_break_by_row_index(self):
        policy = LeastRecentlySelectedPolicy()
        assert policy.select(0, [nom(9), nom(2)]).row == 2

    def test_cycles_fairly_under_contention(self):
        policy = LeastRecentlySelectedPolicy()
        candidates = [nom(r) for r in range(4)]
        winners = []
        for _ in range(8):
            winner = policy.select(0, candidates)
            policy.notify_grant(0, winner)
            winners.append(winner.row)
        assert winners == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_starving_row_beats_history(self):
        """The anti-starvation overlay outranks least-recently-selected."""
        policy = LeastRecentlySelectedPolicy()
        policy.notify_grant(0, nom(2))
        assert policy.select(0, [nom(1), nom(2, starving=True)]).row == 2


class TestRotaryRule:
    def test_network_beats_local(self):
        policy = RotaryRulePolicy()
        candidates = [nom(0, source=SourceKind.LOCAL), nom(1, source=SourceKind.NETWORK)]
        assert policy.select(0, candidates).row == 1

    def test_local_only_pool_still_grants(self):
        policy = RotaryRulePolicy()
        candidates = [nom(0, source=SourceKind.LOCAL), nom(1, source=SourceKind.LOCAL)]
        assert policy.select(0, candidates).row == 0

    def test_lrs_within_network_class(self):
        policy = RotaryRulePolicy()
        network = [nom(0), nom(1)]
        winner = policy.select(0, network)
        policy.notify_grant(0, winner)
        assert policy.select(0, network).row != winner.row

    def test_starving_local_packet_beats_network(self):
        """The anti-starvation overlay outranks the Rotary Rule."""
        policy = RotaryRulePolicy()
        candidates = [
            nom(0, source=SourceKind.LOCAL, starving=True),
            nom(1, source=SourceKind.NETWORK),
        ]
        assert policy.select(0, candidates).row == 0
