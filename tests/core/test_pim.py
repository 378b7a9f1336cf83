"""Unit tests for PIM and PIM1."""

import random

import pytest

from repro.core.pim import PIMArbiter, expected_convergence_iterations
from repro.core.types import Nomination, SourceKind, validate_matching


def nom(row, packet, outputs, source=SourceKind.NETWORK, age=0):
    return Nomination(row=row, packet=packet, outputs=tuple(outputs),
                      source=source, age=age)


class TestPIM1:
    def test_name(self):
        assert PIMArbiter(random.Random(0), iterations=1).name == "PIM1"
        assert PIMArbiter(random.Random(0), iterations=None).name == "PIM"
        assert PIMArbiter(random.Random(0), iterations=1, rotary=True).name == \
            "PIM1-rotary"

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            PIMArbiter(random.Random(0), iterations=0)

    def test_single_uncontended_request_granted(self):
        arbiter = PIMArbiter(random.Random(0), iterations=1)
        grants = arbiter.arbitrate([nom(0, 1, [2])], frozenset(range(7)))
        assert len(grants) == 1

    def test_one_iteration_can_waste_grants(self):
        """Two outputs granting the same row leave one output idle.

        Rows 0's packet can go to outputs 0 and 1; row 1's packet only
        to output 0.  If output 0 picks row 0 and output 1 picks row 0
        too, row 0 accepts one and the other is wasted -- with one
        iteration row 1 never gets a second chance at output 0.
        """
        waste_seen = False
        for seed in range(40):
            arbiter = PIMArbiter(random.Random(seed), iterations=1)
            noms = [nom(0, 1, [0, 1]), nom(1, 2, [0])]
            grants = arbiter.arbitrate(noms, frozenset({0, 1}))
            assert 1 <= len(grants) <= 2
            if len(grants) == 1:
                waste_seen = True
        assert waste_seen, "PIM1 should sometimes collide and waste a grant"

    def test_wasted_grants_describe_the_last_call(self):
        arbiter = PIMArbiter(random.Random(0), iterations=1)
        assert arbiter.wasted_grants == 0
        arbiter.arbitrate([nom(0, 1, [0, 1])], frozenset(range(7)))
        assert arbiter.wasted_grants == 1  # both outputs offered to row 0
        arbiter.arbitrate([nom(0, 1, [0, 1])], frozenset())
        assert arbiter.wasted_grants == 0  # nothing usable, nothing offered

    def test_converged_pim_is_maximal_but_not_maximum(self):
        """PIM never revokes a grant, so a lucky round-1 collision can
        lock in a 1-match outcome even at convergence -- but the result
        is always *maximal*: no unmatched row can use an unmatched
        output.  (MCM would always find 2 here.)"""
        sizes = set()
        for seed in range(40):
            arbiter = PIMArbiter(random.Random(seed), iterations=None)
            noms = [nom(0, 1, [0, 1]), nom(1, 2, [0])]
            grants = arbiter.arbitrate(noms, frozenset({0, 1}))
            sizes.add(len(grants))
            if len(grants) == 1:
                # The single grant must block row 1's only output.
                assert grants[0].output == 0
        assert sizes == {1, 2}

    def test_multiple_nominations_per_row_supported(self):
        """An input arbiter may offer different packets to different outputs."""
        arbiter = PIMArbiter(random.Random(1), iterations=None)
        noms = [nom(0, 1, [0]), nom(0, 2, [1]), nom(1, 3, [0])]
        grants = arbiter.arbitrate(noms, frozenset({0, 1}))
        validate_matching(noms, grants, frozenset({0, 1}))
        # Row 0 gets exactly one of its two packets.
        assert sum(1 for g in grants if g.row == 0) == 1

    def test_grant_prefers_oldest_packet_within_chosen_row(self):
        arbiter = PIMArbiter(random.Random(0), iterations=1)
        noms = [nom(0, 1, [0], age=1), nom(0, 2, [0], age=9)]
        grants = arbiter.arbitrate(noms, frozenset({0}))
        assert grants[0].packet == 2

    def test_rotary_grants_network_before_local(self):
        for seed in range(20):
            arbiter = PIMArbiter(random.Random(seed), iterations=1, rotary=True)
            noms = [
                nom(8, 1, [0], source=SourceKind.LOCAL),
                nom(0, 2, [0], source=SourceKind.NETWORK),
            ]
            grants = arbiter.arbitrate(noms, frozenset({0}))
            assert grants[0].row == 0

    def test_rotary_starving_local_preempts_network(self):
        arbiter = PIMArbiter(random.Random(0), iterations=1, rotary=True)
        starving = Nomination(
            row=8, packet=1, outputs=(0,), source=SourceKind.LOCAL, starving=True
        )
        network = nom(0, 2, [0], source=SourceKind.NETWORK)
        grants = arbiter.arbitrate([starving, network], frozenset({0}))
        assert grants[0].row == 8

    def test_busy_outputs_never_granted(self):
        arbiter = PIMArbiter(random.Random(0), iterations=None)
        noms = [nom(0, 1, [0, 1])]
        grants = arbiter.arbitrate(noms, frozenset({1}))
        assert grants[0].output == 1


class TestConvergence:
    def test_expected_iterations_rule_of_thumb(self):
        assert expected_convergence_iterations(16) == 4
        assert expected_convergence_iterations(1) == 1
        assert expected_convergence_iterations(2) == 1
        with pytest.raises(ValueError):
            expected_convergence_iterations(0)

    def test_full_contention_converges_to_output_count(self):
        """16 rows all wanting every output: converged PIM fills all 7."""
        arbiter = PIMArbiter(random.Random(5), iterations=None)
        noms = [nom(r, 100 + r, [r % 7, (r + 3) % 7]) for r in range(16)]
        grants = arbiter.arbitrate(noms, frozenset(range(7)))
        assert len(grants) == 7
