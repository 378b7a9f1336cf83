"""Tests for the Arbiter base class helpers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import usable_nominations
from repro.core.types import Nomination


def nom(row, packet, outputs):
    return Nomination(row=row, packet=packet, outputs=tuple(outputs))


def reference_usable(nominations, free_outputs):
    """The filter ``usable_nominations`` applied to every nomination."""
    usable = []
    for nomination in nominations:
        outputs = tuple(o for o in nomination.outputs if o in free_outputs)
        if outputs:
            usable.append((nomination, outputs))
    return usable


_nominations = st.lists(
    st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True),
    max_size=12,
).map(lambda outs: [nom(row, 100 + row, o) for row, o in enumerate(outs)])

_free_sets = st.one_of(
    st.just(frozenset()),  # none free
    st.just(frozenset(range(7))),  # all free
    st.frozensets(st.integers(0, 6)),  # partly free
)


class TestUsableNominations:
    def test_filters_busy_outputs(self):
        noms = [nom(0, 1, [2, 4])]
        usable = usable_nominations(noms, frozenset({4}))
        assert usable == [(noms[0], (4,))]

    def test_drops_fully_blocked_nominations(self):
        noms = [nom(0, 1, [2]), nom(1, 2, [3])]
        usable = usable_nominations(noms, frozenset({3}))
        assert len(usable) == 1
        assert usable[0][0].packet == 2

    def test_preserves_preference_order(self):
        noms = [nom(0, 1, [5, 2])]
        usable = usable_nominations(noms, frozenset({2, 5}))
        assert usable[0][1] == (5, 2)

    def test_empty_inputs(self):
        assert usable_nominations([], frozenset({1})) == []
        assert usable_nominations([nom(0, 1, [0])], frozenset()) == []

    def test_preserves_input_order_across_nominations(self):
        noms = [nom(2, 1, [0]), nom(0, 2, [0]), nom(1, 3, [0])]
        usable = usable_nominations(noms, frozenset({0}))
        assert [item[0].row for item in usable] == [2, 0, 1]

    @settings(max_examples=300, deadline=None)
    @given(nominations=_nominations, free=_free_sets)
    def test_matches_the_per_output_filter(self, nominations, free):
        usable = usable_nominations(nominations, free)
        assert usable == reference_usable(nominations, free)
        for _, outputs in usable:
            assert type(outputs) is tuple
