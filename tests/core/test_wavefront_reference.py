"""Differential test: the request-ordered wave front against the dense sweep.

``WavefrontArbiter.arbitrate`` visits only the requested cells, sorted
by (wave-front diagonal, column offset) from the starting cell.  Before
that it swept all 16 x 7 cells, diagonal by diagonal; that sweep lives
on here as :class:`DenseWavefront` -- test-only, deliberately not
importable from ``src/`` -- and is the oracle: over runs of consecutive
arbitrations the grants must be equal *in content and order* and the
rotation pointer must end in the same place.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import usable_nominations
from repro.core.types import Grant, Nomination, SourceKind
from repro.core.wavefront import WavefrontArbiter, _beats
from repro.router.ports import network_rows

ROWS, COLS = 16, 7


class DenseWavefront:
    """The wave-front sweep over every cell of the matrix.

    Shares the cell-loading rule (``_beats``) and the starting-cell
    rotation with the arbiter under test by reading them from a private
    :class:`WavefrontArbiter` it never calls ``arbitrate`` on; what it
    owns is the sweep.
    """

    def __init__(self, rotary: bool) -> None:
        self.rotation = WavefrontArbiter(
            ROWS, COLS, rotary=rotary, network_rows=network_rows()
        )

    @property
    def pointer(self) -> int:
        return self.rotation._pointer

    def arbitrate(self, nominations, free_outputs) -> list[Grant]:
        usable = usable_nominations(nominations, free_outputs)
        if not usable:
            return []
        cells: dict[tuple[int, int], Nomination] = {}
        for nom, outputs in usable:
            for out in outputs:
                current = cells.get((nom.row, out))
                if current is None or _beats(nom, current):
                    cells[(nom.row, out)] = nom
        start_row, start_col = self.rotation._starting_cell(usable)
        granted_rows, granted_cols, granted_packets = set(), set(), set()
        grants = []
        for diagonal in range(ROWS):
            for col_offset in range(COLS):
                col = (start_col + col_offset) % COLS
                row = (start_row + diagonal - col_offset) % ROWS
                if row in granted_rows or col in granted_cols:
                    continue
                nom = cells.get((row, col))
                if nom is None or nom.packet in granted_packets:
                    continue
                grants.append(Grant(row=row, packet=nom.packet, output=col))
                granted_rows.add(row)
                granted_cols.add(col)
                granted_packets.add(nom.packet)
        self.rotation._advance_pointer()
        return grants


OUTPUTS = st.integers(0, COLS - 1)
NOMINATIONS = st.builds(
    Nomination,
    row=st.integers(0, ROWS - 1),
    # few packet ids: one packet offered from two rows, and two packets
    # of different ages meeting in one (row, output) cell, both happen
    packet=st.integers(0, 11),
    outputs=st.lists(OUTPUTS, min_size=1, max_size=2, unique=True).map(tuple),
    source=st.sampled_from(SourceKind),
    age=st.integers(0, 40),
    starving=st.booleans(),
)
ARBITRATIONS = st.lists(
    st.tuples(
        st.lists(NOMINATIONS, max_size=20),
        st.frozensets(OUTPUTS),  # the free outputs; the rest are busy
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(rotary=st.booleans(), arbitrations=ARBITRATIONS)
def test_requested_cells_in_sweep_order_equal_the_dense_sweep(rotary, arbitrations):
    arbiter = WavefrontArbiter(ROWS, COLS, rotary=rotary, network_rows=network_rows())
    reference = DenseWavefront(rotary)
    for nominations, free_outputs in arbitrations:
        grants = arbiter.arbitrate(nominations, free_outputs)
        assert grants == reference.arbitrate(nominations, free_outputs)
        assert arbiter._pointer == reference.pointer


def test_the_generated_matrices_reach_the_hard_cases():
    """The oracle is only a net if contested cells are inside it: a
    full matrix with two packets per cell must still yield a perfect
    matching, equal to the dense sweep's, from every starting cell."""
    nominations = [
        Nomination(row=row, packet=2 * (row * COLS + col) + young,
                   outputs=(col,), age=10 * (1 - young))
        for row in range(ROWS) for col in range(COLS) for young in (0, 1)
    ]
    free = frozenset(range(COLS))
    arbiter = WavefrontArbiter(ROWS, COLS)
    reference = DenseWavefront(rotary=False)
    for _ in range(ROWS * COLS):
        grants = arbiter.arbitrate(nominations, free)
        assert grants == reference.arbitrate(nominations, free)
        assert len(grants) == COLS
        assert all(grant.packet % 2 == 0 for grant in grants)  # the older
    assert arbiter._pointer == reference.pointer == 0
