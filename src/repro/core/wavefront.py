"""The Wave-Front Arbiter (WFA), as in the SGI Spider switch.

WFA (Tamir & Chi, 1993) evaluates a two-dimensional connection matrix:
rows are input-port arbiters, columns are output ports, and a cell
(i, j) is *requested* when arbiter i nominated a packet for output j.
Evaluation sweeps the matrix in wave fronts starting from a priority
cell; a requested cell is granted when no earlier cell in its row or
column was granted::

    Grant(i,j) = Request(i,j) and N(i,j) and W(i,j)

Cells on one (wrapped) anti-diagonal touch distinct rows and columns,
so they are evaluated in parallel in hardware; our timing numbers
follow the faster *Wrapped* WFA exactly as the paper assumes.

Fairness comes from rotating the starting cell:

* ``WFA-base`` rotates round-robin over all cells (Tamir & Chi's
  suggestion, used by the paper as the baseline).
* ``WFA-rotary`` applies the Rotary Rule: the starting cell rotates
  over the rows belonging to *network* input ports only, so packets
  already in the network get the highest priority wave front.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.base import Arbiter, usable_nominations
from repro.core.types import Grant, Nomination


class WavefrontArbiter(Arbiter):
    """Wrapped wave-front arbitration over a rows x outputs matrix.

    Args:
        num_rows: height of the connection matrix (16 in the 21364).
        num_outputs: width of the connection matrix (7 in the 21364).
        rotary: rotate the starting cell over network rows only
            (``WFA-rotary``) instead of over every cell (``WFA-base``).
        network_rows: rows belonging to network input ports; required
            when *rotary* is set.
    """

    def __init__(
        self,
        num_rows: int,
        num_outputs: int,
        rotary: bool = False,
        network_rows: Sequence[int] = (),
    ) -> None:
        if num_rows < 1 or num_outputs < 1:
            raise ValueError("matrix dimensions must be positive")
        self._num_rows = num_rows
        self._num_outputs = num_outputs
        self._rotary = rotary
        self._network_rows = tuple(network_rows)
        if rotary and not self._network_rows:
            raise ValueError("WFA-rotary needs the set of network rows")
        if any(not 0 <= r < num_rows for r in self._network_rows):
            raise ValueError("network row out of range")
        self._pointer = 0
        self.name = "WFA-rotary" if rotary else "WFA-base"

    def reset(self) -> None:
        self._pointer = 0

    def arbitrate(
        self,
        nominations: Sequence[Nomination],
        free_outputs: frozenset[int],
    ) -> list[Grant]:
        usable = usable_nominations(nominations, free_outputs)
        if not usable:
            return []

        # Load the matrix: cell (row, out) holds the oldest nomination
        # requesting that pair.  Several nominations may share a row
        # (an input arbiter may offer different packets to different
        # outputs); the wave front guarantees at most one grant per
        # row and column.
        cells: dict[tuple[int, int], Nomination] = {}
        for nom, outputs in usable:
            if not 0 <= nom.row < self._num_rows:
                raise ValueError(f"row {nom.row} outside the {self._num_rows}-row matrix")
            for out in outputs:
                if not 0 <= out < self._num_outputs:
                    raise ValueError(
                        f"output {out} outside the {self._num_outputs}-column matrix"
                    )
                current = cells.get((nom.row, out))
                if current is None or _beats(nom, current):
                    cells[(nom.row, out)] = nom

        start_row, start_col = self._starting_cell(usable)
        granted_rows: set[int] = set()
        granted_cols: set[int] = set()
        granted_packets: set[int] = set()
        grants: list[Grant] = []

        # Wrapped wave fronts: diagonal d contains the cells whose
        # (row - start_row) mod R == (d - (col - start_col)) mod R, so
        # each diagonal touches every column at most once and distinct
        # rows.  Sweeping d = 0 .. R-1, and each diagonal by column
        # offset, visits every cell exactly once, starting with the
        # diagonal through the priority cell; only requested cells can
        # be granted, so only they are visited, in the sweep's order.
        rows, cols = self._num_rows, self._num_outputs
        front = []
        for row, col in cells:
            col_offset = (col - start_col) % cols
            front.append(((row - start_row + col_offset) % rows, col_offset, row, col))
        front.sort()
        for _, _, row, col in front:
            if row in granted_rows or col in granted_cols:
                continue
            nom = cells[(row, col)]
            if nom.packet in granted_packets:
                continue
            grants.append(Grant(row=row, packet=nom.packet, output=col))
            granted_rows.add(row)
            granted_cols.add(col)
            granted_packets.add(nom.packet)

        self._advance_pointer()
        return grants

    def _starting_cell(
        self, usable: Sequence[tuple[Nomination, tuple[int, ...]]]
    ) -> tuple[int, int]:
        if not self._rotary:
            pointer = self._pointer % (self._num_rows * self._num_outputs)
            return pointer // self._num_outputs, pointer % self._num_outputs
        # Rotary Rule: the highest-priority cell belongs to a network
        # row.  Starving (old-colored) packets pre-empt the rotation.
        starving_rows = sorted({
            nom.row for nom, _ in usable if nom.starving
        })
        if starving_rows:
            return starving_rows[0], self._pointer % self._num_outputs
        ring = self._network_rows
        row = ring[self._pointer % len(ring)]
        col = (self._pointer // len(ring)) % self._num_outputs
        return row, col

    def _advance_pointer(self) -> None:
        if self._rotary:
            period = len(self._network_rows) * self._num_outputs
        else:
            period = self._num_rows * self._num_outputs
        self._pointer = (self._pointer + 1) % period


def _beats(challenger: Nomination, incumbent: Nomination) -> bool:
    """Oldest packet wins a cell; starving packets outrank age."""
    challenger_key = (challenger.starving, challenger.age)
    incumbent_key = (incumbent.starving, incumbent.age)
    return challenger_key > incumbent_key
