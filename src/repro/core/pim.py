"""Parallel Iterative Matching (PIM) and its one-iteration variant PIM1.

PIM (Anderson et al., ASPLOS 1992) repeats three steps until no new
match can be made:

1. *Nominate* -- every unmatched input-port arbiter requests every
   output port it has a packet for (the same packet may be requested at
   several outputs).
2. *Grant* -- every unmatched output arbiter picks one requester
   uniformly at random and tells it so.
3. *Accept* -- an input arbiter that received several grants accepts
   one uniformly at random.

PIM converges in about ``log2 N`` iterations, which would cost the
21364 far too many cycles, so the paper evaluates **PIM1** -- a single
iteration -- in all timing studies.  A single iteration wastes grants
whenever two outputs grant the same input, which is exactly the
matching-quality gap Figures 8 and 9 quantify.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from repro.core.base import Arbiter, usable_nominations
from repro.core.types import Grant, Nomination, SourceKind


class PIMArbiter(Arbiter):
    """PIM with a configurable iteration count.

    Args:
        rng: source of randomness for the grant and accept steps.
        iterations: number of nominate/grant/accept rounds.  ``None``
            iterates until convergence (no unmatched request can still
            be served), which is the paper's "PIM".  ``1`` gives PIM1.
        rotary: when True, output arbiters grant network-sourced
            requests before local ones (Rotary Rule); the choice inside
            each class stays random.  The paper describes this
            extension for PIM1 but only evaluates it for WFA and SPAA.
    """

    def __init__(
        self,
        rng: random.Random,
        iterations: int | None = 1,
        rotary: bool = False,
    ) -> None:
        if iterations is not None and iterations < 1:
            raise ValueError("iterations must be >= 1 (or None for convergence)")
        self._rng = rng
        self._keyed = getattr(rng, "keyed_draw", None)
        self._iterations = iterations
        self._rotary = rotary
        suffix = "" if not rotary else "-rotary"
        if iterations is None:
            self.name = "PIM" + suffix
        else:
            self.name = f"PIM{iterations}" + suffix

    def _draw(self, kind: str, round_index: int, which: int, n: int) -> int:
        """One uniform draw in ``range(n)``.

        With a keyed rng (:class:`repro.kernels.rng.KeyedTrialRandom`)
        the draw is addressed by ``(kind, round, output-or-row)`` so the
        vectorized PIM1 kernel can reproduce it positionally; a plain
        ``random.Random`` consumes its sequential stream instead.
        """
        if self._keyed is not None:
            return self._keyed((kind, round_index, which), n)
        return self._rng.randrange(n)

    def arbitrate(
        self,
        nominations: Sequence[Nomination],
        free_outputs: frozenset[int],
    ) -> list[Grant]:
        self.wasted_grants = 0
        usable = usable_nominations(nominations, free_outputs)
        if not usable:
            return []
        max_rounds = self._iterations
        if max_rounds is None:
            # PIM converges within log2(N) iterations with high
            # probability; N+1 rounds is a safe exact upper bound for
            # these tiny matrices and the loop below also stops as soon
            # as a round yields no new match.
            max_rounds = len(usable) + 1

        matched_rows: set[int] = set()
        matched_packets: set[int] = set()
        matched_outputs: set[int] = set()
        grants: list[Grant] = []
        wasted_grants = 0

        for round_index in range(max_rounds):
            # Nominate: every still-unmatched row requests all of its
            # candidate outputs that are still unmatched.
            requests: dict[int, list[Nomination]] = {}
            for nom, outputs in usable:
                if nom.row in matched_rows or nom.packet in matched_packets:
                    continue
                for out in outputs:
                    if out not in matched_outputs:
                        requests.setdefault(out, []).append(nom)
            if not requests:
                break

            # Grant: each output picks one requesting *input arbiter*
            # at random (network-first under the Rotary Rule), taking
            # that arbiter's oldest packet for this output.
            # Outputs draw in ascending order so each row's offer list
            # is ordered by output -- the accept draw below indexes it.
            offers: dict[int, list[tuple[int, Nomination]]] = {}
            for out in sorted(requests):
                candidates = requests[out]
                pool = candidates
                if self._rotary:
                    starving = [c for c in candidates if c.starving]
                    if starving:
                        pool = starving
                    else:
                        network = [
                            c for c in candidates
                            if c.source is SourceKind.NETWORK
                        ]
                        if network:
                            pool = network
                rows = sorted({nom.row for nom in pool})
                row = rows[self._draw("pim-grant", round_index, out, len(rows))]
                chosen = max(
                    (nom for nom in pool if nom.row == row),
                    key=lambda nom: nom.age,
                )
                offers.setdefault(chosen.row, []).append((out, chosen))

            # Accept: each row with offers accepts one at random.  Any
            # extra offers to the same row are the single-iteration
            # waste Figures 8/9 quantify.
            progressed = False
            for row in sorted(offers):
                wasted_grants += len(offers[row]) - 1
                out, nom = offers[row][
                    self._draw("pim-accept", round_index, row, len(offers[row]))
                ]
                grants.append(Grant(row=row, packet=nom.packet, output=out))
                matched_rows.add(row)
                matched_packets.add(nom.packet)
                matched_outputs.add(out)
                progressed = True
            if not progressed:
                break
        self.wasted_grants = wasted_grants
        return grants


def expected_convergence_iterations(num_rows: int) -> int:
    """The paper's rule of thumb: PIM converges in about log2(N) rounds."""
    if num_rows < 1:
        raise ValueError("need at least one row")
    return max(1, math.ceil(math.log2(num_rows)))
