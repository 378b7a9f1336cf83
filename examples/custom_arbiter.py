#!/usr/bin/env python3
"""Extending the library: plug a custom arbitration algorithm in.

The paper's output arbiters can use "some kind of a priority chain"
(section 3, citing the Torus Routing Chip).  This example implements a
**daisy-chain arbiter**: every output port grants the requesting input
arbiter closest to a fixed chain head.  It is the cheapest possible
hardware (a ripple of AND gates) but unfair -- low-numbered rows hog
the bandwidth -- which is exactly why the 21364 spent the gates on
least-recently-selected instead.

The example registers the new arbiter in the algorithm registry, runs
it through the standalone matching model next to the library's
algorithms, and measures the unfairness directly.

Run: ``python examples/custom_arbiter.py``
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.core import (
    ALGORITHMS,
    AlgorithmSpec,
    Arbiter,
    Grant,
    Nomination,
    SPAA_TIMING,
    usable_nominations,
)
from repro.experiments.report import format_table
from repro.sim import StandaloneConfig, measure_matches


class DaisyChainArbiter(Arbiter):
    """Fixed-priority grant: the lowest row wins every contention.

    Like SPAA, inputs commit to a single output (fan-out 1) and the
    output arbiters decide independently -- only the selection policy
    differs, so the comparison against SPAA isolates the policy.
    """

    name = "daisy-chain"

    def arbitrate(
        self,
        nominations: Sequence[Nomination],
        free_outputs: frozenset[int],
    ) -> list[Grant]:
        by_output: dict[int, Nomination] = {}
        for nom, outputs in usable_nominations(nominations, free_outputs):
            out = outputs[0]
            current = by_output.get(out)
            # Starving packets outrank the chain (anti-starvation),
            # then the chain position decides.
            key = (not nom.starving, nom.row)
            if current is None or key < (not current.starving, current.row):
                by_output[out] = nom
        return [
            Grant(row=nom.row, packet=nom.packet, output=out)
            for out, nom in sorted(by_output.items())
        ]


def register() -> None:
    """Make the arbiter available to every model by name."""
    ALGORITHMS["daisy-chain"] = AlgorithmSpec(
        name="daisy-chain",
        factory=lambda ctx: DaisyChainArbiter(),
        timing=SPAA_TIMING,  # as simple as SPAA's grant stage
        nomination_style="single-output",  # inputs commit like SPAA
    )


def matching_comparison() -> None:
    print("Matching capability (single router, load 32, 400 trials)\n")
    rows = []
    register()
    for algorithm in ("SPAA", "daisy-chain", "PIM1", "MCM"):
        loaded = measure_matches(
            StandaloneConfig(algorithm=algorithm, load=32, trials=400)
        )
        rows.append((algorithm, loaded))
    print(format_table(("algorithm", "matches/cycle"), rows))
    print("\n-> the chain matches SPAA's raw matching (same single-output")
    print("   structure); the difference is *who* gets served.\n")


def fairness_comparison() -> None:
    """Count grants per input port under sustained full contention."""
    from random import Random

    from repro.core import ArbiterContext, make_arbiter
    from repro.router import network_rows

    register()
    print("Fairness under contention: 4 rows fighting for one output\n")
    rows = []
    for algorithm in ("SPAA-base", "daisy-chain"):
        arbiter = make_arbiter(
            algorithm, ArbiterContext(16, 7, network_rows(), Random(1))
        )
        wins: Counter[int] = Counter()
        for trial in range(400):
            noms = [
                Nomination(row=row, packet=trial * 16 + row, outputs=(3,))
                for row in range(4)
            ]
            for grant in arbiter.arbitrate(noms, frozenset(range(7))):
                wins[grant.row] += 1
        shares = [wins.get(row, 0) / 400 for row in range(4)]
        rows.append((algorithm,) + tuple(f"{s:.0%}" for s in shares))
    print(format_table(
        ("algorithm", "row 0", "row 1", "row 2", "row 3"), rows
    ))
    print("\n-> least-recently-selected serves everyone equally; the chain")
    print("   starves rows 1-3 completely.  The 21364's anti-starvation")
    print("   coloring would eventually rescue them, but as a steady-state")
    print("   policy the chain is unusable -- gates well spent on LRS.")


if __name__ == "__main__":
    register()
    matching_comparison()
    fairness_comparison()
