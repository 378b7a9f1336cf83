"""Experiment regenerators: one module per figure plus in-text claims.

``repro-experiments <fig8|fig9|fig10|fig11|claims|score>`` on the command
line (``score`` runs them all into ``results/`` and EXPERIMENTS.md), or
import the ``run_*`` functions directly:

* :mod:`repro.experiments.figure8` -- standalone matching vs load
* :mod:`repro.experiments.figure9` -- matching vs output occupancy
* :mod:`repro.experiments.figure10` -- BNF curves, 4 panels
* :mod:`repro.experiments.figure11` -- scaling studies, 3 panels
* :mod:`repro.experiments.claims` -- the in-text ablations and
  ``CLAIMS``, the one table of the paper's numbers every report reads
"""

from repro.experiments.claims import (
    run_arb_latency_cost,
    run_pipelining_gain,
    run_saturation_oscillation,
)
from repro.experiments.figure8 import Figure8Result, run_figure8
from repro.experiments.figure9 import Figure9Result, run_figure9
from repro.experiments.figure10 import Figure10Result, run_figure10
from repro.experiments.figure11 import Figure11Result, run_figure11
from repro.experiments.report import ascii_plot, bnf_plot, format_table

__all__ = [
    "Figure8Result",
    "Figure9Result",
    "Figure10Result",
    "Figure11Result",
    "ascii_plot",
    "bnf_plot",
    "format_table",
    "run_arb_latency_cost",
    "run_figure8",
    "run_figure9",
    "run_figure10",
    "run_figure11",
    "run_pipelining_gain",
    "run_saturation_oscillation",
]
