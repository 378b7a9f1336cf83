"""Unit tests for arbitration timing specs and the algorithm registry."""

import random

import pytest

from repro.core.base import Arbiter
from repro.core.registry import (
    ALGORITHMS,
    STANDALONE_ALGORITHMS,
    TIMING_ALGORITHMS,
    ArbiterContext,
    algorithm_timing,
    available_algorithms,
    make_arbiter,
)
from repro.core.timing import (
    ArbitrationTiming,
    PIM1_TIMING,
    SPAA_TIMING,
    WFA_3CYCLE_TIMING,
    WFA_TIMING,
)
from repro.router.ports import network_rows


def ctx() -> ArbiterContext:
    return ArbiterContext(16, 7, network_rows(), random.Random(0))


class TestPaperTimings:
    def test_spaa_is_three_cycles_fully_pipelined(self):
        assert SPAA_TIMING.latency == 3
        assert SPAA_TIMING.initiation_interval == 1
        assert SPAA_TIMING.fanout == 1
        assert SPAA_TIMING.nominations_per_port == 1
        assert SPAA_TIMING.speculative_read
        assert SPAA_TIMING.decision_latency == 3

    @pytest.mark.parametrize("timing", [PIM1_TIMING, WFA_TIMING])
    def test_pim1_and_wfa_are_four_cycles_every_three(self, timing):
        assert timing.latency == 4
        assert timing.initiation_interval == 3
        assert timing.fanout == 2
        # The fourth cycle is pipelined wire delay: decisions land at 3.
        assert timing.decision_latency == 3

    def test_figure11a_doubling(self):
        """The 2x pipeline study: latencies become 6 (SPAA) and 8."""
        assert SPAA_TIMING.scaled(2).latency == 6
        assert SPAA_TIMING.scaled(2).initiation_interval == 1
        assert PIM1_TIMING.scaled(2).latency == 8
        assert PIM1_TIMING.scaled(2).initiation_interval == 6
        assert WFA_TIMING.scaled(2).latency == 8

    def test_hypothetical_3cycle_wfa(self):
        assert WFA_3CYCLE_TIMING.latency == 3
        assert WFA_3CYCLE_TIMING.initiation_interval == 3

    def test_scaling_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            SPAA_TIMING.scaled(0)

    @pytest.mark.parametrize("kwargs", [
        dict(latency=0, initiation_interval=1, fanout=1),
        dict(latency=3, initiation_interval=0, fanout=1),
        dict(latency=3, initiation_interval=1, fanout=3),
        dict(latency=3, initiation_interval=1, fanout=1, tail_cycles=3),
        dict(latency=3, initiation_interval=1, fanout=2, speculative_read=True),
        dict(latency=3, initiation_interval=1, fanout=1, nominations_per_port=0),
    ])
    def test_invalid_timings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ArbitrationTiming(**kwargs)


class TestRegistry:
    def test_all_paper_algorithms_present(self):
        names = set(available_algorithms())
        assert names == {"MCM", "PIM", "PIM1", "PIM1-rotary", "WFA-base",
                         "WFA-rotary", "SPAA-base", "SPAA-rotary", "OPF"}

    def test_standalone_and_timing_lists_match_the_paper(self):
        assert STANDALONE_ALGORITHMS == ("MCM", "WFA", "PIM", "PIM1", "SPAA")
        assert TIMING_ALGORITHMS == (
            "PIM1", "WFA-base", "WFA-rotary", "SPAA-base", "SPAA-rotary"
        )

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_every_entry_builds_an_arbiter(self, name):
        arbiter = make_arbiter(name, ctx())
        assert isinstance(arbiter, Arbiter)

    def test_aliases_map_to_base_variants(self):
        assert make_arbiter("WFA", ctx()).name == "WFA-base"
        assert make_arbiter("SPAA", ctx()).name == "SPAA-base"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_arbiter("iSLIP", ctx())

    def test_timing_lookup(self):
        assert algorithm_timing("SPAA-rotary") is SPAA_TIMING
        assert algorithm_timing("WFA") is WFA_TIMING
        assert algorithm_timing("PIM1") is PIM1_TIMING

    @pytest.mark.parametrize("name", ["MCM", "PIM"])
    def test_standalone_only_algorithms_have_no_timing(self, name):
        with pytest.raises(ValueError, match="standalone"):
            algorithm_timing(name)
        assert ALGORITHMS[name].timing is None

    def test_unknown_timing_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            algorithm_timing("iSLIP")
