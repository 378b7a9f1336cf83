"""Fault injection: schedules, recovery, and accounting under fire."""

import math

import pytest

from repro.network.links import LinkRetrySpec
from repro.resilience.backoff import jittered_backoff
from repro.resilience.faults import (
    REASON_LINK_RETRIES_EXHAUSTED,
    FaultConfig,
    FaultInjector,
    parse_fault_spec,
    permanent_stall,
)
from repro.resilience.invariants import InvariantChecker
from repro.sim.timing_model import NetworkSimulator


class TestFaultConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(flit_drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(flit_drop_rate=0.7, flit_corrupt_rate=0.7)
        with pytest.raises(ValueError):
            FaultConfig(stall_cycles=-1.0)

    @pytest.mark.parametrize("rate_field", [
        "flit_drop_rate",
        "flit_corrupt_rate",
        "grant_suppression_rate",
        "grant_misroute_rate",
    ])
    @pytest.mark.parametrize("bad", [
        math.nan, -0.1, 1.0001, math.inf, "0.5", None, True,
    ])
    def test_every_rate_rejects_garbage(self, rate_field, bad):
        """NaN/negative/out-of-range/non-numeric rates all fail loudly.

        A NaN rate is the nasty one: every comparison against it is
        False, so without the explicit check it would silently disable
        the Bernoulli draw instead of erroring.
        """
        with pytest.raises(ValueError, match=rate_field):
            FaultConfig(**{rate_field: bad})

    def test_stall_window_rejects_garbage(self):
        with pytest.raises(ValueError, match="stall_cycles"):
            FaultConfig(stall_cycles=math.nan)
        # stall_start must be finite: an inf start never begins.
        with pytest.raises(ValueError, match="stall_start_cycle"):
            FaultConfig(stall_start_cycle=math.inf)
        with pytest.raises(ValueError, match="stall_start_cycle"):
            FaultConfig(stall_start_cycle=math.nan)
        with pytest.raises(ValueError, match="stall_start_cycle"):
            FaultConfig(stall_start_cycle=-5.0)
        # inf stall_cycles stays legal: that is the permanent stall.
        assert math.isinf(permanent_stall(node=0).stall_cycles)

    def test_enabled_flags(self):
        assert not FaultConfig().enabled
        assert FaultConfig(flit_drop_rate=0.1).affects_links
        assert FaultConfig(grant_suppression_rate=0.1).affects_grants
        assert FaultConfig(stall_node=3, stall_cycles=100.0).affects_grants
        assert not FaultConfig(stall_node=3).affects_grants  # zero-length

    def test_with_seed_changes_only_the_seed(self):
        config = FaultConfig(seed=1, flit_drop_rate=0.25)
        bumped = config.with_seed(2)
        assert bumped.seed == 2
        assert bumped.flit_drop_rate == 0.25


class TestRetrySpec:
    def test_backoff_is_exponential(self):
        retry = LinkRetrySpec(backoff_base_cycles=4.0, backoff_factor=2.0)
        delays = [
            jittered_backoff(retry.backoff_base_cycles, retry.backoff_factor, n)
            for n in (0, 1, 3)
        ]
        assert delays == [4.0, 8.0, 32.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkRetrySpec(max_retries=-1)
        with pytest.raises(ValueError):
            LinkRetrySpec(backoff_factor=0.5)


class TestFaultSpecParsing:
    def test_full_spec_round_trips(self):
        config = parse_fault_spec(
            "drop=1e-3,corrupt=5e-4,suppress=0.01,misroute=0.02,"
            "stall-node=3,stall-start=100,stall-cycles=inf,"
            "seed=7,max-retries=4,backoff=2"
        )
        assert config.flit_drop_rate == 1e-3
        assert config.flit_corrupt_rate == 5e-4
        assert config.grant_suppression_rate == 0.01
        assert config.grant_misroute_rate == 0.02
        assert config.stall_node == 3
        assert config.stall_start_cycle == 100.0
        assert math.isinf(config.stall_cycles)
        assert config.seed == 7
        assert config.retry.max_retries == 4
        assert config.retry.backoff_base_cycles == 2.0

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError, match="not key=value"):
            parse_fault_spec("drop")
        with pytest.raises(ValueError, match="unknown fault spec key"):
            parse_fault_spec("volume=11")
        with pytest.raises(ValueError, match="not a number"):
            parse_fault_spec("drop=lots")
        with pytest.raises(ValueError, match="not an integer"):
            parse_fault_spec("stall-node=first")
        with pytest.raises(ValueError, match="not an integer"):
            parse_fault_spec("seed=7.5")
        # Values that parse as floats but fail FaultConfig validation
        # surface the config's message, not a parse error.
        with pytest.raises(ValueError, match="within"):
            parse_fault_spec("suppress=nan")
        with pytest.raises(ValueError, match="within"):
            parse_fault_spec("drop=-0.1")
        with pytest.raises(ValueError, match="stall_start_cycle"):
            parse_fault_spec("stall-start=inf")

    def test_blank_entries_ignored(self):
        config = parse_fault_spec("drop=1e-3, ,suppress=0.01,")
        assert config.flit_drop_rate == 1e-3
        assert config.grant_suppression_rate == 0.01

    def test_permanent_stall_helper(self):
        config = permanent_stall(node=5, start_cycle=50.0)
        assert config.stall_node == 5
        assert math.isinf(config.stall_cycles)
        assert config.affects_grants


class TestFaultSchedule:
    def test_same_seed_same_schedule(self):
        config = FaultConfig(seed=9, flit_drop_rate=0.05)

        class FakePacket:
            flits = 8

        injector_a = FaultInjector(config)
        injector_b = FaultInjector(config)
        verdicts_a = [injector_a.link_fault(FakePacket()) for _ in range(500)]
        verdicts_b = [injector_b.link_fault(FakePacket()) for _ in range(500)]
        assert verdicts_a == verdicts_b
        assert any(verdicts_a), "a 5% per-flit rate must fire in 500 tries"

    def test_longer_packets_more_exposed(self):
        config = FaultConfig(seed=9, flit_drop_rate=0.02)

        def hits(flits: int) -> int:
            injector = FaultInjector(config)

            class FakePacket:
                pass

            FakePacket.flits = flits
            return sum(
                injector.link_fault(FakePacket()) is not None
                for _ in range(2_000)
            )

        assert hits(19) > hits(3) * 2


class TestLossyRuns:
    def test_retries_recover_every_packet(self, quad_config):
        """Paper-style acceptance: 1e-3 flit loss, zero packets lost."""
        injector = FaultInjector(
            FaultConfig(seed=3, flit_drop_rate=1e-3, flit_corrupt_rate=5e-4)
        )
        checker = InvariantChecker()
        sim = NetworkSimulator(quad_config, faults=injector, invariants=checker)
        sim.run()
        assert sim.drain()
        checker.check_network(sim)
        checker.raise_if_violated()
        assert injector.total_faults() > 0, "schedule never fired"
        assert sim.stats.link_retries == injector.total_faults()
        assert sim.stats.packets_dropped == 0
        assert sim.total_delivered == sim.total_injected

    def test_zero_retries_drop_with_reason(self, quad_config):
        injector = FaultInjector(FaultConfig(
            seed=3,
            flit_drop_rate=5e-3,
            retry=LinkRetrySpec(max_retries=0),
        ))
        checker = InvariantChecker()
        sim = NetworkSimulator(quad_config, faults=injector, invariants=checker)
        sim.run()
        sim.drain()
        checker.check_network(sim)
        # Conservation holds *because* drops are recorded, not lost.
        checker.raise_if_violated()
        assert sim.stats.packets_dropped > 0
        assert (
            sim.stats.drops_by_reason[REASON_LINK_RETRIES_EXHAUSTED]
            == sim.stats.packets_dropped
        )
        assert sim.total_injected == (
            sim.total_delivered + sim.total_dropped
        )
        # The coherence engine aborts the owning transactions instead
        # of waiting forever on responses that never come.
        assert sim.stats.transactions_aborted > 0

    def test_low_fault_latency_stays_close_to_clean(self, quad_config):
        """Acceptance: low-load latency within 5% of the fault-free run."""
        clean = NetworkSimulator(quad_config)
        clean.run()
        faulty = NetworkSimulator(
            quad_config,
            faults=FaultInjector(FaultConfig(seed=3, flit_drop_rate=1e-3)),
        )
        faulty.run()
        clean_latency = clean.stats.packet_latency_ns.mean
        faulty_latency = faulty.stats.packet_latency_ns.mean
        assert faulty_latency == pytest.approx(clean_latency, rel=0.05)


class TestGrantFaults:
    def test_suppression_still_delivers_everything(self, tiny_config):
        injector = FaultInjector(
            FaultConfig(seed=5, grant_suppression_rate=0.05)
        )
        checker = InvariantChecker()
        sim = NetworkSimulator(tiny_config, faults=injector, invariants=checker)
        sim.run()
        assert sim.drain(), "suppressed grants must only delay, not wedge"
        checker.check_network(sim)
        checker.raise_if_violated()
        assert injector.counts["grant-suppressed"] > 0
        assert sim.total_delivered == sim.total_injected

    def test_misroute_still_delivers_everything(self, tiny_config):
        injector = FaultInjector(
            FaultConfig(seed=5, grant_misroute_rate=0.2)
        )
        checker = InvariantChecker()
        sim = NetworkSimulator(tiny_config, faults=injector, invariants=checker)
        sim.run()
        assert sim.drain()
        checker.check_network(sim)
        checker.raise_if_violated()
        assert sim.total_delivered == sim.total_injected

    def test_stall_window_blocks_then_releases(self, tiny_config):
        injector = FaultInjector(FaultConfig(
            seed=5, stall_node=0, stall_start_cycle=0.0, stall_cycles=400.0
        ))
        sim = NetworkSimulator(tiny_config, faults=injector)
        sim.run()
        assert injector.counts["stall-blocked"] > 0
        assert sim.drain(), "a bounded stall must recover after the window"
        assert sim.total_delivered == sim.total_injected


class TestStandaloneFaults:
    """The matching-layer seam: Figures 8/9 arbiters under grant loss."""

    def test_suppression_reduces_mean_matches(self):
        from repro.sim.standalone import StandaloneConfig, measure_matches

        config = StandaloneConfig(algorithm="MCM", load=32, trials=200, seed=11)
        clean = measure_matches(config)
        lossy = measure_matches(
            config, faults=FaultConfig(seed=3, grant_suppression_rate=0.2)
        )
        assert lossy < clean, "20% grant suppression must cost matches"
        assert lossy > clean * 0.6, "but only the suppressed fraction"

    def test_same_config_and_faults_is_deterministic(self):
        from repro.sim.standalone import StandaloneConfig, measure_matches

        config = StandaloneConfig(algorithm="SPAA", trials=150, seed=11)
        faults = FaultConfig(seed=9, grant_suppression_rate=0.1)
        assert measure_matches(config, faults=faults) == measure_matches(
            config, faults=faults
        )

    def test_trial_indexed_stall_blocks_only_its_window(self):
        injector = FaultInjector(FaultConfig(
            seed=2, stall_node=0, stall_start_cycle=10.0, stall_cycles=5.0
        ))
        grants = ["g1", "g2"]
        inside = [injector.filter_matching(grants, t) for t in range(10, 15)]
        outside = [
            injector.filter_matching(grants, t) for t in (0, 9, 15, 100)
        ]
        assert all(kept == [] for kept in inside)
        assert all(kept == grants for kept in outside)
        assert injector.counts["stall-blocked"] == 10

    def test_matching_suppression_is_seed_deterministic(self):
        config = FaultConfig(seed=4, grant_suppression_rate=0.5)
        grants = list(range(20))
        kept_a = FaultInjector(config).filter_matching(grants, 0)
        kept_b = FaultInjector(config).filter_matching(grants, 0)
        assert kept_a == kept_b
        assert 0 < len(kept_a) < len(grants)

    def test_stalled_trials_still_satisfy_invariants(self):
        """A stalled/suppressed matching stays a legal (sub)matching."""
        from repro.resilience.invariants import ArbitrationInvariants
        from repro.sim.standalone import StandaloneConfig, StandaloneRouterModel

        invariants = ArbitrationInvariants()
        model = StandaloneRouterModel(
            StandaloneConfig(algorithm="PIM", trials=60, seed=11),
            invariants=invariants,
            faults=FaultConfig(
                seed=5,
                grant_suppression_rate=0.3,
                stall_node=0,
                stall_start_cycle=10.0,
                stall_cycles=20.0,
            ),
        )
        stats = model.run()
        assert model.faults.counts["stall-blocked"] >= 0
        assert stats.count == 60

    def test_figure8_accepts_faults(self):
        from repro.experiments.figure8 import run_figure8

        result = run_figure8(
            trials=60,
            faults=FaultConfig(seed=3, grant_suppression_rate=0.5),
        )
        clean = run_figure8(trials=60)
        # Every algorithm's curve drops under 50% grant suppression.
        for algorithm, series in result.series.items():
            assert max(series) < max(clean.series[algorithm])
