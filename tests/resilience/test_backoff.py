"""Jittered exponential backoff: determinism, capping, validation.

The helper backs two very different retry loops -- the simulator's
link retransmissions (where the jitter stream must replay exactly
under one fault seed) and the fleet worker's reconnects (where each
worker must jitter differently) -- so the contract under test is
"seeded and caller-owned", not just "roughly randomized".
"""

import random

import pytest

from repro.network.links import LinkRetrySpec
from repro.resilience.backoff import jittered_backoff
from repro.resilience.faults import FaultConfig, FaultInjector, parse_fault_spec


class TestJitteredBackoff:
    def test_zero_jitter_is_the_legacy_series(self):
        for attempt in range(6):
            assert jittered_backoff(4.0, 2.0, attempt) == 4.0 * 2.0**attempt

    def test_no_rng_means_no_jitter(self):
        # jitter without a stream owner silently degrades to nominal:
        # the caller opted out of randomness by not providing the RNG.
        assert jittered_backoff(1.0, 2.0, 3, rng=None, jitter=0.5) == 8.0

    def test_jitter_bounds_the_delay(self):
        rng = random.Random(7)
        for attempt in range(200):
            delay = jittered_backoff(2.0, 1.5, attempt % 5, rng=rng, jitter=0.25)
            nominal = 2.0 * 1.5 ** (attempt % 5)
            assert 0.75 * nominal <= delay <= 1.25 * nominal

    def test_same_seed_same_schedule(self):
        a = random.Random(11)
        b = random.Random(11)
        series_a = [jittered_backoff(1.0, 2.0, n, rng=a, jitter=0.5) for n in range(20)]
        series_b = [jittered_backoff(1.0, 2.0, n, rng=b, jitter=0.5) for n in range(20)]
        assert series_a == series_b
        c = random.Random(12)
        series_c = [jittered_backoff(1.0, 2.0, n, rng=c, jitter=0.5) for n in range(20)]
        assert series_a != series_c

    def test_cap_applies_before_jitter(self):
        # The nominal delay is capped, then jittered: delays at the cap
        # still spread (that spread is the whole point -- capping after
        # jitter would re-synchronize every long backoff).
        rng = random.Random(3)
        delays = {
            jittered_backoff(
                1.0, 2.0, 30, rng=rng, jitter=0.5, max_delay=10.0
            )
            for _ in range(32)
        }
        assert len(delays) > 1
        assert all(5.0 <= d <= 15.0 for d in delays)

    def test_cap_without_jitter_is_exact(self):
        assert jittered_backoff(1.0, 2.0, 30, max_delay=10.0) == 10.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base": -1.0, "factor": 2.0, "attempt": 0},
            {"base": 1.0, "factor": 0.5, "attempt": 0},
            {"base": 1.0, "factor": 2.0, "attempt": -1},
            {"base": 1.0, "factor": 2.0, "attempt": 0, "jitter": 1.0},
            {"base": 1.0, "factor": 2.0, "attempt": 0, "jitter": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            jittered_backoff(**kwargs)


class TestInjectorBackoffJitter:
    """The simulator-facing wiring: seeded jitter on link retransmits."""

    def _config(self, **retry_kwargs):
        return FaultConfig(
            seed=9,
            flit_drop_rate=0.05,
            retry=LinkRetrySpec(
                backoff_base_cycles=4.0, backoff_factor=2.0, **retry_kwargs
            ),
        )

    def test_jitter_stays_within_the_band(self):
        injector = FaultInjector(self._config(jitter=0.25))
        for attempt in range(50):
            delay = injector.retry_backoff_cycles(attempt % 4)
            nominal = 4.0 * 2.0 ** (attempt % 4)
            assert 0.75 * nominal <= delay <= 1.25 * nominal

    def test_zero_jitter_matches_the_nominal_policy(self):
        injector = FaultInjector(self._config(jitter=0.0))
        for attempt in range(4):
            assert injector.retry_backoff_cycles(attempt) == 4.0 * 2.0**attempt

    def test_same_fault_seed_replays_the_jitter_schedule(self):
        series = [
            [
                FaultInjector(self._config(jitter=0.25)).retry_backoff_cycles(n)
                for n in range(8)
            ]
            for _ in range(2)
        ]
        assert series[0] == series[1]

    def test_jitter_stream_does_not_shift_fault_draws(self):
        """Retuning the backoff jitter must not change *which* flits
        fault: the Bernoulli schedule and the jitter draw live on
        separate seeded streams."""
        class FakePacket:
            flits = 8

        quiet = FaultInjector(self._config(jitter=0.0))
        noisy = FaultInjector(self._config(jitter=0.25))
        noisy.retry_backoff_cycles(0)  # consume jitter stream only
        schedule_quiet = [quiet.link_fault(FakePacket()) for _ in range(500)]
        schedule_noisy = [noisy.link_fault(FakePacket()) for _ in range(500)]
        assert schedule_quiet == schedule_noisy

    def test_parse_fault_spec_accepts_jitter(self):
        config = parse_fault_spec("seed=7,drop=0.01,jitter=0.5")
        assert config.retry.jitter == 0.5
        with pytest.raises(ValueError):
            parse_fault_spec("drop=0.01,jitter=1.5")
