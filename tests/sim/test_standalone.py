"""Tests for the standalone matching model (Figures 8 and 9 substrate)."""

import hashlib
import warnings
from dataclasses import replace

import pytest

from repro.core.types import validate_matching
from repro.kernels.rng import KEY_FIELD_LIMIT
from repro.router.ports import InputPort
from repro.sim import standalone
from repro.sim.standalone import (
    StandaloneConfig,
    StandalonePacket,
    StandaloneRouterModel,
    find_mcm_saturation_load,
    measure_matches,
)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"load": 0},
        {"occupancy": 1.0},
        {"occupancy": -0.1},
        {"local_fraction": 2.0},
        {"two_direction_fraction": -1.0},
        {"trials": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            StandaloneConfig(**kwargs)

    def test_load_must_fit_a_key_field(self):
        """Packet uids key the draws, so ``load`` is bounded at construction."""
        StandaloneConfig(load=KEY_FIELD_LIMIT)  # largest uid is LIMIT - 1
        with pytest.raises(ValueError, match="at most"):
            StandaloneConfig(load=KEY_FIELD_LIMIT + 1)


class TestModelMechanics:
    def test_deterministic_given_seed(self):
        config = StandaloneConfig(algorithm="PIM1", load=16, trials=50, seed=9)
        assert measure_matches(config) == measure_matches(config)

    def test_different_seeds_differ(self):
        low = StandaloneConfig(algorithm="PIM1", load=16, trials=50, seed=1)
        high = replace(low, seed=2)
        assert measure_matches(low) != measure_matches(high)

    @pytest.mark.parametrize("algorithm", ["MCM", "WFA", "PIM", "PIM1", "SPAA"])
    def test_grants_are_legal_matchings(self, algorithm):
        config = StandaloneConfig(algorithm=algorithm, load=24, trials=1)
        model = StandaloneRouterModel(config)
        packets = model._generate_packets()
        free = model._generate_free_outputs()
        nominations = model._build_nominations(packets, free)
        grants = model._arbiter.arbitrate(nominations, free)
        validate_matching(nominations, grants, free)

    def test_occupancy_limits_matches(self):
        free = measure_matches(StandaloneConfig(algorithm="MCM", load=32,
                                                trials=100))
        busy = measure_matches(StandaloneConfig(algorithm="MCM", load=32,
                                                trials=100, occupancy=0.75))
        assert busy < free
        assert busy <= 2.0 + 1e-9  # only ~2 outputs free

    def test_matches_bounded_by_outputs(self):
        value = measure_matches(StandaloneConfig(algorithm="MCM", load=200,
                                                 trials=20))
        assert value <= 7.0

    def test_matches_grow_with_load(self):
        small = measure_matches(StandaloneConfig(algorithm="MCM", load=4,
                                                 trials=200))
        large = measure_matches(StandaloneConfig(algorithm="MCM", load=32,
                                                 trials=200))
        assert large > small

    def test_spaa_uses_one_nomination_per_port(self):
        config = StandaloneConfig(algorithm="SPAA", load=64, trials=1)
        model = StandaloneRouterModel(config)
        packets = model._generate_packets()
        nominations = model._build_nominations(packets, frozenset(range(7)))
        ports = [nom.group for nom in nominations]
        assert len(ports) == len(set(ports)) <= 8
        assert all(len(nom.outputs) == 1 for nom in nominations)

    def test_pim_gets_multi_output_nominations(self):
        config = StandaloneConfig(algorithm="PIM", load=64, trials=1,
                                  two_direction_fraction=1.0)
        model = StandaloneRouterModel(config)
        packets = model._generate_packets()
        nominations = model._build_nominations(packets, frozenset(range(7)))
        assert any(len(nom.outputs) == 2 for nom in nominations)

    def test_per_cell_keeps_every_packet_of_a_row(self):
        """Regression: two same-row packets both reach the arbiter.

        An earlier version routed the nominations through a dict keyed
        by ``(row, packet.uid)`` that was meant to dedup per cell but
        never could (every key was unique), so the dict was dead code.
        The per-cell reduction belongs to the arbiter -- multi-round
        PIM needs the younger packet once the older one is matched --
        so all per-packet nominations must survive.
        """
        config = StandaloneConfig(algorithm="PIM", trials=1)
        model = StandaloneRouterModel(config)
        packets = [
            StandalonePacket(uid=0, port=InputPort.NORTH, outputs=(0,), age=0),
            StandalonePacket(uid=1, port=InputPort.NORTH, outputs=(0,), age=1),
        ]
        nominations = model._per_cell_nominations(packets)
        assert len(nominations) == 2
        assert {nom.packet for nom in nominations} == {0, 1}
        assert all(nom.row == 0 for nom in nominations)


class TestSaturationSearch:
    def test_finds_a_plateau(self):
        base = StandaloneConfig(trials=200)
        load = find_mcm_saturation_load(base, tolerance=0.02)
        at = measure_matches(replace(base, algorithm="MCM", load=load))
        beyond = measure_matches(replace(base, algorithm="MCM", load=load * 2))
        assert beyond - at < 0.05 * at

    def test_warns_when_capped_unconverged(self):
        """Hitting max_load without a verified plateau must not be silent."""
        base = StandaloneConfig(trials=50)
        with pytest.warns(RuntimeWarning, match="max_load"):
            load = find_mcm_saturation_load(base, tolerance=1e-9, max_load=16)
        assert load == 16

    def test_converged_search_does_not_warn(self):
        base = StandaloneConfig(trials=100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load = find_mcm_saturation_load(base, tolerance=0.05)
        assert load < 512


class TestSeedStability:
    """The keyed RNG stream's draw contract, pinned grant by grant.

    Every random decision in the standalone model is addressed by a
    ``(trial, domain, a, b)`` key (see docs/kernels.md for the audit of
    all draw sites); these literals pin the resulting grant sequences
    so any change to the key schedule -- a reordered draw, a new domain
    id, a different packing -- fails loudly instead of silently
    shifting every published number.
    """

    PINNED = {
        "MCM": (
            ((0, 0, 1), (1, 1, 0), (2, 2, 2), (4, 4, 4)),
            ((0, 0, 4), (1, 1, 6), (3, 3, 0), (4, 4, 2)),
        ),
        "WFA": (
            ((2, 1, 0), (3, 4, 4), (10, 2, 1)),
            ((13, 0, 4), (6, 3, 2), (3, 1, 6), (10, 4, 1)),
        ),
        "WFA-rotary": (
            ((2, 1, 0), (3, 4, 4), (10, 2, 1)),
            ((13, 0, 4), (6, 3, 0), (3, 1, 6), (10, 4, 1)),
        ),
        "PIM": (
            ((2, 1, 1), (3, 4, 4), (10, 2, 2), (6, 3, 0)),
            ((3, 1, 6), (6, 3, 0), (10, 4, 1), (13, 0, 4)),
        ),
        "PIM1": (
            ((2, 1, 1), (3, 4, 4), (10, 2, 2)),
            ((3, 1, 6), (6, 3, 0), (10, 4, 1), (13, 0, 4)),
        ),
        "SPAA": (
            ((6, 3, 0), (2, 1, 1)),
            ((6, 3, 0), (10, 4, 2), (13, 0, 4), (3, 1, 6)),
        ),
        "SPAA-rotary": (
            ((6, 3, 0), (2, 1, 1)),
            ((6, 3, 0), (10, 4, 2), (13, 0, 4), (3, 1, 6)),
        ),
        "OPF": (
            ((2, 1, 1), (6, 3, 0)),
            ((3, 1, 6), (6, 3, 0), (10, 4, 2), (13, 0, 4)),
        ),
    }

    @pytest.mark.parametrize("algorithm", sorted(PINNED))
    def test_grant_sequences_are_pinned(self, algorithm):
        observed: dict[int, tuple] = {}
        config = StandaloneConfig(algorithm=algorithm, load=5, trials=2,
                                  seed=123)
        StandaloneRouterModel(
            config,
            trial_hook=lambda trial, grants: observed.__setitem__(
                trial,
                tuple((g.row, g.packet, g.output) for g in grants),
            ),
        ).run()
        expected = self.PINNED[algorithm]
        assert tuple(observed[t] for t in sorted(observed)) == expected

    #: sha256 over every ``load,occupancy,trial,row,packet,output;``
    #: grant of :meth:`test_grant_digest_is_pinned`'s grid.  Most of
    #: these algorithms have no kernel, so the parity gate never
    #: checks them; this pins the whole oracle, not two trials.
    DIGESTS = {
        "MCM": "2faf7778aa4d92ce6699614ab529ebb1dff28e2014377262232a3bc7baeec568",
        "OPF": "6150d1191cd2e8edd52210b84f21b01f2c8bdb2f4ae7c6d6908e3138a8031060",
        "PIM": "5033258aeff79a995abde17bd4494524b49ecf64f9955d713ccdfab0dbc26ef1",
        "PIM1": "52107c9a20b5e073dcb2b9caca3eb02c615a70e727dabc592c26e87463210ce8",
        "SPAA": "48a8f98d953aab844e6536760269ad7f8c3abb5fc2a9b29af6b060f3a953c7b1",
        "SPAA-rotary": "f6baed6507d36c734d5fbf078104cbc0baa18fe5f21af00d8c0674ed4b155015",
        "WFA": "5609bd5e04a6412a393a63fbe105f41fd3068ff49634f8cb6ff2853399cde346",
        "WFA-rotary": "a2543c04d133a1fad9d6897d0bbe525d77d620b2b33767f6967da9120f237688",
    }

    @pytest.mark.parametrize("algorithm", sorted(PINNED))
    def test_grant_digest_is_pinned(self, algorithm):
        digest = hashlib.sha256()
        for load in (8, 64):
            for occupancy in (0.0, 0.5):
                def hook(trial, grants, prefix=f"{load},{occupancy},"):
                    for g in grants:
                        digest.update(
                            f"{prefix}{trial},{g.row},{g.packet},{g.output};".encode()
                        )

                config = StandaloneConfig(algorithm=algorithm, load=load,
                                          occupancy=occupancy, trials=200,
                                          seed=123)
                StandaloneRouterModel(config, trial_hook=hook).run()
        assert digest.hexdigest() == self.DIGESTS[algorithm]


class TestPacketTable:
    """Every model of one workload reads one shared table of trial states.

    The table holds each trial's drawn packets and grows to the largest
    load asked for; these tests pin that what a model sees does not
    depend on which models ran before it, and that retention stays
    bounded.
    """

    @pytest.fixture(autouse=True)
    def fresh_tables(self, monkeypatch):
        monkeypatch.setattr(standalone, "_TABLES", type(standalone._TABLES)())

    GRID = [
        (algorithm, load, occupancy)
        for algorithm in ("MCM", "PIM", "WFA", "SPAA", "OPF")
        for load in (3, 12)
        for occupancy in (0.0, 0.5)
    ]

    @staticmethod
    def grants(algorithm, load, occupancy, seed=5, trials=6):
        observed = []
        config = StandaloneConfig(algorithm=algorithm, load=load,
                                  occupancy=occupancy, trials=trials,
                                  seed=seed)
        StandaloneRouterModel(
            config,
            trial_hook=lambda trial, grants: observed.append(
                (trial, tuple((g.row, g.packet, g.output) for g in grants))
            ),
        ).run()
        return tuple(observed)

    def unshared(self, monkeypatch, grid, **kwargs):
        """Each cell's grants with every packet drawn afresh."""
        with monkeypatch.context() as patch:
            patch.setattr(standalone, "_packet_table", lambda config: None)
            return {cell: self.grants(*cell, **kwargs) for cell in grid}

    @pytest.mark.parametrize("load", [1, 5, 16])
    @pytest.mark.parametrize("trial", [0, 3])
    def test_a_load_is_a_prefix_of_a_larger_one(self, load, trial):
        """Draws are keyed by uid, so load L is the head of load 4L."""
        def packets(load):
            config = StandaloneConfig(load=load, trials=4, seed=17)
            return StandaloneRouterModel(config)._generate_packets(trial)

        assert packets(4 * load)[:load] == packets(load)

    def test_shared_packets_equal_fresh_ones(self):
        config = StandaloneConfig(load=24, trials=3, seed=8)
        model = StandaloneRouterModel(config)
        fresh = [model._generate_packets(trial) for trial in range(3)]
        seen = []
        model._build_nominations = lambda packets, free, trial: (
            seen.append(packets) or []
        )
        model.run()
        assert seen == fresh
        packet = seen[2][5]
        assert type(packet) is StandalonePacket
        assert packet.uid == packet.age == 5
        assert isinstance(packet.port, InputPort)

    @pytest.mark.parametrize("order", ["as-listed", "reversed"])
    def test_grants_do_not_depend_on_run_order(self, monkeypatch, order):
        expected = self.unshared(monkeypatch, self.GRID)
        grid = self.GRID if order == "as-listed" else self.GRID[::-1]
        assert {cell: self.grants(*cell) for cell in grid} == expected

    def test_workloads_with_other_packet_mixes_do_not_share(self):
        """Seed and both traffic fractions key the table; nothing else."""
        def packets(**kwargs):
            config = StandaloneConfig(**{"load": 12, "trials": 2, "seed": 3,
                                         **kwargs})
            seen = []
            model = StandaloneRouterModel(config)
            model._build_nominations = lambda packets, free, trial: (
                seen.append(packets) or []
            )
            model.run()
            fresh = StandaloneRouterModel(config)
            assert seen == [fresh._generate_packets(trial) for trial in range(2)]
            return seen

        mixes = [{}, {"local_fraction": 1.0}, {"two_direction_fraction": 0.0},
                 {"seed": 4}, {"occupancy": 0.5, "algorithm": "PIM"}]
        results = [packets(**mix) for mix in mixes]
        assert len(standalone._TABLES) == 4
        assert results[4] == results[0]

    def test_grants_survive_eviction(self, monkeypatch):
        monkeypatch.setattr(standalone, "TABLE_KEYS", 1)
        seeds = (5, 6, 5, 6)
        cells = [("PIM1", 12, 0.5), ("SPAA", 3, 0.0)]
        expected = {
            seed: self.unshared(monkeypatch, cells, seed=seed) for seed in (5, 6)
        }
        for seed in seeds:
            observed = {cell: self.grants(*cell, seed=seed) for cell in cells}
            assert observed == expected[seed]
            assert list(standalone._TABLES) == [(seed, 0.5, 0.5)]

    def test_retention_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(standalone, "TABLE_BUDGET", 60)
        monkeypatch.setattr(standalone, "_RECORD_BYTES", 0)
        for seed, load, trials in [
            (1, 4, 10), (1, 6, 10), (2, 8, 5), (3, 60, 1), (4, 5, 12),
            (1, 2, 30), (5, 61, 1), (6, 2, 3), (2, 3, 20), (1, 6, 10),
        ]:
            StandaloneRouterModel(
                StandaloneConfig(load=load, trials=trials, seed=seed)
            ).run()
            tables = standalone._TABLES
            assert len(tables) <= standalone.TABLE_KEYS
            for table in tables.values():
                assert standalone._table_bytes(table) == sum(map(len, table)) <= 60
        # Least recently used first; the over-budget config (load 61)
        # drew into a throwaway record and kept nothing, and the last
        # run's table was replaced rather than grown past the budget.
        assert [seed for seed, _, _ in tables] == [4, 6, 2, 1]
        assert [len(record) for record in tables[1, 0.5, 0.5]] == [6] * 10

    def test_records_count_against_the_budget(self):
        """Many trials of a tiny load retain their records' own cost."""
        def table(trials, load):
            return standalone._packet_table(
                StandaloneConfig(load=load, trials=trials)
            )

        per_record = standalone._RECORD_BYTES + 1
        assert table(standalone.TABLE_BUDGET // per_record + 1, 1) is None
        fits = table(standalone.TABLE_BUDGET // per_record, 1)
        assert standalone._table_bytes(fits) == len(fits) * standalone._RECORD_BYTES
        assert standalone._TABLES[42, 0.5, 0.5] is fits

    def test_a_table_grows_to_the_largest_load(self):
        for load in (4, 16, 8):
            StandaloneRouterModel(
                StandaloneConfig(load=load, trials=3, seed=2)
            ).run()
        (table,) = standalone._TABLES.values()
        assert [len(record) for record in table] == [16, 16, 16]

    def test_vectorized_models_never_touch_the_table(self, monkeypatch):
        pytest.importorskip("numpy")

        def forbidden(config):
            raise AssertionError("the vectorized backend read the packet table")

        monkeypatch.setattr(standalone, "_packet_table", forbidden)
        for algorithm in ("PIM1", "WFA", "SPAA", "OPF"):
            model = StandaloneRouterModel(
                StandaloneConfig(algorithm=algorithm, load=8, trials=20),
                backend="vectorized",
            )
            assert model.backend == "vectorized"
            model.run()


class TestPaperShape:
    """The Figure 8/9 orderings, pinned as regression tests."""

    def test_figure8_ordering_at_saturation(self):
        values = {
            algorithm: measure_matches(
                StandaloneConfig(algorithm=algorithm, load=32, trials=300)
            )
            for algorithm in ("MCM", "WFA", "PIM", "PIM1", "SPAA")
        }
        assert values["MCM"] >= values["WFA"] - 0.05
        assert values["MCM"] >= values["PIM"] - 0.05
        assert values["WFA"] > values["PIM1"] > values["SPAA"]

    def test_figure9_gap_vanishes_at_75_percent(self):
        gap = []
        for algorithm in ("MCM", "SPAA"):
            gap.append(measure_matches(StandaloneConfig(
                algorithm=algorithm, load=32, occupancy=0.75, trials=400
            )))
        assert gap[0] == pytest.approx(gap[1], rel=0.05)
