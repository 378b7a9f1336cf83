"""The keyed RNG stream: scalar/array bit equality and the facade."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.kernels.rng import (  # noqa: E402
    D_BUSY,
    D_PIM_ACCEPT,
    D_PIM_GRANT,
    D_PORT,
    D_SEQ,
    KEY_FIELD_LIMIT,
    KeyedTrialRandom,
    TrialStream,
    keyed_word,
    mix64,
    pack_key,
    uniforms,
    words,
)

_MASK64 = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15


def reference_finalizer(z):
    """The splitmix64 finalizer written out once more, for comparison."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class TestScalarStream:
    def test_mix64_is_stable(self):
        # splitmix64 finalizer reference values (fixed point at zero).
        assert mix64(0) == 0
        assert mix64(1) == 0x5692161D100B05E5
        assert mix64(2**64 - 1) == 0xB4D055FCF2CBBD7B

    @pytest.mark.parametrize("z, expected", [
        (42, 0xA759EA27D4727622),
        (0x9E3779B97F4A7C15, 0xE220A8397B1DCDAF),
        # Inputs are reduced mod 2**64 first.
        (2**64, 0),
        (2**64 + 1, 0x5692161D100B05E5),
        (2**65 + 12345, 0xF36CF1164265DD51),
        (3 * 2**64 + 7, 0x12AE30237B17DF14),
        (2**127 + 99, 0x79CE5DC97509C089),
    ])
    def test_mix64_literals(self, z, expected):
        assert mix64(z) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        base=st.integers(0, _MASK64),
        domain=st.integers(0, 15),
        a=st.integers(0, KEY_FIELD_LIMIT - 1),
        b=st.integers(0, KEY_FIELD_LIMIT - 1),
    )
    def test_keyed_word_is_the_finalizer_of_the_keyed_sum(self, base, domain, a, b):
        packed = pack_key(domain, a, b)
        expected = reference_finalizer((base + packed * _GAMMA) % 2**64)
        assert keyed_word(base, packed) == expected

    def test_words_are_64_bit(self):
        stream = TrialStream(seed=42)
        for trial in (0, 1, 999):
            word = stream.word(trial, D_PORT, 3, 0)
            assert 0 <= word < 2**64

    def test_keys_are_independent(self):
        stream = TrialStream(seed=42)
        seen = {
            stream.word(trial, domain, a, b)
            for trial in range(4)
            for domain in (D_PORT, D_BUSY)
            for a in range(4)
            for b in range(2)
        }
        assert len(seen) == 4 * 2 * 4 * 2  # no collisions in a tiny grid

    def test_consumption_order_is_irrelevant(self):
        forward = TrialStream(seed=7)
        backward = TrialStream(seed=7)
        keys = [(t, D_PORT, a, 0) for t in range(3) for a in range(5)]
        first = [forward.word(*key) for key in keys]
        second = [backward.word(*key) for key in reversed(keys)]
        assert first == list(reversed(second))

    def test_randbelow_matches_word(self):
        stream = TrialStream(seed=5)
        word = stream.word(2, D_PORT, 1, 0)
        assert stream.randbelow(2, D_PORT, 1, 0, 8) == word % 8

    def test_randbelow_rejects_empty_range(self):
        with pytest.raises(ValueError):
            TrialStream(seed=5).randbelow(0, D_PORT, 0, 0, 0)

    def test_uniform_matches_word(self):
        stream = TrialStream(seed=5)
        word = stream.word(3, D_PORT, 1, 0)
        value = stream.uniform(3, D_PORT, 1)
        assert value == (word >> 11) * 2.0**-53
        assert 0.0 <= value < 1.0

    def test_word_is_keyed_word_of_the_trial_base(self):
        stream = TrialStream(seed=11)
        base = stream.trial_base(4)
        assert stream.word(4, D_BUSY, 3, 1) == keyed_word(
            base, pack_key(D_BUSY, 3, 1)
        )
        assert stream.trial_base(5) != base
        assert stream.trial_base(4) == base

    def test_pack_key_bounds(self):
        pack_key(D_PORT, KEY_FIELD_LIMIT - 1, KEY_FIELD_LIMIT - 1)
        with pytest.raises(ValueError):
            pack_key(D_PORT, KEY_FIELD_LIMIT, 0)
        with pytest.raises(ValueError):
            pack_key(D_PORT, 0, -1)


class TestArrayParity:
    """The numpy path must be bit-equal to the scalar path."""

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**31 - 1])
    @pytest.mark.parametrize("domain", [D_PORT, D_BUSY, D_PIM_GRANT])
    def test_words_match_scalar(self, seed, domain):
        stream = TrialStream(seed)
        trials = np.array([0, 1, 7, 999, 10**6], dtype=np.uint64)[:, None]
        a = np.arange(6, dtype=np.uint64)[None, :]
        grid = words(seed, trials, domain, a, 2)
        for i, trial in enumerate(trials[:, 0].tolist()):
            for j in range(6):
                assert int(grid[i, j]) == stream.word(trial, domain, j, 2)

    def test_uniforms_match_scalar(self):
        seed = 13
        stream = TrialStream(seed)
        grid = uniforms(seed, np.arange(8, dtype=np.uint64), D_PORT, 3)
        for trial in range(8):
            assert float(grid[trial]) == stream.uniform(trial, D_PORT, 3)

    def test_scalar_arguments_broadcast(self):
        assert words(9, 4, D_PORT, 1, 0).shape == ()
        assert int(words(9, 4, D_PORT, 1, 0)) == TrialStream(9).word(
            4, D_PORT, 1, 0
        )

    def test_words_accept_the_largest_fields(self):
        top = KEY_FIELD_LIMIT - 1
        assert int(words(42, 0, D_PORT, top, top)) == TrialStream(42).word(
            0, D_PORT, top, top
        )

    @pytest.mark.parametrize("a, b", [
        (KEY_FIELD_LIMIT, 0),
        (0, KEY_FIELD_LIMIT),
        (-1, 0),
        (np.array([0, KEY_FIELD_LIMIT], dtype=np.uint64), 0),
        (0, np.arange(KEY_FIELD_LIMIT - 1, KEY_FIELD_LIMIT + 1)),
    ])
    def test_words_reject_out_of_range_fields(self, a, b):
        """Out-of-range fields would alias another key; raise like pack_key."""
        with pytest.raises(ValueError):
            words(42, 0, D_PORT, a, b)


class TestKeyedTrialRandom:
    def test_keyed_draw_hits_the_named_key(self):
        stream = TrialStream(seed=21)
        rng = KeyedTrialRandom(stream)
        rng.set_trial(6)
        draw = rng.keyed_draw(("pim-grant", 0, 3), 5)
        assert draw == stream.randbelow(6, D_PIM_GRANT, 0, 3, 5)
        draw = rng.keyed_draw(("pim-accept", 1, 8), 2)
        assert draw == stream.randbelow(6, D_PIM_ACCEPT, 1, 8, 2)

    def test_unknown_tag_kind_raises(self):
        rng = KeyedTrialRandom(TrialStream(seed=21))
        with pytest.raises(ValueError):
            rng.keyed_draw(("mystery", 0, 0), 4)

    def test_sequential_fallback_burns_seq_slots(self):
        stream = TrialStream(seed=3)
        rng = KeyedTrialRandom(stream)
        rng.set_trial(2)
        assert rng.randrange(10) == stream.randbelow(2, D_SEQ, 0, 0, 10)
        assert rng.random() == stream.uniform(2, D_SEQ, 1)
        rng.set_trial(3)  # resets the sequential counter
        assert rng.randrange(10) == stream.randbelow(3, D_SEQ, 0, 0, 10)
