"""Counter-based RNG streams: determinism, independence and re-keyed draws."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodal.rng import draw_streams, rng_for, stream_key


class TestStreamKey:
    def test_matches_blake2b_oracle(self):
        # Key is the little-endian 128-bit blake2b digest of "seed/part/...".
        expected = int.from_bytes(
            hashlib.blake2b(b"7/audio/3/1", digest_size=16).digest(), "little"
        )
        assert stream_key(7, "audio", 3, 1) == expected

    def test_distinct_paths_distinct_keys(self):
        keys = {
            stream_key(0, "a"),
            stream_key(0, "b"),
            stream_key(1, "a"),
            stream_key(0, "a", 0),
            stream_key(0, "a", 1),
        }
        assert len(keys) == 5

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_stable_across_calls(self, seed, part):
        assert stream_key(seed, part) == stream_key(seed, part)


class TestRngFor:
    def test_same_path_same_stream(self):
        a = rng_for(7, "species", 3).standard_normal(8)
        b = rng_for(7, "species", 3).standard_normal(8)
        assert np.array_equal(a, b)

    def test_different_parts_different_streams(self):
        a = rng_for(7, "species", 3).standard_normal(8)
        b = rng_for(7, "species", 4).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_streams_are_independent_of_draw_order(self):
        # Drawing from one stream must not perturb another.
        first = rng_for(5, "x").standard_normal(4)
        rng_for(5, "y").standard_normal(1000)
        again = rng_for(5, "x").standard_normal(4)
        assert np.array_equal(first, again)

    def test_uses_philox(self):
        gen = rng_for(0, "anything")
        assert isinstance(gen.bit_generator, np.random.Philox)

    def test_pinned_draw(self):
        # Any change to the key derivation or the bit generator moves these bits.
        assert rng_for(7, "audio", 3, 1).standard_normal(4).tolist() == PINNED_AUDIO_3_1


# standard_normal(4) of the stream (seed 7, "audio", 3, 1).
PINNED_AUDIO_3_1 = [
    float.fromhex("-0x1.edefdfbfa985ep-2"),
    float.fromhex("0x1.c55d1680eada5p-3"),
    float.fromhex("0x1.8fa5671e4c027p+0"),
    float.fromhex("0x1.88ceb246d28c8p-1"),
]

# () is the bare "seed/name" path, with no trailing "/"; "é" is encoded
# as UTF-8 in the middle of a path.
KEYS = [(0,), (3, 1), ("a", 2), (17, 0, 5), (2**40,), (), ("é", 3)]

# (positional arguments, row width, dtype) of each method's draw.
DRAWS = {
    "standard_normal": ((5,), 5, np.float64),
    "permutation": ((9,), 9, np.int64),
    "uniform": ((-1.0, 2.0, 4), 4, np.float64),
    # low, high, size, dtype: three 32-bit draws leave half of a 64-bit output buffered.
    "integers": ((0, 1000, 3, np.uint32), 3, np.uint32),
}


class TestDrawStreams:
    @pytest.mark.parametrize("method", sorted(DRAWS))
    def test_rows_equal_fresh_generators(self, method):
        args, width, dtype = DRAWS[method]
        out = np.empty((len(KEYS), width), dtype=dtype)
        draw_streams(out, 7, "rows", KEYS, method, *args)
        for row, key in zip(out, KEYS):
            expected = getattr(rng_for(7, "rows", *key), method)(*args)
            assert np.array_equal(row, expected)

    def test_buffered_half_word_is_dropped_between_keys(self):
        # Each row's draw of three uint32 leaves one buffered; the next key
        # must start from an empty buffer, as a fresh generator does.
        out = np.empty((2, 3), dtype=np.uint32)
        draw_streams(out, 0, "u32", [(0,), (1,)], "integers", 0, 2**32, 3, np.uint32)
        fresh = rng_for(0, "u32", 1).integers(2**32, size=3, dtype=np.uint32)
        assert np.array_equal(out[1], fresh)

    def test_pinned_draw(self):
        # The same bits as TestRngFor.test_pinned_draw, through the hashed
        # prefix and per-row suffix rather than stream_key.
        out = np.empty((2, 4))
        draw_streams(out, 7, "audio", [(0, 0), (3, 1)], "standard_normal", 4)
        assert out[1].tolist() == PINNED_AUDIO_3_1

    def test_returns_out_and_fills_every_row(self):
        out = np.full((3, 2), np.nan)
        assert draw_streams(out, 1, "fill", [(0,), (1,), (2,)], "standard_normal", 2) is out
        assert np.isfinite(out).all()

    def test_held_generator_is_unaffected(self):
        held = rng_for(5, "held")
        first = held.standard_normal(3)
        draw_streams(np.empty((4, 6)), 5, "held", [(i,) for i in range(4)], "standard_normal", 6)
        second = held.standard_normal(3)
        assert np.array_equal(np.concatenate([first, second]), rng_for(5, "held").standard_normal(6))

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.lists(st.tuples(st.integers(min_value=0, max_value=10**6), st.text(max_size=4)), max_size=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_keys(self, seed, keys):
        out = draw_streams(np.empty((len(keys), 3)), seed, "any", keys, "standard_normal", 3)
        for row, key in zip(out, keys):
            assert np.array_equal(row, rng_for(seed, "any", *key).standard_normal(3))

    # standard_normal rows are drawn straight into a C-contiguous float64 out.
    @pytest.mark.parametrize("dim", [1, 20, 32])
    def test_in_place_rows_equal_fresh_generators(self, dim):
        out = np.empty((len(KEYS), dim))
        assert out.flags.c_contiguous
        draw_streams(out, 7, "in_place", KEYS, "standard_normal", dim)
        for row, key in zip(out, KEYS):
            assert np.array_equal(row, rng_for(7, "in_place", *key).standard_normal(dim))

    def test_in_place_draw_passes_out_and_no_size(self):
        # A size passed with out makes NumPy check it on every row; the
        # in-place call passes out alone.
        calls = []

        class Recording(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                calls.append((args, sorted(kwargs)))
                return super().standard_normal(*args, **kwargs)

        with mock.patch.object(np.random, "Generator", Recording):
            draw_streams(np.empty((3, 4)), 1, "spy", [(0,), (1,), (2,)], "standard_normal", 4)
        assert calls == [((), ["out"])] * 3

    def test_in_place_empty_key_is_the_bare_name(self):
        out = draw_streams(np.empty((1, 20)), 3, "bare", [()], "standard_normal", 20)
        assert np.array_equal(out[0], rng_for(3, "bare").standard_normal(20))

    @pytest.mark.parametrize(
        "make, error",
        [
            (lambda n, dim: np.empty((n, dim), order="F"), ValueError),
            (lambda n, dim: np.empty((n, 2 * dim))[:, ::2], ValueError),
            (lambda n, dim: np.empty((n, dim), dtype=np.float32), TypeError),
        ],
        ids=["fortran", "strided", "float32"],
    )
    def test_other_out_raises(self, make, error):
        # NumPy refuses to draw into a row that is not contiguous float64.
        with pytest.raises(error, match="output array"):
            draw_streams(make(len(KEYS), 5), 7, "refused", KEYS, "standard_normal", 5)
