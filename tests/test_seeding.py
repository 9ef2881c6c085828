"""Seed derivation: counter paths into numpy's `SeedSequence`."""

import numpy as np
import pytest

from cit.seeding import _as_key, _tag_key, child_seed, generator, seed_sequence

MASTERS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**130 + 12345]


def first_draws(rng) -> bytes:
    return rng.random(4).tobytes()


class TestPathKeys:
    @pytest.mark.parametrize("m", [2**32, 2**33, 2**62])
    def test_min_m_probe_paths_above_32_bits_get_their_own_streams(self, m):
        # find_min_m's probe at m draws from generator(seed, tag, m) and
        # calibrates from child_seed(seed, "minm-cal", m); m = 2^32 once
        # folded onto m = 0 and m = 2^33 onto 2^32
        for tag in ("minm-null", "minm-alt"):
            streams = {first_draws(generator(701, tag, v)) for v in (m, m // 2, m % 2**32)}
            assert len(streams) == 3
        masters = {child_seed(701, "minm-cal", v) for v in (m, m // 2, m % 2**32)}
        assert len(masters) == 3

    @pytest.mark.parametrize("master", MASTERS)
    @pytest.mark.parametrize("part", [0, 7, 2**32 - 1, 2**32, 2**33, 2**64 + 3])
    def test_int_parts_enter_whole(self, master, part):
        # numpy splits an int key into its 32-bit words, as it does the master;
        # a part below 2^32 is its one word, as before
        seq = seed_sequence(master, "cell", part, "key")
        key = (_tag_key("cell"), part, _tag_key("key"))
        assert seq.spawn_key == key and seq.entropy == master
        oracle = np.random.SeedSequence(master, spawn_key=key)
        assert seq.generate_state(8).tobytes() == oracle.generate_state(8).tobytes()

    @pytest.mark.parametrize("part, key", [
        (np.int64(5), 5), (np.uint64(2**63), 2**63), ("a", _tag_key("a")),
        (2.5, _tag_key("2.5")), (True, _tag_key("True")),
    ])
    def test_key_of_each_part_type(self, part, key):
        assert _as_key(part) == key and type(_as_key(part)) is int

    @pytest.mark.parametrize("part, error", [
        (-1, ValueError), (-(2**40), ValueError), (np.int64(-2), ValueError),
        (None, TypeError), (b"a", TypeError),
    ])
    def test_bad_path_component(self, part, error):
        with pytest.raises(error):
            seed_sequence(3, "a", part)
        with pytest.raises(error):
            generator(3, part, "a")


class TestDerivedSeeds:
    @pytest.mark.parametrize("master", MASTERS)
    def test_generator_is_default_rng_of_the_sequence(self, master):
        want = np.random.default_rng(seed_sequence(master, "calibrate"))
        assert first_draws(generator(master, "calibrate")) == first_draws(want)

    @pytest.mark.parametrize("master", MASTERS)
    def test_child_seed_is_the_first_state_word(self, master):
        word = seed_sequence(master, "cell", 3, "cal").generate_state(1)[0]
        assert child_seed(master, "cell", 3, "cal") == int(word) < 2**32

    def test_distinct_paths_distinct_streams(self):
        paths = [("a",), ("b",), ("a", 0), ("a", 1), ("a", 0, "k"), (0, "a")]
        assert len({first_draws(generator(9, *path)) for path in paths}) == len(paths)
