"""Seed derivation: `trial_generators` against numpy's `SeedSequence`, the
oracle for its one-pass hash of a column of trials."""

import tracemalloc

import numpy as np
import pytest

from cit.seeding import _SEED_CHUNK, _as_key, seed_sequence, trial_generators

MASTERS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**130 + 12345]

#: (head, tail): the trial word first, in the middle and last, after and
#: before str, float and bool tags
PLACES = [
    ((), ("key|x", 7)),
    (("cell", 3, "test"), ("random_ci|20|0.5|10|2x2",)),
    (("minm-null", 2.5, True), ()),
]


def oracle_words(master, head, trials, tail=()):
    """`generate_state(4, np.uint64)` of each trial's `SeedSequence`."""
    return np.array([
        np.random.SeedSequence(master, spawn_key=tuple(_as_key(p) for p in (*head, t, *tail)))
        .generate_state(4, np.uint64)
        for t in range(trials)
    ])


def column_words(generators) -> np.ndarray:
    return np.array([g.bit_generator.seed_seq.generate_state(4, np.uint64) for g in generators])


class TestTrialGenerators:
    @pytest.mark.parametrize("head, tail", PLACES)
    @pytest.mark.parametrize("master", MASTERS)
    def test_words_and_states_match_seed_sequence(self, master, head, tail):
        gens = list(trial_generators(master, head, 6, tail))
        assert column_words(gens).tobytes() == oracle_words(master, head, 6, tail).tobytes()
        for t, g in enumerate(gens):
            want = np.random.default_rng(seed_sequence(master, *head, t, *tail))
            assert g.bit_generator.state == want.bit_generator.state
            assert g.random(3).tobytes() == want.random(3).tobytes()

    @pytest.mark.parametrize("trials", [1, _SEED_CHUNK - 1, _SEED_CHUNK, _SEED_CHUNK + 1])
    def test_chunk_edges(self, trials):
        head, tail = ("cell", 0, "test"), ("key",)
        gens = list(trial_generators(9, head, trials, tail))
        assert column_words(gens).tobytes() == oracle_words(9, head, trials, tail).tobytes()
        last = np.random.default_rng(seed_sequence(9, *head, trials - 1, *tail))
        assert gens[-1].bit_generator.state == last.bit_generator.state

    def test_first_generator_of_a_huge_column_is_lazy(self):
        # MAX_TRIALS trials: words for the whole column would take 32 GB
        gens = trial_generators(5, ("calibrate",), 10**9)
        tracemalloc.start()
        try:
            first = next(gens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        want = np.random.default_rng(seed_sequence(5, "calibrate", 0))
        assert first.bit_generator.state == want.bit_generator.state

    def test_empty_column(self):
        assert list(trial_generators(3, ("a",), 0)) == []

    def test_seed_words_serve_only_their_generator(self):
        g = next(trial_generators(1, ("a",), 2))
        words = g.bit_generator.seed_seq.generate_state(4, np.uint64)
        assert not words.flags.writeable
        with pytest.raises(ValueError):
            g.bit_generator.seed_seq.generate_state(4)
        with pytest.raises(ValueError):
            g.bit_generator.seed_seq.generate_state(8, np.uint64)
        with pytest.raises(TypeError):
            g.spawn(1)

    @pytest.mark.parametrize("master, trials, error", [
        (-1, 3, ValueError), (2.5, 3, TypeError), (3, -1, ValueError), (3, 2.0, TypeError),
    ])
    def test_bad_master_or_trials(self, master, trials, error):
        with pytest.raises(error):
            next(trial_generators(master, ("a",), trials))

    @pytest.mark.parametrize("part, error", [(-2, ValueError), (None, TypeError)])
    def test_bad_path_component(self, part, error):
        with pytest.raises(error):
            next(trial_generators(3, ("a", part), 2))
        with pytest.raises(error):
            next(trial_generators(3, ("a",), 2, (part,)))
