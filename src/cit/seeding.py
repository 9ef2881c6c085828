"""Deterministic seed derivation for reproducible, parallel-safe experiments.

Every source of randomness in the package is a `numpy` Generator obtained
from a master seed plus a *counter path*: a tuple of integers and string
tags.  The same (master, path) always yields the same stream; distinct
paths yield statistically independent streams.  This lets trials and bins
be generated in any order (or in parallel) without changing results.

A stream is `default_rng(seed_sequence(master, *path))`.  A column of
trials, whose paths differ only in the trial index t, gets its streams
from `trial_generators`: it runs numpy's `SeedSequence` hash once per
chunk of trials, over uint32 arrays from the trial word on, and gives each
trial a Generator with the same state as `generator(master, *path)`.  A
trial then pays mostly for numpy's `PCG64` and `Generator` construction,
not for its own `SeedSequence` and `default_rng`.  `child_seed` turns
the sequence into a plain int, for APIs that take an int seed such as the
instance generators.  It keeps one 32-bit word: instance seeds come from
2^32 values, so by the birthday bound two trials of one column likely
share an instance from ~7.7e4 trials on.
"""

from __future__ import annotations

import hashlib
import operator
from functools import lru_cache

import numpy as np

_KEY_SPACE = 2**32
_MASK32 = _KEY_SPACE - 1

#: numpy's `SeedSequence` hash constants and pool size (numpy.random.bit_generator)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

#: trials `trial_generators` hashes in one pass; a memory bound, not a
#: knob: a column of any length holds at most this many trials' words
_SEED_CHUNK = 1 << 10


def _as_key(part) -> int:
    """Map one path component to a 32-bit counter key.

    Non-negative integers fold into 32 bits; strings and floats hash via
    SHA-256 so tags like family names get stable cross-platform keys.
    """
    if isinstance(part, (bool, float)):
        return _tag_key(repr(part))
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"seed path components must be >= 0, got {part}")
        return int(part) % _KEY_SPACE
    if isinstance(part, str):
        return _tag_key(part)
    raise TypeError(f"unsupported seed path component: {part!r}")


@lru_cache(maxsize=1024)
def _tag_key(tag: str) -> int:
    """The SHA-256 key of a string tag; the same few tags recur in every
    trial's path, so their keys are cached."""
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def seed_sequence(master: int, *path) -> np.random.SeedSequence:
    """Child seed stream for counter `path` under `master`."""
    return np.random.SeedSequence(int(master), spawn_key=tuple(_as_key(p) for p in path))


def child_seed(master: int, *path) -> int:
    """A plain integer seed derived from (master, path): the first 32-bit
    state word of `seed_sequence(master, *path)`."""
    return int(seed_sequence(master, *path).generate_state(1)[0])


def generator(master: int, *path) -> np.random.Generator:
    """`default_rng` over `seed_sequence(master, *path)`."""
    return np.random.default_rng(seed_sequence(master, *path))


# ---------------------------------------------------------------------------
# One hash pass per column of trials
# ---------------------------------------------------------------------------


def _hashmix(value, const, mult=_MULT_A):
    """numpy's hash of a word under constant `const` (`hashmix`; with
    `_MULT_B`, one step of `generate_state`): (hash, next constant).  Words
    and constants are Python ints or broadcastable uint32 arrays."""
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    """numpy's `mix` of two words, both Python ints or both uint32 arrays."""
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ value >> 16


def _entropy_pool(master: int, head) -> tuple[list, int]:
    """The pool of `SeedSequence(master, spawn_key=head)` and its next hash
    constant, as Python ints: numpy's `mix_entropy` over the master's 32-bit
    words, zero-padded to the pool size as under a spawn key, then `head`."""
    master = operator.index(master)
    if master < 0:
        raise ValueError(f"master seed must be >= 0, got {master}")
    words = [master >> s & _MASK32 for s in range(0, max(master.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for word in words[_POOL_SIZE:] + [_as_key(p) for p in head]:
        for dst in range(_POOL_SIZE):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)
    return pool, const


#: `generate_state`'s hash constants for 2 * _POOL_SIZE words, as a column
_STATE_CONSTS = np.array(
    [_INIT_B * _MULT_B**i & _MASK32 for i in range(2 * _POOL_SIZE)], dtype=np.uint32
)[:, None]


def _column_words(pool: list, const: int, words) -> np.ndarray:
    """`generate_state(4, np.uint64)` of k seeds at once, as a C-order (k, 4)
    uint64 array: the seeds share the pool and constant `_entropy_pool`
    left, and their entropy goes on with `words`, each a Python int or a
    (k,) uint32 array.  Each word is hashed into the four pool words in one
    step over a (4, k) array, with the four constants numpy uses in turn."""
    pool = np.array(pool, dtype=np.uint32)[:, None]
    for word in words:
        consts = [const]
        for _ in range(_POOL_SIZE):
            consts.append(consts[-1] * _MULT_A & _MASK32)
        hashed, _ = _hashmix(word, np.array(consts[:-1], dtype=np.uint32)[:, None])
        pool = _mix(pool, hashed)
        const = consts[-1]
    hashed, _ = _hashmix(np.concatenate([pool, pool]), _STATE_CONSTS, _MULT_B)
    halves = hashed.astype(np.uint64)
    return np.ascontiguousarray((halves[0::2] | halves[1::2] << 32).T)


class _StateWords:
    """The seed of one trial's PCG64: an `ISeedSequence` (registered on
    first use) that returns the four uint64 state words `trial_generators`
    derived and refuses any other request."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("these seed words serve only PCG64's generate_state(4, uint64)")
        return self.words


@lru_cache(maxsize=1)
def _pcg64_generator():
    """`Generator` and `PCG64`, with `_StateWords` registered as an
    `ISeedSequence`; imported on first use, since importing `numpy.random`
    adds ~17 ms to every interpreter start."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_StateWords)
    return Generator, PCG64


def trial_generators(master: int, head: tuple, trials: int, tail: tuple = ()):
    """Yield, for t = 0 … trials−1, a Generator whose state equals that of
    `generator(master, *head, t, *tail)` bit for bit.

    The words before t are hashed once, as Python ints; from the trial
    word on the pool is a uint32 array over a chunk of at most 2^10
    trials, so the column is derived lazily, chunk by chunk, in bounded
    memory.  The generators' `seed_seq` serves only their own seeding: it
    cannot spawn.
    """
    trials = operator.index(trials)
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    generator_cls, pcg64 = _pcg64_generator()
    pool, const = _entropy_pool(master, head)
    tail_keys = [_as_key(p) for p in tail]
    for start in range(0, trials, _SEED_CHUNK):
        t = np.arange(start, min(start + _SEED_CHUNK, trials), dtype=np.int64)
        words = _column_words(pool, const, [(t & _MASK32).astype(np.uint32), *tail_keys])
        words.flags.writeable = False
        for row in words:
            yield generator_cls(pcg64(_StateWords(row)))
