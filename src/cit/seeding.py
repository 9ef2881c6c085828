"""Deterministic seed derivation for reproducible, parallel-safe experiments.

Every source of randomness in the package is a `numpy` Generator obtained
from a master seed plus a *counter path*: a tuple of integers and string
tags.  The same (master, path) always yields the same stream; distinct
paths yield statistically independent streams.  This lets trials and bins
be generated in any order (or in parallel) without changing results.

A trial's stream is `default_rng(seed_sequence(master, *path))`, one
`SeedSequence` per trial, in every tester.  `child_seed` turns the same
sequence into a plain int, for APIs that take an int seed such as the
instance generators.  It keeps one 32-bit word: instance seeds come from
2^32 values, so by the birthday bound two trials of one column likely
share an instance from ~7.7e4 trials on.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

_KEY_SPACE = 2**32


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
