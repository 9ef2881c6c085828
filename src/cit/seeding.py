"""Deterministic seed derivation for reproducible, parallel-safe experiments.

Every source of randomness in the package is a `numpy` Generator obtained
from a master seed plus a *counter path*: a tuple of integers and string
tags.  The same (master, path) always yields the same stream; distinct
paths of one shape yield statistically independent streams.  This lets
grid cells and instances be generated in any order (or in parallel)
without changing results.

A stream is `default_rng(seed_sequence(master, *path))`.  The master and
every integer part of the path enter numpy's `SeedSequence` at full width,
as their 32-bit words, so no two integers of one path position share a
stream.  A column of trials draws from one such stream, trial after
trial (`testers.run_trials`); an instance is built from its own
`seed_sequence`.  `child_seed` turns a sequence into a plain 32-bit int,
for APIs that take an int master, such as `calibrate_threshold`.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np


def _as_key(part) -> int:
    """Map one path component to a non-negative `SeedSequence` key.

    Non-negative integers are kept whole (numpy splits them into 32-bit
    words); strings and floats hash via SHA-256 so tags like family names
    get stable cross-platform keys.
    """
    if isinstance(part, (bool, float)):
        return _tag_key(repr(part))
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"seed path components must be >= 0, got {part}")
        return int(part)
    if isinstance(part, str):
        return _tag_key(part)
    raise TypeError(f"unsupported seed path component: {part!r}")


@lru_cache(maxsize=1024)
def _tag_key(tag: str) -> int:
    """The SHA-256 key of a string tag; the same few tags recur in every
    path, so their keys are cached."""
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
