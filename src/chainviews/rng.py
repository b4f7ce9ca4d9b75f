"""Deterministic random-stream derivation.

Every random draw in the library flows from one master seed through a named
substream, so results never depend on evaluation order or worker count.
Generated views are drawn per instance and round: one stream yields all of
an instance's views for one round, so they can be regenerated without the
other instances, and a model init or shuffle can be regenerated in isolation.

A stream is addressed by the master seed plus a path of words, e.g.::

    rng = derive_rng(seed, "gen", instance_id, round_index)

String words are hashed with SHA-256 so unrelated components cannot collide
by accident; integer words are used as-is (masked to 64 bits).
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _path_word(part: int | str) -> int:
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")
    return int(part) & _MASK64


def derive_seed_sequence(master_seed: int, *path: int | str) -> np.random.SeedSequence:
    """Build the SeedSequence for a named substream of ``master_seed``."""
    entropy = [int(master_seed) & _MASK64]
    entropy.extend(_path_word(part) for part in path)
    return np.random.SeedSequence(entropy)


def derive_rng(master_seed: int, *path: int | str) -> np.random.Generator:
    """Return a Generator for the substream named by ``path``.

    Identical (seed, path) pairs always yield identical streams; any change
    to a single path word yields an unrelated stream.
    """
    return np.random.default_rng(derive_seed_sequence(master_seed, *path))
