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

A split's per-instance streams are derived in one batch by
:func:`derive_rngs`, which runs numpy's ``SeedSequence`` hash as uint32
array arithmetic over every path at once. Its Generators are the same
streams, state for state, as :func:`derive_rng` gives one path at a time.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# numpy.random.SeedSequence's constants: a pool of 4 uint32 words, hashed
# with an evolving multiplier, mixed, then expanded by a second hash
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


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


class _Seeded(ISeedSequence):
    """The four uint64 words a PCG64 seeds from, computed beforehand."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _hashmix(value: np.ndarray, const: int) -> tuple[np.ndarray, int]:
    """SeedSequence's ``hashmix`` of every entry of ``value``: the mixed
    words and the hash constant after the step."""
    value = value ^ const
    const = const * _MULT_A & _MASK32
    value *= const
    value ^= value >> 16
    return value, const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    result ^= result >> 16
    return result


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` of every row of
    ``entropy``, an ``(n, L)`` uint32 array of each path's coerced words."""
    n, length = entropy.shape
    words = [entropy[:, i] if i < length else np.zeros(n, dtype=np.uint32) for i in range(max(length, _POOL_SIZE))]
    const, pool = _INIT_A, []
    for word in words[:_POOL_SIZE]:
        mixed, const = _hashmix(word, const)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], mixed)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            mixed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], mixed)
    state, const = np.empty((n, 2 * _POOL_SIZE), dtype=np.uint32), _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value *= const
        state[:, i] = value ^ value >> 16
    return state.astype("<u4").view("<u8").astype(np.uint64)


def derive_rngs(master_seed: int, paths: Sequence[Sequence[int | str]]) -> list[np.random.Generator]:
    """``[derive_rng(master_seed, *path) for path in paths]``, derived in one batch.

    Each path's words become uint32 entropy words as ``SeedSequence``
    coerces its entropy list (little-endian 32-bit words per integer, one
    word for 0), and the paths with the same word count are hashed
    together as arrays. Each Generator's PCG64 seeds from its four words.
    """
    hashed: dict[str, int] = {}

    def coerced(path) -> list[int]:
        words = []
        for part in path:
            if isinstance(part, str):
                value = hashed.get(part)
                if value is None:
                    value = hashed[part] = _path_word(part)
            else:
                value = int(part) & _MASK64
            words.append(value & _MASK32)
            if value >> 32:
                words.append(value >> 32)
        return words

    entropy = [coerced((int(master_seed), *path)) for path in paths]
    by_length: dict[int, list[int]] = {}
    for k, words in enumerate(entropy):
        by_length.setdefault(len(words), []).append(k)
    states = np.empty((len(entropy), _POOL_SIZE), dtype=np.uint64)
    for rows in by_length.values():
        states[rows] = _pcg64_seeds(np.array([entropy[k] for k in rows], dtype=np.uint32))
    return [np.random.Generator(np.random.PCG64(_Seeded(state))) for state in states]
