"""Reproducible randomness.

Every stream is a pure function of the master seed and a fixed index, so
results never depend on execution order or thread count.  Three mechanisms
share the same key derivation:

* ``trial_generator`` wraps a counter-based Philox bit generator keyed by
  the mixed (master, index) pair; ``run_trajectory`` with an integer seed
  and the ``verify`` suites use it.
* ``chunk_generator`` is the same construction keyed by (master, chunk
  index); the staged sampler draws all trials of a fixed-size chunk from it.
* ``step_chunk_generator`` is keyed by (master, chunk index) with another
  tag, for the step-by-step reference sampler, so that the two samplers of
  a law test never share draws.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# chunk keys set one of the top two bits of the index, which no trial index
# reaches
_CHUNK_TAG = 1 << 63
_STEP_CHUNK_TAG = 1 << 62


def mix64(x: int) -> int:
    """SplitMix64 finalizer; bijective scramble of a 64-bit value."""
    x = (x + _GOLDEN) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * _MIX1) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * _MIX2) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return x


def trial_key(master_seed: int, trial_index: int) -> int:
    """128-bit Philox key for one trial; distinct for every (seed, index)."""
    hi = mix64(master_seed & 0xFFFFFFFFFFFFFFFF)
    lo = mix64(trial_index & 0xFFFFFFFFFFFFFFFF)
    return (hi << 64) | lo


def trial_generator(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent counter-based stream for one trial."""
    return np.random.Generator(np.random.Philox(key=trial_key(master_seed, trial_index)))


def chunk_generator(master_seed: int, chunk_index: int) -> np.random.Generator:
    """Independent counter-based stream for one chunk of trials."""
    key = trial_key(master_seed, _CHUNK_TAG | chunk_index)
    return np.random.Generator(np.random.Philox(key=key))


def step_chunk_generator(master_seed: int, chunk_index: int) -> np.random.Generator:
    """Independent counter-based stream for one chunk of step-by-step trials."""
    key = trial_key(master_seed, _STEP_CHUNK_TAG | chunk_index)
    return np.random.Generator(np.random.Philox(key=key))
