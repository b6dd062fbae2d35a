"""Reproducible randomness.

Every stream is a pure function of the master seed and a fixed index, so
results never depend on execution order or thread count.  Three mechanisms
share the same key derivation:

* ``trial_generator`` wraps a counter-based Philox bit generator keyed by
  the mixed (master, trial) pair; the step-by-step reference sampler uses it.
* ``chunk_generator`` is the same construction keyed by (master, chunk
  index); the staged sampler draws all trials of a fixed-size chunk from it.
* ``step_bits`` produces raw fair bits for a trial directly from the mix,
  vectorized across trials, for samplers whose whole trial is one batch of
  coin flips (endpoint-only walks).
"""

from __future__ import annotations

import numpy as np

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# chunk keys set the top bit of the index, which no trial index reaches
_CHUNK_TAG = 1 << 63


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


def _mix64_vec(x: np.ndarray) -> np.ndarray:
    x = (x + np.uint64(_GOLDEN))
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


def step_bits(master_seed: int, trial_indices: np.ndarray, n_words: int,
              word_offset: int = 0) -> np.ndarray:
    """Fair random words per trial, shape (len(trial_indices), n_words).

    Word w of trial i depends only on (master_seed, i, w); the counter-based
    construction makes any slice reproducible in isolation.
    """
    base = _mix64_vec(np.asarray(trial_indices, dtype=np.uint64)
                      ^ np.uint64(mix64(master_seed & 0xFFFFFFFFFFFFFFFF)))
    words = np.arange(word_offset, word_offset + n_words, dtype=np.uint64)
    ctr = base[:, None] * np.uint64(_GOLDEN) + _mix64_vec(words)[None, :]
    return _mix64_vec(_mix64_vec(ctr) ^ (ctr >> np.uint64(32)))


def bit_sum_walk(master_seed: int, trial_indices: np.ndarray, n_steps: int,
                 word_offset: int = 0) -> np.ndarray:
    """Endpoint of an ``n_steps``-step fair +/-1 walk for each trial.

    Sums ``n_steps`` fair bits from the trial's word stream; endpoint is
    2*(#ones) - n_steps.  Exact simple-random-walk law.
    """
    if n_steps == 0:
        return np.zeros(len(trial_indices), dtype=np.int64)
    n_words = (n_steps + 63) // 64
    words = step_bits(master_seed, trial_indices, n_words, word_offset)
    rem = n_steps - 64 * (n_words - 1)
    if rem < 64:
        words[:, -1] &= np.uint64((1 << rem) - 1)
    ones = np.bitwise_count(words).sum(axis=1).astype(np.int64)
    return 2 * ones - n_steps
