"""Reproducible randomness.

Every stream is a pure function of the master seed and a fixed index, so
results never depend on execution order or thread count.  Three mechanisms
share the same key derivation:

* ``trial_generator`` wraps a counter-based Philox bit generator keyed by
  the mixed (master, trial) pair; the step-by-step reference sampler uses it.
* ``chunk_generator`` is the same construction keyed by (master, chunk
  index); the staged sampler draws all trials of a fixed-size chunk from it.
* ``bit_sum_walk`` sums fair bits taken directly from the mix: word w of
  trial i is a fixed function of (master, i, w), so an endpoint-only walk is
  a popcount over the trial's words.  The words are generated and counted
  in cache-sized tiles, so the working set does not grow with the step count.
"""

from __future__ import annotations

import functools

import numpy as np

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


_G = np.uint64(_GOLDEN)
_M1 = np.uint64(_MIX1)
_M2 = np.uint64(_MIX2)

# Words per tile of bit_sum_walk: its three uint64 scratch buffers (512 KB
# each) stay in a core's L2 cache, and a tile is still large enough that
# the per-call overhead of its ~25 array operations is small.
_TILE = 1 << 16
# A tile's per-trial popcounts are summed in uint16: at most 64 * 1023 ones.
_TILE_WORDS_MAX = 1023


def _xor_shift(x: np.ndarray, shift: int, tmp: np.ndarray) -> None:
    np.right_shift(x, shift, out=tmp)
    np.bitwise_xor(x, tmp, out=x)


def _mix64_into(src: np.ndarray, x: np.ndarray, tmp: np.ndarray) -> None:
    """``mix64`` of every element of ``src`` written to ``x`` (which may be
    ``src``); ``tmp`` is scratch of the same shape."""
    np.add(src, _G, out=x)
    _xor_shift(x, 30, tmp)
    np.multiply(x, _M1, out=x)
    _xor_shift(x, 27, tmp)
    np.multiply(x, _M2, out=x)
    _xor_shift(x, 31, tmp)


# Every chunk of an estimate mixes the same word counters, and at one word
# per trial that costs about as much as the trial's own tile.
@functools.lru_cache(maxsize=8)
def _word_mix(word_offset: int, n_words: int) -> np.ndarray:
    """mix64 of the word counters, as a read-only (n_words, 1) column."""
    words = np.arange(word_offset, word_offset + n_words, dtype=np.uint64)
    _mix64_into(words, words, np.empty_like(words))
    words.setflags(write=False)
    return words[:, None]


def bit_sum_walk(master_seed: int, trial_indices: np.ndarray, n_steps: int,
                 word_offset: int = 0) -> np.ndarray:
    """Endpoint of an ``n_steps``-step fair +/-1 walk for each trial.

    Sums ``n_steps`` fair bits from the trial's word stream; endpoint is
    2*(#ones) - n_steps.  Exact simple-random-walk law.  The bits of trial
    i are words ``word_offset`` onwards of its stream, the last one masked
    to its low ``n_steps % 64`` bits unless that is 0; word w is

        ctr = mix64(i ^ mix64(master_seed)) * GOLDEN + mix64(w)
        word = mix64(mix64(ctr) ^ (ctr >> 32))

    (all mod 2**64), so any slice is reproducible in isolation.  Words are
    built a tile of (words x trials) at a time in scratch buffers and only
    their popcounts are kept.
    """
    idx = np.asarray(trial_indices, dtype=np.uint64)
    ones = np.zeros(len(idx), dtype=np.int64)
    if n_steps == 0 or len(idx) == 0:
        return ones
    n_words = (n_steps + 63) // 64
    rows = min(len(idx), _TILE)
    cols = min(n_words, _TILE // rows, _TILE_WORDS_MAX)
    bufs = np.empty((3, rows * cols), dtype=np.uint64)
    part = np.empty(rows, dtype=np.uint16)
    rem = n_steps - 64 * (n_words - 1)
    last_mask = np.uint64((1 << rem) - 1) if rem < 64 else None

    base = idx ^ np.uint64(mix64(master_seed & 0xFFFFFFFFFFFFFFFF))
    _mix64_into(base, base, np.empty_like(base))
    np.multiply(base, _G, out=base)
    word_mix = _word_mix(word_offset, n_words)

    for r0 in range(0, len(idx), rows):
        r1 = min(r0 + rows, len(idx))
        for c0 in range(0, n_words, cols):
            c1 = min(c0 + cols, n_words)
            shape = (c1 - c0, r1 - r0)
            size = shape[0] * shape[1]
            ctr, x, tmp = (b[:size].reshape(shape) for b in bufs)
            np.add(word_mix[c0:c1], base[r0:r1], out=ctr)
            _mix64_into(ctr, x, tmp)
            np.right_shift(ctr, 32, out=ctr)
            np.bitwise_xor(x, ctr, out=x)
            _mix64_into(x, x, tmp)
            if last_mask is not None and c1 == n_words:
                np.bitwise_and(x[-1], last_mask, out=x[-1])
            # the popcounts overwrite tmp, which the mix no longer needs
            pop = bufs[2].view(np.uint8)[:size].reshape(shape)
            np.bitwise_count(x, out=pop)
            np.add.reduce(pop, axis=0, dtype=np.uint16, out=part[:shape[1]])
            np.add(ones[r0:r1], part[:shape[1]], out=ones[r0:r1])
    np.multiply(ones, 2, out=ones)
    np.subtract(ones, n_steps, out=ones)
    return ones
