"""The endpoint bit kernel against a full-matrix reference, and pinned
report digests of the two strategies that run on it.

``_reference_words`` builds the whole (trials x words) word matrix the way
the stream is defined; ``bit_sum_walk`` generates the same words a tile at a
time, so any difference in a word, its offset or the last-word mask shows
as an unequal endpoint.  The digests were computed before the kernel was
tiled; a change to the stream moves them.
"""

import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from targetwalk import McConfig, Problem, estimate_success
from targetwalk.rng import _GOLDEN, _MIX1, _MIX2, _TILE, bit_sum_walk, mix64


def _mix64_matrix(x: np.ndarray) -> np.ndarray:
    x = x + np.uint64(_GOLDEN)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


def _reference_words(master_seed, trial_indices, n_words, word_offset=0):
    """Fair words per trial, shape (len(trial_indices), n_words)."""
    base = _mix64_matrix(np.asarray(trial_indices, dtype=np.uint64)
                         ^ np.uint64(mix64(master_seed & 0xFFFFFFFFFFFFFFFF)))
    words = np.arange(word_offset, word_offset + n_words, dtype=np.uint64)
    ctr = base[:, None] * np.uint64(_GOLDEN) + _mix64_matrix(words)[None, :]
    return _mix64_matrix(_mix64_matrix(ctr) ^ (ctr >> np.uint64(32)))


def _reference_walk(master_seed, trial_indices, n_steps, word_offset=0):
    if n_steps == 0:
        return np.zeros(len(trial_indices), dtype=np.int64)
    n_words = (n_steps + 63) // 64
    words = _reference_words(master_seed, trial_indices, n_words, word_offset)
    rem = n_steps - 64 * (n_words - 1)
    if rem < 64:
        words[:, -1] &= np.uint64((1 << rem) - 1)
    ones = np.bitwise_count(words).sum(axis=1).astype(np.int64)
    return 2 * ones - n_steps


_SEEDS = (7, 2 ** 63 + 2013)
_STEPS = (1, 63, 64, 65, 64 * _TILE - 1, 64 * _TILE + 1, 10 ** 5)
_OFFSETS = (0, 3, 1563)
_TRIALS = (0, 1, 4096, 1237)


@pytest.mark.parametrize("n_steps", _STEPS)
@pytest.mark.parametrize("word_offset", _OFFSETS)
def test_bit_sum_walk_equals_the_full_matrix_reference(n_steps, word_offset):
    for seed in _SEEDS:
        for trials in _TRIALS:
            # the reference matrix of a 4096-trial chunk at 2^22 steps is 0.5 GB
            if trials * n_steps > 5 * 10 ** 8:
                trials = 3
            idx = np.arange(4096, 4096 + trials, dtype=np.uint64)
            got = bit_sum_walk(seed, idx, n_steps, word_offset)
            want = _reference_walk(seed, idx, n_steps, word_offset)
            assert got.dtype == np.int64 and got.shape == (trials,)
            assert np.array_equal(got, want), (seed, trials)


def test_bit_sum_walk_tiles_the_trial_axis():
    # more trials than one tile holds: the trial axis is cut as well
    idx = np.arange(_TILE + 5, dtype=np.uint64)
    assert np.array_equal(bit_sum_walk(3, idx, 130, 2), _reference_walk(3, idx, 130, 2))


def test_bit_sum_walk_same_in_every_thread():
    # more threads than cores share the word-mix cache, with a short switch
    # interval to interleave them
    idx = np.arange(1000, 5096, dtype=np.uint64)
    cases = [(n, off) for n in (64, 3000, 64 * 40 + 9) for off in (0, 3, 47)]
    want = {case: _reference_walk(11, idx, *case) for case in cases}
    mismatches = []

    def run(shift):
        for case in cases[shift:] + cases[:shift]:
            if not np.array_equal(bit_sum_walk(11, idx, *case), want[case]):
                mismatches.append(case)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


def test_bit_sum_walk_memory_does_not_grow_with_the_step_count():
    # the full word matrix of this call is 4096 * 1563 * 8 B = 51 MB
    idx = np.arange(4096, dtype=np.uint64)
    tracemalloc.start()
    try:
        bit_sum_walk(5, idx, 10 ** 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * _TILE + (1 << 20)


# sha256 of to_json(include_runtime=False), computed with the untiled kernel
_PINNED = {
    "always_step": ((1, 10 ** 5, 1), 10_000,
                    "7a43e2cabb34aad19ff6f0223d147d123a02d59d0851bbbe7cfedcc544d72611"),
    "lazy_max": ((2, 2 ** 16, 64), 20_000,
                 "d0581f047ae8ff702975f7fab9ac7ca4b66bfcc4cf2c615df225a58a3c717b55"),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
@pytest.mark.parametrize("threads", [1, 2])
def test_endpoint_reports_match_pinned_digests(name, threads):
    (d, n, m), trials, digest = _PINNED[name]
    cfg = McConfig(problem=Problem(d=d, n=n, m=m), strategy={"name": name},
                   trials=trials, master_seed=2 ** 63 + 2013, threads=threads,
                   store_failures=5)
    text = estimate_success(cfg).to_json(include_runtime=False)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
