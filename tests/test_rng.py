"""Pinned report digests of the two strategies whose plans are one segment.

``always_step`` (one ``Walk``) and ``lazy_max`` (one ``Crawl``) run on the
staged sampler, whose stream is keyed by (master seed, chunk index).  The
digests were computed on one thread and are asserted at one and two
threads, so they catch a change to the stream, to the chunking or to the
report layout, and any dependence on the thread count.  The generic sampler's
chunk streams carry a tag of their own, so the two samplers of a law test
never share draws.
"""

import hashlib

import pytest

from targetwalk import McConfig, Problem, estimate_success
from targetwalk.rng import chunk_generator, step_chunk_generator, trial_generator

# sha256 of to_json(include_runtime=False), computed at threads=1
_PINNED = {
    "always_step": ((1, 10 ** 5, 1), 10_000,
                    "a9eeeb20a6c67915b4f1e29a23e7e0d6e5c9e14631c783e14d684baf2e447272"),
    "lazy_max": ((2, 2 ** 16, 64), 20_000,
                 "acf24d88d265cf68a2bf12de36352ea5d22d07d1b41b8102799547ff1106a871"),
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


def test_stream_families_never_share_a_stream():
    for seed in (0, 1, 2 ** 63 + 2013):
        for index in (0, 1, 7):
            firsts = {make(seed, index).integers(0, 2 ** 63, size=2).tobytes()
                      for make in (trial_generator, chunk_generator, step_chunk_generator)}
            assert len(firsts) == 3, (seed, index)
