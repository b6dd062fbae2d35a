"""Pinned report digests of the staged sampler.

``always_step`` (a walk of n steps) and ``lazy_max`` (a crawl of n steps)
take one endpoint per trial.  ``lazy_then_sprint`` (a crawl, then one stage)
and the windowed strategies (the schedule's stages, plain and delayed) also
seek the origin in every stage.  All run on the staged sampler, whose stream
is keyed by (master seed, chunk index).  The digests were computed on one
thread and are asserted at one and two threads, so they catch a change to
the stream, to the order of the draws within a plan, to the chunking or to
the report layout, and any dependence on the thread count.  The first four
draw their leading walk and crawl from the sampler's lead table; the
windowed plans have no lead, so their digests pin the stage draws alone.
The generic sampler's chunk streams carry a tag of their own, so the two
samplers of a law test never share draws.
"""

import hashlib

import pytest

from targetwalk import McConfig, Problem, estimate_success
from targetwalk.rng import chunk_generator, step_chunk_generator, trial_generator

# sha256 of to_json(include_runtime=False), computed at threads=1
_PINNED = {
    "always_step": ({"name": "always_step"}, (1, 10 ** 5, 1), 10_000,
                    "fd9a07be3404dbc96320e3f7642b474e5abe80a3712cf2dd52ab66f4bb4511b9"),
    "lazy_max": ({"name": "lazy_max"}, (2, 2 ** 16, 64), 20_000,
                 "0de6f777d58459221be0b86edd16d0a5685e2f86721afd5d081cb75d40d054d4"),
    "lazy_then_sprint_d1": (
        {"name": "lazy_then_sprint"}, (1, 10 ** 5, 100), 10_000,
        "9a15babfc580156decc42429e855b4c78dcd81e573373599a5d64183b7b2132c"),
    "lazy_then_sprint_d2": (
        {"name": "lazy_then_sprint"}, (2, 10 ** 4, 100), 10_000,
        "41ce6530d129763b734eac8905bb765244ce5239fb2fd29346b7789684a3db88"),
    "windowed_1d": (
        {"name": "windowed_1d"}, (1, 10 ** 5, 316), 10_000,
        "11f08465e4ac21f049d97b5de73012e0c54d0fb92b51640c230ca1e314862330"),
    "windowed_1d_delayed": (
        {"name": "windowed_1d", "delayed": True}, (1, 10 ** 5, 316), 10_000,
        "ab9535f7017bb406f7321afd33ec016747ec1dabd7b6074f10daf3cd4a511805"),
    "windowed_2d": (
        {"name": "windowed_2d"}, (2, 10 ** 4, 100), 10_000,
        "e85b86eb850f930fa8d86dc192ce48a97dd1107df947d08a1c6fa854b9e51229"),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
@pytest.mark.parametrize("threads", [1, 2])
def test_endpoint_reports_match_pinned_digests(name, threads):
    spec, (d, n, m), trials, digest = _PINNED[name]
    cfg = McConfig(problem=Problem(d=d, n=n, m=m), strategy=spec,
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
