import pytest

import targetwalk.mc as mc
from targetwalk.samplers import GenericSampler


@pytest.fixture
def use_generic(monkeypatch):
    """A call that makes ``estimate_success`` run every strategy on the
    step-by-step ``GenericSampler``, the reference the staged sampler is
    tested against, for the rest of the test."""
    def use():
        monkeypatch.setattr(mc, "make_sampler",
                            lambda strategy, problem: GenericSampler(problem, strategy))
    return use
