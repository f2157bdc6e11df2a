"""``LogNormalLatency.sample`` inlines ``random.lognormvariate``: it must
stay that function draw for draw, or every simulated schedule moves."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.net.latency import LogNormalLatency


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    median=st.floats(min_value=1e-6, max_value=1.0),
    sigma=st.floats(min_value=1e-3, max_value=1.0),
)
def test_sample_is_lognormvariate_draw_for_draw(seed, median, sigma):
    model = LogNormalLatency(median=median, sigma=sigma)
    ours, reference = random.Random(seed), random.Random(seed)
    for _ in range(10_000):
        assert model.sample(ours) == reference.lognormvariate(model._mu, sigma)
    # Same number of underlying draws: the streams are still in step.
    assert ours.random() == reference.random()

