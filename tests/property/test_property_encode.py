"""Property test: the grouped encoder equals the per-model oracle bitwise.

:func:`repro.zoo.models.encode_models` hashes each row once and seeds every
model's noise rows in one vectorised call; slice ``s`` must still be
exactly what the original per-model, per-row-generator encoder produced,
for any subset of either repository and any row count.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import encode_loop
from repro.zoo.models import encode_models


@pytest.fixture(scope="module")
def hubs(nlp_hub_small, cv_hub_small):
    return {"nlp": nlp_hub_small, "cv": cv_hub_small}


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_encode_models_matches_oracle(hubs, data):
    hub = hubs[data.draw(st.sampled_from(["nlp", "cv"]))]
    names = data.draw(
        st.lists(st.sampled_from(hub.model_names), min_size=1, max_size=len(hub), unique=True)
    )
    rows = data.draw(st.sampled_from([0, 1, 7, 192]))
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    models = [hub.get(name) for name in names]
    features = np.random.default_rng(seed).normal(
        size=(rows, models[0].space.feature_dim)
    )
    got = encode_models(models, features)
    assert got.shape == (len(models), rows, models[0].hidden_dim)
    for s, model in enumerate(models):
        expected = encode_loop(model, features)
        assert np.array_equal(got[s].view(np.uint64), expected.view(np.uint64)), model.name
        assert np.array_equal(model.encode(features), expected)

