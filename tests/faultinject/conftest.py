"""Marker plumbing and shared fixtures for the fault-injection tier.

Everything under ``tests/faultinject/`` is automatically tagged with the
``faultinject`` marker, so the fast CI tier deselects the whole crash-test
tier with ``-m "not faultinject"`` and the dedicated ``test-fault`` tier
selects exactly it — without each module repeating a ``pytestmark`` line
(same pattern as ``tests/property/conftest.py``).

The fixtures mirror the property tier's: offline artifacts built once per
module on the reduced NLP hub, plus the serial oracle every crash-resume
result must match bitwise.
"""

import pathlib

import pytest
from oracles import serial_select

from repro.core.pipeline import OfflineArtifacts
from repro.persist import clear_hooks

_FAULT_DIR = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(items):
    # The hook sees the whole session's items; only tag the ones that live
    # under this directory.
    for item in items:
        if _FAULT_DIR in pathlib.Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.faultinject)


@pytest.fixture(autouse=True)
def _no_leaked_hooks():
    """Crash hooks are process-global: never let one outlive its test."""
    clear_hooks()
    yield
    clear_hooks()


@pytest.fixture(scope="module")
def artifacts(nlp_hub_small, nlp_suite_small, test_pipeline_config, fine_tuner):
    return OfflineArtifacts.build(
        nlp_hub_small,
        nlp_suite_small,
        config=test_pipeline_config,
        fine_tuner=fine_tuner,
    )


@pytest.fixture(scope="module")
def serial_oracle(artifacts):
    """The blocking path's result for the target the crash tests replay."""
    return {
        ("mnli", 5): serial_select(artifacts, "mnli", top_k=5),
        ("boolq", 3): serial_select(artifacts, "boolq", top_k=3),
    }
