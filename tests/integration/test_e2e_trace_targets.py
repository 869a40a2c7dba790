"""Every target of the e2e benchmark's span tracer exists where it says.

``benchmarks/e2e/trace/sitecustomize.py`` wraps each target through
``owner.__dict__[name]`` as its module finishes importing, so a target
that is renamed, or moves to a base class, raises ``KeyError`` at import
in every traced benchmark run.  This loads that file (without arming it)
and resolves every target the way it does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "trace" / "sitecustomize.py"


@pytest.fixture(scope="module")
def tracer():
    # The tracer arms itself only when E2E_TRACE_DIR is set.
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("E2E_TRACE_DIR", raising=False)
        spec = importlib.util.spec_from_file_location("e2e_trace_under_test", TRACER)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def targets(tracer):
    spans = [(module, path) for _, module, path in tracer.SPANS]
    return spans + list(tracer._DUMP_ON_STATS)


def test_tracer_names_targets(tracer):
    assert tracer.SPANS and tracer._DUMP_ON_STATS
    assert ("repro.distrib.router", "RouterFrontEnd.handle_line") in targets(tracer)


def test_every_target_is_defined_on_its_own_owner(tracer):
    for module_name, path in targets(tracer):
        owner, name = tracer._resolve(importlib.import_module(module_name), path)
        assert name in vars(owner), f"{module_name}:{path} is not in its owner's __dict__"
        assert callable(vars(owner)[name]), f"{module_name}:{path}"
