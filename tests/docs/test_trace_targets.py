"""Every span target of the end-to-end tracer still exists in ``repro``.

The traced e2e runs wrap each ``SPANS`` entry of
``benchmarks/e2e/trace/sitecustomize.py`` as its module finishes
importing, reading ``owner.__dict__[name]``; a deleted or renamed callable
therefore breaks every traced run at import.  This test resolves each
target the way the tracer does, without installing the tracer.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

import pytest

TRACER = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "e2e" / "trace" / "sitecustomize.py"
)


@pytest.fixture(scope="module")
def tracer():
    # Unset E2E_TRACE_DIR keeps the module from installing its import hook.
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("E2E_TRACE_DIR", raising=False)
        spec = importlib.util.spec_from_file_location("e2e_tracer_targets", TRACER)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves_in_repro(tracer):
    missing = []
    for layer, module_name, path in tracer.SPANS:
        owner = importlib.import_module(module_name)
        *parents, name = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(name)):
            missing.append(f"{layer}: {module_name}:{path}")
    assert not missing, "tracer SPANS targets missing from repro: " + ", ".join(missing)
