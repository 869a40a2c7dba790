"""Span tracer of the end-to-end benchmark's traced runs.

Python imports ``sitecustomize`` at start-up from the first ``PYTHONPATH``
entry that has one, so putting this directory first traces a process and
every child that inherits its environment (the router passes it to its
workers).  Nothing happens unless ``E2E_TRACE_DIR`` names the directory
the aggregates are written to.

The tracer wraps the public callables in :data:`SPANS` as their modules
finish importing.  Methods are replaced on their class; a module-level
function is replaced in its own module and in every loaded ``repro``
module that holds a reference to it, because ``from x import f`` copies
the reference.  Each thread keeps a stack of open spans, so a layer's
self time is its span minus the spans it called, exactly.  Only
per-layer totals are kept (calls, busy and self nanoseconds).

Totals are written out as ``<pid>.<n>.json`` each time the process
answers a ``stats`` op (the router forwards that op to every worker),
and when :func:`e2e_dump` is called in-process.  A served process is
killed at teardown, so nothing waits for interpreter exit.  The first
write-out also measures what one span costs (:func:`span_cost_ns`), which
with the span count gives the tracer's own overhead.
"""

from __future__ import annotations

import functools
import importlib.abc
import json
import os
import sys
import threading
import time

#: (layer, module, attribute path) of every traced callable.
SPANS = (
    ("core.recall", "repro.core.recall", "CoarseRecall.recall"),
    ("core.plan", "repro.core.plan", "SelectionPlan.complete"),
    ("core.selection", "repro.core.selection", "_SelectionBase.run"),
    ("core.performance", "repro.core.performance", "build_performance_matrix"),
    ("core.performance", "repro.core.performance", "update_performance_matrix"),
    ("core.similarity", "repro.core.similarity", "performance_similarity_matrix"),
    ("core.similarity", "repro.core.similarity", "performance_similarity_matrix_ooc"),
    ("core.similarity", "repro.core.similarity", "update_similarity_matrix"),
    ("core.similarity", "repro.core.similarity", "update_similarity_matrix_ooc"),
    ("cluster.distance", "repro.cluster.distance", "similarity_to_distance"),
    ("cluster.distance", "repro.cluster.distance", "distance_matrix_for"),
    ("cluster.distance", "repro.cluster.distance", "distance_memmap_for"),
    ("cluster.merge", "repro.cluster.nnchain", "NNChainClustering.fit_predict"),
    ("cluster.incremental", "repro.cluster.incremental", "update_clustering"),
    ("zoo.encode", "repro.zoo.models", "PretrainedModel.encode"),
    ("nn.train_serial", "repro.zoo.finetune", "FineTuneSession.train_epochs"),
    ("nn.train_fused", "repro.nn.batched", "FusedSessionGroup.advance"),
    ("persist.journal_append", "repro.persist.journal", "PlanJournal.append"),
    ("persist.snapshot_publish", "repro.persist.store", "PlanStore.save_session"),
    ("service.refresh", "repro.service", "SelectionService.refresh"),
    ("distrib.handle_line", "repro.distrib.router", "RouterFrontEnd.handle_line"),
)

#: Front ends whose ``stats`` answers trigger a write-out.
_DUMP_ON_STATS = (
    ("repro.serving", "ServeFrontEnd.handle_line"),
    ("repro.distrib.router", "RouterFrontEnd.handle_line"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SPANS))

_out_dir = os.environ.get("E2E_TRACE_DIR")
_totals = {}  # layer -> [calls, busy_ns, self_ns]
_totals_lock = threading.Lock()
_local = threading.local()
_replaced = {}  # id(original function) -> wrapper
_dumps = [0]
_cost = [None]  # measured nanoseconds per span, taken at the first write-out


def _state():
    state = getattr(_local, "state", None)
    if state is None:
        state = _local.state = ([], {})  # open spans, open depth per layer
    return state


def _span(layer, fn):
    """Wrap ``fn`` so every call records a span of ``layer``."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack, depth = _state()
        outermost = depth.get(layer, 0) == 0
        depth[layer] = depth.get(layer, 0) + 1
        frame = [time.perf_counter_ns(), 0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - frame[0]
            stack.pop()
            depth[layer] -= 1
            if stack:
                stack[-1][1] += elapsed
            with _totals_lock:
                entry = _totals.setdefault(layer, [0, 0, 0])
                entry[0] += 1
                if outermost:
                    entry[1] += elapsed
                entry[2] += elapsed - frame[1]

    traced.__e2e_wrapped__ = fn
    return traced


def _dump_after_stats(fn):
    """Write the totals out after the front end answers a ``stats`` op."""

    @functools.wraps(fn)
    def handle_line(self, line, *args, **kwargs):
        result = fn(self, line, *args, **kwargs)
        if '"stats"' in line:
            try:
                is_stats = json.loads(line).get("op") == "stats"
            except (ValueError, AttributeError):
                is_stats = False
            if is_stats:
                e2e_dump()
        return result

    return handle_line


def span_cost_ns(calls=20000, repeats=3):
    """Measured cost of one span: a traced no-op minus a bare one (best of 3)."""
    def noop():
        return None

    traced = _span("__calibration__", noop)
    best = None
    for _ in range(repeats):
        started = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        bare = time.perf_counter_ns() - started
        started = time.perf_counter_ns()
        for _ in range(calls):
            traced()
        cost = (time.perf_counter_ns() - started - bare) / calls
        best = cost if best is None else min(best, cost)
    with _totals_lock:
        _totals.pop("__calibration__", None)
    return max(0.0, best)


def e2e_dump():
    """Write the current per-layer totals to ``<pid>.<n>.json``."""
    if not _out_dir:
        return None
    if _cost[0] is None:
        _cost[0] = span_cost_ns()
    with _totals_lock:
        _dumps[0] += 1
        seq = _dumps[0]
        layers = {
            layer: {"calls": calls, "busy_s": busy / 1e9, "self_s": own / 1e9}
            for layer, (calls, busy, own) in _totals.items()
        }
    path = os.path.join(_out_dir, f"{os.getpid()}.{seq}.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump({"pid": os.getpid(), "seq": seq, "span_cost_ns": _cost[0],
                   "layers": layers}, handle)
    os.replace(tmp, path)
    return path


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _patch(module):
    """Wrap this module's targets, then repoint copied references."""
    for layer, module_name, path in SPANS:
        if module_name == module.__name__:
            owner, name = _resolve(module, path)
            original = owner.__dict__[name]
            wrapper = _span(layer, original)
            setattr(owner, name, wrapper)
            _replaced[id(original)] = wrapper
    for module_name, path in _DUMP_ON_STATS:
        if module_name == module.__name__:
            owner, name = _resolve(module, path)
            setattr(owner, name, _dump_after_stats(owner.__dict__[name]))
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = getattr(loaded, "__dict__", {})
        for attr, value in list(namespace.items()):
            wrapper = _replaced.get(id(value))
            if wrapper is not None and value is getattr(wrapper, "__e2e_wrapped__", None):
                namespace[attr] = wrapper


class _Finder(importlib.abc.MetaPathFinder):
    """Patch each ``repro`` module right after it executes."""

    def find_spec(self, fullname, path, target=None):
        if not (fullname == "repro" or fullname.startswith("repro.")):
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        if loader is None or not hasattr(loader, "exec_module"):
            return spec
        execute = loader.exec_module

        def exec_module(module):
            execute(module)
            _patch(module)

        loader.exec_module = exec_module
        return spec


if _out_dir:
    os.makedirs(_out_dir, exist_ok=True)
    sys.meta_path.insert(0, _Finder())
