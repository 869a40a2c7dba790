"""Documentation checks: every fenced Python block runs, every link resolves.

``make docs-check`` runs this module.  Two guarantees keep README/docs from
rotting:

* every ```` ```python ```` block in README.md and docs/*.md is executed
  top to bottom (blocks within one file share a namespace, so a later
  block may use names defined by an earlier one, exactly as a reader
  would);
* every relative markdown link (including ``#anchor`` fragments) points at
  a file — and a heading — that exists.

Blocks run against reduced data scales (the default scale and catalogue
are patched down) so the whole suite stays fast; the executed code paths
are identical to the full-scale ones.
"""

from __future__ import annotations

import pathlib
import re
from dataclasses import dataclass
from typing import Dict, List

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
)

_FENCE = re.compile(r"```(\w*)[^\n]*\n(.*?)```", re.DOTALL)
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


@dataclass
class Block:
    """One fenced code block of a documentation file."""

    path: pathlib.Path
    index: int
    language: str
    code: str

    @property
    def label(self) -> str:
        return f"{self.path.relative_to(REPO_ROOT)}#block{self.index}"


def _blocks(path: pathlib.Path) -> List[Block]:
    text = path.read_text(encoding="utf-8")
    return [
        Block(path=path, index=i, language=match.group(1).lower(), code=match.group(2))
        for i, match in enumerate(_FENCE.finditer(text))
    ]


def _python_files() -> List[pathlib.Path]:
    return [path for path in DOC_FILES if any(
        block.language == "python" for block in _blocks(path)
    )]


def _github_slug(heading: str) -> str:
    """GitHub-style anchor slug of a markdown heading."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


# --------------------------------------------------------------------------- #
# fenced python blocks
# --------------------------------------------------------------------------- #
@pytest.fixture()
def small_world(monkeypatch, tmp_path):
    """Patch the default scale/catalogue down so doc snippets run quickly.

    A snippet may reconfigure the process-default cache (``cache.configure``)
    or write under ``~``: the default cache is restored at teardown and
    ``HOME`` points into ``tmp_path``, so no block leaks state into later
    tests or files outside ``tmp_path``.
    """
    import repro.cache
    from repro.data.workloads import DataScale
    from repro.zoo import catalog, hub

    default_cache = repro.cache._default_cache
    monkeypatch.setattr(repro.cache, "_default_cache", default_cache)
    monkeypatch.setenv("HOME", str(tmp_path))

    monkeypatch.setattr(DataScale, "default", classmethod(lambda cls: cls.small()))
    original = catalog.catalog_for_modality
    monkeypatch.setattr(
        catalog, "catalog_for_modality", lambda modality: original(modality)[:10]
    )
    # ModelHub imported the symbol directly; patch its reference too.
    monkeypatch.setattr(
        hub, "catalog_for_modality", lambda modality: original(modality)[:10]
    )
    yield
    monkeypatch.undo()
    assert repro.cache._default_cache is default_cache


@pytest.mark.parametrize(
    "path", _python_files(), ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_python_blocks_execute(path, small_world, tmp_path, capsys):
    """Every ```python block in the file runs top to bottom without error."""
    namespace: Dict[str, object] = {"__name__": f"docs_check_{path.stem}"}
    namespace.update(_preamble(path, tmp_path))
    for block in _blocks(path):
        if block.language != "python":
            continue
        try:
            exec(compile(block.code, block.label, "exec"), namespace)
        except Exception as error:  # pragma: no cover - failure reporting
            pytest.fail(f"{block.label} failed: {type(error).__name__}: {error}")


def _preamble(path: pathlib.Path, tmp_path) -> Dict[str, object]:
    """Names a file's snippets assume to exist (documented context).

    Doc snippets deliberately start mid-story ("given a performance
    matrix ..."); the preamble supplies exactly that given, nothing more.
    """
    import numpy as np

    from repro.cache import ArtifactCache
    from repro.core.performance import PerformanceMatrix
    from repro.data.workloads import DataScale, WorkloadSuite
    from repro.zoo.hub import ModelHub

    if path.name == "caching.md":
        rng = np.random.default_rng(0)
        matrix = PerformanceMatrix(
            dataset_names=[f"bench-{i}" for i in range(4)],
            model_names=[f"model-{j}" for j in range(6)],
            values=rng.uniform(0.2, 0.95, size=(4, 6)),
        )
        return {
            "matrix": matrix,
            "my_cache": ArtifactCache(max_entries=8, disk_dir=tmp_path / "cache"),
        }
    if path.name == "fused-training.md":
        suite = WorkloadSuite("nlp", seed=0, scale=DataScale.small())
        return {"suite": suite, "hub": ModelHub(suite, seed=0)}
    if path.name == "persistence.md":
        return {"store_dir": str(tmp_path / "plan-store")}
    return {}


# --------------------------------------------------------------------------- #
# links
# --------------------------------------------------------------------------- #
def _anchors(path: pathlib.Path) -> List[str]:
    return [_github_slug(h) for h in _HEADING.findall(path.read_text(encoding="utf-8"))]


@pytest.mark.parametrize(
    "path", DOC_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_links_resolve(path):
    """Every relative link targets an existing file (and heading, if given)."""
    text = path.read_text(encoding="utf-8")
    problems = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if target.startswith("#"):
            if _github_slug(target[1:]) not in _anchors(path):
                problems.append(f"missing anchor {target!r}")
            continue
        file_part, _, anchor = target.partition("#")
        resolved = (path.parent / file_part).resolve()
        if not resolved.exists():
            problems.append(f"broken link {target!r} -> {resolved}")
            continue
        if anchor and resolved.suffix == ".md" and anchor not in _anchors(resolved):
            problems.append(f"missing anchor {target!r} in {resolved.name}")
    assert not problems, "; ".join(problems)


def test_every_doc_is_reachable_from_readme():
    """docs/*.md must be cross-linked (directly or transitively) from README."""
    reachable = set()
    frontier = [REPO_ROOT / "README.md"]
    while frontier:
        current = frontier.pop()
        if current in reachable or not current.exists():
            continue
        reachable.add(current)
        for target in _LINK.findall(current.read_text(encoding="utf-8")):
            if target.startswith(("http://", "https://", "#", "mailto:")):
                continue
            candidate = (current.parent / target.partition("#")[0]).resolve()
            if candidate.suffix == ".md":
                frontier.append(candidate)
    missing = [str(p.relative_to(REPO_ROOT)) for p in DOC_FILES if p not in reachable]
    assert not missing, f"docs unreachable from README: {missing}"
