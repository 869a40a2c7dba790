"""Generate the markdown API reference under ``docs/api/``.

``make docs-api`` renders the public docstrings of the library's packages
listed in ``DOCUMENTED`` into one
markdown page per package plus an index.  The output is deterministic
(sorted modules, sorted symbols, docstrings taken verbatim), so the pages
are committed and CI verifies they are current with ``make docs-api-check``
(also enforced by ``tests/docs/test_api_reference.py``, i.e. by
``make docs-check``).

Usage::

    PYTHONPATH=src python tools/gen_api_docs.py           # (re)write docs/api/
    PYTHONPATH=src python tools/gen_api_docs.py --check   # verify, no writes
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parents[1]
API_DIR = REPO_ROOT / "docs" / "api"

#: Packages (and single modules) rendered, in presentation order.
DOCUMENTED = [
    ("repro.core", "The paper's two-phase framework"),
    ("repro.cluster", "Clustering substrate"),
    ("repro.metrics", "Proxy (transferability) scores"),
    ("repro.nn", "NumPy neural substrate and stacked (fused) kernels"),
    ("repro.zoo", "Simulated checkpoint repository"),
    ("repro.cache", "Content-hash artifact cache"),
    ("repro.sched", "Epoch-granular online scheduler"),
    ("repro.persist", "Crash-safe plan journals and session snapshots"),
    ("repro.store", "Memory-mapped matrix store"),
    ("repro.service", "Long-lived selection service"),
    ("repro.serving", "JSON serve front-end"),
    ("repro.distrib", "Multi-replica routed serving tier"),
]

GENERATED_NOTE = (
    "<!-- Generated by tools/gen_api_docs.py — do not edit by hand; "
    "run `make docs-api` to refresh. -->"
)


def _first_paragraph(doc: str) -> str:
    """First paragraph of a docstring, cleaned and joined to one block."""
    cleaned = inspect.cleandoc(doc)
    return cleaned.split("\n\n", 1)[0].strip()


def _public_symbols(module) -> List[str]:
    if hasattr(module, "__all__"):
        return list(module.__all__)
    names = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.ismodule(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        names.append(name)
    return sorted(names)


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _submodules(package) -> List[str]:
    if not hasattr(package, "__path__"):
        return [package.__name__]
    names = [package.__name__]
    for info in pkgutil.iter_modules(package.__path__):
        if not info.name.startswith("_"):
            names.append(f"{package.__name__}.{info.name}")
    return sorted(names)


def _is_type_alias(obj) -> bool:
    return type(obj).__module__ == "typing" or getattr(obj, "__module__", None) == "typing"


def _render_symbol(module, name: str) -> List[str]:
    obj = getattr(module, name)
    lines: List[str] = []
    if _is_type_alias(obj):
        lines.append(f"#### `{name}` (type alias)")
        lines.append("")
        return lines
    if inspect.isclass(obj):
        lines.append(f"#### `{name}{_signature(obj)}` (class)")
    elif callable(obj):
        lines.append(f"#### `{name}{_signature(obj)}`")
    else:
        lines.append(f"#### `{name}` (constant)")
    lines.append("")
    doc = inspect.getdoc(obj) if (inspect.isclass(obj) or callable(obj)) else None
    if doc:
        lines.append(_first_paragraph(doc))
        lines.append("")
    return lines


def _render_module(module_name: str) -> List[str]:
    module = importlib.import_module(module_name)
    lines = [f"### `{module_name}`", ""]
    if module.__doc__:
        lines.append(_first_paragraph(module.__doc__))
        lines.append("")
    symbols = _public_symbols(module)
    for name in symbols:
        if not hasattr(module, name):
            continue
        obj = getattr(module, name)
        if inspect.ismodule(obj):
            continue
        # Skip re-exports documented in their home module's own section.
        home = getattr(obj, "__module__", module_name)
        if (
            hasattr(module, "__path__")
            and isinstance(home, str)
            and home.startswith(module_name + ".")
        ):
            continue
        lines.extend(_render_symbol(module, name))
    return lines


def render_page(package_name: str, tagline: str) -> str:
    """Render one package's reference page."""
    package = importlib.import_module(package_name)
    lines = [
        GENERATED_NOTE,
        "",
        f"# `{package_name}` — {tagline}",
        "",
    ]
    for module_name in _submodules(package):
        lines.extend(_render_module(module_name))
    return "\n".join(lines).rstrip() + "\n"


def render_index() -> str:
    """Render the docs/api landing page."""
    lines = [
        GENERATED_NOTE,
        "",
        "# API reference",
        "",
        "Generated from the public docstrings by `make docs-api`; a CI check",
        "(`make docs-api-check`, part of `tests/docs`) keeps these pages in",
        "sync with the code.  Narrative documentation lives one level up in",
        "`docs/`.",
        "",
    ]
    for package_name, tagline in DOCUMENTED:
        page = package_name.split(".", 1)[1] + ".md"
        lines.append(f"- [`{package_name}`]({page}) — {tagline}")
    lines.append("")
    return "\n".join(lines)


def render_all() -> Dict[str, str]:
    """All pages as ``{relative filename: content}``."""
    pages = {"index.md": render_index()}
    for package_name, tagline in DOCUMENTED:
        pages[package_name.split(".", 1)[1] + ".md"] = render_page(
            package_name, tagline
        )
    return pages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify docs/api is current; exit 1 (listing stale files) if not",
    )
    args = parser.parse_args(argv)
    pages = render_all()
    if args.check:
        stale = []
        for name, content in pages.items():
            path = API_DIR / name
            if not path.exists() or path.read_text(encoding="utf-8") != content:
                stale.append(name)
        extra = sorted(
            p.name for p in API_DIR.glob("*.md") if p.name not in pages
        ) if API_DIR.exists() else []
        if stale or extra:
            for name in stale:
                print(f"stale or missing: docs/api/{name}")
            for name in extra:
                print(f"unexpected file: docs/api/{name}")
            print("run `make docs-api` and commit the result")
            return 1
        print(f"docs/api is current ({len(pages)} pages)")
        return 0
    API_DIR.mkdir(parents=True, exist_ok=True)
    for name, content in pages.items():
        (API_DIR / name).write_text(content, encoding="utf-8")
    for path in API_DIR.glob("*.md"):
        if path.name not in pages:
            path.unlink()
    print(f"wrote {len(pages)} pages to docs/api/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
