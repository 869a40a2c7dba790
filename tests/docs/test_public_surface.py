"""Guard against public definitions that nothing in ``src/`` reaches.

An ``ast`` walk of ``src/repro`` collects every public (non-underscore)
module-level function and class and every public method or property of a
class.  A definition is *reached* when its name is used as a whole word
anywhere in ``src/`` outside its own ``def``/``class`` header, import
statements and ``__all__`` lists, so a package re-export does not keep a
dead name alive.  Docstrings and comments do count as uses.

Every unreached definition must be on ``ALLOWLIST`` with a reason.  An
allowlisted definition that has been deleted, or that ``src/`` reaches
again, fails the check too, so the list only ever names live exceptions.
``make docs-check`` runs this module.
"""

from __future__ import annotations

import ast
import pathlib
import re
from typing import Dict, List, Set, Tuple

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: ``module:qualname`` -> why the definition stays although ``src/`` never
#: calls it.
ALLOWLIST: Dict[str, str] = {
    "repro.core.performance:PerformanceMatrix.from_json": (
        "inverse of to_json; waits on the ROADMAP's build-once item"
    ),
    "repro.data.workloads:cv_suite": (
        "examples/cv_model_selection.py builds its workload with it"
    ),
    "repro.experiments.table2_cluster_membership:run_summary": (
        "benchmarks/bench_table2_membership.py runs it"
    ),
    "repro.metrics.registry:register_scorer": (
        "examples/custom_proxy_score.py plugs a scorer in with it"
    ),
    "repro.persist.hooks:remove_hook": (
        "benchmarks/bench_resume.py and docs/persistence.md uninstall a hook"
    ),
    "repro.persist.hooks:clear_hooks": (
        "the fault-injection conftest's reset between tests"
    ),
    "repro.service:SelectionService.cluster_summary": (
        "examples/quickstart.py prints it"
    ),
}

_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _excluded_lines(tree: ast.Module) -> Set[int]:
    """Line numbers of import statements and ``__all__`` assignments."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _definitions(body, prefix: str = "") -> List[Tuple[str, ast.AST]]:
    """``(qualname, node)`` of the module- and class-level definitions."""
    found = []
    for node in body:
        if isinstance(node, _DEFINITION):
            found.append((prefix + node.name, node))
            if isinstance(node, ast.ClassDef):
                found.extend(_definitions(node.body, f"{prefix}{node.name}."))
    return found


def scan() -> Tuple[Set[str], Set[str]]:
    """``(public definitions, unreached ones)`` as ``module:qualname`` keys."""
    public: Dict[str, str] = {}
    words: Set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        lines = path.read_text(encoding="utf-8").splitlines()
        tree = ast.parse("\n".join(lines))
        excluded = _excluded_lines(tree)
        headers: Dict[int, str] = {}
        for qualname, node in _definitions(tree.body):
            headers[node.lineno] = node.name
            if not node.name.startswith("_"):
                public[f"{module}:{qualname}"] = node.name
        for number, line in enumerate(lines, 1):
            if number in excluded:
                continue
            if number in headers:
                # Keep the header's bases, decorators and defaults.
                pattern = r"\b(def|class)\s+%s\b" % re.escape(headers[number])
                line = re.sub(pattern, "", line, count=1)
            words.update(re.findall(r"\w+", line))
    unreached = {key for key, name in public.items() if name not in words}
    return set(public), unreached


def test_every_unreached_public_definition_is_allowlisted():
    _, unreached = scan()
    unexpected = sorted(unreached - set(ALLOWLIST))
    assert not unexpected, (
        "public definitions that nothing in src/ uses (delete them with "
        "their tests, or allowlist them with a reason): " + ", ".join(unexpected)
    )


def test_allowlist_names_only_live_unreached_definitions():
    public, unreached = scan()
    stale = sorted(set(ALLOWLIST) - unreached)
    assert not stale, (
        "allowlisted definitions that are gone or now reached from src/ "
        "(drop them from ALLOWLIST): " + ", ".join(stale)
    )
    assert set(ALLOWLIST) <= public
