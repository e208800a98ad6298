"""R6 - deprecation: no internal caller of DeprecationWarning-marked APIs.

A deprecated wrapper kept alive for a migration window gives external
users time to move - but internal code keeping the old spelling alive
defeats the point and hides the day the wrapper can be deleted.  The rule
finds every function or method that itself issues a ``DeprecationWarning``
(the repo's marker for a deprecated API) and flags calls to those names
from ``src/``, ``benchmarks/`` and ``examples/``.  Tests are exempt: the
deprecation contract itself is tested there
(``pytest.warns(DeprecationWarning)``), which requires calling the
deprecated API on purpose.

Receivers named ``re``/``regex``/``pattern`` are ignored for method-name
collisions (``re.search`` is not a deprecated ``search`` method).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.lint.framework import (Finding, Project, Rule,
                                           SourceFile, register)

#: Receiver names whose same-named methods are unrelated stdlib APIs.
_COLLISION_RECEIVERS = frozenset({"re", "regex", "pattern"})


def _issues_deprecation_warning(func: ast.AST) -> bool:
    """Whether the function body raises/warns a DeprecationWarning."""
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and \
                node.id == "DeprecationWarning":
            return True
        if isinstance(node, ast.Attribute) and \
                node.attr == "DeprecationWarning":
            return True
    return False


def _deprecated_names(project: Project) -> Dict[str, List[str]]:
    """``{name: [qualified definition sites]}`` of deprecated APIs."""
    out: Dict[str, List[str]] = {}
    for file in project:
        if file.tree is None or "src" not in file.segments():
            continue
        for node in ast.walk(file.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and _issues_deprecation_warning(node):
                out.setdefault(node.name, []).append(
                    f"{file.rel}:{node.lineno}")
    return out


def _in_scope(file: SourceFile) -> bool:
    first = file.segments()[0] if file.segments() else ""
    return first in ("src", "benchmarks", "examples")


@register
class NoDeprecatedCallers(Rule):
    id = "R6"
    name = "deprecation"
    doc = ("No internal caller (src/, benchmarks/, examples/) of an API "
           "that issues DeprecationWarning - internal code migrates, "
           "only the compatibility tests exercise the old spelling.")

    def check(self, project: Project) -> Iterable[Finding]:
        deprecated = _deprecated_names(project)
        if not deprecated:
            return
        for file in project:
            if file.tree is None or not _in_scope(file):
                continue
            for node in ast.walk(file.tree):
                if not isinstance(node, ast.Call):
                    continue
                name: Optional[str] = None
                if isinstance(node.func, ast.Attribute):
                    receiver = node.func.value
                    if isinstance(receiver, ast.Name) and (
                            receiver.id.lower() in _COLLISION_RECEIVERS or
                            receiver.id.lower().endswith(
                                ("_re", "_pattern", "_regex"))):
                        continue
                    # The deprecated wrapper's own body delegating to the
                    # new API is fine; a wrapper calling *itself* is not
                    # how these are written, so no self-exemption needed.
                    name = node.func.attr
                elif isinstance(node.func, ast.Name):
                    name = node.func.id
                if name in deprecated:
                    sites = ", ".join(deprecated[name])
                    yield self.finding(
                        file, node.lineno,
                        f"call to deprecated {name}() (deprecated at "
                        f"{sites}); migrate to the replacement API")
