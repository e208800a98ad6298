"""R3 - lock-discipline: guarded attributes only touched under their lock.

The worker plane is the one genuinely concurrent part of the codebase:
caller threads share each group's connection and the pool's stats with
that connection's reader thread, and the supervisor/chaos hooks run on
whichever thread detected a failure.  The discipline (each connection's
``_lock``/``_send_lock``, each group slot's ``lock``, the pool's
``_stats_lock``, the supervisor's ``_lock``) is easy to break silently: a
stats bump outside ``_stats_lock`` or an outbox write outside the send
lock is a race that only shows up as corrupt byte accounting or
interleaved frames under load.

The contract is declared in the source itself:

* ``self.attr = ...  # guarded-by: _lock`` on the attribute's
  initialisation line declares that every later access to ``self.attr``
  in that class must sit inside ``with self._lock:`` (or
  ``with self._lock(...):`` when the guard is a lock-returning method).
* ``def method(self):  # holds: _lock`` declares a caller-must-hold
  method: its body is treated as already inside the lock (internals
  documented as "called with the lock held").

``__init__`` is exempt (no concurrency before construction completes).
The rule checks the owning class's own methods; where other code may
read a guarded attribute without the lock (racy-by-contract probes,
teardown), the owning class's docstring states that contract once -
the pool's ``_Group`` slot is the example - instead of a suppression per
line.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.lint.framework import (Finding, Project, Rule,
                                           SourceFile, class_defs,
                                           methods_of, register, self_attr)

_GUARDED_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")
_HOLDS_RE = re.compile(r"#\s*holds:\s*([A-Za-z_][A-Za-z0-9_]*)")


def _guard_annotations(file: SourceFile,
                       cls: ast.ClassDef) -> Dict[str, Tuple[str, int]]:
    """``{attr: (lock, lineno)}`` from ``# guarded-by:`` comments on
    attribute initialisations inside the class body."""
    guards: Dict[str, Tuple[str, int]] = {}
    last_line = max((node.end_lineno or node.lineno
                     for node in ast.walk(cls)
                     if hasattr(node, "lineno")), default=cls.lineno)
    for number in range(cls.lineno, last_line + 1):
        comment = file.comments.get(number)
        if comment is None or number > len(file.lines):
            continue
        match = _GUARDED_RE.search(comment)
        if match is None:
            continue
        line = file.lines[number - 1]
        attr_match = re.search(
            r"self\.([A-Za-z_][A-Za-z0-9_]*)\s*(?::[^=]+)?=", line)
        if attr_match is None:
            attr_match = re.match(
                r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*:[^=]+=", line)
        if attr_match is not None:
            guards[attr_match.group(1)] = (match.group(1), number)
    return guards


def _held_lock(file: SourceFile, func: ast.FunctionDef) -> Optional[str]:
    """The lock named by a ``# holds:`` annotation on the def line(s)."""
    header_end = func.body[0].lineno if func.body else func.lineno
    for number in range(func.lineno, header_end + 1):
        comment = file.comments.get(number)
        if comment is None:
            continue
        match = _HOLDS_RE.search(comment)
        if match is not None:
            return match.group(1)
    return None


def _with_locks(node: ast.With, self_name: str) -> Set[str]:
    """Lock attribute/method names acquired by this ``with``."""
    locks: Set[str] = set()
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            expr = expr.func
        attr = self_attr(expr, self_name)
        if attr is not None:
            locks.add(attr)
    return locks


class _AccessChecker(ast.NodeVisitor):
    """Walks one method tracking which locks are lexically held."""

    def __init__(self, rule: "LockDiscipline", file: SourceFile,
                 cls_name: str, method: ast.FunctionDef,
                 guards: Dict[str, Tuple[str, int]], self_name: str,
                 held: Set[str]) -> None:
        self.rule = rule
        self.file = file
        self.cls_name = cls_name
        self.method = method
        self.guards = guards
        self.self_name = self_name
        self.held = set(held)
        self.findings: List[Finding] = []

    def visit_With(self, node: ast.With) -> None:
        acquired = _with_locks(node, self.self_name)
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        self.held |= acquired
        for stmt in node.body:
            self.visit(stmt)
        self.held -= acquired

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = self_attr(node, self.self_name)
        if attr is not None and attr in self.guards:
            lock, _ = self.guards[attr]
            if lock not in self.held:
                self.findings.append(self.rule.finding(
                    self.file, node.lineno,
                    f"{self.cls_name}.{attr} is guarded-by {lock} but "
                    f"{self.method.name}() touches it outside "
                    f"'with self.{lock}'"))
        self.generic_visit(node)


@register
class LockDiscipline(Rule):
    id = "R3"
    name = "lock-discipline"
    doc = ("Attributes annotated '# guarded-by: <lock>' may only be "
           "touched inside 'with self.<lock>' (methods annotated "
           "'# holds: <lock>' are treated as called with it held; "
           "__init__ is exempt).")

    def check(self, project: Project) -> Iterable[Finding]:
        for file in project:
            if file.tree is None:
                continue
            for cls in class_defs(file):
                guards = _guard_annotations(file, cls)
                if not guards:
                    continue
                members = {name for name in dir(object)} | \
                    set(methods_of(cls))
                for attr, (lock, line) in sorted(guards.items()):
                    if lock not in self._class_attrs(cls) and \
                            lock not in members:
                        yield self.finding(
                            file, line,
                            f"guarded-by names unknown lock {lock!r} "
                            f"(not an attribute or method of {cls.name})")
                for name, method in methods_of(cls).items():
                    if name == "__init__":
                        continue
                    held: Set[str] = set()
                    holds = _held_lock(file, method)
                    if holds is not None:
                        held.add(holds)
                    checker = _AccessChecker(self, file, cls.name, method,
                                             guards, self._self_name(method),
                                             held)
                    checker.visit(method)
                    yield from checker.findings

    @staticmethod
    def _self_name(method: ast.FunctionDef) -> str:
        args = method.args.posonlyargs + method.args.args
        return args[0].arg if args else "self"

    @staticmethod
    def _class_attrs(cls: ast.ClassDef) -> Set[str]:
        """Attributes assigned anywhere on self in the class (for
        validating that a guard names a real lock)."""
        attrs: Set[str] = set()
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    attr = self_attr(target)
                    if attr is not None:
                        attrs.add(attr)
        return attrs
