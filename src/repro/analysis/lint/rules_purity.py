"""R4 + R5 - purity of the query/wire path.

R4 (no-pickle-on-query-path): PR 3's headline property is that every byte
crossing the wire is a real struct-packed frame - "no pickle on the query
path" is asserted in the wire module's docstring but was never checked.
The rule computes the import-reachability closure of the ``core/``
package inside the project and flags any ``pickle``/``marshal``/
``shelve`` import (or aliased call) in it: one convenience
``pickle.dumps`` in a helper pulled in by the executor silently turns
measured traffic into fiction and reopens the arbitrary-deserialization
surface the codec closed.

R5 (determinism): serial mode and the ``process`` and ``socket`` worker
modes must produce byte-identical payloads, and chaos runs must
reproduce seed-for-seed.
That dies the moment payload-producing or result-merging code reads the
wall clock (``time.time()``, ``datetime.now()``) or the process-global
``random`` generator (unseeded).  The rule covers ``core/`` and
``storage/``; simulators, workloads and other driver code are out of
scope by construction (they feed inputs in, they don't shape payloads).
``time.perf_counter``/``time.monotonic``/``time.sleep`` stay legal -
measuring and pacing are not payload.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.lint.framework import (Finding, Project, Rule,
                                           SourceFile, register)

_SERIALIZER_MODULES = frozenset({"pickle", "cPickle", "marshal", "shelve"})

#: Wall-clock reads that break cross-mode payload identity.
_WALL_CLOCK_CALLS = {
    ("time", "time"): "time.time()",
    ("datetime", "now"): "datetime.now()",
    ("datetime", "utcnow"): "datetime.utcnow()",
    ("date", "today"): "date.today()",
}

#: Module-level functions of ``random`` (the shared, unseeded generator).
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "getrandbits", "gauss", "normalvariate",
    "betavariate", "expovariate", "triangular", "seed",
})


def _module_name(file: SourceFile) -> str:
    """Dotted module name of ``file`` relative to the project (with any
    leading ``src/`` stripped), e.g. ``repro.core.tib``."""
    parts = list(file.segments())
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imported_modules(file: SourceFile) -> Set[str]:
    """Every dotted module name ``file`` imports (absolute names only -
    the repo style is absolute imports)."""
    out: Set[str] = set()
    if file.tree is None:
        return out
    for node in ast.walk(file.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.add(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.level == 0:
            out.add(node.module)
            # ``from pkg import name`` may name a submodule.
            for alias in node.names:
                out.add(f"{node.module}.{alias.name}")
    return out


def _reachable_from_core(project: Project) -> Set[str]:
    """Project module names reachable (by import) from any ``core/``
    module - the query/wire path closure."""
    by_module: Dict[str, SourceFile] = {}
    for file in project:
        by_module[_module_name(file)] = file
    roots = [name for name, file in by_module.items()
             if "core" in file.segments()]
    seen: Set[str] = set()
    queue = list(roots)
    while queue:
        name = queue.pop()
        if name in seen or name not in by_module:
            continue
        seen.add(name)
        for imported in _imported_modules(by_module[name]):
            if imported in by_module:
                queue.append(imported)
            else:
                # ``from repro.core import wire`` resolves the package;
                # also try the parent packages of dotted names.
                parts = imported.split(".")
                for cut in range(len(parts), 0, -1):
                    prefix = ".".join(parts[:cut])
                    if prefix in by_module:
                        queue.append(prefix)
                        break
    return seen


@register
class NoPickleOnQueryPath(Rule):
    id = "R4"
    name = "no-pickle-on-query-path"
    doc = ("No pickle/marshal/shelve import or call in any module "
           "reachable from core/ - the wire codec is the only "
           "serializer on the query path.")

    def check(self, project: Project) -> Iterable[Finding]:
        reachable = _reachable_from_core(project)
        for file in project:
            if file.tree is None or _module_name(file) not in reachable:
                continue
            banned_aliases: Set[str] = set()
            for node in ast.walk(file.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        root = alias.name.split(".")[0]
                        if root in _SERIALIZER_MODULES:
                            banned_aliases.add(alias.asname or root)
                            yield self.finding(
                                file, node.lineno,
                                f"import of {alias.name!r} on the query "
                                f"path (reachable from core/)")
                elif isinstance(node, ast.ImportFrom) and node.module and \
                        node.module.split(".")[0] in _SERIALIZER_MODULES:
                    yield self.finding(
                        file, node.lineno,
                        f"import from {node.module!r} on the query path "
                        f"(reachable from core/)")
                elif isinstance(node, ast.Attribute) and \
                        isinstance(node.value, ast.Name) and \
                        node.value.id in banned_aliases:
                    yield self.finding(
                        file, node.lineno,
                        f"call into serializer module "
                        f"{node.value.id!r} on the query path")


def _in_scope(file: SourceFile) -> bool:
    segments = set(file.segments())
    return bool({"core", "storage"} & segments)


@register
class Determinism(Rule):
    id = "R5"
    name = "determinism"
    doc = ("No time.time()/datetime.now()/unseeded global random in "
           "core/ or storage/ (payload-producing and result-merging "
           "code); perf_counter/monotonic/sleep and seeded "
           "random.Random(seed) instances stay legal.")

    def check(self, project: Project) -> Iterable[Finding]:
        for file in project:
            if file.tree is None or not _in_scope(file):
                continue
            for node in ast.walk(file.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (isinstance(func, ast.Attribute) and
                        isinstance(func.value, ast.Name)):
                    continue
                owner, attr = func.value.id, func.attr
                if (owner, attr) in _WALL_CLOCK_CALLS:
                    yield self.finding(
                        file, node.lineno,
                        f"wall-clock read "
                        f"{_WALL_CLOCK_CALLS[(owner, attr)]} in "
                        f"payload-affecting module (breaks cross-mode "
                        f"payload identity)")
                elif owner == "random" and attr in _GLOBAL_RANDOM_FNS:
                    yield self.finding(
                        file, node.lineno,
                        f"random.{attr}() uses the process-global "
                        f"unseeded generator; use a seeded "
                        f"random.Random(seed) instance")
                elif owner == "random" and attr == "Random" and \
                        not node.args and not node.keywords:
                    yield self.finding(
                        file, node.lineno,
                        "random.Random() without a seed is "
                        "non-reproducible; pass an explicit seed")
