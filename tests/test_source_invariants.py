"""Invariants of the source tree, checked over its ``ast`` and comments.

PathDump's query-traffic figures are only honest if every byte on the
query path is a real codec frame and payloads are deterministic in every
mode, and the worker plane is only sound while its shared state stays
under its locks.  No runtime check sees those properties, so each is a
plain function over the source that returns its findings
(``"<path>:<line>: <message>"``) together with what it looked at, and a
test asserts the repo yields no finding and that the check saw its
subject (a wrong root must not pass by scanning nothing):

* **Lock discipline.**  An attribute initialised on a line commented
  ``# guarded-by: <lock>`` is touched, in its class's own methods, only
  inside ``with self.<lock>`` (or ``with self.<lock>(...)`` when the
  guard is a lock-returning method).  A method whose def line is
  commented ``# holds: <lock>`` runs with it held, and ``__init__`` is
  exempt.  Where other code may read a guarded attribute without the
  lock, the owning class's docstring says so once.  A ``# guarded-by:``
  comment on any other line guards nothing and is a finding itself.
* **No serializer on the query path.**  No ``pickle`` / ``marshal`` /
  ``shelve`` import or call in any module import-reachable from
  ``core/``: the wire codec is the only serializer there.
* **Determinism.**  No wall-clock read (``time.time()``,
  ``datetime.now()``, ...) and no process-global or unseeded ``random``
  in ``core/`` or ``storage/``; ``perf_counter`` / ``monotonic`` /
  ``sleep`` and ``random.Random(seed)`` stay legal.
* **Layering.**  ``storage/`` and the ``codec.py`` leaf import nothing
  from ``repro.core``.

The repo is scanned through ``src``, ``tests``, ``benchmarks`` and
``examples``.  Every check but layering also runs over a positive
fixture project under ``tests/lint_fixtures/<check>/`` (it must fire)
and a negative one (it must stay quiet); the fixtures are tiny trees
that mimic the real layout and are never part of a repo scan.
"""

import ast
import functools
import io
import re
import tokenize
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent
FIXTURES = TESTS_DIR / "lint_fixtures"

#: A checkout is scanned through these; anything else from its root.
SCANNED_DIRS = ("src", "tests", "benchmarks", "examples")
#: Path fragments never scanned (fixtures hold deliberate violations).
SKIPPED = ("lint_fixtures", "__pycache__", ".git")


class Source:
    """One python file of a scanned tree, parsed on first use."""

    def __init__(self, root, path):
        self.rel = path.relative_to(root).as_posix()
        self.parts = path.relative_to(root).parts
        self.name = path.name
        self.text = path.read_text(encoding="utf-8")

    @functools.cached_property
    def tree(self):
        return ast.parse(self.text, self.rel)

    @functools.cached_property
    def comments(self):
        """Line number -> comment text, from COMMENT tokens only (an
        annotation shown in a docstring is not an annotation)."""
        return {token.start[0]: token.string
                for token in tokenize.generate_tokens(
                    io.StringIO(self.text).readline)
                if token.type == tokenize.COMMENT}

    def at(self, line, message):
        return f"{self.rel}:{line}: {message}"


def sources(root):
    """Every scanned ``.py`` file under ``root``, sorted by path."""
    scan_roots = [root / part for part in SCANNED_DIRS
                  if (root / part).is_dir()] or [root]
    paths = {path for scan_root in scan_roots
             for path in scan_root.rglob("*.py")
             if not any(part in path.relative_to(root).as_posix()
                        for part in SKIPPED)}
    return tuple(Source(root, path) for path in sorted(paths))


def _self_attr(node, self_name="self"):
    """``X`` when ``node`` is ``<self_name>.X``, else ``None``."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == self_name:
        return node.attr
    return None


# ---------------------------------------------------------- lock discipline
_GUARDED = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")
_HOLDS = re.compile(r"#\s*holds:\s*([A-Za-z_][A-Za-z0-9_]*)")


def _guards(file, cls):
    """``{attr: (lock, line)}`` from ``# guarded-by:`` comments on
    attribute initialisations inside ``cls``."""
    guards = {}
    lines = file.text.splitlines()
    for number in range(cls.lineno, cls.end_lineno + 1):
        match = _GUARDED.search(file.comments.get(number, ""))
        if match is None:
            continue
        line = lines[number - 1]
        attr = re.search(r"self\.([A-Za-z_][A-Za-z0-9_]*)\s*(?::[^=]+)?=",
                         line) or \
            re.match(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*:[^=]+=", line)
        if attr is not None:
            guards[attr.group(1)] = (match.group(1), number)
    return guards


def _held(file, method):
    """The lock a ``# holds:`` comment on the def line(s) names, as a set."""
    header_end = method.body[0].lineno if method.body else method.lineno
    for number in range(method.lineno, header_end + 1):
        match = _HOLDS.search(file.comments.get(number, ""))
        if match is not None:
            return {match.group(1)}
    return set()


class _LockWalk(ast.NodeVisitor):
    """Walks one method, tracking the locks it lexically holds."""

    def __init__(self, file, cls_name, method, guards):
        args = method.args.posonlyargs + method.args.args
        self.me = args[0].arg if args else "self"
        self.file, self.cls_name, self.method = file, cls_name, method
        self.guards = guards
        self.held = _held(file, method)
        self.findings = []

    def visit_With(self, node):
        acquired = set()
        for item in node.items:
            expr = item.context_expr
            lock = _self_attr(expr.func if isinstance(expr, ast.Call)
                             else expr, self.me)
            if lock is not None:
                acquired.add(lock)
            self.visit(expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        self.held |= acquired
        for stmt in node.body:
            self.visit(stmt)
        self.held -= acquired

    visit_AsyncWith = visit_With

    def visit_Attribute(self, node):
        attr = _self_attr(node, self.me)
        if attr in self.guards and self.guards[attr][0] not in self.held:
            lock = self.guards[attr][0]
            self.findings.append(self.file.at(
                node.lineno,
                f"{self.cls_name}.{attr} is guarded-by {lock} but "
                f"{self.method.name}() touches it outside "
                f"'with self.{lock}'"))
        self.generic_visit(node)


def _check_class(file, cls, guards):
    """Findings of one class (``guards`` from :func:`_guards`): unknown
    guard locks, then unguarded touches."""
    if not guards:
        return []
    methods = {node.name: node for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assigned = {_self_attr(target) for node in ast.walk(cls)
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign)
                               else [node.target])}
    known = set(dir(object)) | set(methods) | assigned
    findings = [file.at(line, f"guarded-by names unknown lock {lock!r} "
                              f"(not an attribute or method of {cls.name})")
                for lock, line in sorted(guards.values()) if lock not in known]
    for name, method in methods.items():
        if name != "__init__":
            walk = _LockWalk(file, cls.name, method, guards)
            walk.visit(method)
            findings += walk.findings
    return findings


def lock_discipline(files):
    """Findings, and the ``(path, line)`` of every annotation read.  A
    ``# guarded-by:`` comment that attaches to no attribute initialisation
    of a class (one on a continuation line, say) is a finding too: it
    would guard nothing."""
    findings, annotations = [], []
    for file in files:
        if "guarded-by" not in file.text:
            continue  # no guard, so nothing in the file can break one
        annotations += [(file.rel, number)
                        for number, comment in file.comments.items()
                        if _GUARDED.search(comment) or _HOLDS.search(comment)]
        attached = set()
        for node in ast.walk(file.tree):
            if isinstance(node, ast.ClassDef):
                guards = _guards(file, node)
                attached.update(line for _lock, line in guards.values())
                findings += _check_class(file, node, guards)
        findings += [
            file.at(number, f"'{match.group(0)}' is on no attribute "
                            f"initialisation of a class, so it guards "
                            f"nothing")
            for number, comment in sorted(file.comments.items())
            for match in [_GUARDED.search(comment)]
            if match is not None and number not in attached]
    return findings, annotations


# ------------------------------------------------- no serializer from core/
_SERIALIZERS = frozenset({"pickle", "cPickle", "marshal", "shelve"})


def _module_name(file):
    """Dotted module name, any leading ``src/`` stripped."""
    parts = list(file.parts[1:] if file.parts[0] == "src" else file.parts)
    parts[-1] = parts[-1][:-len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(tree):
    """Every absolute module name the tree imports; ``from pkg import
    name`` also yields ``pkg.name``, which may be a submodule."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}"
                         for alias in node.names)
    return names


def _query_path(files):
    """Scanned module names import-reachable from any ``core/`` module."""
    by_module = {_module_name(file): file for file in files}
    queue = [name for name, file in by_module.items() if "core" in file.parts]
    seen = set()
    while queue:
        name = queue.pop()
        if name in seen or name not in by_module:
            continue
        seen.add(name)
        for imported in _imports(by_module[name].tree):
            # ``from repro.core import wire`` names the package first.
            parts = imported.split(".")
            for cut in range(len(parts), 0, -1):
                if ".".join(parts[:cut]) in by_module:
                    queue.append(".".join(parts[:cut]))
                    break
    return seen


def no_serializer_on_query_path(files):
    """Findings, and the query path's module names."""
    reachable = _query_path(files)
    findings = []
    for file in files:
        if _module_name(file) not in reachable:
            continue
        aliases = set()
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _SERIALIZERS:
                        aliases.add(alias.asname or root)
                        findings.append(file.at(
                            node.lineno, f"import of {alias.name!r} on the "
                                         f"query path (reachable from core/)"))
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] in _SERIALIZERS:
                findings.append(file.at(
                    node.lineno, f"import from {node.module!r} on the query "
                                 f"path (reachable from core/)"))
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in aliases:
                findings.append(file.at(
                    node.lineno, f"call into serializer module "
                                 f"{node.value.id!r} on the query path"))
    return findings, reachable


# -------------------------------------------------------------- determinism
_WALL_CLOCK = {
    ("time", "time"): "time.time()",
    ("datetime", "now"): "datetime.now()",
    ("datetime", "utcnow"): "datetime.utcnow()",
    ("date", "today"): "date.today()",
}

#: Module-level functions of ``random`` (the shared, unseeded generator).
_GLOBAL_RANDOM = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "getrandbits", "gauss", "normalvariate",
    "betavariate", "expovariate", "triangular", "seed",
})


def determinism(files):
    """Findings, and the paths of every file in scope."""
    findings, visited = [], []
    for file in files:
        if not {"core", "storage"} & set(file.parts):
            continue
        visited.append(file.rel)
        for node in ast.walk(file.tree):
            if not (isinstance(node, ast.Call) and
                    isinstance(node.func, ast.Attribute) and
                    isinstance(node.func.value, ast.Name)):
                continue
            owner, attr = node.func.value.id, node.func.attr
            if (owner, attr) in _WALL_CLOCK:
                findings.append(file.at(
                    node.lineno, f"wall-clock read {_WALL_CLOCK[owner, attr]}"
                                 f" in payload-affecting module (breaks "
                                 f"cross-mode payload identity)"))
            elif owner == "random" and attr in _GLOBAL_RANDOM:
                findings.append(file.at(
                    node.lineno, f"random.{attr}() uses the process-global "
                                 f"unseeded generator; use a seeded "
                                 f"random.Random(seed) instance"))
            elif owner == "random" and attr == "Random" and \
                    not node.args and not node.keywords:
                findings.append(file.at(
                    node.lineno, "random.Random() without a seed is "
                                 "non-reproducible; pass an explicit seed"))
    return findings, visited


# -------------------------------------------------------------------- tests
CHECKS = {"R3": lock_discipline, "R4": no_serializer_on_query_path,
          "R5": determinism}

#: Fixture dir -> (positive finding count, message fragments that must each
#: appear in some positive finding).
POSITIVE_EXPECTATIONS = {
    "R3": (2, ["touches it outside", "unknown lock '_missing'"]),
    "R4": (2, ["import of 'pickle'", "call into serializer"]),
    "R5": (4, ["time.time()", "datetime.now()", "random.random()",
               "without a seed"]),
}


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_check_fires_on_positive_fixture(check):
    count, fragments = POSITIVE_EXPECTATIONS[check]
    findings, _ = CHECKS[check](sources(FIXTURES / check / "positive"))
    assert len(findings) == count, findings
    for fragment in fragments:
        assert any(fragment in finding for finding in findings), fragment


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_check_quiet_on_negative_fixture(check):
    findings, _ = CHECKS[check](sources(FIXTURES / check / "negative"))
    assert findings == []


#: The modules holding every ``# guarded-by`` / ``# holds`` annotation.
LOCKED_MODULES = {"cluster.py", "executor.py", "groupserver.py",
                  "supervisor.py", "tib.py"}


@pytest.fixture(scope="module")
def repo():
    """The checkout's sources, parsed once for this module's tests."""
    return sources(REPO_ROOT)


def test_guarded_state_is_touched_only_under_its_lock(repo):
    findings, annotations = lock_discipline(repo)
    assert findings == []
    assert sum(Path(rel).name in LOCKED_MODULES
               for rel, _ in annotations) >= 32, annotations


def test_no_serializer_is_reachable_from_core(repo):
    findings, reachable = no_serializer_on_query_path(repo)
    assert findings == []
    assert {"repro.core.wire", "repro.storage.segment"} <= reachable


def test_payload_code_reads_no_wall_clock_or_global_random(repo):
    findings, visited = determinism(repo)
    assert findings == []
    package = REPO_ROOT / "src" / "repro"
    assert {path.relative_to(REPO_ROOT).as_posix()
            for sub in ("core", "storage")
            for path in (package / sub).rglob("*.py")} <= set(visited)


def test_fixtures_are_excluded_from_repo_scans(repo):
    assert not any("lint_fixtures" in file.rel for file in repo)


def test_annotations_in_docstrings_are_not_annotations(tmp_path):
    (tmp_path / "pool.py").write_text(
        'import threading\n\n\n'
        'class Pool:\n'
        '    """Example: ``self.inflight = 0  # guarded-by: _lock``."""\n\n'
        '    def __init__(self):\n'
        '        self._lock = threading.Lock()\n'
        '        self.inflight = 0\n'
        '        """self.inflight = 0  # guarded-by: _lock"""\n\n'
        '    def bump(self):\n'
        '        self.inflight += 1\n')
    assert lock_discipline(sources(tmp_path)) == ([], [])


def _tree(root, files):
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return sources(root)


def test_a_lock_is_released_when_its_with_block_ends(tmp_path):
    findings, _ = lock_discipline(_tree(tmp_path, {"pool.py": (
        "class Pool:\n"
        "    def __init__(self):\n"
        "        self._lock = None\n"
        "        self.n = 0  # guarded-by: _lock\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self.n += 1\n"
        "        return self.n\n")}))
    assert [f.split(": ", 1)[0] for f in findings] == ["pool.py:8"]


def test_a_guard_that_attaches_to_nothing_is_reported(tmp_path):
    """A guard on a continuation line, or outside any class, guards
    nothing, so it is a finding."""
    findings, annotations = lock_discipline(_tree(tmp_path, {"pool.py": (
        "LIMIT = 3  # guarded-by: _lock\n"
        "class Pool:\n"
        "    def __init__(self):\n"
        "        self._lock = None\n"
        "        self.conn = make(\n"
        "            self)  # guarded-by: _lock\n"
        "        self.n = 0  # guarded-by: _lock\n"
        "    def peek(self):\n"
        "        return self.conn\n")}))
    assert [f.split(": ", 1)[0] for f in findings] == \
        ["pool.py:1", "pool.py:6"]
    assert all("'# guarded-by: _lock' is on no attribute initialisation"
               in finding for finding in findings)
    assert len(annotations) == 3


def test_serializer_reached_through_a_from_imported_submodule(tmp_path):
    findings, reachable = no_serializer_on_query_path(_tree(tmp_path, {
        "core/engine.py": "from util import ser\n",
        "util/__init__.py": "",
        "util/ser.py": "from pickle import loads\n",
        "offline/dump.py": "import pickle\n"}))
    assert reachable == {"core.engine", "util", "util.ser"}
    assert findings == ["util/ser.py:1: import from 'pickle' on the query "
                        "path (reachable from core/)"]


def test_storage_is_in_determinism_scope_and_a_keyword_seed_is_a_seed(
        tmp_path):
    findings, visited = determinism(_tree(tmp_path, {
        "storage/seg.py": "import random, time\n"
                          "rng = random.Random(seed=3)\nstamp = time.time()\n",
        "tools/gen.py": "import time\nstamp = time.time()\n"}))
    assert visited == ["storage/seg.py"]
    assert len(findings) == 1 and "seg.py:3: wall-clock" in findings[0]


def test_storage_and_codec_import_nothing_from_core():
    """``core/`` imports ``storage/``, so ``storage/`` - and the byte
    primitives it shares with the frame codec - import nothing from
    ``repro.core``: not at module top, not inside a function."""
    package = REPO_ROOT / "src" / "repro"
    offenders = []
    for path in sorted(package.glob("storage/*.py")) + [
            package / "codec.py"]:
        parent = path.parent.relative_to(package.parent).parts
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = parent[:len(parent) - node.level + 1] \
                    if node.level else ()
                modules = [".".join(base + tuple(
                    filter(None, [node.module])))]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}" for module in modules
                          if (module + ".").startswith("repro.core.")]
    assert offenders == []
