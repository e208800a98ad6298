"""Core machinery of ``repro-lint``, the repo's invariant analyzer.

The codebase's correctness rests on conventions that no generic linter
knows about: worker pipe state must only be touched under its exchange lock;
the query path must never import pickle; payload-producing code must stay
deterministic.  Each of those was a real bug class fixed by
hand in PRs 3-7.  This module provides the scaffolding the rule suite
(``rules_*.py``) plugs into:

* :class:`SourceFile` / :class:`Project` - the parsed view of the tree
  (source text, AST, per-line suppressions), loaded once and shared by
  every rule.
* :class:`Rule` + :func:`register` - the per-rule registry.  A rule sees
  the whole project, so cross-file invariants (ScanSpec vs both tier
  scans) are first-class.
* :class:`Finding` - one violation: file, line, rule id, message.
* Suppressions - ``# lint: disable=R3 -- why`` on the offending line.
  The justification is mandatory and suppressions must actually match a
  finding; rule :data:`SUPPRESSION_RULE_ID` enforces both, so the
  committed suppression set stays honest.
* :func:`run_lint` - runs the rules, applies suppressions, and returns a
  :class:`LintReport` with the exit-code contract (0 clean, 1 findings,
  2 internal/usage error).
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple, Type)

#: Exit-code contract of the CLI (and of :meth:`LintReport.exit_code`).
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

#: The meta-rule enforcing suppression hygiene (implemented here, not in a
#: rules module): every ``# lint: disable`` must name a known rule, carry
#: a ``-- justification``, and actually suppress something.
SUPPRESSION_RULE_ID = "R0"

#: Directories scanned when the project root is a repo checkout.
DEFAULT_INCLUDE = ("src", "tests", "benchmarks", "examples")

#: Path fragments never scanned (fixtures deliberately contain
#: violations; caches are not source).
DEFAULT_EXCLUDE = ("lint_fixtures", "__pycache__", ".git")

_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+?)"
    r"(?:\s+--\s*(?P<why>.*\S))?\s*$")


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file and line."""

    rule: str
    file: str
    line: int
    message: str

    def sort_key(self) -> Tuple[str, int, str]:
        return (self.file, self.line, self.rule)

    def to_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "file": self.file, "line": self.line,
                "message": self.message}

    def render(self) -> str:
        return f"{self.file}:{self.line}: {self.rule} {self.message}"


@dataclass
class Suppression:
    """One ``# lint: disable=RULE -- why`` comment occurrence."""

    rule: str
    file: str
    line: int
    justification: str
    used: bool = False


class SourceFile:
    """One parsed python file: text, AST and suppression comments."""

    def __init__(self, root: Path, path: Path) -> None:
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.text = path.read_text(encoding="utf-8")
        self.lines: List[str] = self.text.splitlines()
        self.syntax_error: Optional[str] = None
        try:
            self.tree: Optional[ast.Module] = ast.parse(self.text)
        except SyntaxError as error:
            self.tree = None
            self.syntax_error = f"{type(error).__name__}: {error.msg}"
        #: line number -> comment text (real COMMENT tokens only, so
        #: pragma examples inside docstrings never count).
        self.comments: Dict[int, str] = {}
        try:
            for token in tokenize.generate_tokens(
                    io.StringIO(self.text).readline):
                if token.type == tokenize.COMMENT:
                    self.comments[token.start[0]] = token.string
        except (tokenize.TokenError, IndentationError, SyntaxError):
            pass  # unparseable files surface via syntax_error instead
        #: line number -> {rule id -> justification (may be empty)}.
        self.suppressions: Dict[int, Dict[str, str]] = {}
        for number, comment in self.comments.items():
            match = _SUPPRESS_RE.search(comment)
            if match is None:
                continue
            rules = [part.strip() for part in match.group(1).split(",")]
            why = match.group("why") or ""
            entry = self.suppressions.setdefault(number, {})
            for rule in rules:
                if rule:
                    entry[rule] = why

    @property
    def name(self) -> str:
        """Base file name (rules locate targets by name, so fixture
        projects can mimic the real layout with tiny files)."""
        return self.path.name

    def is_suppressed(self, rule: str, line: int) -> bool:
        return rule in self.suppressions.get(line, {})

    def segments(self) -> Tuple[str, ...]:
        """Path segments of the project-relative path (for scoping rules
        to packages like ``core`` or ``storage``)."""
        return tuple(Path(self.rel).parts)


class Project:
    """Every scanned source file, loaded once and shared by the rules."""

    def __init__(self, root: Path, files: Sequence[SourceFile]) -> None:
        self.root = root
        self.files: List[SourceFile] = sorted(files, key=lambda f: f.rel)
        self._by_name: Dict[str, List[SourceFile]] = {}
        for file in self.files:
            self._by_name.setdefault(file.name, []).append(file)

    @classmethod
    def load(cls, root: Path,
             include: Sequence[str] = DEFAULT_INCLUDE,
             exclude: Sequence[str] = DEFAULT_EXCLUDE) -> "Project":
        """Scan ``root`` for python files.

        A repo checkout is scanned through its ``include`` directories;
        anything else (a fixture project, a bare package) is scanned
        recursively from the root itself.
        """
        root = root.resolve()
        scan_roots = [root / part for part in include
                      if (root / part).is_dir()]
        if not scan_roots:
            scan_roots = [root]
        paths: Set[Path] = set()
        for scan_root in scan_roots:
            for path in scan_root.rglob("*.py"):
                rel = path.relative_to(root).as_posix()
                if any(part in rel for part in exclude):
                    continue
                paths.add(path)
        return cls(root, [SourceFile(root, path) for path in sorted(paths)])

    def files_named(self, name: str) -> List[SourceFile]:
        """Files whose base name is ``name`` (e.g. ``records.py``)."""
        return list(self._by_name.get(name, []))

    def file_named(self, name: str,
                   prefer_segment: Optional[str] = None
                   ) -> Optional[SourceFile]:
        """The file named ``name``; with several, prefer the one whose
        path contains ``prefer_segment`` (``core``, ``storage``, ...)."""
        candidates = self.files_named(name)
        if not candidates:
            return None
        if prefer_segment is not None:
            for file in candidates:
                if prefer_segment in file.segments():
                    return file
        return candidates[0]

    def in_package(self, *segments: str) -> List[SourceFile]:
        """Files whose relative path contains any of ``segments``."""
        wanted = set(segments)
        return [file for file in self.files
                if wanted & set(file.segments())]

    def __iter__(self) -> Iterator[SourceFile]:
        return iter(self.files)


class Rule:
    """One invariant check.  Subclasses see the whole project."""

    id: str = ""
    name: str = ""
    #: One-line description for ``--list-rules`` and the README catalog.
    doc: str = ""

    def check(self, project: Project) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, file: SourceFile, line: int, message: str) -> Finding:
        return Finding(rule=self.id, file=file.rel, line=line,
                       message=message)


#: Registered rule classes, id -> class.  Populated by :func:`register`
#: when the ``rules_*`` modules import.
RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    if not rule_cls.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule_cls.id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id}")
    RULE_REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def load_rules() -> Dict[str, Type[Rule]]:
    """Import every rules module (side effect: registry fills) and return
    the registry.  Idempotent."""
    # Imported here, not at module top: the rules modules import this one.
    from repro.analysis.lint import (rules_locks, rules_purity,  # noqa: F401
                                     rules_scanspec)
    return RULE_REGISTRY


def rule_catalog() -> List[Tuple[str, str, str]]:
    """``(id, name, doc)`` for every rule, R0 included, sorted by id."""
    catalog = [(SUPPRESSION_RULE_ID, "suppression-hygiene",
                "Suppressions must name a known rule, carry a '-- why' "
                "justification, and match a real finding.")]
    for rule_id, rule_cls in load_rules().items():
        catalog.append((rule_id, rule_cls.name, rule_cls.doc))
    return sorted(catalog)


@dataclass
class LintReport:
    """Outcome of one lint run over a project."""

    root: str
    rules_run: List[str]
    findings: List[Finding]
    suppressed: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    def exit_code(self) -> int:
        return EXIT_FINDINGS if self.findings else EXIT_CLEAN

    def to_json(self) -> str:
        payload = {
            "version": 1,
            "root": self.root,
            "rules": self.rules_run,
            "files_scanned": self.files_scanned,
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": [finding.to_dict()
                           for finding in self.suppressed],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def render_human(self) -> str:
        lines = [finding.render() for finding in self.findings]
        lines.append(
            f"repro-lint: {len(self.findings)} finding(s), "
            f"{len(self.suppressed)} suppressed, "
            f"{len(self.rules_run)} rule(s) over "
            f"{self.files_scanned} file(s)")
        return "\n".join(lines)


def _suppression_findings(project: Project, known_rules: Set[str],
                          matched: Set[Tuple[str, int, str]],
                          checked_rules: Set[str]) -> List[Finding]:
    """The R0 meta-findings over the committed suppression set."""
    findings: List[Finding] = []
    for file in project:
        for line, entries in sorted(file.suppressions.items()):
            for rule, why in sorted(entries.items()):
                if rule == SUPPRESSION_RULE_ID:
                    findings.append(Finding(
                        SUPPRESSION_RULE_ID, file.rel, line,
                        "suppression hygiene itself cannot be suppressed"))
                    continue
                if rule not in known_rules:
                    findings.append(Finding(
                        SUPPRESSION_RULE_ID, file.rel, line,
                        f"suppression names unknown rule {rule!r}"))
                    continue
                if not why:
                    findings.append(Finding(
                        SUPPRESSION_RULE_ID, file.rel, line,
                        f"suppression of {rule} has no '-- justification'"))
                if rule in checked_rules and \
                        (file.rel, line, rule) not in matched:
                    findings.append(Finding(
                        SUPPRESSION_RULE_ID, file.rel, line,
                        f"suppression of {rule} matches no finding "
                        f"(stale - remove it)"))
    return findings


def run_lint(project: Project,
             rule_ids: Optional[Sequence[str]] = None,
             on_error: Optional[Callable[[str], None]] = None
             ) -> LintReport:
    """Run the (selected) rules over ``project``.

    Findings on lines carrying a matching ``# lint: disable`` comment are
    moved to the report's ``suppressed`` list; the R0 meta-rule then
    checks the suppression set itself (unknown rule ids, missing
    justifications, stale suppressions - the latter only for rules that
    actually ran, so ``--rules`` subsets stay usable).
    """
    registry = load_rules()
    known = set(registry) | {SUPPRESSION_RULE_ID}
    if rule_ids is None:
        selected = sorted(registry)
        run_r0 = True
    else:
        unknown = sorted(set(rule_ids) - known)
        if unknown:
            raise LintUsageError(
                f"unknown rule id(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}")
        selected = sorted(set(rule_ids) & set(registry))
        run_r0 = SUPPRESSION_RULE_ID in rule_ids
    active: List[Finding] = []
    suppressed: List[Finding] = []
    matched: Set[Tuple[str, int, str]] = set()
    by_rel: Dict[str, SourceFile] = {file.rel: file for file in project}
    for file in project:
        if file.syntax_error is not None:
            active.append(Finding(
                "SYNTAX", file.rel, 1,
                f"file does not parse: {file.syntax_error}"))
    for rule_id in selected:
        rule = registry[rule_id]()
        for finding in rule.check(project):
            file = by_rel.get(finding.file)
            if file is not None and \
                    file.is_suppressed(finding.rule, finding.line):
                suppressed.append(finding)
                matched.add((finding.file, finding.line, finding.rule))
            else:
                active.append(finding)
    if run_r0:
        active.extend(_suppression_findings(
            project, known - {SUPPRESSION_RULE_ID}, matched, set(selected)))
    rules_run = (selected + [SUPPRESSION_RULE_ID]) if run_r0 else selected
    return LintReport(root=str(project.root), rules_run=sorted(rules_run),
                      findings=sorted(active, key=Finding.sort_key),
                      suppressed=sorted(suppressed, key=Finding.sort_key),
                      files_scanned=len(project.files))


class LintUsageError(Exception):
    """Bad invocation (unknown rule, unreadable root): exit code 2."""


# ---------------------------------------------------------------- AST helpers
# Shared by the rules modules; kept here so each rule stays declarative.

def class_defs(file: SourceFile) -> Iterator[ast.ClassDef]:
    """Every class defined in ``file`` (any nesting level)."""
    if file.tree is None:
        return
    for node in ast.walk(file.tree):
        if isinstance(node, ast.ClassDef):
            yield node


def methods_of(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    """Directly-defined methods of ``cls`` (sync and async)."""
    out: Dict[str, ast.FunctionDef] = {}
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[node.name] = node  # type: ignore[assignment]
    return out


def self_attr(node: ast.AST, self_name: str = "self") -> Optional[str]:
    """``X`` when ``node`` is ``<self_name>.X``, else ``None``."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and \
            node.value.id == self_name:
        return node.attr
    return None
