"""reprolint --- an AST lint framework for determinism/invariant rules.

The framework is deliberately small: a rule is a class with a ``code``
(``RL###``), a ``name``, and a ``check(ctx)`` generator yielding
:class:`Finding` objects; rules register themselves with
:func:`register`.  :func:`lint_source` runs every registered (or
selected) rule over one source string and :func:`run_analysis` over
every ``.py`` file under some paths, one file at a time.  The rules
themselves live in :mod:`repro.analysis.rules` and are specific to this
codebase's determinism contract --- see that module for the rule table.

Suppressions
------------
A finding is suppressed by a trailing comment on the *flagged line*::

    t = time.time()  # reprolint: disable=RL001 - reason why this is fine

``disable=RL001,RL004`` suppresses several codes at once and a bare
``# reprolint: disable`` (no codes) suppresses every rule on that line.
Suppressions must carry a reason after the code list: the RL009
hygiene rule flags reasonless comments, and an unrestricted
:func:`run_analysis` reports suppressions that silenced nothing as
unused.

Paths
-----
Rules that only apply to parts of the tree (e.g. RL006's unit-suffix
discipline in ``cpu/``, ``sim/``, ``core/``) scope themselves on the
file's path *relative to the* ``repro`` *package* (``sim/engine.py``).
Files outside a ``repro`` directory only see the unscoped rules, so the
linter stays usable on scratch files and test fixtures.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type,
)

#: A suppression comment: ``reprolint: disable`` optionally followed
#: by ``=CODE,...`` and ``- reason``.  Matched against *comment tokens*
#: (see :func:`parse_suppressions`) and anchored at the comment start,
#: so prose that merely mentions the syntax (docstrings, ``#:`` doc
#: comments like this one) never parses as a suppression.
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable(?:=(?P<codes>[A-Za-z0-9_,\s]*?))?"
    r"(?:\s*-\s*(?P<reason>\S.*))?$")

#: Finding code used when a file cannot be parsed at all.
PARSE_ERROR_CODE = "RL000"

#: Suppression-hygiene rule code: comments without a reason, and
#: suppressions that silence nothing, are findings themselves.  The
#: code is special-cased in :meth:`FileContext.is_suppressed` --- a
#: blanket or reasonless comment cannot silence the finding *about*
#: that comment; only an explicit ``disable=RL009`` listing can.
SUPPRESSION_HYGIENE_CODE = "RL009"


@dataclass(frozen=True)
class Finding:
    """One lint finding, pinned to a source location."""

    code: str
    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code, "rule": self.rule, "path": self.path,
            "line": self.line, "col": self.col, "message": self.message,
        }


@dataclass(frozen=True)
class Suppression:
    """One ``# reprolint: disable`` comment."""

    line: int
    col: int                       #: column where the comment starts
    codes: Optional[frozenset]     #: ``None`` = blanket (all codes)
    reason: str                    #: "" when no ``- reason`` was given

    def covers(self, code: str) -> bool:
        return self.codes is None or code in self.codes


def suppression_covers(suppression: Suppression, code: str) -> bool:
    """Whether one disable comment silences ``code`` --- with the RL009
    special case: the hygiene finding about a comment is silenced only
    by an *explicit* RL009 listing, never by the blanket form it is
    complaining about."""
    if code == SUPPRESSION_HYGIENE_CODE:
        return suppression.codes is not None and \
            code in suppression.codes
    return suppression.covers(code)


def parse_suppressions(source: str) -> Dict[int, Suppression]:
    """Map line number -> the suppression comment on that line.

    Comments are found by tokenizing, not by grepping lines, so a
    docstring showing the ``# reprolint: disable`` syntax is not a
    suppression; and the pattern must start the comment, so a doc
    comment mentioning it mid-text is not one either.  When the file
    does not tokenize (the per-file linter reports RL000 for it) the
    line-grep fallback keeps suppression data available.
    """
    suppressions: Dict[int, Suppression] = {}
    for lineno, col, text in _iter_comments(source):
        match = _SUPPRESS_RE.match(text)
        if match is None:
            continue
        codes = match.group("codes")
        reason = match.group("reason") or ""
        parsed: Optional[frozenset] = None
        if codes is not None and codes.strip():
            parsed = frozenset(
                c.strip().upper() for c in codes.split(",") if c.strip())
        suppressions[lineno] = Suppression(
            line=lineno, col=col, codes=parsed, reason=reason.strip())
    return suppressions


def _iter_comments(source: str) -> Iterator[Tuple[int, int, str]]:
    """(line, col, text) for every comment token in ``source``."""
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.start[1], token.string
    except (tokenize.TokenError, SyntaxError, IndentationError):
        # Unparseable file: fall back to grepping raw lines so the
        # suppression table still exists alongside the RL000 finding.
        for lineno, text in enumerate(source.splitlines(), start=1):
            hash_at = text.find("#")
            if hash_at >= 0:
                yield lineno, hash_at, text[hash_at:]


class FileContext:
    """Everything a rule needs about one source file.

    Attributes
    ----------
    path / rel:
        The path as given, and the path relative to the innermost
        ``repro`` package directory (``sim/engine.py``); ``rel`` falls
        back to the bare filename when the path has no ``repro`` part.
    tree:
        The parsed :mod:`ast` module.
    module_aliases:
        Local name -> imported module (``import random as rnd`` binds
        ``rnd -> random``).
    imported_names:
        Local name -> dotted origin for ``from``-imports
        (``from time import perf_counter`` binds
        ``perf_counter -> time.perf_counter``).
    """

    def __init__(self, path: str, source: str):
        self.path = str(path)
        self.source = source
        self.tree = ast.parse(source)
        parts = Path(self.path).parts
        if "repro" in parts:
            anchor = len(parts) - 1 - parts[::-1].index("repro")
            self.rel = "/".join(parts[anchor + 1:])
        else:
            self.rel = Path(self.path).name
        self.suppressions = parse_suppressions(source)
        self.module_aliases: Dict[str, str] = {}
        self.imported_names: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name] = \
                        alias.name
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    self.imported_names[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"

    # ------------------------------------------------------------------
    def in_dirs(self, dirs: Iterable[str]) -> bool:
        """Whether this file sits under one of the package directories."""
        head = self.rel.split("/", 1)[0]
        return head in set(dirs)

    def is_suppressed(self, code: str, line: int) -> bool:
        suppression = self.suppressions.get(line)
        if suppression is None:
            return False
        return suppression_covers(suppression, code)

    def resolve_dotted(self, node: ast.AST) -> Optional[str]:
        """Fully-qualify a ``Name``/``Attribute`` chain through imports.

        ``time.perf_counter`` -> ``"time.perf_counter"``;
        with ``from datetime import datetime``, ``datetime.now`` ->
        ``"datetime.datetime.now"``.  Returns ``None`` for anything that
        is not a plain dotted chain rooted at an imported name.
        """
        chain: List[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        if root in self.module_aliases:
            base = self.module_aliases[root]
        elif root in self.imported_names:
            base = self.imported_names[root]
        else:
            return None
        return ".".join([base] + chain[::-1])


class LintRule:
    """Base class: subclass, set ``code``/``name``/``description``,
    implement :meth:`check` as a generator of findings."""

    code = "RL000"
    name = "base"
    description = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover - generator typing aid

    def finding(self, ctx: FileContext, node: ast.AST,
                message: str) -> Finding:
        return Finding(self.code, self.name, ctx.path,
                       getattr(node, "lineno", 0),
                       getattr(node, "col_offset", 0), message)


#: code -> rule class; populated by the :func:`register` decorator.
RULE_REGISTRY: Dict[str, Type[LintRule]] = {}


def register(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator adding a rule to the registry (unique codes)."""
    if cls.code in RULE_REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULE_REGISTRY[cls.code] = cls
    return cls


def _select_rules(select: Optional[Iterable[str]]) -> List[LintRule]:
    from repro.analysis import rules  # noqa: F401 - populates the registry
    wanted = None if select is None else {c.upper() for c in select}
    return [RULE_REGISTRY[code]() for code in sorted(RULE_REGISTRY)
            if wanted is None or code in wanted]


def _lint_file(path: str, source: str, rules: Sequence[LintRule]) -> Tuple[
        List[Finding], List[Finding], Dict[int, Suppression]]:
    """Run ``rules`` over one file: (kept, suppressed, its disable
    comments).  A file that does not parse yields one RL000 finding."""
    try:
        ctx = FileContext(path, source)
    except SyntaxError as exc:
        return ([Finding(PARSE_ERROR_CODE, "parse-error", path,
                         exc.lineno or 0, exc.offset or 0,
                         f"cannot parse file: {exc.msg}")],
                [], parse_suppressions(source))
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for rule in rules:
        for finding in rule.check(ctx):
            if ctx.is_suppressed(finding.code, finding.line):
                suppressed.append(finding)
            else:
                kept.append(finding)
    return kept, suppressed, ctx.suppressions


def lint_source(source: str, path: str = "<string>",
                select: Optional[Iterable[str]] = None,
                include_suppressed: bool = False) -> List[Finding]:
    """Run the registered rules over one source string.

    Returns findings ordered by (line, col, code); suppressed findings
    are dropped unless ``include_suppressed`` asks for them (used by the
    self-tests).
    """
    kept, suppressed, _ = _lint_file(str(path), source,
                                     _select_rules(select))
    findings = kept + suppressed if include_suppressed else kept
    findings.sort(key=lambda f: (f.line, f.col, f.code))
    return findings


@dataclass
class AnalysisResult:
    """Everything one :func:`run_analysis` call produced, each list in
    (path, line, col, code) order."""

    findings: List[Finding]
    suppressed: List[Finding]
    files_checked: int


def _unused_suppressions(path: str, kept: List[Finding],
                         suppressed: List[Finding],
                         suppressions: Dict[int, Suppression]
                         ) -> Iterator[Tuple[Finding, bool]]:
    """(RL009 finding, whether it is itself suppressed) for every
    disable comment in one file that silenced nothing.  Listing RL009
    explicitly is the sanctioned opt-out."""
    used = {f.line for f in suppressed}
    reasonless = {f.line for f in kept + suppressed
                  if f.code == SUPPRESSION_HYGIENE_CODE}
    for sup in suppressions.values():
        if sup.line in used or sup.line in reasonless:
            continue  # needed, or already flagged for the missing reason
        what = "blanket suppression" if sup.codes is None else \
            f"suppression of {', '.join(sorted(sup.codes))}"
        yield (Finding(SUPPRESSION_HYGIENE_CODE, "suppression-hygiene",
                       path, sup.line, sup.col,
                       f"unused {what}: no finding on this line needs "
                       f"it; remove the disable comment"),
               suppression_covers(sup, SUPPRESSION_HYGIENE_CODE))


def run_analysis(paths: Sequence,
                 select: Optional[Sequence[str]] = None) -> AnalysisResult:
    """Lint every ``.py`` file under ``paths``.

    ``select`` restricts the run to the listed codes.  Unused-suppression
    detection only happens on unrestricted runs, where "nothing needed
    this suppression" is actually known.
    """
    rules = _select_rules(select)
    findings: List[Finding] = []
    silenced: List[Finding] = []
    files_checked = 0
    for file in iter_python_files(paths):
        path = str(file)
        kept, suppressed, suppressions = _lint_file(
            path, file.read_text(encoding="utf-8"), rules)
        files_checked += 1
        findings.extend(kept)
        silenced.extend(suppressed)
        if select is None:
            for finding, covered in _unused_suppressions(
                    path, kept, suppressed, suppressions):
                (silenced if covered else findings).append(finding)
    key = lambda f: (f.path, f.line, f.col, f.code)  # noqa: E731
    return AnalysisResult(sorted(findings, key=key),
                          sorted(silenced, key=key), files_checked)


def iter_python_files(paths: Sequence) -> Iterator[Path]:
    """Expand files/directories into ``.py`` files, sorted, skipping
    hidden directories, caches, and egg-info."""
    skip_parts = {"__pycache__"}
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for path in sorted(entry.rglob("*.py")):
                parts = path.parts
                if any(p in skip_parts or p.startswith(".")
                       or p.endswith(".egg-info") for p in parts):
                    continue
                yield path
        elif entry.suffix == ".py":
            yield entry


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def render_text(findings: Sequence[Finding], files_checked: int) -> str:
    lines = [f.format() for f in findings]
    summary = ", ".join(f"{code}: {count}" for code, count
                        in sorted(_count_by_code(findings).items()))
    lines.append(
        f"reprolint: {len(findings)} finding(s) in {files_checked} file(s)"
        + (f" [{summary}]" if summary else ""))
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], files_checked: int) -> str:
    return json.dumps({
        "findings": [f.to_dict() for f in findings],
        "files_checked": files_checked,
        "counts": _count_by_code(findings),
    }, indent=2, sort_keys=True)


def _count_by_code(findings: Sequence[Finding]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for f in findings:
        counts[f.code] = counts.get(f.code, 0) + 1
    return counts


__all__ = [
    "AnalysisResult", "FileContext", "Finding", "LintRule",
    "PARSE_ERROR_CODE", "RULE_REGISTRY", "SUPPRESSION_HYGIENE_CODE",
    "Suppression", "iter_python_files", "lint_source",
    "parse_suppressions", "register", "render_json", "render_text",
    "run_analysis", "suppression_covers",
]
