"""reprolint --- an AST lint framework for the rules tier-1 cannot replace.

The framework is deliberately small: a rule is a class with a ``code``
(``RL###``), a ``name``, and a ``check(ctx)`` generator yielding
:class:`Finding` objects; rules register themselves with
:func:`register`.  :func:`lint_source` runs every registered rule over
one source string and :func:`run_analysis` over every ``.py`` file
under some paths, one file at a time.  The rules themselves live in
:mod:`repro.analysis.rules` --- see that module for the rule table.

Suppressions
------------
A finding is suppressed by a trailing comment on the *flagged line*::

    except:  # reprolint: disable=RL007 - reason why this is fine

``disable=RL004,RL007`` suppresses several codes at once and a bare
``# reprolint: disable`` (no codes) suppresses every rule on that line.
Suppressions must carry a reason after the code list: the RL009
hygiene rule flags reasonless comments, and :func:`run_analysis`
reports suppressions that silenced nothing as unused.

Paths
-----
Rules that only apply to parts of the tree (RL007's swallowed
exceptions in the engine and scheduler packages, for one) scope
themselves on the file's path *relative to the* ``repro`` *package*
(``sim/engine.py``).  Files outside a ``repro`` directory only see the
unscoped rules, so the linter stays usable on scratch files and test
fixtures.
"""

from __future__ import annotations

import ast
import io
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
#: code is special-cased in :meth:`Suppression.covers` --- a blanket or
#: reasonless comment cannot silence the finding *about* that comment;
#: only an explicit ``disable=RL009`` listing can.
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


@dataclass(frozen=True)
class Suppression:
    """One ``# reprolint: disable`` comment."""

    line: int
    col: int                       #: column where the comment starts
    codes: Optional[frozenset]     #: ``None`` = blanket (all codes)
    reason: str                    #: "" when no ``- reason`` was given

    def covers(self, code: str) -> bool:
        """Whether this comment silences ``code``.  The hygiene finding
        about a comment is silenced only by an *explicit* RL009
        listing, never by the blanket form it is complaining about."""
        if self.codes is None:
            return code != SUPPRESSION_HYGIENE_CODE
        return code in self.codes


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

    ``path`` is the path as given; ``rel`` is the path relative to the
    innermost ``repro`` package directory (``sim/engine.py``), or the
    bare filename when the path has no ``repro`` part.  ``tree`` is the
    parsed :mod:`ast` module and ``suppressions`` its disable comments.
    """

    def __init__(self, path: str, source: str):
        self.path = str(path)
        self.tree = ast.parse(source)
        parts = Path(self.path).parts
        if "repro" in parts:
            anchor = len(parts) - 1 - parts[::-1].index("repro")
            self.rel = "/".join(parts[anchor + 1:])
        else:
            self.rel = Path(self.path).name
        self.suppressions = parse_suppressions(source)

    def in_dirs(self, dirs: Iterable[str]) -> bool:
        """Whether this file sits under one of the package directories."""
        head = self.rel.split("/", 1)[0]
        return head in set(dirs)

    def is_suppressed(self, code: str, line: int) -> bool:
        suppression = self.suppressions.get(line)
        return suppression is not None and suppression.covers(code)


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


def _lint_file(path: str, source: str) -> Tuple[
        List[Finding], List[Finding], Dict[int, Suppression]]:
    """Run every rule over one file: (kept, suppressed, its disable
    comments).  A file that does not parse yields one RL000 finding."""
    from repro.analysis import rules  # noqa: F401 - populates the registry
    try:
        ctx = FileContext(path, source)
    except SyntaxError as exc:
        return ([Finding(PARSE_ERROR_CODE, "parse-error", path,
                         exc.lineno or 0, exc.offset or 0,
                         f"cannot parse file: {exc.msg}")],
                [], parse_suppressions(source))
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for code in sorted(RULE_REGISTRY):
        for finding in RULE_REGISTRY[code]().check(ctx):
            if ctx.is_suppressed(finding.code, finding.line):
                suppressed.append(finding)
            else:
                kept.append(finding)
    return kept, suppressed, ctx.suppressions


def lint_source(source: str, path: str) -> List[Finding]:
    """Run the registered rules over one source string, linted as the
    file at ``path``; the findings no suppression silences, ordered by
    (line, col, code)."""
    kept, _, _ = _lint_file(str(path), source)
    return sorted(kept, key=lambda f: (f.line, f.col, f.code))


@dataclass
class AnalysisResult:
    """One :func:`run_analysis` call: its findings, in (path, line,
    col, code) order, and how many files it read."""

    findings: List[Finding]
    files_checked: int


def _unused_suppressions(path: str, kept: List[Finding],
                         suppressed: List[Finding],
                         suppressions: Dict[int, Suppression]
                         ) -> Iterator[Finding]:
    """An RL009 finding for every disable comment in one file that
    silenced nothing.  Listing RL009 explicitly is the sanctioned
    opt-out."""
    used = {f.line for f in suppressed}
    reasonless = {f.line for f in kept + suppressed
                  if f.code == SUPPRESSION_HYGIENE_CODE}
    for sup in suppressions.values():
        if sup.line in used or sup.line in reasonless or \
                sup.covers(SUPPRESSION_HYGIENE_CODE):
            continue  # needed, already flagged, or explicitly allowed
        what = "blanket suppression" if sup.codes is None else \
            f"suppression of {', '.join(sorted(sup.codes))}"
        yield Finding(SUPPRESSION_HYGIENE_CODE, "suppression-hygiene",
                      path, sup.line, sup.col,
                      f"unused {what}: no finding on this line needs "
                      f"it; remove the disable comment")


def run_analysis(paths: Sequence) -> AnalysisResult:
    """Lint every ``.py`` file under ``paths``, reporting unused
    suppressions too."""
    findings: List[Finding] = []
    files_checked = 0
    for file in iter_python_files(paths):
        path = str(file)
        kept, suppressed, suppressions = _lint_file(
            path, file.read_text(encoding="utf-8"))
        files_checked += 1
        findings.extend(kept)
        findings.extend(_unused_suppressions(path, kept, suppressed,
                                             suppressions))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return AnalysisResult(findings, files_checked)


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


def _count_by_code(findings: Sequence[Finding]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for f in findings:
        counts[f.code] = counts.get(f.code, 0) + 1
    return counts


__all__ = [
    "AnalysisResult", "FileContext", "Finding", "LintRule",
    "PARSE_ERROR_CODE", "RULE_REGISTRY", "SUPPRESSION_HYGIENE_CODE",
    "Suppression", "iter_python_files", "lint_source",
    "parse_suppressions", "register", "render_text", "run_analysis",
]
