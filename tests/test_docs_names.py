"""The docs name only what exists.

Every backticked code name in README.md, DESIGN.md and EXPERIMENTS.md
must resolve against the tree, so a rename or a deletion that leaves a
doc behind fails tier-1 instead of waiting for a reader.

*What is a name.*  One trailing call or subscript suffix is dropped
first (``run_experiment(config, flags=...)`` reads as
``run_experiment``, and each ``keyword=`` inside the parentheses must
be a parameter).  What is left is a name if it is a dotted identifier
(``harness.experiment.dynamics_key``) or a relative path
(``fleet/router.py``,
``tests/test_queues.py::test_edf_head_pointer_compaction_crosses_threshold``).
Every other span --- a command with spaces, a flag, a number, a quoted
value, an expression, a glob --- is not a name and is skipped.  Fenced
code blocks hold commands and output, and are skipped whole.

*What resolves.*  A name resolves if it is
- a module, with or without the ``repro.`` prefix, a stdlib module
  (``sys.stdlib_module_names``) or a module some source file imports;
- a file or directory under the repo root or ``src/repro/``; a test id
  ``path::name`` also needs ``name`` defined in that file;
- a definition, attribute or parameter that an ``ast`` walk of
  ``src/``, ``bench/``, ``tests/``, ``benchmarks/`` and ``examples/``
  finds, or a builtin or a keyword;
- a string constant of those files that is not a docstring: a registry
  key (a scheme, a command, a bench workload), an environment variable,
  a metric, counter or trace name.
A dotted name resolves part by part: after a module prefix the next
part must be bound at that module's top level, and after a class the
next part must be one of its members (methods, class attributes,
slots and the ``self.`` attributes its methods assign, inherited ones
included).  This file is left out of the walk: it names gone names on
purpose.
"""

import ast
import builtins
import importlib
import importlib.util
import keyword
import pathlib
import re
import sys
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.harness.cli import COMMANDS

SELF = pathlib.Path(__file__).resolve()
ROOT = SELF.parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
SOURCE_DIRS = ("src", "bench", "tests", "benchmarks", "examples")

#: Names a doc keeps on purpose although nothing defines them, each with
#: its reason.  An entry that resolves is stale and fails.
ALLOWED: Dict[str, str] = {}

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_DOTTED = re.compile(rf"{_IDENT}(?:\.{_IDENT})*")
_PATH = re.compile(r"[\w.-]+(?:/[\w.-]+)*/?(?:::[\w\[\]-]+)?")
_FILE_SUFFIXES = ("py", "md", "json", "yml", "toml", "txt")
_STRING = re.compile(r"[\w./-]+")
_SUFFIX = re.compile(r"(\((?P<call>.*)\)|\[.*\])$")
_KEYWORD_ARG = re.compile(rf"({_IDENT})=")
_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_SPAN = re.compile(r"(`+)(.+?)\1")
_OPAQUE_BASES = ("object", "ABC", "Generic", "Protocol")


# ----------------------------------------------------------------------
# The index: what the source tree defines
# ----------------------------------------------------------------------
def _bound_names(stmt: ast.stmt) -> Set[str]:
    """Names one statement binds in its own scope."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return {(alias.asname or alias.name).split(".")[0]
                for alias in stmt.names}
    if isinstance(stmt, (ast.If, ast.Try)):
        blocks = [stmt.body, stmt.orelse, getattr(stmt, "finalbody", []),
                  *(handler.body for handler in getattr(stmt, "handlers",
                                                        []))]
        return {name for block in blocks for inner in block
                for name in _bound_names(inner)}
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
        if any(isinstance(t, ast.Name) and t.id == "__slots__"
               for t in targets):
            return {"__slots__"} | {
                elt.value for elt in ast.walk(stmt.value)
                if isinstance(elt, ast.Constant)
                and isinstance(elt.value, str)}
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)}


def _walk(tree: ast.AST) -> Iterator[Tuple[ast.AST, Optional["_Class"]]]:
    """Every node once, parents first, with the class it sits in."""
    stack: List[Tuple[ast.AST, Optional[_Class]]] = [(tree, None)]
    while stack:
        node, owner = stack.pop()
        if isinstance(node, ast.ClassDef):
            owner = _Class(node)
        yield node, owner
        for field in node._fields:
            value = getattr(node, field, None)
            if isinstance(value, list):
                stack.extend((item, owner) for item in value
                             if isinstance(item, ast.AST))
            elif isinstance(value, ast.AST):
                stack.append((value, owner))


class _Class:
    def __init__(self, node: ast.ClassDef):
        self.bases = [base.id if isinstance(base, ast.Name) else
                      base.attr if isinstance(base, ast.Attribute) else ""
                      for base in node.bases]
        self.members = {name for stmt in node.body
                        for name in _bound_names(stmt)}


class _Index:
    def __init__(self):
        #: every name a definition, assignment, attribute store,
        #: parameter, call keyword or import binds anywhere
        self.names: Set[str] = set()
        #: identifier- or path-shaped string constants, docstrings
        #: excepted
        self.strings: Set[str] = set()
        #: dotted module name -> names bound at its top level
        self.modules: Dict[str, Set[str]] = {}
        #: repo-relative path -> the same, plus "Class::method"
        self.files: Dict[str, Set[str]] = {}
        #: class name -> every class of that name
        self.classes: Dict[str, List[_Class]] = {}
        #: module names some source file imports
        self.imported: Set[str] = set()
        for top in SOURCE_DIRS:
            for path in sorted((ROOT / top).rglob("*.py")):
                if path != SELF:
                    self._add(path)

    def _add(self, path: pathlib.Path) -> None:
        tree = ast.parse(path.read_text(), str(path))
        rel = path.relative_to(ROOT)
        parts = list(rel.with_suffix("").parts)
        if parts[0] == "src":
            parts = parts[1:]
        if parts[-1] == "__init__":
            parts = parts[:-1]
        top_level = {name for stmt in tree.body
                     for name in _bound_names(stmt)}
        top_level.update(
            f"{stmt.name}::{inner.name}" for stmt in tree.body
            if isinstance(stmt, ast.ClassDef) for inner in stmt.body
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)))
        self.modules[".".join(parts)] = top_level
        self.files[rel.as_posix()] = top_level

        names, strings = self.names, self.strings
        docstrings: Set[int] = set()
        for node, owner in _walk(tree):
            kind = type(node)
            if kind is ast.ClassDef:
                names.add(node.name)
                names |= owner.members
                self.classes.setdefault(node.name, []).append(owner)
            elif kind is ast.FunctionDef or kind is ast.AsyncFunctionDef:
                names.add(node.name)
            elif kind is ast.arg:
                names.add(node.arg)
            elif kind is ast.keyword:
                if node.arg:  # a dataclass or namedtuple field, say
                    names.add(node.arg)
            elif kind is ast.Name:
                if type(node.ctx) is ast.Store:
                    names.add(node.id)
            elif kind is ast.Attribute:
                if type(node.ctx) is ast.Store:
                    names.add(node.attr)
                    if owner is not None \
                            and isinstance(node.value, ast.Name) \
                            and node.value.id in ("self", "cls"):
                        owner.members.add(node.attr)
            elif kind is ast.Expr:
                docstrings.add(id(node.value))
            elif kind is ast.Constant:
                if isinstance(node.value, str) \
                        and id(node) not in docstrings \
                        and _STRING.fullmatch(node.value):
                    strings.add(node.value)
            elif kind is ast.Import:
                for alias in node.names:
                    self.imported.add(alias.name)
                    names.add((alias.asname or alias.name).split(".")[0])
            elif kind is ast.ImportFrom:
                if node.module:
                    self.imported.add(node.module)
                names.update(alias.asname or alias.name
                             for alias in node.names)

    # -- resolution ---------------------------------------------------
    def resolves(self, name: str) -> bool:
        if name in self.strings or name.rstrip("/") in self.strings:
            return True
        if _is_path(name):
            return self._path_resolves(name)
        return self._dotted_resolves(name)

    def _path_resolves(self, name: str) -> bool:
        path, _, test_id = name.partition("::")
        path = path.rstrip("/")
        for base in (ROOT, ROOT / "src" / "repro"):
            if (base / path).exists():
                if not test_id:
                    return True
                rel = (base / path).relative_to(ROOT).as_posix()
                return test_id.split("[")[0] in self.files.get(rel, ())
        return False

    def _repo_module(self, dotted: str) -> Optional[str]:
        for candidate in (dotted, f"repro.{dotted}"):
            if candidate in self.modules:
                return candidate
        return None

    def _outside_module(self, dotted: str) -> bool:
        if dotted in self.imported:
            return True
        if dotted.split(".")[0] not in sys.stdlib_module_names:
            return False
        try:
            return importlib.util.find_spec(dotted) is not None
        except ImportError:
            return False

    def _dotted_resolves(self, name: str) -> bool:
        parts = name.split(".")
        if self._repo_module(name) or self._outside_module(name):
            return True
        for cut in range(len(parts) - 1, 0, -1):
            prefix, rest = ".".join(parts[:cut]), parts[cut:]
            module = self._repo_module(prefix)
            if module is not None:
                return rest[0] in self.modules[module] \
                    and self._members_resolve(rest)
            if self._outside_module(prefix):
                return _getattr_chain(prefix, rest)
        head = parts[0]
        if head in self.names:
            return self._members_resolve(parts)
        if hasattr(builtins, head):
            return _getattr_chain("builtins", parts)
        return keyword.iskeyword(head) and len(parts) == 1

    def _members_resolve(self, parts: List[str]) -> bool:
        """``parts[0]`` is bound; check each later part against the class
        the part before it names or, past anything else, against every
        name the tree binds."""
        for owner, part in zip(parts, parts[1:]):
            members = self._class_members(owner)
            if part not in (self.names if members is None else members):
                return False
        return True

    def _class_members(self, name: str, seen=()) -> Optional[Set[str]]:
        """Members of every class called ``name``, inherited included;
        ``None`` when ``name`` is no class of the tree, or one of its
        bases lies outside the tree and the builtins."""
        if name not in self.classes:
            return None
        members: Set[str] = set()
        for cls in self.classes[name]:
            members |= cls.members
            for base in cls.bases:
                if base in seen or base == name or base in _OPAQUE_BASES:
                    continue
                if hasattr(builtins, base):
                    members.update(dir(getattr(builtins, base)))
                    continue
                inherited = self._class_members(base, seen + (name,))
                if inherited is None:
                    return None
                members |= inherited
        return members


def _getattr_chain(module: str, parts: List[str]) -> bool:
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return False
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


@lru_cache(maxsize=None)
def _index() -> _Index:
    return _Index()


# ----------------------------------------------------------------------
# The docs: which spans are names
# ----------------------------------------------------------------------
def code_spans(text: str) -> Iterator[Tuple[int, str]]:
    """Every inline code span outside fenced blocks, with its line."""
    text = _FENCE.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    line = 1
    for paragraph in re.split(r"(\n[ \t]*\n)", text):
        joined = paragraph.replace("\n", " ")
        for match in _SPAN.finditer(joined):
            yield (line + paragraph[:match.start()].count("\n"),
                   match.group(2).strip())
        line += paragraph.count("\n")


def _is_path(name: str) -> bool:
    return "/" in name or "::" in name \
        or name.rsplit(".", 1)[-1] in _FILE_SUFFIXES


def as_name(span: str) -> Optional[Tuple[str, List[str]]]:
    """``(name, keywords)`` when the span is a code name, else None."""
    keywords: List[str] = []
    suffix = _SUFFIX.search(span)
    if suffix and suffix.start() > 0 and "::" not in span:
        keywords = _KEYWORD_ARG.findall(suffix.group("call") or "")
        span = span[:suffix.start()]
    if _DOTTED.fullmatch(span) or _is_path(span) and _PATH.fullmatch(span):
        return span, keywords
    return None


def unresolved(doc: str) -> List[str]:
    index = _index()
    misses = []
    for line, span in code_spans((ROOT / doc).read_text()):
        parsed = as_name(span)
        if parsed is None:
            continue
        name, keywords = parsed
        bad = [] if index.resolves(name) else [name]
        bad += [f"{kw}=" for kw in keywords if kw not in index.names]
        misses += [f"{doc}:{line}: `{span}` ({miss})" for miss in bad
                   if miss not in ALLOWED]
    return misses


def test_every_code_name_in_the_docs_resolves():
    misses = [miss for doc in DOCS for miss in unresolved(doc)]
    assert not misses, "names no source defines:\n" + "\n".join(misses)


def test_allowed_entries_are_still_unresolved():
    stale = [name for name in ALLOWED if _index().resolves(name)]
    assert not stale, f"ALLOWED entries that now resolve: {stale}"


def test_the_resolver_rejects_what_is_gone():
    index = _index()
    for gone in ("core.workload_manager", "charge_loss", "ts_us",
                 "ExperimentConfig.meter_interval",
                 "tests/test_polaris.py::test_no_such_test",
                 "harness/no_such_module.py", "os.no_such_function"):
        assert not index.resolves(gone), gone
    for present in ("core.workload", "repro.harness.experiment.RunFlags",
                    "ExecutionTimeEstimator.rising", "fleet/router.py",
                    "os.sched_getaffinity", "heapq", "None",
                    "tests/test_polaris.py::test_cell_walk_counts_equal_"
                    "the_unhinted_walks"):
        assert index.resolves(present), present


# ----------------------------------------------------------------------
# DESIGN.md §4: every row names the command that regenerates it
# ----------------------------------------------------------------------
def test_every_experiment_index_row_names_a_command():
    text = (ROOT / "DESIGN.md").read_text()
    section = re.search(r"^## 4\..*?(?=^## )", text, re.M | re.S)
    assert section, "DESIGN.md has no section 4"
    named = set()
    for row in section.group(0).splitlines():
        if not row.startswith("|") or re.fullmatch(r"\|[-| ]+\|", row) \
                or re.search(r"\|\s*Command\s*\|", row):
            continue  # not a row, a separator or a header
        commands = re.findall(r"`polaris-repro ([\w-]+)`", row)
        assert commands, f"a §4 row names no command: {row[:80]}"
        assert set(commands) <= set(COMMANDS), \
            f"not COMMANDS keys: {set(commands) - set(COMMANDS)}"
        named.update(commands)
    assert named == set(COMMANDS), \
        f"COMMANDS entries §4 does not index: {sorted(set(COMMANDS) - named)}"
