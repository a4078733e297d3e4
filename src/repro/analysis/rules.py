"""The reprolint rule set: the rules tier-1 cannot replace.

Each rule guards a hazard that is latent by nature: a violation changes
no simulated result today, so no golden, render pin or test can catch
it.  DESIGN.md section 9 records, per rule, the seeded violation that
``tests/mutants.py`` ran and why the rule stays:

========  =============================================================
RL004     ``==``/``!=`` on time/frequency-valued names.  Times and
          frequencies are floats built by arithmetic; compare with a
          tolerance (``abs(a - b) < eps``) or ``math.isinf``/``isclose``.
RL005     Mutable default arguments (shared across calls).
RL007     Bare ``except:`` anywhere; silently swallowed exceptions
          (handler body only ``pass``) in engine/scheduler hot paths.
RL008     ``@dataclass`` state classes in ``sim/``/``cpu/`` that are
          neither ``frozen`` nor slotted: accidental attribute creation
          on hot-path state objects hides typos and costs memory.
RL009     Suppression hygiene: a ``# reprolint: disable`` comment
          without a ``- reason`` is itself a finding, and
          ``run_analysis`` reports suppressions that silenced nothing
          as unused.  The code is special-cased so a blanket/reasonless
          comment cannot silence the finding about itself.
========  =============================================================

Suppress a deliberate exception with
``# reprolint: disable=RL### - reason`` on the flagged line.

A hazard that changes a simulated result --- a host-clock read, a
global-RNG draw, set-order iteration, a unit mix-up --- is left to the
pinned fingerprints and the tests, which fail on a seeded instance of
each (DESIGN.md section 9).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.analysis.linter import (
    SUPPRESSION_HYGIENE_CODE, FileContext, Finding, LintRule, register,
)

# ----------------------------------------------------------------------
# RL004 --- float equality on times/frequencies
# ----------------------------------------------------------------------
#: A name "smells like" a time or frequency when its last underscore
#: component is one of these words, or when it already carries a unit
#: suffix (then it is *definitely* a time/frequency).
_RL004_NAME_RE = re.compile(
    r"(?:^|_)(?:time|freq|frequency|deadline)$"
    r"|_(?:s|us|ms|ns|sec|secs|seconds|ghz|mhz|khz|hz)$")


def _compared_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@register
class FloatEqualityRule(LintRule):
    code = "RL004"
    name = "float-equality"
    description = ("== / != on a time- or frequency-valued name; use a "
                   "tolerance (abs(a-b) < eps) or math.isclose/isinf")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq))
                       for op in node.ops):
                continue
            sides = [node.left, *node.comparators]
            if any(isinstance(s, ast.Constant) and s.value is None
                   for s in sides):
                continue  # `x == None` is a different (pyflakes) problem
            for side in sides:
                name = _compared_name(side)
                if name is not None and _RL004_NAME_RE.search(name):
                    yield self.finding(
                        ctx, node,
                        f"float equality on `{name}`: times/frequencies "
                        f"are computed floats; compare with a tolerance "
                        f"or math.isclose/math.isinf")
                    break


# ----------------------------------------------------------------------
# RL005 --- mutable default arguments
# ----------------------------------------------------------------------
def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("list", "dict", "set", "bytearray",
                                "deque", "defaultdict", "Counter")
    return False


@register
class MutableDefaultRule(LintRule):
    code = "RL005"
    name = "mutable-default"
    description = "mutable default argument is shared across calls"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + \
                [d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if _is_mutable_default(default):
                    yield self.finding(
                        ctx, default,
                        f"mutable default argument in `{node.name}()` is "
                        f"evaluated once and shared across calls; "
                        f"default to None and create inside")


# ----------------------------------------------------------------------
# RL007 --- bare / swallowed exceptions
# ----------------------------------------------------------------------
#: Hot-path directories where a silently swallowed exception corrupts
#: simulation state instead of merely hiding a harness hiccup.
RL007_SWALLOW_DIRS = ("sim", "core", "cpu", "db", "governors", "obs")


def _handler_only_passes(handler: ast.ExceptHandler) -> bool:
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and \
                isinstance(stmt.value, ast.Constant):
            continue  # docstring / `...`
        return False
    return True


@register
class SwallowedExceptionRule(LintRule):
    code = "RL007"
    name = "swallowed-exception"
    description = ("bare except, or exception silently swallowed in an "
                   "engine/scheduler hot path")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        in_hot_path = ctx.in_dirs(RL007_SWALLOW_DIRS)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx, node,
                    "bare `except:` catches SystemExit/KeyboardInterrupt "
                    "and hides real failures; name the exception types")
            elif in_hot_path and _handler_only_passes(node):
                yield self.finding(
                    ctx, node,
                    "exception silently swallowed in an engine/scheduler "
                    "path; handle it, log it, or narrow the type with a "
                    "comment")


# ----------------------------------------------------------------------
# RL008 --- dataclass state hygiene in sim/ and cpu/
# ----------------------------------------------------------------------
RL008_DIRS = ("sim", "cpu", "obs")


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.AST]:
    """The ``@dataclass`` (or ``@dataclasses.dataclass``) decorator,
    called or bare."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", None) == "dataclass" or \
                getattr(target, "attr", None) == "dataclass":
            return deco
    return None


def _truthy_keyword(deco: ast.AST, name: str) -> bool:
    if not isinstance(deco, ast.Call):
        return False
    for kw in deco.keywords:
        if kw.arg == name and isinstance(kw.value, ast.Constant):
            return bool(kw.value.value)
    return False


@register
class DataclassSlotsRule(LintRule):
    code = "RL008"
    name = "dataclass-slots"
    description = ("@dataclass state class in sim/ or cpu/ is neither "
                   "frozen nor slotted")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_dirs(RL008_DIRS):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            deco = _dataclass_decorator(node)
            if deco is None:
                continue
            if _truthy_keyword(deco, "frozen") or \
                    _truthy_keyword(deco, "slots"):
                continue
            has_slots = any(
                isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in stmt.targets)
                for stmt in node.body)
            if not has_slots:
                yield self.finding(
                    ctx, node,
                    f"dataclass `{node.name}` holds simulator/CPU state "
                    f"but is neither frozen nor slotted; add "
                    f"`frozen=True` or `slots=True` (3.10+) so hot-path "
                    f"state cannot grow accidental attributes")


# ----------------------------------------------------------------------
# RL009 --- suppression hygiene
# ----------------------------------------------------------------------
@register
class SuppressionHygieneRule(LintRule):
    code = SUPPRESSION_HYGIENE_CODE
    name = "suppression-hygiene"
    description = ("# reprolint: disable comment without a `- reason`, "
                   "or (on a full run) one that silenced nothing")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for line in sorted(ctx.suppressions):
            sup = ctx.suppressions[line]
            if sup.reason:
                continue
            what = "blanket suppression" if sup.codes is None else \
                f"suppression of {', '.join(sorted(sup.codes))}"
            yield Finding(
                self.code, self.name, ctx.path, sup.line, sup.col,
                f"{what} has no reason; append `- why this is fine` "
                f"to the disable comment")

