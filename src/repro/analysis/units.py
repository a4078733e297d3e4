"""Whole-program dimensional analysis over the unit-suffix discipline.

The simulator's quantities live in a small physical algebra --- time,
energy, and CPU cycles, with frequency = cycles/time and power =
energy/time --- and the codebase already *names* most of them with unit
suffixes (``_s``, ``_us``, ``_ghz``, ``_w``, ``_j``, ``_cycles``,
``_ratio``; enforced by per-file rule RL006).  This module turns those
names into typed dimensions and propagates them through assignments,
arithmetic, returns, and cross-module call arguments, flagging:

========  =============================================================
RL101     Cross-dimension arithmetic/comparison: ``a_s + b_ghz``,
          ``min(x_w, y_j)``, ``t_s < f_hz``.
RL102     Same dimension, mismatched magnitude: ``a_s + b_us`` with no
          conversion factor, ``x_ghz < y_hz``.  Adjacent-SI factors
          (powers of ten with exponent a multiple of 3) applied by
          ``*``/``/`` are understood as conversions and change the
          tracked scale.
RL103     Suffix-mismatched argument binding: a ``_us`` value passed to
          a parameter declared ``_s`` in another module (the classic
          cross-module leak per-file linting cannot see).
RL104     Suffix-mismatched assignment or return: ``x_s = y_us``,
          ``return cycles`` from a function named ``*_seconds``.
========  =============================================================

The analysis is *suffix-anchored*: a name's suffix is authoritative,
inference only fills the gaps (unsuffixed locals, call results via the
project signature table).  Unknown stays unknown --- no finding is ever
raised on a value whose unit could not be established, so the engine
errs silent, and an inline suppression handles the survivors.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.linter import Finding
from repro.analysis.project import (
    ClassInfo, FunctionInfo, ModuleInfo, Project,
)

# ----------------------------------------------------------------------
# The unit algebra
# ----------------------------------------------------------------------
#: Base dimensions: T(ime), E(nergy), C(ycles).  Frequency and power are
#: derived: Hz = C/T, W = E/T.  ``scale`` is SI-per-1.0-of-the-value
#: (a value in microseconds has scale 1e-6).
@dataclass(frozen=True)
class Unit:
    dims: Tuple[Tuple[str, int], ...]
    scale: float

    def __mul__(self, other: "Unit") -> "Unit":
        return Unit(_merge_dims(self.dims, other.dims, 1),
                    self.scale * other.scale)

    def __truediv__(self, other: "Unit") -> "Unit":
        return Unit(_merge_dims(self.dims, other.dims, -1),
                    self.scale / other.scale)

    def __pow__(self, n: int) -> "Unit":
        return Unit(tuple((d, e * n) for d, e in self.dims),
                    self.scale ** n)

    def rescaled(self, factor: float) -> "Unit":
        """The unit after the *value* is multiplied by ``factor``."""
        return Unit(self.dims, self.scale / factor)

    def same_dims(self, other: "Unit") -> bool:
        return self.dims == other.dims

    def same_scale(self, other: "Unit", rel_tol: float = 1e-6) -> bool:
        if self.scale == other.scale:
            return True
        if other.scale == 0:
            return False
        return abs(self.scale / other.scale - 1.0) <= rel_tol

    def render(self) -> str:
        name = _CANONICAL_NAMES.get((self.dims, round_scale(self.scale)))
        if name is not None:
            return name
        dims = "*".join(f"{d}^{e}" if e != 1 else d
                        for d, e in self.dims) or "1"
        return f"{dims}x{self.scale:g}"


def _merge_dims(a, b, sign: int) -> Tuple[Tuple[str, int], ...]:
    acc: Dict[str, int] = dict(a)
    for dim, exp in b:
        acc[dim] = acc.get(dim, 0) + sign * exp
    return tuple(sorted((d, e) for d, e in acc.items() if e != 0))


def round_scale(scale: float) -> float:
    """Snap a scale to the nearest power of ten when it is one."""
    if scale <= 0:
        return scale
    exp = round(math.log10(scale))
    return 10.0 ** exp if abs(scale / 10.0 ** exp - 1.0) < 1e-9 else scale


def _u(dims: Dict[str, int], scale: float = 1.0) -> Unit:
    return Unit(tuple(sorted(dims.items())), scale)


TIME = {"T": 1}
FREQ = {"C": 1, "T": -1}
POWER = {"E": 1, "T": -1}
ENERGY = {"E": 1}
CYCLES = {"C": 1}

#: Suffix -> unit.  The last ``_``-separated component of a name is
#: looked up here (case-insensitively).
SUFFIX_UNITS: Dict[str, Unit] = {
    "s": _u(TIME), "sec": _u(TIME), "secs": _u(TIME),
    "seconds": _u(TIME),
    "ms": _u(TIME, 1e-3), "us": _u(TIME, 1e-6), "ns": _u(TIME, 1e-9),
    "hz": _u(FREQ), "khz": _u(FREQ, 1e3), "mhz": _u(FREQ, 1e6),
    "ghz": _u(FREQ, 1e9),
    "w": _u(POWER), "watts": _u(POWER), "mw": _u(POWER, 1e-3),
    "j": _u(ENERGY), "joules": _u(ENERGY), "uj": _u(ENERGY, 1e-6),
    "cycles": _u(CYCLES), "gcycles": _u(CYCLES, 1e9),
    "ratio": _u({}), "frac": _u({}), "fraction": _u({}),
}

_CANONICAL_NAMES = {(u.dims, round_scale(u.scale)): name
                    for name, u in reversed(list(SUFFIX_UNITS.items()))}

#: Established unsuffixed conventions, mirroring the RL006 audited
#: exemption table: these names *mean* these units everywhere in the
#: tree (documented in the respective module docstrings), so the
#: analysis treats them as typed.  ``work`` is in giga-cycles by the
#: cpu.core execution model (``w / f`` seconds at ``f`` GHz).
KNOWN_NAME_UNITS: Dict[str, Unit] = {
    "time": _u(TIME), "now": _u(TIME), "start_time": _u(TIME),
    "finish_time": _u(TIME), "arrival_time": _u(TIME),
    "dispatch_time": _u(TIME), "deadline": _u(TIME), "delay": _u(TIME),
    "elapsed": _u(TIME), "running_elapsed": _u(TIME),
    "transition_latency": _u(TIME),
    "freq": _u(FREQ, 1e9), "dispatch_freq": _u(FREQ, 1e9),
    "initial_freq": _u(FREQ, 1e9),
    "work": _u(CYCLES, 1e9),
}

#: Conversion factors: literal multipliers/divisors that re-scale a
#: value between SI magnitudes.  Only powers of ten whose exponent is a
#: multiple of 3 qualify (1e3, 1e-6, 1e9, ...); ``* 10`` or ``* 100``
#: are coefficients (backoff factors, percentages), not conversions.
def conversion_factor(value: object) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    v = float(value)
    if v <= 0:
        return None
    exp = round(math.log10(v))
    if exp == 0 or exp % 3 != 0:
        return None
    return 10.0 ** exp if abs(v / 10.0 ** exp - 1.0) < 1e-9 else None


def name_unit(name: str) -> Optional[Unit]:
    """The unit a bare name declares, by suffix or known convention."""
    lowered = name.lower().lstrip("_")
    if lowered in KNOWN_NAME_UNITS:
        return KNOWN_NAME_UNITS[lowered]
    if "_" not in lowered:
        return None
    suffix = lowered.rsplit("_", 1)[1]
    return SUFFIX_UNITS.get(suffix)


# ----------------------------------------------------------------------
# Rule descriptors (registered with the driver, not the per-file
# registry --- these need the whole project)
# ----------------------------------------------------------------------
PROGRAM_UNIT_RULES: Dict[str, Tuple[str, str]] = {
    "RL101": ("cross-dimension",
              "arithmetic/comparison between different physical "
              "dimensions (e.g. seconds + GHz)"),
    "RL102": ("unit-magnitude",
              "same dimension, mismatched magnitude with no conversion "
              "factor (e.g. seconds + microseconds)"),
    "RL103": ("unit-argument",
              "argument's unit suffix contradicts the parameter's "
              "declared unit at a resolved call site"),
    "RL104": ("unit-assignment",
              "assigned/returned value's unit contradicts the target "
              "name's declared unit"),
}


# ----------------------------------------------------------------------
# Expression/function analysis
# ----------------------------------------------------------------------
_PASSTHROUGH_CALLS = frozenset({
    "abs", "float", "round", "sorted", "sum", "int",
    "math.fabs", "math.floor", "math.ceil", "copysign",
})
_JOINING_CALLS = frozenset({"min", "max"})


class _FunctionAnalyzer:
    """Abstract interpretation of one function body over the unit
    lattice.  ``collect=True`` emits findings; either way the walk
    records the units of ``return`` expressions for signature
    inference."""

    def __init__(self, analysis: "UnitAnalysis", module: ModuleInfo,
                 func: FunctionInfo, enclosing: Optional[ClassInfo],
                 collect: bool):
        self.analysis = analysis
        self.module = module
        self.func = func
        self.enclosing = enclosing
        self.cls_qual = enclosing.qualname if enclosing is not None else None
        self.collect = collect
        self.env: Dict[str, Optional[Unit]] = {}
        self.return_units: List[Optional[Unit]] = []
        for param in func.all_params:
            self.env[param] = name_unit(param)

    # -- findings ------------------------------------------------------
    def flag(self, code: str, node: ast.AST, message: str) -> None:
        if not self.collect:
            return
        name, _ = PROGRAM_UNIT_RULES[code]
        self.analysis.findings.append(Finding(
            code, name, self.module.path, getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0), message))

    def _mismatch(self, node: ast.AST, what: str, left: Unit,
                  right: Unit) -> None:
        if not left.same_dims(right):
            self.flag("RL101", node,
                      f"{what} mixes dimensions: {left.render()} vs "
                      f"{right.render()}")
        elif not left.same_scale(right):
            factor = right.scale / left.scale
            self.flag("RL102", node,
                      f"{what} mixes magnitudes: {left.render()} vs "
                      f"{right.render()} (off by x{factor:g}; apply an "
                      f"explicit conversion)")

    # -- statements ----------------------------------------------------
    def run(self) -> None:
        self.walk_body(self.func.node.body)

    def walk_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.walk_stmt(stmt)

    def walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            unit = self.infer(stmt.value)
            for target in stmt.targets:
                self.assign(target, unit, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.assign(stmt.target, self.infer(stmt.value),
                            stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            value_unit = self.infer(stmt.value)
            target_unit = self.target_unit(stmt.target)
            if isinstance(stmt.op, (ast.Add, ast.Sub)) and \
                    target_unit is not None and value_unit is not None \
                    and not self.is_literal(stmt.value):
                self._mismatch(stmt, "augmented assignment",
                               target_unit, value_unit)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                unit = self.infer(stmt.value)
                if not self.is_literal(stmt.value):
                    self.return_units.append(unit)
                declared = name_unit(self.func.name)
                if declared is not None and unit is not None and \
                        not self.is_literal(stmt.value):
                    if not (declared.same_dims(unit)
                            and declared.same_scale(unit)):
                        self._mismatch(
                            stmt, f"return from `{self.func.name}()` "
                            f"(declared {declared.render()} by suffix)",
                            declared, unit)
        elif isinstance(stmt, (ast.If, ast.While)):
            self.infer(stmt.test)
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_unit = self.infer(stmt.iter)
            self.assign(stmt.target, iter_unit, None, check=False)
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.infer(item.context_expr)
            self.walk_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.walk_body(stmt.body)
            for handler in stmt.handlers:
                self.walk_body(handler.body)
            self.walk_body(stmt.orelse)
            self.walk_body(stmt.finalbody)
        elif isinstance(stmt, ast.Expr):
            self.infer(stmt.value)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pass  # nested defs: analyzed via the symbol table if named
        elif isinstance(stmt, (ast.Assert,)):
            self.infer(stmt.test)
        elif isinstance(stmt, ast.Raise) and stmt.exc is not None:
            self.infer(stmt.exc)

    def _is_self_attr(self, node: ast.AST) -> bool:
        return (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")
                and self.cls_qual is not None)

    def target_unit(self, target: ast.AST) -> Optional[Unit]:
        if isinstance(target, ast.Name):
            declared = name_unit(target.id)
            return declared if declared is not None \
                else self.env.get(target.id)
        if isinstance(target, ast.Attribute):
            declared = name_unit(target.attr)
            if declared is None and self._is_self_attr(target):
                return self.analysis.attr_unit(self.cls_qual, target.attr)
            return declared
        return None

    def assign(self, target: ast.AST, unit: Optional[Unit],
               value: Optional[ast.AST], check: bool = True) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.assign(elt, None, None, check=False)
            return
        declared = None
        if isinstance(target, ast.Name):
            declared = name_unit(target.id)
        elif isinstance(target, ast.Attribute):
            declared = name_unit(target.attr)
        if check and declared is not None and unit is not None and \
                value is not None and not self.is_literal(value):
            if not (declared.same_dims(unit)
                    and declared.same_scale(unit)):
                name = target.id if isinstance(target, ast.Name) \
                    else target.attr
                if not declared.same_dims(unit):
                    self.flag("RL104", target,
                              f"`{name}` declares {declared.render()} "
                              f"but is assigned {unit.render()}")
                else:
                    factor = declared.scale / unit.scale
                    self.flag("RL104", target,
                              f"`{name}` declares {declared.render()} "
                              f"but is assigned {unit.render()} "
                              f"(multiply by {factor:g} to convert)")
        if isinstance(target, ast.Name):
            # The suffix stays authoritative for later uses; inference
            # only fills unsuffixed locals.
            self.env[target.id] = declared if declared is not None \
                else unit
        elif not self.collect and self._is_self_attr(target):
            # Signature pass: learn instance-attribute units from what
            # the class's own methods assign (``self.interval = 1.0``
            # teaches nothing; ``self.interval = interval_s`` pins
            # seconds).  Conflicting writes collapse to unknown.
            self.analysis.record_attr(
                self.cls_qual, target.attr,
                declared if declared is not None else unit,
                known=unit is not None or declared is not None)

    # -- expressions ---------------------------------------------------
    def is_literal(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, (int, float)) and \
                not isinstance(node.value, bool)
        if isinstance(node, ast.UnaryOp) and \
                isinstance(node.op, (ast.USub, ast.UAdd)):
            return self.is_literal(node.operand)
        return False

    def literal_value(self, node: ast.AST) -> Optional[float]:
        if isinstance(node, ast.Constant) and \
                isinstance(node.value, (int, float)) and \
                not isinstance(node.value, bool):
            return float(node.value)
        if isinstance(node, ast.UnaryOp) and \
                isinstance(node.op, (ast.USub, ast.UAdd)):
            inner = self.literal_value(node.operand)
            if inner is None:
                return None
            return -inner if isinstance(node.op, ast.USub) else inner
        return None

    def infer(self, node: ast.AST) -> Optional[Unit]:
        """Infer ``node``'s unit; emits findings along the way when in
        collect mode.  ``None`` = unknown (never flagged)."""
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            return name_unit(node.id)
        if isinstance(node, ast.Attribute):
            self.infer(node.value)
            declared = name_unit(node.attr)
            if declared is None and self._is_self_attr(node):
                return self.analysis.attr_unit(self.cls_qual, node.attr)
            return declared
        if isinstance(node, ast.Constant):
            return None
        if isinstance(node, ast.UnaryOp):
            return self.infer(node.operand)
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node)
        if isinstance(node, ast.Compare):
            return self._infer_compare(node)
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, ast.IfExp):
            self.infer(node.test)
            return self._join_units([self.infer(node.body),
                                     self.infer(node.orelse)])
        if isinstance(node, ast.BoolOp):
            return self._join_units([self.infer(v) for v in node.values])
        if isinstance(node, ast.Subscript):
            unit = self.infer(node.value)
            self.infer(node.slice)
            return unit
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            units = [self.infer(e) for e in node.elts]
            concrete = [u for u, e in zip(units, node.elts)
                        if u is not None and not self.is_literal(e)]
            if concrete and all(
                    c.same_dims(concrete[0]) and c.same_scale(concrete[0])
                    for c in concrete):
                return concrete[0]
            return None
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self.infer(key)
            values = [self.infer(v) for v in node.values]
            concrete = [u for u in values if u is not None]
            if concrete and all(
                    c.same_dims(concrete[0]) and c.same_scale(concrete[0])
                    for c in concrete):
                return concrete[0]
            return None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for gen in node.generators:
                self.infer(gen.iter)
            return None
        if isinstance(node, ast.Starred):
            return self.infer(node.value)
        # walk remaining children so nested compares/calls get checked
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.infer(child)
        return None

    def _join_units(self, units: List[Optional[Unit]]) -> Optional[Unit]:
        concrete = [u for u in units if u is not None]
        if not concrete:
            return None
        first = concrete[0]
        if all(u.same_dims(first) and u.same_scale(first)
               for u in concrete[1:]):
            return first
        return None

    def _infer_binop(self, node: ast.BinOp) -> Optional[Unit]:
        left = self.infer(node.left)
        right = self.infer(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if left is not None and right is not None and \
                    not self.is_literal(node.left) and \
                    not self.is_literal(node.right):
                self._mismatch(node, "additive expression", left, right)
                if not (left.same_dims(right)
                        and left.same_scale(right)):
                    return None
            return left if left is not None else right
        if isinstance(node.op, ast.Mult):
            return self._scaleop(node, left, right, invert=False,
                                 symmetric=True)
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            return self._scaleop(node, left, right, invert=True,
                                 symmetric=False)
        if isinstance(node.op, ast.Pow):
            exp = self.literal_value(node.right)
            if left is not None and exp is not None and \
                    float(exp).is_integer():
                return left ** int(exp)
            return None
        if isinstance(node.op, ast.Mod):
            return left
        return None

    def _scaleop(self, node: ast.BinOp, left: Optional[Unit],
                 right: Optional[Unit], invert: bool,
                 symmetric: bool) -> Optional[Unit]:
        lval = self.literal_value(node.left)
        rval = self.literal_value(node.right)
        # unit op literal: conversion factor or plain coefficient
        if left is not None and rval is not None:
            factor = conversion_factor(rval)
            if factor is None:
                return left
            return left.rescaled(1.0 / factor if invert else factor)
        if symmetric and right is not None and lval is not None:
            factor = conversion_factor(lval)
            return right if factor is None else right.rescaled(factor)
        if left is not None and right is not None:
            return left / right if invert else left * right
        if invert and lval is None and left is None and right is not None:
            return None  # unknown / unit: unknown
        return None

    def _infer_compare(self, node: ast.Compare) -> Optional[Unit]:
        sides = [node.left, *node.comparators]
        units = [self.infer(s) for s in sides]
        for op, (a, ua), (b, ub) in zip(
                node.ops, zip(sides, units), zip(sides[1:], units[1:])):
            if not isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                continue
            if ua is None or ub is None:
                continue
            if self.is_literal(a) or self.is_literal(b):
                continue
            self._mismatch(node, "comparison", ua, ub)
        return None

    # -- calls ---------------------------------------------------------
    def _infer_call(self, node: ast.Call) -> Optional[Unit]:
        arg_units = [self.infer(a) for a in node.args]
        kw_units = {kw.arg: self.infer(kw.value) for kw in node.keywords
                    if kw.arg is not None}
        for kw in node.keywords:
            if kw.arg is None:
                self.infer(kw.value)

        func = node.func
        simple_name = None
        if isinstance(func, ast.Name):
            simple_name = func.id
        dotted = Project._dotted_text(func)

        if simple_name in _JOINING_CALLS or dotted in _JOINING_CALLS:
            concrete = [(a, u) for a, u in zip(node.args, arg_units)
                        if u is not None and not self.is_literal(a)]
            for arg, unit in concrete[1:]:
                self._mismatch(node, f"`{simple_name}(...)` arguments",
                               concrete[0][1], unit)
            return concrete[0][1] if concrete else None
        if (simple_name in _PASSTHROUGH_CALLS
                or dotted in _PASSTHROUGH_CALLS):
            return arg_units[0] if arg_units else None

        targets = self.analysis.project.function_for_call(
            self.module, node, enclosing_class=self.enclosing)
        if len(targets) == 1:
            self._check_call_args(node, targets[0], arg_units, kw_units)
            declared = self.analysis.signature_return(targets[0])
            if declared is not None:
                return declared
        # Unresolved calls: trust the called name's suffix
        # (``to_trace_us(...)`` yields microseconds).
        if isinstance(func, ast.Attribute):
            return name_unit(func.attr)
        if simple_name is not None:
            return name_unit(simple_name)
        return None

    def _check_call_args(self, node: ast.Call, target: FunctionInfo,
                         arg_units: List[Optional[Unit]],
                         kw_units: Dict[str, Optional[Unit]]) -> None:
        if any(isinstance(a, ast.Starred) for a in node.args):
            return
        params = target.params
        bindings: List[Tuple[str, ast.AST, Optional[Unit]]] = []
        for i, (arg, unit) in enumerate(zip(node.args, arg_units)):
            if i < len(params):
                bindings.append((params[i], arg, unit))
        by_name = {p: p for p in target.all_params}
        for kw in node.keywords:
            if kw.arg in by_name:
                bindings.append((kw.arg, kw.value,
                                 kw_units.get(kw.arg)))
        for param, arg, unit in bindings:
            declared = name_unit(param)
            if declared is None or unit is None or self.is_literal(arg):
                continue
            if declared.same_dims(unit) and declared.same_scale(unit):
                continue
            if not declared.same_dims(unit):
                self.flag("RL103", arg,
                          f"argument of {unit.render()} bound to "
                          f"parameter `{param}` of "
                          f"`{target.qualname}()` which declares "
                          f"{declared.render()}")
            else:
                factor = declared.scale / unit.scale
                self.flag("RL103", arg,
                          f"argument magnitude {unit.render()} bound to "
                          f"parameter `{param}` of "
                          f"`{target.qualname}()` declaring "
                          f"{declared.render()} (multiply by "
                          f"{factor:g} to convert)")


# ----------------------------------------------------------------------
# The whole-program pass
# ----------------------------------------------------------------------
class UnitAnalysis:
    """Two-pass dimensional analysis over a :class:`Project`.

    Pass 1 (signatures): every function gets parameter units from its
    parameter suffixes and a return unit from its name suffix or, when
    unsuffixed, a fixpoint over the units of its ``return`` expressions
    (so ``CStateModel.wake_latency`` infers *seconds* from returning
    ``wake_latency_s`` fields).  Pass 2 (check): every function body is
    re-walked with the signature table available, emitting RL101-RL104.
    """

    #: Signature-inference fixpoint rounds (call chains deeper than
    #: this propagate partially; in practice 3 converges the repo).
    MAX_ROUNDS = 3

    def __init__(self, project: Project):
        self.project = project
        self.findings: List[Finding] = []
        self._returns: Dict[str, Optional[Unit]] = {}
        self._declared: Dict[str, Optional[Unit]] = {}
        #: class qualname -> unsuffixed attr -> inferred unit (``None``
        #: marks an attr whose writes disagree: poisoned, never used).
        self._attr_units: Dict[str, Dict[str, Optional[Unit]]] = {}
        self._round_changed = False
        for qualname, func in project.functions.items():
            self._declared[qualname] = name_unit(func.name)

    def signature_return(self, func: FunctionInfo) -> Optional[Unit]:
        declared = self._declared.get(func.qualname)
        if declared is not None:
            return declared
        return self._returns.get(func.qualname)

    # -- instance-attribute units --------------------------------------
    def attr_unit(self, cls_qualname: str, attr: str) -> Optional[Unit]:
        """Inferred unit of an *unsuffixed* instance attribute, walking
        project base classes (suffixed attrs resolve via name_unit)."""
        seen = set()
        stack = [cls_qualname]
        while stack:
            qualname = stack.pop(0)
            if qualname in seen:
                continue
            seen.add(qualname)
            attrs = self._attr_units.get(qualname)
            if attrs is not None and attr in attrs:
                return attrs[attr]
            cls = self.project.classes.get(qualname)
            if cls is not None:
                stack.extend(cls.bases)
        return None

    def record_attr(self, cls_qualname: str, attr: str,
                    unit: Optional[Unit], known: bool) -> None:
        """Accumulate one ``self.attr = ...`` observation.  Two writes
        that disagree poison the attr (recorded as ``None``); writes of
        unknown unit neither teach nor poison."""
        if not known or unit is None:
            return
        attrs = self._attr_units.setdefault(cls_qualname, {})
        if attr not in attrs:
            attrs[attr] = unit
            self._round_changed = True
            return
        current = attrs[attr]
        if current is None:
            return
        if not (current.same_dims(unit) and current.same_scale(unit)):
            attrs[attr] = None
            self._round_changed = True

    def _iter_functions(self) -> Iterator[Tuple[ModuleInfo, FunctionInfo,
                                                Optional[ClassInfo]]]:
        for module in self.project.modules.values():
            for func in self.project.functions.values():
                if func.module != module.name:
                    continue
                enclosing = None
                if func.class_name is not None:
                    enclosing = self.project.classes.get(
                        f"{module.name}.{func.class_name}")
                yield module, func, enclosing

    def run(self) -> List[Finding]:
        # Pass 1: signature + attribute fixpoint.
        for _ in range(self.MAX_ROUNDS):
            changed = False
            self._round_changed = False
            for module, func, enclosing in self._iter_functions():
                if self._declared.get(func.qualname) is not None and \
                        enclosing is None:
                    continue
                analyzer = _FunctionAnalyzer(self, module, func,
                                             enclosing, collect=False)
                analyzer.run()
                if self._declared.get(func.qualname) is not None:
                    continue
                concrete = [u for u in analyzer.return_units
                            if u is not None]
                inferred = None
                if concrete and all(
                        c.same_dims(concrete[0])
                        and c.same_scale(concrete[0])
                        for c in concrete[1:]):
                    inferred = concrete[0]
                if self._returns.get(func.qualname) != inferred:
                    self._returns[func.qualname] = inferred
                    changed = True
            if not changed and not self._round_changed:
                break
        # Pass 2: checking.
        self.findings = []
        for module, func, enclosing in self._iter_functions():
            _FunctionAnalyzer(self, module, func, enclosing,
                              collect=True).run()
        self.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
        return self.findings


__all__ = [
    "KNOWN_NAME_UNITS", "PROGRAM_UNIT_RULES", "SUFFIX_UNITS", "Unit",
    "UnitAnalysis", "conversion_factor", "name_unit",
]
