"""The reprolint rule set (RL001-RL009).

Every rule encodes one clause of this reproduction's determinism /
invariant contract --- the property that every figure is a pure
function of ``(ExperimentConfig, seed)`` and that scheduler decisions
obey the paper's invariants:

========  =============================================================
RL001     Wall-clock reads (``time.time``/``monotonic``/``perf_counter``,
          ``datetime.now``) anywhere except the one sanctioned helper
          in ``harness/profiling.py`` (``perf_clock``).
          Wall time leaking into simulation state breaks run-to-run
          reproducibility and poisons the sweep cache.
RL002     Module-level / unseeded :mod:`random` usage.  Every RNG must
          thread an explicit ``random.Random`` handle (usually from
          :class:`repro.sim.rng.RandomStreams`); the shared global RNG
          couples unrelated components and defeats variance isolation.
RL003     Iteration over ``set`` expressions, anywhere in the tree.  Set
          order depends on ``PYTHONHASHSEED`` for str/object elements,
          so any side effect performed per element (row inserts, heap
          pushes, event scheduling, an RNG draw bound to the element)
          becomes run-dependent.  Wrap in ``sorted(...)``.
RL004     ``==``/``!=`` on time/frequency-valued names.  Times and
          frequencies are floats built by arithmetic; compare with a
          tolerance (``abs(a - b) < eps``) or ``math.isinf``/``isclose``.
RL005     Mutable default arguments (shared across calls).
RL006     Unit-suffix discipline in ``cpu/``, ``sim/``, ``core/``,
          ``governors/``: parameters, ``self`` attributes, and
          dataclass fields with bare time/frequency names must carry a
          unit suffix (``_s``/``_us``/``_ghz``/``_seconds``/...) or
          appear in the audited exemption table below.
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

Every rule sees one file at a time.  Mistakes that only show across
modules (a unit mismatch at a call, two components drawing from one
stream, host time reached through a helper) change a simulated
result, so they are left to the pinned fingerprints and the unit
tests; DESIGN.md §9 records a seeded mutant of each that tier-1
caught.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence

from repro.analysis.linter import (
    SUPPRESSION_HYGIENE_CODE, FileContext, Finding, LintRule, register,
)

# ----------------------------------------------------------------------
# RL001 --- wall-clock reads
# ----------------------------------------------------------------------
#: Fully-qualified wall-clock/timer reads that make output depend on
#: the host clock.
WALL_CLOCK_FQNS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: The allowlist: (repro-relative path, enclosing function) pairs whose
#: bodies may read the host clock.  Kept to exactly the one helper in
#: ``harness/profiling.py`` so "who can see wall time" is grep-sized.
RL001_ALLOWED_FUNCTIONS = frozenset({
    ("harness/profiling.py", "perf_clock"),
})


@register
class WallClockRule(LintRule):
    code = "RL001"
    name = "wall-clock"
    description = ("host clock read outside the sanctioned "
                   "harness.profiling helpers")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._visit(ctx, ctx.tree, None)

    def _visit(self, ctx: FileContext, node: ast.AST,
               func: Optional[str]) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        allowed = (ctx.rel, func) in RL001_ALLOWED_FUNCTIONS
        for child in ast.iter_child_nodes(node):
            if not allowed:
                yield from self._flag(ctx, child)
            yield from self._visit(ctx, child, func)

    def _flag(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        if isinstance(node, ast.Attribute):
            fqn = ctx.resolve_dotted(node)
            if fqn in WALL_CLOCK_FQNS:
                yield self.finding(
                    ctx, node,
                    f"wall-clock read `{fqn}` leaks host time into the "
                    f"run; use repro.harness.profiling.perf_clock()")
        elif isinstance(node, ast.Name):
            fqn = ctx.imported_names.get(node.id)
            if fqn in WALL_CLOCK_FQNS and \
                    isinstance(node.ctx, ast.Load):
                yield self.finding(
                    ctx, node,
                    f"wall-clock read `{node.id}` (= {fqn}) leaks host "
                    f"time into the run; use repro.harness.profiling "
                    f"helpers")
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.level == 0:
            for alias in node.names:
                fqn = f"{node.module}.{alias.name}"
                if fqn in WALL_CLOCK_FQNS:
                    yield self.finding(
                        ctx, node,
                        f"importing wall-clock `{fqn}`; route host-time "
                        f"reads through repro.harness.profiling")


# ----------------------------------------------------------------------
# RL002 --- unseeded / module-level random
# ----------------------------------------------------------------------
#: Functions of the *shared global* RNG in :mod:`random`.  Using them
#: (or an argument-less ``random.Random()``) makes draws depend on
#: interpreter-global state instead of an explicitly threaded stream.
GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "uniform", "choice", "choices", "shuffle",
    "sample", "randrange", "randbytes", "getrandbits", "seed",
    "gauss", "normalvariate", "lognormvariate", "expovariate",
    "betavariate", "gammavariate", "paretovariate", "weibullvariate",
    "vonmisesvariate", "triangular", "binomialvariate",
})


@register
class UnseededRandomRule(LintRule):
    code = "RL002"
    name = "unseeded-random"
    description = ("module-level random.* call or unseeded Random(); "
                   "thread an explicit random.Random handle")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                fqn = ctx.resolve_dotted(node.func)
                if fqn is None and isinstance(node.func, ast.Name):
                    fqn = ctx.imported_names.get(node.func.id)
                if fqn == "random.Random" and not node.args and \
                        not node.keywords:
                    yield self.finding(
                        ctx, node,
                        "random.Random() without a seed draws entropy "
                        "from the OS; pass an explicit seed or a "
                        "repro.sim.rng stream")
                elif fqn is not None and fqn.startswith("random.") and \
                        fqn.split(".", 1)[1] in GLOBAL_RANDOM_FNS:
                    yield self.finding(
                        ctx, node,
                        f"`{fqn}` uses the shared global RNG; thread an "
                        f"explicit random.Random (repro.sim.rng) handle")
            elif isinstance(node, ast.ImportFrom) and \
                    node.module == "random" and node.level == 0:
                for alias in node.names:
                    if alias.name in GLOBAL_RANDOM_FNS:
                        yield self.finding(
                            ctx, node,
                            f"importing global-RNG `random.{alias.name}`; "
                            f"thread an explicit random.Random handle")


# ----------------------------------------------------------------------
# RL003 --- set iteration order
# ----------------------------------------------------------------------
def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@register
class SetIterationRule(LintRule):
    code = "RL003"
    name = "set-iteration-order"
    description = ("iterating a set: element order depends on "
                   "PYTHONHASHSEED; wrap in sorted(...)")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            iters: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_set_expr(it):
                    yield self.finding(
                        ctx, it,
                        "iteration over a set runs in hash order "
                        "(PYTHONHASHSEED-dependent for str/object "
                        "elements); use sorted(...) for a "
                        "deterministic order")


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
# RL006 --- unit-suffix discipline
# ----------------------------------------------------------------------
RL006_DIRS = ("cpu", "sim", "core", "governors", "obs")

#: Bare semantic time/frequency words that demand a unit suffix.
#: ``ts``/``dur``/``timestamp`` joined the list with the repro.obs
#: tracing subsystem, whose field vocabulary is timestamp-heavy.
_RL006_TIME_RE = re.compile(
    r"(?:^|_)(?:time|duration|delay|interval|latency|elapsed|period"
    r"|timeout|ts|dur|timestamp)$")
_RL006_FREQ_RE = re.compile(r"(?:^|_)freq(?:uency)?$")
_RL006_UNIT_SUFFIX_RE = re.compile(
    r"_(?:s|us|ms|ns|sec|secs|seconds|ghz|mhz|khz|hz)$")

#: The audited exemption table, seeded from a sweep of the existing
#: tree (PR 2).  Each entry names an established, *documented*
#: convention; new code should prefer explicit suffixes.  Additions
#: belong here (with a reason) or inline via
#: ``# reprolint: disable=RL006 - reason``.
RL006_AUDITED_EXEMPTIONS: Dict[str, str] = {
    # -- virtual-clock convention: the engine measures time in float
    #    seconds (sim/engine.py module docstring) -------------------------
    "time": "virtual seconds; engine-wide convention (sim.engine docstring)",
    "finish_time": "virtual seconds (core.request timing)",
    "arrival_time": "virtual seconds (core.request docstring)",
    "dispatch_time": "virtual seconds (core.request docstring)",
    "deadline": "absolute virtual seconds: a(t) + L(c(t)) (core.request)",
    "delay": "relative virtual seconds (Simulator.schedule docstring)",
    "running_elapsed": "the paper's e0, in virtual seconds (Figure 2)",
    # -- frequency convention: every frequency in the simulator is in
    #    GHz (cpu.core module docstring); `*_freq` names predate the
    #    suffix rule and are pinned by the public API -----------------------
    "freq": "GHz; cpu.core docstring ('f GHz drains f giga-cycles/s')",
    "dispatch_freq": "GHz at dispatch; public Request field",
    "initial_freq": "GHz; public Core/DatabaseServer parameter",
    "single_freq": "boolean flag (ran under one frequency), not a value",
    "transition_latency": "seconds; mirrors the ServerConfig/"
                          "ExperimentConfig field of the same name",
    # -- trace-field convention: the Chrome trace-event format mandates
    #    integer MICROSECONDS for `ts` and `dur`, so repro.obs converts
    #    virtual seconds at the recording boundary and names the stored
    #    fields with the `_us` suffix (repro.obs.trace docstring) --------
    "ts_us": "Chrome trace-event `ts`: integer microseconds by format "
             "mandate (repro.obs.trace.to_trace_us)",
    "dur_us": "Chrome trace-event `dur`: integer microseconds by format "
              "mandate (complete-event exports)",
}


@register
class UnitSuffixRule(LintRule):
    code = "RL006"
    name = "unit-suffix"
    description = ("time/frequency name without a unit suffix "
                   "(_s/_us/_ghz/...) or an audited exemption")

    def _violates(self, name: str) -> bool:
        if name in RL006_AUDITED_EXEMPTIONS:
            return False
        if _RL006_UNIT_SUFFIX_RE.search(name):
            return False
        return bool(_RL006_TIME_RE.search(name)
                    or _RL006_FREQ_RE.search(name))

    def _flag(self, ctx: FileContext, node: ast.AST, name: str,
              kind: str) -> Finding:
        return self.finding(
            ctx, node,
            f"{kind} `{name}` holds a time/frequency but carries no "
            f"unit suffix; rename (e.g. `{name}_s` / `{name}_ghz`) or "
            f"add an audited exemption with a reason")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_dirs(RL006_DIRS):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = [*node.args.posonlyargs, *node.args.args,
                        *node.args.kwonlyargs]
                for arg in args:
                    if arg.arg in ("self", "cls"):
                        continue
                    if self._violates(arg.arg):
                        yield self._flag(ctx, arg, arg.arg, "parameter")
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and \
                            isinstance(target.value, ast.Name) and \
                            target.value.id == "self" and \
                            self._violates(target.attr):
                        yield self._flag(ctx, target, target.attr,
                                         "attribute")
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and \
                            isinstance(stmt.target, ast.Name) and \
                            self._violates(stmt.target.id):
                        yield self._flag(ctx, stmt, stmt.target.id,
                                         "field")


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


def _dataclass_decorator(node: ast.ClassDef,
                         ctx: FileContext) -> Optional[ast.AST]:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        fqn = ctx.resolve_dotted(target)
        name = target.id if isinstance(target, ast.Name) else None
        if fqn in ("dataclasses.dataclass",) or name == "dataclass" or \
                (isinstance(target, ast.Attribute)
                 and target.attr == "dataclass"):
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
            deco = _dataclass_decorator(node, ctx)
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


__all__ = [
    "GLOBAL_RANDOM_FNS", "RL001_ALLOWED_FUNCTIONS",
    "RL006_AUDITED_EXEMPTIONS", "WALL_CLOCK_FQNS",
]
