"""Call-graph construction and reachability over a :class:`Project`.

The graph is a conservative over-approximation: an edge ``A -> B``
means "a call expression in ``A``'s body may land on ``B``".  Direct
calls, constructor calls, and ``self.method`` dispatch resolve to a
single target; attribute calls on unknown receivers fan out to every
project method of that name (capped --- a call to a name defined on
dozens of classes carries no information and would only add noise).

Reachability queries power the flow analyses: "can this engine function
reach a wall-clock read?", "does a BatchedStream ever flow into
``shuffle``?".  Edges are tagged with the call site so findings can
show the *path*, not just the endpoints.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.project import (
    ClassInfo, FunctionInfo, ModuleInfo, Project,
)

#: An attribute call matching more project methods than this resolves
#: to nothing: past that fan-out the edge set is noise, not signal.
MAX_ATTR_CANDIDATES = 6


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    caller: str              #: qualname of the enclosing function
    callee: str              #: qualname of a candidate target
    line: int
    col: int
    ambiguous: bool          #: True when resolved via the name index


def iter_calls(project: Project, module: ModuleInfo) -> Iterator[
        Tuple[Optional[FunctionInfo], ast.Call, Optional[ClassInfo]]]:
    """Yield ``(enclosing_function, call, enclosing_class)`` for every
    call expression in ``module``; the enclosing function is the
    innermost named def (lambdas/comprehensions attribute to it)."""

    def walk(node: ast.AST, owner: Optional[FunctionInfo],
             cls: Optional[ClassInfo]):
        for child in ast.iter_child_nodes(node):
            next_owner, next_cls = owner, cls
            if isinstance(child, ast.ClassDef):
                next_cls = project.classes.get(
                    f"{module.name}.{child.name}")
                next_owner = None
            elif isinstance(child, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                if cls is not None:
                    qual = f"{module.name}.{cls.name}.{child.name}"
                else:
                    qual = f"{module.name}.{child.name}"
                next_owner = project.functions.get(qual, owner)
            if isinstance(child, ast.Call):
                yield owner, child, cls
            yield from walk(child, next_owner, next_cls)

    yield from walk(module.tree, None, None)


class CallGraph:
    """Directed multigraph of call sites between project functions."""

    def __init__(self, project: Project):
        self.project = project
        self.edges: List[CallSite] = []
        #: caller qualname -> callee qualnames (deduplicated)
        self.successors: Dict[str, Set[str]] = {}
        #: callee qualname -> caller qualnames
        self.predecessors: Dict[str, Set[str]] = {}
        #: function qualname -> call sites made from its body
        self.calls_from: Dict[str, List[CallSite]] = {}
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        for module in self.project.modules.values():
            for owner, call, enclosing in iter_calls(self.project, module):
                caller = owner.qualname if owner is not None \
                    else f"{module.name}.<module>"
                targets = self.project.function_for_call(
                    module, call, enclosing_class=enclosing)
                ambiguous = len(targets) > 1
                if ambiguous and len(targets) > MAX_ATTR_CANDIDATES:
                    continue
                for target in targets:
                    self._add(CallSite(
                        caller=caller, callee=target.qualname,
                        line=getattr(call, "lineno", 0),
                        col=getattr(call, "col_offset", 0),
                        ambiguous=ambiguous))

    def _add(self, site: CallSite) -> None:
        self.edges.append(site)
        self.successors.setdefault(site.caller, set()).add(site.callee)
        self.predecessors.setdefault(site.callee, set()).add(site.caller)
        self.calls_from.setdefault(site.caller, []).append(site)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def can_reach(self, sinks: Iterable[str],
                  include_ambiguous: bool = False) -> Set[str]:
        """Every function from which some sink is reachable.

        This is backward reachability over the edge set --- the taint
        query.  Ambiguous edges are *excluded* by default: taint through
        a many-candidate method name is overwhelmingly a false positive.
        """
        tainted: Set[str] = set()
        stack = list(sinks)
        while stack:
            name = stack.pop()
            if name in tainted:
                continue
            tainted.add(name)
            for caller in sorted(self.predecessors.get(name, ())):
                if caller in tainted:
                    continue
                for site in self.calls_from.get(caller, ()):
                    if site.callee == name and \
                            (include_ambiguous or not site.ambiguous):
                        stack.append(caller)
                        break
        return tainted

    def shortest_path(self, source: str,
                      sinks: Set[str],
                      include_ambiguous: bool = False,
                      ) -> Optional[List[str]]:
        """BFS path from ``source`` to any of ``sinks`` (inclusive)."""
        if source in sinks:
            return [source]
        parents: Dict[str, str] = {}
        queue = [source]
        seen = {source}
        while queue:
            name = queue.pop(0)
            succs = set()
            for site in self.calls_from.get(name, ()):
                if include_ambiguous or not site.ambiguous:
                    succs.add(site.callee)
            for succ in sorted(succs):
                if succ in seen:
                    continue
                parents[succ] = name
                if succ in sinks:
                    path = [succ]
                    while path[-1] != source:
                        path.append(parents[path[-1]])
                    return path[::-1]
                seen.add(succ)
                queue.append(succ)
        return None


__all__ = ["CallGraph", "CallSite", "MAX_ATTR_CANDIDATES", "iter_calls"]
