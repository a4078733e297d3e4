"""The reprolint driver: one entry point over both rule layers.

``run_analysis`` orchestrates

1. the **per-file** AST rules (RL001-RL009, :mod:`repro.analysis.rules`)
   over every target file,
2. the **whole-program** analyses --- unit-dimension inference
   (RL101-RL104, :mod:`repro.analysis.units`) and wall-clock/RNG flow
   analysis (RL110-RL113, :mod:`repro.analysis.flows`) --- over the
   project model built once from all target files, and
3. **suppression accounting**: program findings honour the same
   ``# reprolint: disable`` comments as per-file ones (looked up
   through the module's :class:`FileContext`), and on a full run every
   suppression that silenced nothing is reported as an unused-RL009
   finding, so dead opt-outs cannot linger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis import rules  # noqa: F401 - populates the registry
from repro.analysis.linter import (
    PARSE_ERROR_CODE, SUPPRESSION_HYGIENE_CODE, FileContext, Finding,
    Suppression, _select_rules, iter_python_files, parse_suppressions,
    suppression_covers,
)

#: Whole-program rule codes, by analysis.
UNIT_CODES = ("RL101", "RL102", "RL103", "RL104")
FLOW_CODES = ("RL110", "RL111", "RL112", "RL113")
PROGRAM_CODES = UNIT_CODES + FLOW_CODES


def program_rule_table() -> List[Tuple[str, str, str]]:
    """(code, name, description) for the whole-program rules."""
    from repro.analysis.flows import PROGRAM_FLOW_RULES
    from repro.analysis.units import PROGRAM_UNIT_RULES
    merged = {**PROGRAM_UNIT_RULES, **PROGRAM_FLOW_RULES}
    return [(code, name, desc)
            for code, (name, desc) in sorted(merged.items())]


@dataclass
class AnalysisResult:
    """Everything one analysis run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    program_ran: bool = False

    def sort(self) -> None:
        key = lambda f: (f.path, f.line, f.col, f.code)  # noqa: E731
        self.findings.sort(key=key)
        self.suppressed.sort(key=key)


# ----------------------------------------------------------------------
# Per-file unit of work
# ----------------------------------------------------------------------
@dataclass
class _FileResult:
    kept: List[Finding]
    suppressed: List[Finding]
    used_lines: List[int]
    suppressions: List[Suppression]


def _lint_one(path: str, source: str,
              select: Optional[Sequence[str]]) -> _FileResult:
    """Run the per-file rules, partitioning kept vs suppressed."""
    try:
        ctx = FileContext(path, source)
    except SyntaxError as exc:
        return _FileResult(
            kept=[Finding(PARSE_ERROR_CODE, "parse-error", str(path),
                          exc.lineno or 0, exc.offset or 0,
                          f"cannot parse file: {exc.msg}")],
            suppressed=[], used_lines=[],
            suppressions=list(parse_suppressions(source).values()))
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    used: Set[int] = set()
    for rule in _select_rules(select):
        for finding in rule.check(ctx):
            if ctx.is_suppressed(finding.code, finding.line):
                suppressed.append(finding)
                used.add(finding.line)
            else:
                kept.append(finding)
    return _FileResult(kept=kept, suppressed=suppressed,
                       used_lines=sorted(used),
                       suppressions=list(ctx.suppressions.values()))


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
def _wants_program(select: Optional[Sequence[str]]) -> bool:
    if select is None:
        return True
    return any(code in PROGRAM_CODES for code in select)


def _run_program_rules(paths: Sequence,
                       select: Optional[Sequence[str]]) -> List[Finding]:
    from repro.analysis.callgraph import CallGraph
    from repro.analysis.flows import FlowAnalysis
    from repro.analysis.project import Project
    from repro.analysis.units import UnitAnalysis

    wanted = None if select is None else set(select)
    run_units = wanted is None or any(c in wanted for c in UNIT_CODES)
    run_flows = wanted is None or any(c in wanted for c in FLOW_CODES)
    project = Project.load(paths)
    findings: List[Finding] = []
    if run_units:
        findings.extend(UnitAnalysis(project).run())
    if run_flows:
        findings.extend(FlowAnalysis(project, CallGraph(project)).run())
    if wanted is not None:
        findings = [f for f in findings if f.code in wanted]
    return findings


def _unused_suppression_findings(
        per_file: Dict[str, _FileResult],
        used_program: Dict[str, Set[int]]) -> Tuple[List[Finding],
                                                    List[Finding]]:
    """Synthesize RL009 findings for suppressions that silenced nothing.

    Returns (kept, suppressed): an unused-suppression finding whose
    comment explicitly lists RL009 is itself suppressed (the sanctioned
    opt-out), everything else is reported.
    """
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for path, result in per_file.items():
        used = set(result.used_lines) | used_program.get(path, set())
        reasonless = {f.line for f in result.kept + result.suppressed
                      if f.code == SUPPRESSION_HYGIENE_CODE}
        for sup in result.suppressions:
            if sup.line in used:
                continue
            if sup.line in reasonless:
                continue  # already flagged for the missing reason
            what = "blanket suppression" if sup.codes is None else \
                f"suppression of {', '.join(sorted(sup.codes))}"
            finding = Finding(
                SUPPRESSION_HYGIENE_CODE, "suppression-hygiene", path,
                sup.line, sup.col,
                f"unused {what}: no finding on this line needs it; "
                f"remove the disable comment")
            if sup.codes is not None and \
                    SUPPRESSION_HYGIENE_CODE in sup.codes:
                suppressed.append(finding)
            else:
                kept.append(finding)
    return kept, suppressed


def run_analysis(paths: Sequence,
                 select: Optional[Sequence[str]] = None) -> AnalysisResult:
    """Analyze ``paths`` with both rule layers; see the module docstring.

    ``select`` restricts the run to the listed codes (per-file and/or
    program); unused-suppression detection only happens on unrestricted
    runs, where "nothing needed this suppression" is actually known.
    """
    result = AnalysisResult()
    per_file: Dict[str, _FileResult] = {}
    for path in iter_python_files(paths):
        per_file[str(path)] = _lint_one(
            str(path), path.read_text(encoding="utf-8"), select)
    result.files_checked = len(per_file)

    for file_result in per_file.values():
        result.findings.extend(file_result.kept)
        result.suppressed.extend(file_result.suppressed)

    # ------------------------------------------------------------------
    # Whole-program layer
    # ------------------------------------------------------------------
    used_program: Dict[str, Set[int]] = {}
    if _wants_program(select):
        # Program findings honour per-file disable comments.
        suppressions = {
            path: {s.line: s for s in file_result.suppressions}
            for path, file_result in per_file.items()}
        for finding in _run_program_rules(paths, select):
            sup = suppressions.get(finding.path, {}).get(finding.line)
            if sup is not None and suppression_covers(sup, finding.code):
                result.suppressed.append(finding)
                used_program.setdefault(finding.path,
                                        set()).add(finding.line)
            else:
                result.findings.append(finding)
        result.program_ran = True

    # ------------------------------------------------------------------
    # Unused suppressions (full runs only)
    # ------------------------------------------------------------------
    if select is None and result.program_ran:
        unused_kept, unused_suppressed = _unused_suppression_findings(
            per_file, used_program)
        result.findings.extend(unused_kept)
        result.suppressed.extend(unused_suppressed)

    result.sort()
    return result


__all__ = ["AnalysisResult", "FLOW_CODES", "PROGRAM_CODES", "UNIT_CODES",
           "program_rule_table", "run_analysis"]
