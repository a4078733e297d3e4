"""The seeded-mutant driver: what catches each reprolint rule's bug?

Each row of :data:`MUTANTS` is a one-line edit ``(rule, path, old,
new)``.  The edit violates ``rule`` and plants the bug the rule exists
to prevent; where that bug can change a result, the edit changes one.
For the unmutated control row and for each mutant the driver

1. exports ``HEAD`` with ``git archive`` into a temporary directory;
2. applies the edit, failing unless ``old`` occurs exactly once;
3. runs ``python -m repro.analysis src`` on the copy and records the
   codes it reports (``HEAD`` lints clean, so every finding is the
   edit's);
4. runs tier-1 without ``-x`` and without the analyzer's own test
   files, once plain and once under ``REPRO_SIMSAN=1``.

It prints one row per mutant: the rules that flag it, then each run's
failures, split into pins (goldens, figure renders, trace sha256
digests) and other tests.  A rule whose mutant tier-1 fails in both
runs guards nothing tier-1 does not; DESIGN.md section 9 records each
verdict.  The control row must be green; the exit status is 1
otherwise.  Run it from anywhere, with no options (70 minutes on two
cores)::

    python tests/mutants.py
"""

from __future__ import annotations

import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent

#: The analyzer's own tests: they assert rule behaviour, not results.
ANALYZER_TESTS = ("tests/test_reprolint.py", "tests/test_analysis_driver.py",
                  "tests/test_analysis_program.py")

#: Tests that compare a result with a stored fingerprint.
PIN_TESTS = (
    "tests/test_results_pinned.py::"
    "test_cell_matches_pre_optimization_fingerprint",
    "tests/test_fleet_experiment.py::test_cell_matches_pinned_fingerprint",
    "tests/test_fleet_chaos.py::test_cell_matches_pinned_fingerprint",
    "tests/test_figures.py::test_render_pinned",
    "tests/test_server.py::test_traced_exports_are_byte_identical",
)


class Mutant(NamedTuple):
    rule: str
    path: str
    old: str
    new: str


MUTANTS: Tuple[Mutant, ...] = (
    # Host time leaks into the governor's utilization window.
    Mutant("RL001", "src/repro/governors/base.py",
           "        window = now - self._last_sample_time_s",
           "        import time; window = now - self._last_sample_time_s"
           " + time.perf_counter() % 1e-4"),
    # The arrival generator draws its gaps from the shared global RNG.
    Mutant("RL002", "src/repro/workloads/arrivals.py",
           "            gap = (2.0 / rate) * self._random()",
           "            gap = (2.0 / rate) * random.random()"),
    # Estimator training fills one window per workload from one stream,
    # in the order this property yields them: hash order of the names.
    Mutant("RL003", "src/repro/core/workload.py",
           "for name in sorted(self._workloads)]",
           "for name in set(self._workloads)]"),
    # Exact equality on a computed frequency in the governor's step.
    Mutant("RL004", "src/repro/governors/base.py",
           "            elif abs(target - self.core.freq) > 1e-12:",
           "            elif target != self.core.freq:"),
    # One list shared by every WorkloadManager built without arguments.
    Mutant("RL005", "src/repro/core/workload.py",
           "def __init__(self, workloads: Iterable[Workload] = ()):",
           "def __init__(self, workloads: Iterable[Workload] = []):"),
    # A bare-named sample instant that holds milliseconds.
    Mutant("RL006", "src/repro/governors/base.py",
           "        self._last_sample_time_s = now",
           "        self._last_sample_time_s = self._last_sample_time"
           " = now * 1e3"),
    # A bare except on the DVFS write: it swallows any error, a bug's
    # included, as an injected MSR failure.
    Mutant("RL007", "src/repro/db/server.py",
           "        except InjectedMsrError:",
           "        except:"),
    # A P-state that can be mutated or grow attributes.
    Mutant("RL008", "src/repro/cpu/pstates.py",
           "@dataclass(frozen=True)",
           "@dataclass"),
    # RL007's bare except, hidden by a blanket suppression that gives
    # no reason.
    Mutant("RL009", "src/repro/db/server.py",
           "        except InjectedMsrError:",
           "        except:  # reprolint: disable"),
)

_FINDING_RE = re.compile(r"^\S+:\d+:\d+: (RL\d{3}) ")
_FAILED_RE = re.compile(r"^(?:FAILED|ERROR) (\S+)")


def export_head(into: Path) -> None:
    """Extract ``HEAD``'s tracked files into ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", "HEAD"],
                             cwd=REPO, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into)


def apply(root: Path, mutant: Mutant) -> None:
    target = root / mutant.path
    text = target.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.rule}: `old` occurs {count} times in "
                         f"{mutant.path}, not once")
    target.write_text(text.replace(mutant.old, mutant.new),
                      encoding="utf-8")


def _env(root: Path, **extra: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env.update(extra)
    return env


def flagging_rules(root: Path) -> List[str]:
    out = subprocess.run([sys.executable, "-m", "repro.analysis", "src"],
                         cwd=root, env=_env(root), capture_output=True,
                         text=True).stdout
    return sorted({m.group(1) for line in out.splitlines()
                   if (m := _FINDING_RE.match(line))})


def tier1_failures(root: Path, **extra: str) -> List[str]:
    ignores = [f"--ignore={path}" for path in ANALYZER_TESTS]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
         "no:cacheprovider", *ignores],
        cwd=root, env=_env(root, **extra), capture_output=True, text=True)
    failures = sorted({m.group(1) for line in run.stdout.splitlines()
                       if (m := _FAILED_RE.match(line))})
    if run.returncode != 0 and not failures:
        failures = [f"<pytest exit status {run.returncode}>"]
    return failures


def split_pins(failures: List[str]) -> Tuple[List[str], List[str]]:
    pins = [f for f in failures if f.split("[", 1)[0] in PIN_TESTS]
    return pins, [f for f in failures if f not in pins]


def run_row(mutant: Optional[Mutant]) -> bool:
    """Print one row; True unless it is green (no rule flags it and
    tier-1 passes in both runs)."""
    label = mutant.rule if mutant else "control"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        export_head(root)
        if mutant is not None:
            apply(root, mutant)
        flagged = flagging_rules(root)
        runs = {"plain": tier1_failures(root),
                "simsan": tier1_failures(root, REPRO_SIMSAN="1")}
    print(f"{label:<8} flagged by: {', '.join(flagged) or '-'}")
    for run, failures in runs.items():
        pins, other = split_pins(failures)
        print(f"  {run:<7} {len(pins)} pins, {len(other)} other")
        for name in pins + other:
            print(f"    {name}")
    sys.stdout.flush()
    return any(runs.values()) or bool(flagged)


def main() -> int:
    if run_row(None):
        print("control row is not green", file=sys.stderr)
        return 1
    for mutant in MUTANTS:
        run_row(mutant)
    return 0


if __name__ == "__main__":
    sys.exit(main())
