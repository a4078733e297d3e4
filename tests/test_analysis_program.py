"""What the retired whole-program rules guarded, still caught elsewhere.

reprolint is a per-file pass; the unit and flow analyses are gone
(DESIGN.md section 9 records each rule's verdict).  These cases keep
their targets covered end to end: a set-iteration draw anywhere in the
package is an RL003 finding of a directory run, a forking draw on a
batched stream fails at runtime, and the CLI gate CI runs over the
shipped tree passes inside its budget.
"""

import time
from pathlib import Path

import pytest

from repro.analysis.cli import main as cli_main
from repro.analysis.linter import run_analysis
from repro.sim.rng import RandomStreams

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def test_rl112_draw_inside_set_iteration(tmp_path):
    target = tmp_path / "repro" / "harness" / "x.py"
    target.parent.mkdir(parents=True)
    target.write_text("def assign(rng, cores):\n"
                      "    for core in set(cores):\n"
                      "        core.bias = rng.random()\n")
    findings = run_analysis([tmp_path / "repro"]).findings
    assert [(f.code, f.line) for f in findings] == [("RL003", 2)]


def test_rl113_forking_api_on_batched_stream():
    arrivals = RandomStreams(7).get_batched("arrivals")
    with pytest.raises(TypeError):
        arrivals.randrange(10)


def test_repo_tree_program_analyses_clean_within_budget():
    started = time.perf_counter()  # reprolint: disable=RL001 - test-only budget guard, measures the analyzer itself
    status = cli_main([str(REPO_SRC)])
    elapsed_s = time.perf_counter() - started  # reprolint: disable=RL001 - test-only budget guard, measures the analyzer itself
    assert status == 0
    assert elapsed_s < 10.0, (
        f"reprolint over src/ took {elapsed_s:.2f}s; the CI budget is 10s")
