"""The CLI gate CI runs over the shipped tree passes inside its budget.

reprolint is a per-file pass over the rules tier-1 cannot replace;
DESIGN.md section 9 records each retired rule's verdict and the tests
that catch its seeded mutant instead.
"""

import time
from pathlib import Path

from repro.analysis.cli import main as cli_main

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def test_repo_tree_program_analyses_clean_within_budget():
    started = time.perf_counter()
    status = cli_main([str(REPO_SRC)])
    elapsed_s = time.perf_counter() - started
    assert status == 0
    assert elapsed_s < 10.0, (
        f"reprolint over src/ took {elapsed_s:.2f}s; the CI budget is 10s")
