"""The repo's benchmark ledger (see bench/README.md and BENCHMARK.json).

Four named workloads, end-to-end metrics on two clocks (host time and
simulated results), and a per-layer ledger taken from *outside* the
program: nothing under ``src/`` knows this package exists.  Run it from
the repo root with ``python -m bench``.
"""

import os
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

#: The checkout that holds this package (``bench/`` sits at its root).
ROOT = Path(__file__).resolve().parent.parent
#: Where the program under test lives.
SRC = ROOT / "src"


@contextmanager
def scratch_dir(tag: str) -> Iterator[Path]:
    """A fresh directory *inside the checkout* (the benchmark may write
    nowhere else), removed on exit together with its parent if no
    concurrent run still uses that."""
    path = ROOT / ".bench_tmp" / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            path.parent.rmdir()
        except OSError:
            pass
