"""Byte-identity pins: optimized engine vs the pre-optimization path.

``tests/data/pinned_results.json`` was captured from the serial,
heapq-engine, unbatched-RNG code immediately before the PR-6
optimizations landed.  Every optimization in that PR (calendar event
queue --- since replaced by one heap of list-entry events, under these
same pins --- batched RNG streams, POLARIS mu-vector cache, queue scan fast
path, persistent sweep pool) claims *exact* value identity, so the
full-precision fingerprints of a diverse cell grid must not move.

If a future PR changes simulation semantics on purpose, regenerate the
pins (``PYTHONPATH=src python tests/pinned.py --write server``) and say
so in the PR description.
"""

import inspect
import os
import re
import sys
import textwrap

import pytest

sys.path.insert(0, os.path.dirname(__file__))
from pinned import (
    HIGH_FAILURE_CELLS, TIERS, assert_pinned, load_pins, pinned_grid,
    stored_parts,
)
from repro.core import polaris
from repro.core.polaris import PolarisScheduler
from repro.harness.experiment import RunFlags, run_experiment

GRID = pinned_grid()


def test_every_pinned_cell_still_defined():
    assert set(load_pins("server")) == set(GRID)


def test_only_listed_pinned_cells_fail_most_requests():
    """Every tier's goldens, read back as data: a cell pinned at
    ``failure_rate`` >= 0.5 must be listed with its reason, and a listed
    cell that no longer fails that often must leave the list."""
    rates = {label: stored_parts(pinned)[0]["failure_rate"]
             for tier in TIERS for label, pinned in load_pins(tier).items()}
    high = {label: rate for label, rate in rates.items() if rate >= 0.5}
    assert set(high) == set(HIGH_FAILURE_CELLS), high


@pytest.mark.parametrize("label", sorted(GRID))
def test_cell_matches_pre_optimization_fingerprint(label):
    assert_pinned(label, run_experiment(GRID[label]))


def test_seeded_mutant_fails_naming_the_fields_that_moved(monkeypatch):
    """Flip one comparison in ``PolarisScheduler._walk`` (escalate when
    the item *meets* its deadline at the candidate level): the pin must
    fail, and its message must be the field-level diff --- a result
    field and both values --- not two kilobyte strings."""
    source = textwrap.dedent(inspect.getsource(PolarisScheduler._walk))
    original = "if now + q + m > deadline:"
    assert source.count(original) == 1
    namespace = dict(vars(polaris))
    exec(source.replace(original, "if now + q + m < deadline:"), namespace)
    monkeypatch.setattr(PolarisScheduler, "_walk", namespace["_walk"])
    label = "tpcc:polaris:seed5:slack10:load0.6:mixedfreq"
    # Unsanitized whatever the environment says: the mutant must reach
    # the fingerprint rather than trip simsan's hint-exact on the way.
    result = run_experiment(GRID[label],
                            flags=RunFlags(False, False, None))
    with pytest.raises(AssertionError) as failure:
        assert_pinned(label, result)
    message = str(failure.value)
    assert len(message) < 2000
    assert re.search(r"^  avg_power_watts: \d+\.\d+ -> \d+\.\d+$",
                     message, re.MULTILINE), message
    assert re.search(r"^  freq_residency\[2\.8\]: \S+ -> \S+$",
                     message, re.MULTILINE), message
