"""reprolint: per-rule positive/negative fixtures, suppressions, CLI,
and the seeded-mutant table behind the rule set.

Each rule gets at least one snippet that MUST be flagged and one that
must NOT.  Fixtures are linted as strings with synthetic repro-ish
paths (``src/repro/sim/x.py``) so the directory-scoped rules see the
layout they scope on.
"""

import os
import sys
from pathlib import Path

import pytest

from repro.analysis import rules  # noqa: F401 - populates the registry
from repro.analysis.cli import main as cli_main
from repro.analysis.linter import (
    PARSE_ERROR_CODE, RULE_REGISTRY, lint_source, run_analysis,
)

sys.path.insert(0, os.path.dirname(__file__))
from mutants import MUTANTS, REPO

SIM = "src/repro/sim/x.py"
CORE = "src/repro/core/x.py"
CPU = "src/repro/cpu/x.py"
HARNESS = "src/repro/harness/x.py"


def codes(source, path=SIM):
    return [f.code for f in lint_source(source, path=path)]


def bare_except(comment=""):
    """A bare ``except:`` (RL007) whose line carries ``comment``."""
    return f"try:\n    f()\nexcept:{comment}\n    raise\n"


# ----------------------------------------------------------------------
# RL004 float equality
# ----------------------------------------------------------------------
def test_rl004_flags_time_and_freq_equality():
    assert "RL004" in codes("if next_time == end_time:\n    pass\n")
    assert "RL004" in codes("ok = req.deadline != t\n")
    assert "RL004" in codes("if freq == 2.8:\n    pass\n")
    assert "RL004" in codes("if wake_latency_s == 0.5:\n    pass\n")


def test_rl004_ignores_counters_and_none_checks():
    # freq_transitions is an int counter, not a frequency value.
    assert codes("if freq_transitions == 3:\n    pass\n") == []
    assert codes("if finish_time == None:\n    pass\n") == []
    assert codes("if next_time <= deadline:\n    pass\n") == []


# ----------------------------------------------------------------------
# RL005 mutable defaults
# ----------------------------------------------------------------------
def test_rl005_flags_mutable_defaults():
    assert "RL005" in codes("def f(items=[]):\n    pass\n")
    assert "RL005" in codes("def f(*, table={}):\n    pass\n")
    assert "RL005" in codes("def f(seen=set()):\n    pass\n")


def test_rl005_allows_immutable_defaults():
    assert codes("def f(items=None, n=3, name='x', t=()):\n    pass\n") == []


# ----------------------------------------------------------------------
# RL007 swallowed exceptions
# ----------------------------------------------------------------------
def test_rl007_flags_bare_except_everywhere():
    src = "try:\n    f()\nexcept:\n    raise ValueError\n"
    assert "RL007" in codes(src, path=HARNESS)


def test_rl007_flags_swallowed_in_hot_paths_only():
    src = "try:\n    f()\nexcept OSError:\n    pass\n"
    assert "RL007" in codes(src, path=SIM)
    assert codes(src, path=HARNESS) == []


def test_rl007_allows_handled_exceptions():
    src = "try:\n    f()\nexcept OSError:\n    recover()\n"
    assert codes(src, path=SIM) == []


# ----------------------------------------------------------------------
# RL008 dataclass hygiene
# ----------------------------------------------------------------------
def test_rl008_flags_unslotted_dataclass_in_sim():
    src = ("from dataclasses import dataclass\n"
           "@dataclass\nclass S:\n    x: int = 0\n")
    assert "RL008" in codes(src, path=SIM)
    assert "RL008" in codes(src, path=CPU)
    assert codes(src, path=HARNESS) == []


def test_rl008_allows_frozen_slots_or_plain_classes():
    frozen = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass S:\n    x: int = 0\n")
    slots_kw = ("from dataclasses import dataclass\n"
                "@dataclass(slots=True)\nclass S:\n    x: int = 0\n")
    dunder = ("from dataclasses import dataclass\n"
              "@dataclass\nclass S:\n    __slots__ = ('x',)\n    x: int\n")
    plain = "class S:\n    pass\n"
    for src in (frozen, slots_kw, dunder, plain):
        assert codes(src, path=SIM) == []


# ----------------------------------------------------------------------
# Framework behaviour
# ----------------------------------------------------------------------
def test_suppression_comment_silences_one_code():
    assert codes(bare_except()) == ["RL007"]
    assert codes(bare_except("  # reprolint: disable=RL007 - fixture")) == []
    assert codes(bare_except("  # reprolint: disable=RL004 - other")) == \
        ["RL007"]


def test_suppression_multiple_codes_and_blanket():
    src = ("try:\n    f()\n"
           "except:  # reprolint: disable=RL004,RL007 - x\n"
           "    ok = core.freq == 2.0  # reprolint: disable - blanket, why\n")
    assert codes(src) == []


# ----------------------------------------------------------------------
# RL009 suppression hygiene
# ----------------------------------------------------------------------
def test_rl009_flags_reasonless_suppressions():
    assert codes(bare_except("  # reprolint: disable=RL007")) == ["RL009"]
    assert codes(bare_except("  # reprolint: disable")) == ["RL009"]


def test_rl009_not_silenced_by_the_comment_it_flags():
    # The blanket comment suppresses everything *except* the hygiene
    # finding about itself; only an explicit RL009 listing covers it.
    blanket = "x = 1  # reprolint: disable\n"
    assert codes(blanket) == ["RL009"]
    # An *explicit* RL009 listing is the sanctioned opt-out: the code
    # is named, so a reviewer grepping for RL009 still finds it.
    explicit = "x = 1  # reprolint: disable=RL009\n"
    assert codes(explicit) == []


def test_suppression_only_applies_to_its_line():
    src = ("a = 1  # reprolint: disable=RL004 - wrong line\n"
           "ok = core.freq == 2.0\n")
    assert codes(src) == ["RL004"]


def test_parse_error_yields_rl000():
    findings = lint_source("def broken(:\n", path=SIM)
    assert [f.code for f in findings] == [PARSE_ERROR_CODE]


def test_registry_has_the_per_file_rules():
    assert sorted(RULE_REGISTRY) == [
        "RL004", "RL005", "RL007", "RL008", "RL009"]


# ----------------------------------------------------------------------
# The seeded-mutant table (tests/mutants.py) cannot rot: each edit
# still applies, and each kept rule still flags its mutant --- the
# reason it stays (DESIGN.md section 9).
# ----------------------------------------------------------------------
def test_mutant_table_has_one_row_per_rule():
    assert [m.rule for m in MUTANTS] == [f"RL00{i}" for i in range(1, 10)]


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.rule)
def test_mutant_edit_occurs_exactly_once(mutant):
    text = (REPO / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1


@pytest.mark.parametrize("code", sorted(RULE_REGISTRY))
def test_kept_rule_flags_its_mutant(code):
    mutant, = [m for m in MUTANTS if m.rule == code]
    source = (REPO / mutant.path).read_text(encoding="utf-8")
    mutated = source.replace(mutant.old, mutant.new)
    assert code not in codes(source, path=mutant.path)
    assert code in codes(mutated, path=mutant.path)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_clean_file_exits_zero(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n")
    assert cli_main([str(target)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_dirty_file_exits_one(tmp_path, capsys):
    target = tmp_path / "dirty.py"
    target.write_text(bare_except())
    assert cli_main([str(target)]) == 1
    out = capsys.readouterr().out
    assert f"{target}:3:" in out
    assert "1 finding(s) in 1 file(s) [RL007: 1]" in out


def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in RULE_REGISTRY:
        assert code in out


def test_cli_rejects_a_path_with_nothing_to_analyze(tmp_path, capsys):
    # A typo in the CI path must not turn the gate off.
    missing = tmp_path / "no" / "such" / "dir"
    for target in (missing, tmp_path):  # absent; present but no .py
        with pytest.raises(SystemExit) as raised:
            cli_main([str(target)])
        assert raised.value.code == 2
        assert str(target) in capsys.readouterr().err


# ----------------------------------------------------------------------
# The acceptance gate: the shipped tree itself lints clean.
# ----------------------------------------------------------------------
def test_source_tree_is_lint_clean():
    findings = run_analysis([REPO / "src"]).findings
    assert findings == [], "\n".join(f.format() for f in findings)
