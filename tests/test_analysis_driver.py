"""``run_analysis`` and the CLI on synthetic trees: suppression
accounting, including the synthesized unused-suppression findings."""

import pytest

from repro.analysis.cli import main as cli_main
from repro.analysis.linter import (
    parse_suppressions, run_analysis, suppression_covers,
)


def write_tree(tmp_path, files):
    root = tmp_path / "repro"
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        for parent in target.parents:
            if parent == tmp_path:
                break
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("")
    return root


# ----------------------------------------------------------------------
# Suppression parsing (tokenize-based)
# ----------------------------------------------------------------------
def test_parse_suppressions_reads_real_comments_only():
    source = (
        '"""Docs show `x  # reprolint: disable=RL001 - example`."""\n'
        "#: doc comment citing ``# reprolint: disable=RL002 - ex``\n"
        "x = 1  # reprolint: disable=RL003 - the real one\n")
    sups = parse_suppressions(source)
    assert list(sups) == [3]
    assert sups[3].codes == frozenset({"RL003"})
    assert sups[3].reason == "the real one"


def test_suppression_covers_rl009_needs_explicit_listing():
    sups = parse_suppressions(
        "a = 1  # reprolint: disable\n"
        "b = 2  # reprolint: disable=RL009\n")
    assert suppression_covers(sups[1], "RL001")
    assert not suppression_covers(sups[1], "RL009")
    assert suppression_covers(sups[2], "RL009")


# ----------------------------------------------------------------------
# run_analysis: used and unused suppressions
# ----------------------------------------------------------------------
def test_driver_reports_unused_suppression(tmp_path):
    write_tree(tmp_path, {
        "sim/x.py": "def f():  # reprolint: disable=RL001 - stale\n"
                    "    return 1\n",
    })
    result = run_analysis([tmp_path])
    assert [f.code for f in result.findings] == ["RL009"]
    assert "unused" in result.findings[0].message


def test_driver_used_suppression_is_not_flagged(tmp_path):
    write_tree(tmp_path, {
        "sim/x.py": "import time\n"
                    "def f():\n"
                    "    return time.time()  "
                    "# reprolint: disable=RL001 - fixture\n",
    })
    result = run_analysis([tmp_path])
    assert result.findings == []
    assert [f.code for f in result.suppressed] == ["RL001"]


def test_driver_select_skips_unused_detection(tmp_path):
    write_tree(tmp_path, {
        "sim/x.py": "def f():  # reprolint: disable=RL001 - stale\n"
                    "    return 1\n",
    })
    result = run_analysis([tmp_path], select=["RL001"])
    assert result.findings == []


# ----------------------------------------------------------------------
# CLI end to end
# ----------------------------------------------------------------------
def test_cli_select_accepts_only_per_file_codes(tmp_path, capsys):
    root = write_tree(tmp_path, {"sim/x.py": "x = 1\n"})
    assert cli_main([str(root), "--select", "RL003"]) == 0
    # The deleted whole-program codes are unknown now, like RL999.
    for code in ("RL101", "RL102", "RL103", "RL104",
                 "RL110", "RL111", "RL112", "RL113", "RL999"):
        with pytest.raises(SystemExit) as raised:
            cli_main([str(root), "--select", code])
        assert raised.value.code == 2
