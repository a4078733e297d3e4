"""``run_analysis`` on synthetic trees: suppression accounting,
including the synthesized unused-suppression findings."""

from pathlib import Path

from repro.analysis.linter import parse_suppressions, run_analysis


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
    assert sups[1].covers("RL007")
    assert not sups[1].covers("RL009")
    assert sups[2].covers("RL009")


# ----------------------------------------------------------------------
# run_analysis: used and unused suppressions
# ----------------------------------------------------------------------
def test_driver_reports_unused_suppression(tmp_path):
    write_tree(tmp_path, {
        "sim/x.py": "def f():  # reprolint: disable=RL007 - stale\n"
                    "    return 1\n",
    })
    result = run_analysis([tmp_path])
    assert [f.code for f in result.findings] == ["RL009"]
    assert "unused" in result.findings[0].message


def test_driver_used_suppression_is_not_flagged(tmp_path):
    body = ("def f():\n"
            "    try:\n"
            "        return g()\n"
            "    except:{}\n"
            "        raise\n")
    write_tree(tmp_path, {
        "sim/x.py": body.format("  # reprolint: disable=RL007 - fixture"),
        "sim/y.py": body.format(""),
    })
    findings = run_analysis([tmp_path]).findings
    assert [(f.code, Path(f.path).name) for f in findings] == \
        [("RL007", "y.py")]
