"""reprolint: per-rule positive/negative fixtures, suppressions, CLI.

Each rule gets at least one snippet that MUST be flagged and one that
must NOT.  Fixtures are linted as strings with synthetic repro-ish
paths (``src/repro/sim/x.py``) so the directory-scoped rules see the
layout they scope on.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import rules as rules_module  # populates the registry
from repro.analysis.cli import main as cli_main
from repro.analysis.linter import (
    PARSE_ERROR_CODE, RULE_REGISTRY, lint_source, run_analysis,
)

SIM = "src/repro/sim/x.py"
CORE = "src/repro/core/x.py"
CPU = "src/repro/cpu/x.py"
HARNESS = "src/repro/harness/x.py"


def codes(source, path=SIM, **kwargs):
    return [f.code for f in lint_source(source, path=path, **kwargs)]


# ----------------------------------------------------------------------
# RL001 wall clock
# ----------------------------------------------------------------------
def test_rl001_flags_wall_clock_calls():
    assert "RL001" in codes("import time\nt = time.time()\n")
    assert "RL001" in codes("import time\nt = time.perf_counter()\n")
    assert "RL001" in codes(
        "import datetime\nd = datetime.datetime.now()\n")


def test_rl001_resolves_import_aliases():
    assert "RL001" in codes("import time as tm\nt = tm.monotonic()\n")
    assert "RL001" in codes(
        "from time import perf_counter\nt = perf_counter()\n")
    assert "RL001" in codes(
        "from datetime import datetime\nd = datetime.utcnow()\n")


def test_rl001_allowlists_profiling_helpers():
    source = (
        "import time\n"
        "def perf_clock():\n"
        "    return time.perf_counter()\n")
    assert codes(source, path="src/repro/harness/profiling.py") == []
    # The same source anywhere else (or in another function) is flagged.
    assert "RL001" in codes(source, path=HARNESS)
    other = ("import time\ndef helper():\n    return time.time()\n")
    assert "RL001" in codes(other, path="src/repro/harness/profiling.py")


def test_rl001_ignores_unrelated_time_names():
    assert codes("import time\nx = time.sleep\n") == []
    assert codes("t = sim.now\n") == []


# ----------------------------------------------------------------------
# RL002 unseeded random
# ----------------------------------------------------------------------
def test_rl002_flags_global_rng():
    assert "RL002" in codes("import random\nx = random.random()\n")
    assert "RL002" in codes("import random\nx = random.randint(1, 3)\n")
    assert "RL002" in codes("from random import shuffle\nshuffle([1])\n")


def test_rl002_flags_unseeded_random_instance():
    assert "RL002" in codes("import random\nr = random.Random()\n")


def test_rl002_allows_seeded_and_threaded_rng():
    assert codes("import random\nr = random.Random(0)\n") == []
    assert codes("def f(rng):\n    return rng.random()\n") == []


# ----------------------------------------------------------------------
# RL003 set iteration
# ----------------------------------------------------------------------
def test_rl003_flags_set_iteration_in_sim_dirs():
    assert "RL003" in codes("for x in set(names):\n    push(x)\n")
    assert "RL003" in codes("for x in {1, 2, 3}:\n    push(x)\n",
                            path=CORE)
    assert "RL003" in codes("out = [f(x) for x in frozenset(names)]\n")
    assert "RL003" in codes("out = [y for y in {n for n in names}]\n")
    # A draw bound to each element in hash order, outside the sim dirs.
    assert "RL003" in codes("def assign(rng, cores):\n"
                            "    for core in set(cores):\n"
                            "        core.bias = rng.random()\n",
                            path=HARNESS)


def test_rl003_allows_sorted_sets_and_other_dirs():
    assert codes("for x in sorted(set(names)):\n    push(x)\n") == []
    assert codes("for x in names:\n    push(x)\n") == []
    # RL003 has no directory scope: the theory layer is checked too.
    assert "RL003" in codes("for x in set(names):\n    push(x)\n",
                            path="src/repro/theory/x.py")


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
# RL006 unit suffixes
# ----------------------------------------------------------------------
def test_rl006_flags_bare_time_and_freq_names():
    assert "RL006" in codes("def f(self, sampling_interval):\n    pass\n",
                            path=CPU)
    assert "RL006" in codes(
        "class C:\n    def __init__(self):\n        self.wake_delay = 0\n",
        path=CPU)
    assert "RL006" in codes(
        "class C:\n    boost_freq: float = 2.8\n", path=CPU)


def test_rl006_allows_suffixed_exempt_and_out_of_scope():
    assert codes("def f(self, sampling_interval_s):\n    pass\n",
                 path=CPU) == []
    # Audited exemptions (documented conventions) pass.
    assert codes("def f(self, arrival_time, dispatch_freq):\n    pass\n",
                 path=CORE) == []
    # Out-of-scope directories are not checked.
    assert codes("def f(self, sampling_interval):\n    pass\n",
                 path=HARNESS) == []


def test_rl006_exemption_table_documents_reasons():
    for name, reason in rules_module.RL006_AUDITED_EXEMPTIONS.items():
        assert reason.strip(), f"exemption {name!r} has no reason"


def test_rl006_obs_dir_checked_with_trace_unit_exemptions():
    obs = "src/repro/obs/x.py"
    # obs is in scope: bare time-ish names are flagged there.
    assert "RL006" in codes("def f(self, ts):\n    pass\n", path=obs)
    assert "RL006" in codes("def f(self, dur):\n    pass\n", path=obs)
    assert "RL006" in codes("def f(self, timestamp):\n    pass\n", path=obs)
    # The Chrome trace-event integer-microsecond fields are audited
    # exemptions, not suffix violations.
    assert codes("def f(self, ts_us, dur_us):\n    pass\n", path=obs) == []
    assert "ts_us" in rules_module.RL006_AUDITED_EXEMPTIONS
    assert "dur_us" in rules_module.RL006_AUDITED_EXEMPTIONS


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
    src = ("import time\n"
           "t = time.time()  # reprolint: disable=RL001 - test fixture\n")
    assert codes(src) == []
    assert "RL001" in codes(src, include_suppressed=True)


def test_suppression_multiple_codes_and_blanket():
    src = ("import random\n"
           "x = random.random()  # reprolint: disable=RL001,RL002 - x\n"
           "y = random.random()  # reprolint: disable - blanket, w/ reason\n")
    assert codes(src) == []


# ----------------------------------------------------------------------
# RL009 suppression hygiene
# ----------------------------------------------------------------------
def test_rl009_flags_reasonless_suppressions():
    src = ("import random\n"
           "x = random.random()  # reprolint: disable=RL002\n")
    assert codes(src) == ["RL009"]
    blanket = ("import random\n"
               "x = random.random()  # reprolint: disable\n")
    assert codes(blanket) == ["RL009"]


def test_rl009_not_silenced_by_the_comment_it_flags():
    # The blanket comment suppresses everything *except* the hygiene
    # finding about itself; only an explicit RL009 listing covers it.
    blanket = "x = 1  # reprolint: disable\n"
    assert codes(blanket) == ["RL009"]
    # An *explicit* RL009 listing is the sanctioned opt-out: the code
    # is named, so a reviewer grepping for RL009 still finds it.
    explicit = "x = 1  # reprolint: disable=RL009\n"
    assert codes(explicit) == []
    assert "RL009" in codes(explicit, include_suppressed=True)


def test_suppression_only_applies_to_its_line():
    src = ("import time\n"
           "a = 1  # reprolint: disable=RL001 - wrong line\n"
           "t = time.time()\n")
    assert "RL001" in codes(src)


def test_parse_error_yields_rl000():
    findings = lint_source("def broken(:\n", path=SIM)
    assert [f.code for f in findings] == [PARSE_ERROR_CODE]


def test_select_restricts_rules():
    src = "import time\nimport random\nt = time.time()\nr = random.random()\n"
    assert codes(src, select=["RL001"]) == ["RL001"]


def test_registry_has_the_per_file_rules():
    assert sorted(RULE_REGISTRY) == \
        [f"RL00{i}" for i in range(1, 10)]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_clean_file_exits_zero(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n")
    assert cli_main([str(target)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_dirty_file_exits_one_with_json(tmp_path, capsys):
    target = tmp_path / "dirty.py"
    target.write_text("import time\nt = time.time()\n")
    assert cli_main([str(target), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"RL001": 1}
    assert payload["findings"][0]["line"] == 2


def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in RULE_REGISTRY:
        assert code in out


def test_cli_rejects_unknown_select(tmp_path):
    with pytest.raises(SystemExit):
        cli_main([str(tmp_path), "--select", "RL999"])


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
    src = Path(__file__).resolve().parent.parent / "src"
    findings = run_analysis([src]).findings
    assert findings == [], "\n".join(f.format() for f in findings)
