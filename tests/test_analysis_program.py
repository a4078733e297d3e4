"""Whole-program analyses: project model, call graph, units, flows.

Fixtures are synthetic packages written under ``tmp_path`` with a
``repro``-named root directory, so module naming, directory-scoped
rules, and cross-module resolution all see the real layout.  The final
tests run the full analyses over the shipped tree: the acceptance
criterion is zero findings within the CI runtime budget.
"""

import time
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.analysis.callgraph import CallGraph
from repro.analysis.flows import FlowAnalysis
from repro.analysis.project import Project
from repro.analysis.units import (
    SUFFIX_UNITS, UnitAnalysis, conversion_factor, name_unit,
)

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def make_package(tmp_path, files):
    """Write ``{relpath: source}`` under a ``repro`` package root."""
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


def unit_findings(tmp_path, files):
    project = Project.load([make_package(tmp_path, files)])
    return UnitAnalysis(project).run()


def flow_findings(tmp_path, files):
    project = Project.load([make_package(tmp_path, files)])
    return FlowAnalysis(project, CallGraph(project)).run()


# ----------------------------------------------------------------------
# Project model + call graph on synthetic packages
# ----------------------------------------------------------------------
def test_project_symbol_table(tmp_path):
    root = make_package(tmp_path, {
        "sim/engine.py": (
            "class Engine:\n"
            "    def schedule(self, delay_s):\n"
            "        return delay_s\n"
            "def run_s():\n"
            "    return 0.0\n"),
    })
    project = Project.load([root])
    assert "repro.sim.engine" in project.modules
    assert "repro.sim.engine.run_s" in project.functions
    assert "repro.sim.engine.Engine" in project.classes
    method = project.functions["repro.sim.engine.Engine.schedule"]
    assert method.params == ["delay_s"]  # self/cls are stripped
    assert any(f.qualname.endswith("Engine.schedule")
               for f in project.methods_by_name["schedule"])


def test_callgraph_resolves_cross_module_calls(tmp_path):
    root = make_package(tmp_path, {
        "a.py": "def leaf():\n    return 1\n",
        "b.py": ("from repro.a import leaf\n"
                 "def mid():\n    return leaf()\n"),
        "c.py": ("from repro import b\n"
                 "def top():\n    return b.mid()\n"),
    })
    project = Project.load([root])
    graph = CallGraph(project)
    path = graph.shortest_path("repro.c.top", {"repro.a.leaf"})
    assert path == ["repro.c.top", "repro.b.mid", "repro.a.leaf"]
    assert graph.shortest_path("repro.a.leaf", {"repro.c.top"}) is None


def test_callgraph_backward_reachability(tmp_path):
    root = make_package(tmp_path, {
        "a.py": "def sink():\n    return 1\n",
        "b.py": ("from repro.a import sink\n"
                 "def caller():\n    return sink()\n"
                 "def bystander():\n    return 2\n"),
    })
    project = Project.load([root])
    graph = CallGraph(project)
    tainted = graph.can_reach({"repro.a.sink"})
    assert "repro.b.caller" in tainted
    assert "repro.b.bystander" not in tainted


# ----------------------------------------------------------------------
# Unit lattice properties
# ----------------------------------------------------------------------
SUFFIXES = sorted(SUFFIX_UNITS)


@given(st.sampled_from(SUFFIXES), st.sampled_from(SUFFIXES))
@settings(max_examples=60, deadline=None)
def test_additive_join_is_commutative(tmp_path_factory, s1, s2):
    """`a + b` is flagged exactly when `b + a` is, for every unit pair."""
    def flagged(first, second):
        tmp = tmp_path_factory.mktemp("join")
        findings = unit_findings(tmp, {
            "sim/x.py": (f"def f(a_{first}, b_{second}):\n"
                         f"    return a_{first} + b_{second}\n"),
        })
        return sorted({f.code for f in findings})
    assert flagged(s1, s2) == flagged(s2, s1)


@given(st.sampled_from(SUFFIXES), st.sampled_from(SUFFIXES))
@settings(max_examples=60, deadline=None)
def test_multiplicative_dims_commute(s1, s2):
    u, v = SUFFIX_UNITS[s1], SUFFIX_UNITS[s2]
    assert (u * v).dims == (v * u).dims
    assert (u * v).scale == (v * u).scale


@given(st.integers(min_value=-4, max_value=4).map(lambda e: 3 * e))
def test_conversion_factor_round_trip(exp):
    factor = 10.0 ** exp
    if exp == 0:
        assert conversion_factor(factor) is None
    else:
        assert conversion_factor(factor) == factor
        # Scaling a value by f and back restores the unit exactly.
        unit = SUFFIX_UNITS["s"]
        assert unit.rescaled(factor).rescaled(1.0 / factor) \
            .same_scale(unit)


@given(st.integers(min_value=1, max_value=9),
       st.integers(min_value=-6, max_value=6))
def test_conversion_factor_rejects_coefficients(mantissa, exp):
    value = mantissa * 10.0 ** exp
    factor = conversion_factor(value)
    if mantissa != 1 or exp == 0 or exp % 3 != 0:
        assert factor is None
    else:
        assert factor == value


def test_name_unit_reads_suffix_and_conventions():
    assert name_unit("wake_delay_us").same_scale(
        SUFFIX_UNITS["s"].rescaled(1e6))
    assert name_unit("freq").same_dims(SUFFIX_UNITS["ghz"])
    assert name_unit("counter") is None


# ----------------------------------------------------------------------
# RL101-RL104 on synthetic shapes
# ----------------------------------------------------------------------
def test_rl101_cross_dimension_addition(tmp_path):
    findings = unit_findings(tmp_path, {
        "sim/x.py": ("def f(t_s, f_ghz):\n"
                     "    return t_s + f_ghz\n"),
    })
    assert "RL101" in {f.code for f in findings}


def test_rl102_magnitude_mismatch_and_conversion(tmp_path):
    dirty = unit_findings(tmp_path, {
        "sim/x.py": ("def f(a_s, b_us):\n"
                     "    return a_s + b_us\n"),
    })
    assert "RL102" in {f.code for f in dirty}
    clean_dir = tmp_path / "clean"
    clean = unit_findings(clean_dir, {
        "sim/y.py": ("def f(a_s, b_us):\n"
                     "    return a_s + b_us / 1e6\n"),
    })
    assert clean == []


def test_rl103_cross_module_argument_mismatch(tmp_path):
    findings = unit_findings(tmp_path, {
        "cpu/a.py": "def set_latency(wake_s):\n    return wake_s\n",
        "cpu/b.py": ("from repro.cpu.a import set_latency\n"
                     "def caller(wake_us):\n"
                     "    return set_latency(wake_us)\n"),
    })
    assert "RL103" in {f.code for f in findings}


def test_rl104_assignment_contradiction(tmp_path):
    findings = unit_findings(tmp_path, {
        "cpu/x.py": ("def f(work, freq):\n"
                     "    bad_s = work * freq\n"
                     "    return bad_s\n"),
    })
    assert "RL104" in {f.code for f in findings}
    clean_dir = tmp_path / "clean"
    clean = unit_findings(clean_dir, {
        "cpu/y.py": ("def f(work, freq):\n"
                     "    good_s = work / freq\n"
                     "    return good_s\n"),
    })
    assert clean == []


def test_class_attribute_units_propagate(tmp_path):
    findings = unit_findings(tmp_path, {
        "cpu/x.py": (
            "class Core:\n"
            "    def __init__(self, wake_us):\n"
            "        self.wake = wake_us\n"
            "    def deadline(self, now_s):\n"
            "        return now_s + self.wake\n"),
    })
    # self.wake learned as microseconds in __init__, so adding it to
    # seconds in another method is a magnitude mismatch.
    assert "RL102" in {f.code for f in findings}


def test_remaining_suffix_discipline(tmp_path):
    """Regression for the cross-module `remaining` rename: the name is
    seconds in core/cstates but giga-cycles in cpu/core, so only the
    suffixed forms type-check; the analyzer catches a misuse."""
    clean = unit_findings(tmp_path, {
        "cpu/core.py": ("def completion(work, freq):\n"
                        "    remaining_gcycles = work\n"
                        "    return remaining_gcycles / freq\n"),
        "core/sched.py": ("def slack(deadline, now_s):\n"
                          "    remaining_s = deadline - now_s\n"
                          "    return remaining_s\n"),
    })
    assert clean == []
    dirty = unit_findings(tmp_path, {
        "cpu/core.py": ("def completion(work, freq):\n"
                        "    remaining_s = work\n"
                        "    return remaining_s / freq\n"),
    })
    assert "RL104" in {f.code for f in dirty}


# ----------------------------------------------------------------------
# RL110-RL113 on synthetic shapes
# ----------------------------------------------------------------------
def test_rl110_wall_clock_taint_through_call_chain(tmp_path):
    findings = flow_findings(tmp_path, {
        "harness/clock.py": ("import time\n"
                             "def read_clock():\n"
                             "    return time.time()\n"),
        "sim/engine.py": ("from repro.harness.clock import read_clock\n"
                          "def step():\n"
                          "    return read_clock()\n"),
    })
    tainted = [f for f in findings if f.code == "RL110"]
    assert tainted and any("sim" in f.path for f in tainted)


def test_rl111_shared_stream_across_modules(tmp_path):
    findings = flow_findings(tmp_path, {
        "sim/a.py": ("def setup(streams):\n"
                     "    return streams.get('arrivals')\n"),
        "harness/b.py": ("def measure(streams):\n"
                         "    return streams.get('arrivals')\n"),
    })
    assert "RL111" in {f.code for f in findings}


def test_rl111_spawned_registry_is_independent(tmp_path):
    """Regression for the Figure 3 lineage fix: requesting the same
    stream names from a spawn()-ed child registry derives different
    seeds, so the aliasing finding must not fire."""
    findings = flow_findings(tmp_path, {
        "sim/a.py": ("def setup(streams):\n"
                     "    return streams.get('arrivals')\n"),
        "harness/b.py": ("def measure(parent):\n"
                         "    streams = parent.spawn('fig3-measured')\n"
                         "    return streams.get('arrivals')\n"),
    })
    assert "RL111" not in {f.code for f in findings}


def test_rl112_draw_inside_set_iteration(tmp_path):
    findings = flow_findings(tmp_path, {
        "sim/x.py": ("def assign(rng, cores):\n"
                     "    for core in set(cores):\n"
                     "        core.bias = rng.random()\n"),
    })
    assert "RL112" in {f.code for f in findings}


def test_rl113_forking_api_on_batched_stream(tmp_path):
    findings = flow_findings(tmp_path, {
        "sim/x.py": ("def setup(streams):\n"
                     "    arrivals = streams.get_batched('arrivals')\n"
                     "    return arrivals.randrange(10)\n"),
    })
    assert "RL113" in {f.code for f in findings}


# ----------------------------------------------------------------------
# Acceptance: the shipped tree analyzes clean, inside the CI budget
# ----------------------------------------------------------------------
def test_repo_tree_program_analyses_clean_within_budget():
    started = time.perf_counter()  # reprolint: disable=RL001 - test-only budget guard, measures the analyzer itself
    project = Project.load([REPO_SRC])
    findings = UnitAnalysis(project).run()
    findings += FlowAnalysis(project, CallGraph(project)).run()
    elapsed_s = time.perf_counter() - started  # reprolint: disable=RL001 - test-only budget guard, measures the analyzer itself
    assert findings == [], "\n".join(f.format() for f in findings)
    assert elapsed_s < 10.0, (
        f"whole-program analysis took {elapsed_s:.2f}s; "
        f"the CI budget is 10s")
