"""Tests of the benchmark itself: ``python -m pytest bench -q``.

Not part of tier-1 (``testpaths`` is ``tests``): two smoke-sized suite
runs plus a few driver-form runs take about a minute and a half.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys

import pytest

from bench import ROOT, SRC, compare, spec

sys.path.insert(0, str(SRC))  # for the in-process ledger test below

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
METRIC_LINE = re.compile(r"  (\S+) +\S+ \S+")


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=ROOT,
                          text=True, capture_output=True, timeout=600)


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two complete smoke runs (all four workloads, traced) of one seed."""
    runs = []
    for tag in "ab":
        out = tmp_path_factory.mktemp("bench") / f"{tag}.json"
        done = bench("--smoke", "--traced", "--out", str(out))
        assert done.returncode == 0, done.stdout + done.stderr
        runs.append((done.stdout, json.loads(out.read_text()), out))
    return runs


def test_benchmark_json_is_the_spec_and_meets_the_contract():
    text = (ROOT / "BENCHMARK.json").read_text()
    assert len(text.encode()) <= 64 * 1024
    declared = json.loads(text)
    assert declared == spec.benchmark_json()
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert 1 <= declared["run_seconds"] <= 60
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in declared[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    assert all(0 < e["bound"] <= 0.25 for e in declared["end_to_end"])
    setup = next(e for e in declared["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in declared["end_to_end"])


def test_every_name_is_printed_exactly_once_per_workload(smoke_runs):
    stdout, _, _ = smoke_runs[0]
    expected = sorted([m.name for m in spec.END_TO_END]
                      + [m.name for m in spec.PER_LAYER])
    sections = stdout.split("== ")[1:]
    per_workload = {}
    for section in sections:
        title = section.split()[0]
        if title == "summary":
            continue
        printed = [m.group(1) for line in section.splitlines()
                   if (m := METRIC_LINE.match(line))
                   and not line.startswith("  attempted=")]
        per_workload.setdefault(title, []).extend(printed)
    assert sorted(per_workload) == sorted(spec.WORKLOADS)
    for name, printed in per_workload.items():
        assert sorted(printed) == expected, name


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_form_ends_with_the_contract_line(trace):
    done = bench("--workload", "server_governor", "--seed", "7", "--smoke",
                 "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    table = spec.PER_LAYER if trace else spec.gated_end_to_end()
    assert list(line["metrics"]) == [m.name for m in table]
    for metric in table:
        assert line["metrics"][metric.name]["unit"] == metric.unit
        assert set(line["metrics"][metric.name]) == {"value", "unit"}
    if not trace:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_driver_form_refuses_a_checkout_without_the_program(tmp_path):
    """The driver also runs the command where only BENCHMARK.json and
    bench/ exist; it must fail without printing a result."""
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "server_polaris",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, text=True, capture_output=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_counts_and_simulated_results_repeat_exactly(smoke_runs):
    (_, a, _), (_, b, _) = smoke_runs
    for name in spec.WORKLOADS:
        wa, wb = a["workloads"][name], b["workloads"][name]
        assert wa["sim_fingerprint"] == wb["sim_fingerprint"]
        for metric in ("sim_power_w", "sim_miss_rate", "sim_ontime_rate"):
            assert wa["end_to_end"][metric] == wb["end_to_end"][metric]
        for layer in spec.PER_LAYER:
            if layer.unit == "count":
                assert wa["per_layer"][layer.name]["value"] \
                    == wb["per_layer"][layer.name]["value"], layer.name


def test_no_failures_and_call_expectations_hold(smoke_runs):
    _, result, _ = smoke_runs[0]
    assert set(result["environment"]) >= {
        "nproc", "python", "implementation", "platform", "commit", "dirty",
        "bench.calib_spin_ns", "started_at", "seed", "reps"}
    assert result["environment"]["hashseed"] == "0"  # pinned by re-exec
    for name, record in result["workloads"].items():
        assert record["failed"] == 0 and record["failures"] == []
        assert record["end_to_end"]["wall_s"]["raw"] > 0
        assert record["end_to_end"]["failed_share"]["value"] == 0
        layers = record["per_layer"]
        for kind, names in spec.CALL_EXPECTATIONS[name].items():
            for metric in names:
                assert (layers[metric]["value"] != 0) == (kind == "nonzero"), \
                    (name, metric)
        assert layers["bench.trace_overhead_ratio"]["value"] > 0
        assert record["spans"], "the traced run wrote no spans"


def test_compare_verdicts(smoke_runs):
    _, a, path_a = smoke_runs[0]
    assert bench("compare", str(path_a), str(path_a)).returncode == 0
    wall = spec.EndToEnd("wall_s", "s", "lower", "host", 0.10, "")
    steady = {"value": 1.0, "q1": 0.99, "q3": 1.01, "samples": [0.99, 1.01]}
    noisy = {"value": 1.0, "q1": 0.8, "q3": 1.3, "samples": [0.8, 1.0, 1.3]}
    slower = {"value": 1.2, "samples": [1.19, 1.21]}
    assert compare.verdict(wall, steady, steady) == "same"
    assert compare.verdict(wall, steady, slower) == "worse"
    assert compare.verdict(wall, slower, steady) == "better"
    assert compare.verdict(wall, noisy, slower) == "unresolved"

    worse = json.loads(json.dumps(a))
    entry = worse["workloads"]["server_polaris"]["end_to_end"]["wall_s"]
    entry["value"] *= 2
    entry["samples"] = [2 * sample for sample in entry["samples"]]
    worse["workloads"]["sweep_grid"]["sim_fingerprint"] = "moved"
    lines, any_worse = compare.compare(a, worse)
    assert any_worse
    assert any("sweep_grid" in line and "DIFFERS" in line for line in lines)
    assert any("server_polaris" in line and "identical" in line
               for line in lines)

    failing = json.loads(json.dumps(a))
    failing["workloads"]["fleet_diurnal"]["end_to_end"][
        "failed_share"]["value"] = 0.25
    assert compare.compare(a, failing)[1]


def test_host_speed_scales_a_step_by_its_two_bracketing_slices(monkeypatch):
    from bench import micro, runner
    slices = iter([spec.REFERENCE_NS, 3 * spec.REFERENCE_NS,
                   spec.REFERENCE_NS])
    monkeypatch.setattr(micro, "reference_slice", lambda: next(slices))
    host = runner.HostSpeed()
    # The host ran at half speed on average (slices 1x and 3x nominal).
    assert host.corrected(2.0) == pytest.approx(1.0)
    # The closing slice opens the next bracket: 3x and 1x.
    assert host.corrected(2.0) == pytest.approx(1.0)
    assert host.calib_ns() == spec.REFERENCE_NS


def test_a_corrupted_result_counts_as_a_failed_repetition():
    from bench import runner, workloads
    _, results = runner.execute(
        workloads.build("server_governor", 3, smoke=True), jobs=1)
    ledger = runner.RepLedger()
    ledger.record("honest", results)
    assert (ledger.attempted, ledger.failed) == (1, 0)
    unbalanced = dataclasses.replace(results[0],
                                     completed=results[0].completed - 1)
    ledger.record("unbalanced books", [unbalanced])
    assert ledger.failed == 1 and "books do not balance" in ledger.failures[0]
    moved = dataclasses.replace(results[0], missed=results[0].missed + 1)
    ledger.record("moved fingerprint", [moved])
    assert ledger.failed == 2
    assert "sim_fingerprint differs" in ledger.failures[-1]
    ledger.record("honest again", results)
    assert ledger.failed_share == 2 / 4
