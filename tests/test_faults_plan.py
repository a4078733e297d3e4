"""Fault plans: validation, serialization, merging, enable contract."""

import dataclasses
import typing

import pytest

from repro.faults import FAULTS_ENV, resolve_fault_plan
from repro.faults import plan as plan_module
from repro.faults.plan import (
    BurstSpec, DegradationPolicy, FaultPlan, MsrFaultSpec, NodeCrashSpec,
    PartitionSpec, ReplicaLagSpec, SkewSpec, StallSpec, ThrottleSpec,
)
from repro.faults.scenarios import (
    FLEET_SCENARIOS, SCENARIOS, fleet_scenario_names, scenario_named,
    scenario_names,
)


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
def test_windows_must_be_nonnegative_and_nonempty():
    with pytest.raises(ValueError):
        ThrottleSpec(-0.1, 1.0)
    with pytest.raises(ValueError):
        BurstSpec(1.0, 1.0)
    with pytest.raises(ValueError):
        SkewSpec(2.0, 1.0)


def test_msr_spec_validation():
    with pytest.raises(ValueError):
        MsrFaultSpec(0.0, 1.0, mode="explode")
    with pytest.raises(ValueError):
        MsrFaultSpec(0.0, 1.0, probability=0.0)
    with pytest.raises(ValueError):
        MsrFaultSpec(0.0, 1.0, probability=1.5)
    MsrFaultSpec(0.0, 1.0, mode="stuck", probability=1.0)  # ok


def test_stall_spec_validation():
    with pytest.raises(ValueError):
        StallSpec(at_s=-1.0)
    with pytest.raises(ValueError):
        StallSpec(at_s=0.5, duration_s=0.0)
    StallSpec(at_s=0.5, duration_s=None)  # permanent is fine


def test_throttle_and_skew_magnitudes():
    with pytest.raises(ValueError):
        ThrottleSpec(0.0, 1.0, ceiling_ghz=0.0)
    with pytest.raises(ValueError):
        SkewSpec(0.0, 1.0, factor=0.0)
    with pytest.raises(ValueError):
        BurstSpec(0.0, 1.0, multiplier=-2.0)


def test_degradation_policy_validation():
    """Each field is a switch: a count, a rate or None where a bool
    goes fails, naming the field."""
    for switch in ("retry", "watchdog", "shed", "panic"):
        for value in (0, 1, 0.2, None, "yes"):
            with pytest.raises(ValueError, match=f"switch {switch} "):
                DegradationPolicy(**{switch: value})
        assert DegradationPolicy(**{switch: True}).any_enabled


def test_a_plan_with_the_removed_thresholds_fails_naming_the_key():
    """A plan file written when the policy held thresholds does not
    load silently under the switches."""
    old = {"degradation": {"msr_retry_limit": 0, "retry_backoff_s": 0.001}}
    with pytest.raises(ValueError, match="msr_retry_limit"):
        FaultPlan.from_dict(old)
    with pytest.raises(ValueError, match="switch shed "):
        FaultPlan.from_dict({"degradation": {"shed": 12}})


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("build", [
    lambda: MsrFaultSpec(0.0, 1.0, workers=(-1,)),
    lambda: ThrottleSpec(0.0, 1.0, ceiling_ghz=NAN),
    lambda: ThrottleSpec(0.0, 1.0, workers=(-1,)),
    lambda: StallSpec(at_s=NAN),
    lambda: StallSpec(at_s=0.1, duration_s=INF),
    lambda: StallSpec(at_s=0.1, workers=(-1,)),
    lambda: BurstSpec(0.0, 1.0, multiplier=NAN),
    lambda: SkewSpec(0.0, 1.0, factor=NAN),
    lambda: SkewSpec(NAN, 1.0),
    lambda: SkewSpec(0.0, INF),
    lambda: NodeCrashSpec(at_s=NAN),
    lambda: NodeCrashSpec(at_s=0.1, nodes=(-1,)),
    lambda: PartitionSpec(0.0, 1.0, shards=(-1,)),
    lambda: ReplicaLagSpec(0.0, 1.0, extra_lag_s=NAN),
    lambda: ReplicaLagSpec(0.0, 1.0, nodes=(-1,)),
    # A setting where a switch goes: the old retry limit, watchdog
    # interval, shed depth and panic window.
    lambda: DegradationPolicy(retry=3),
    lambda: DegradationPolicy(watchdog=0.025),
    lambda: DegradationPolicy(shed=12),
    lambda: DegradationPolicy(panic=50),
    lambda: FaultPlan.from_json(
        '{"skews": [{"start_s": 0, "end_s": 1, "factor": NaN}]}'),
], ids=["msr-workers", "throttle-ceiling", "throttle-workers",
        "stall-at", "stall-duration", "stall-workers", "burst-multiplier",
        "skew-factor", "window-start", "window-end", "crash-at",
        "crash-nodes", "partition-shards", "lag-extra", "lag-nodes",
        "retry-limit", "watchdog-interval", "shed-depth", "panic-window",
        "from-json"])
def test_a_value_the_engine_cannot_run_fails_at_the_boundary(build):
    """NaN, an infinite time, a negative id and a number where a switch
    goes each fail where the plan is built, not inside the run."""
    with pytest.raises(ValueError):
        build()


def test_default_policy_is_inert():
    assert not DegradationPolicy().any_enabled
    assert FaultPlan().is_empty
    assert DegradationPolicy(shed=True).any_enabled
    assert not FaultPlan(degradation=DegradationPolicy()).degradation \
        .any_enabled


# ----------------------------------------------------------------------
# Serialization and fingerprints
# ----------------------------------------------------------------------
def _sample_plan() -> FaultPlan:
    return FaultPlan(
        msr_faults=(MsrFaultSpec(0.1, 2.0, mode="stuck", workers=(1,),
                                 probability=0.5),),
        throttles=(ThrottleSpec(0.2, 1.0, ceiling_ghz=1.6, workers=(0, 2)),),
        stalls=(StallSpec(0.3, duration_s=0.1, workers=(1,)),),
        bursts=(BurstSpec(0.4, 0.9, multiplier=2.5),),
        skews=(SkewSpec(0.5, 0.8, factor=0.7),),
        degradation=DegradationPolicy(retry=True, shed=True, panic=True),
        name="kitchen-sink")


def test_json_roundtrip_preserves_plan():
    plan = _sample_plan()
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_roundtrip_restores_tuples():
    plan = FaultPlan.from_json(_sample_plan().to_json())
    assert isinstance(plan.msr_faults[0].workers, tuple)
    assert isinstance(plan.throttles, tuple)


def test_fingerprint_stable_and_content_sensitive():
    plan = _sample_plan()
    assert plan.fingerprint() == _sample_plan().fingerprint()
    other = FaultPlan(bursts=(BurstSpec(0.4, 0.9, multiplier=2.5),))
    assert plan.fingerprint() != other.fingerprint()
    # The fingerprint survives a serialization round trip.
    assert FaultPlan.from_json(plan.to_json()).fingerprint() \
        == plan.fingerprint()


def test_merged_with_unions_faults():
    merged = scenario_named("burst").merged_with(scenario_named("brownout"))
    assert len(merged.bursts) == 1
    assert len(merged.throttles) == 1
    assert merged.name == "burst+brownout"


def test_merged_with_right_side_wins_armed_knobs():
    """A mechanism either side arms stays armed: there is no threshold
    left for the sides to disagree on."""
    left = FaultPlan(degradation=DegradationPolicy(shed=True, retry=True))
    right = FaultPlan(degradation=DegradationPolicy(shed=True, panic=True))
    merged = left.merged_with(right).degradation
    assert merged == DegradationPolicy(retry=True, shed=True, panic=True)
    assert right.merged_with(left).degradation == merged


# ----------------------------------------------------------------------
# Enable contract (config > env > off)
# ----------------------------------------------------------------------
def test_resolve_off_by_default(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    assert resolve_fault_plan(None) is None


def test_resolve_env_scenario(monkeypatch):
    monkeypatch.setenv(FAULTS_ENV, "burst")
    plan = resolve_fault_plan(None)
    assert plan is not None and plan.name == "burst"


def test_explicit_plan_overrides_env(monkeypatch):
    monkeypatch.setenv(FAULTS_ENV, "burst")
    plan = resolve_fault_plan(scenario_named("brownout"))
    assert plan is not None and plan.name == "brownout"


def test_empty_plan_resolves_to_none(monkeypatch):
    monkeypatch.setenv(FAULTS_ENV, "burst")
    # An explicit empty plan is inert --- not a fall-through to the env.
    assert resolve_fault_plan(FaultPlan()) is None


def test_resolve_scenario_by_name_and_composition(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    assert resolve_fault_plan("dying-core").name == "dying-core"
    composed = resolve_fault_plan("burst+brownout")
    assert composed.bursts and composed.throttles


def test_resolve_json_path(tmp_path, monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    path = tmp_path / "plan.json"
    path.write_text(_sample_plan().to_json(), encoding="utf-8")
    assert resolve_fault_plan(str(path)) == _sample_plan()


@pytest.mark.parametrize("payload, named", [
    ('[1, 2]', "JSON object"),
    ('{"bursts": 5}', "'bursts'"),
    ('{"bursts": [{"start_s": "x"}]}', "bursts[0]"),
    ('{"burst": []}', "'burst'"),
], ids=["non-object", "non-list-section", "bad-spec-field", "unknown-key"])
def test_malformed_plan_json_is_a_value_error(tmp_path, payload, named):
    path = tmp_path / "plan.json"
    path.write_text(payload, encoding="utf-8")
    with pytest.raises(ValueError) as raised:
        resolve_fault_plan(str(path))
    assert named in str(raised.value)


def test_unknown_scenario_raises():
    with pytest.raises(ValueError, match="unknown fault scenario"):
        scenario_named("meteor-strike")
    with pytest.raises(ValueError):
        scenario_named("  +  ")


def test_scenario_library_contents():
    assert set(scenario_names()) == set(SCENARIOS)
    for name in scenario_names():
        plan = scenario_named(name)
        assert plan.name == name
        assert not plan.is_empty


# ----------------------------------------------------------------------
# Fleet-scope specs (PR 9)
# ----------------------------------------------------------------------
def _fleet_plan() -> FaultPlan:
    return FaultPlan(
        node_crashes=(NodeCrashSpec(at_s=1.5, nodes=(0, 2)),
                      NodeCrashSpec(at_s=2.0)),
        partitions=(PartitionSpec(1.0, 4.0, shards=(1,)),),
        replica_lags=(ReplicaLagSpec(0.5, 6.0, extra_lag_s=0.25,
                                     nodes=(3,)),),
        name="fleet-sink")


def test_fleet_spec_validation():
    with pytest.raises(ValueError):
        NodeCrashSpec(at_s=-0.1)
    with pytest.raises(ValueError):
        PartitionSpec(2.0, 2.0)
    with pytest.raises(ValueError):
        ReplicaLagSpec(0.0, 1.0, extra_lag_s=0.0)
    NodeCrashSpec(at_s=0.0)  # a crash at t=0 is legal


def test_fleet_plan_json_roundtrip():
    plan = _fleet_plan()
    restored = FaultPlan.from_json(plan.to_json())
    assert restored == plan
    # JSON turns the id tuples into lists; from_dict restores them.
    assert isinstance(restored.node_crashes[0].nodes, tuple)
    assert isinstance(restored.partitions[0].shards, tuple)
    assert isinstance(restored.replica_lags[0].nodes, tuple)
    assert restored.fingerprint() == plan.fingerprint()
    # from_dict reads its sections off the dataclass, so the round trips
    # cover the vocabulary as long as every *Spec class is the element
    # type of exactly one section and the two samples fill them all.
    hints = typing.get_type_hints(FaultPlan)
    sections = {f.name: typing.get_args(hints[f.name])[0]
                for f in dataclasses.fields(FaultPlan)
                if typing.get_origin(hints[f.name]) is tuple}
    spec_classes = [cls for name, cls in vars(plan_module).items()
                    if name.endswith("Spec") and dataclasses.is_dataclass(cls)]
    assert sorted(sections.values(), key=lambda cls: cls.__name__) \
        == sorted(spec_classes, key=lambda cls: cls.__name__)
    assert all(getattr(_sample_plan(), name) or getattr(plan, name)
               for name in sections)


def test_fleet_faults_show_in_the_tier_predicates():
    plan = _fleet_plan()
    assert plan.has_fleet_faults and not plan.has_server_faults
    assert not plan.is_empty
    server = scenario_named("brownout")
    assert server.has_server_faults and not server.has_fleet_faults
    # Bursts are load-side: they run at either tier.
    burst_only = dataclasses.replace(scenario_named("burst"),
                                     degradation=DegradationPolicy())
    assert not burst_only.has_fleet_faults
    assert not burst_only.has_server_faults


def test_merged_with_unions_fleet_faults():
    merged = _fleet_plan().merged_with(scenario_named("shard-crash"))
    assert len(merged.node_crashes) == 3
    assert len(merged.partitions) == 1
    assert len(merged.replica_lags) == 1
    assert merged.has_fleet_faults
    assert merged.name == "fleet-sink+shard-crash"


def test_fleet_scenario_registry():
    assert set(fleet_scenario_names()) == set(FLEET_SCENARIOS)
    # Fleet scenarios stay out of the single-server registry (property
    # tests iterate scenario_names() against plain cells).
    assert not set(FLEET_SCENARIOS) & set(SCENARIOS)
    for name in fleet_scenario_names():
        plan = scenario_named(name)
        assert plan.name == name
        assert plan.has_fleet_faults
        assert not plan.has_server_faults


def test_shard_crash_scenario_targets_every_primary():
    plan = scenario_named("shard-crash")
    (crash,) = plan.node_crashes
    assert crash.nodes == ()  # empty tuple = the primary of every shard
    assert crash.at_s == 1.5
