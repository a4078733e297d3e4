"""The SCHEMES registry: constructible, consistently named, line-ups valid."""

from repro.core.estimator import ExecutionTimeEstimator
from repro.core.polaris import PolarisScheduler
from repro.cpu.pstates import POLARIS_FREQUENCIES
from repro.governors.base import Governor
from repro.harness.figures import FIGURES
from repro.harness.schemes import ARENA_SCHEMES, SCHEMES, scheme_named

#: Every scheme line-up any figure names: a scheme axis, or a grid's
#: fixed scheme.
LINEUPS = {
    f"{figure.name}[{index}]": next(
        (values for name, values in grid.axes if name == "scheme"),
        (grid.fixed.get("scheme"),))
    for figure in FIGURES.values()
    for index, grid in enumerate(figure.grids)}


def test_every_scheme_is_constructible_and_consistently_named():
    estimator = ExecutionTimeEstimator()
    for name, scheme in SCHEMES.items():
        assert scheme.name == name, f"registry key {name!r} != {scheme.name!r}"
        assert scheme.label
        # Exactly one control mechanism per scheme.
        assert (scheme.scheduler_class is None) \
            != (scheme.governor_factory is None), name
        if scheme.uses_scheduler:
            scheduler = scheme.make_scheduler_factory(
                POLARIS_FREQUENCIES, estimator, sanitize=True)()
            assert isinstance(scheduler, PolarisScheduler), name
            assert scheduler.sanitize, name
            assert scheduler.name == name, \
                f"scheduler class of {name!r} says {scheduler.name!r}"
            assert scheduler.select_frequency(0.0, None) \
                in POLARIS_FREQUENCIES
        else:
            governor = scheme.governor_factory()
            assert isinstance(governor, Governor), name
        if scheme.initial_freq is not None:
            assert scheme.initial_freq in POLARIS_FREQUENCIES, name


def test_every_lineup_references_registered_schemes():
    assert len(LINEUPS) == len(FIGURES) + 1  # the arena has two grids
    for lineup_name, lineup in LINEUPS.items():
        assert lineup, lineup_name
        assert len(set(lineup)) == len(lineup), \
            f"{lineup_name} repeats a scheme"
        for name in lineup:
            assert scheme_named(name) is SCHEMES[name]


def test_arena_lineup_covers_the_family():
    """The acceptance bar: >= 6 schemes including all three promoted
    online algorithms next to POLARIS and a governor baseline."""
    assert len(ARENA_SCHEMES) >= 6
    for required in ("polaris", "oa-online", "avr-online",
                     "nonclairvoyant"):
        assert required in ARENA_SCHEMES
    assert any(not SCHEMES[name].uses_scheduler for name in ARENA_SCHEMES)
