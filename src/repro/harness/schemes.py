"""Frequency-control schemes: POLARIS, its variants, and the baselines.

A scheme bundles what Section 6.1 calls a "method for controlling core
frequencies": either an in-DBMS scheduler (POLARIS and its two ablated
variants, which also take over transaction ordering) or an OS
governor over Shore-MT's default FIFO scheduling (the Linux dynamic
governors and the fixed-frequency baselines).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from types import ModuleType
from typing import TYPE_CHECKING, Callable, Optional, Tuple

if TYPE_CHECKING:
    from repro.core.estimator import ExecutionTimeEstimator
    from repro.core.polaris import PolarisScheduler
    from repro.governors.base import Governor


@dataclass(frozen=True)
class Scheme:
    """One frequency-control scheme.

    Exactly one of ``scheduler_class`` / ``governor_factory`` is set:
    in-DBMS schedulers replace both the transaction order and the
    frequency control; governor schemes keep FIFO dispatch and let the
    governor drive each core.  ``load_scheduler`` imports and returns
    the scheduler class; ``governor_factory`` imports on its first call.
    """

    name: str
    label: str
    load_scheduler: Optional[Callable[[], type]] = None
    governor_factory: Optional[Callable[[], Governor]] = None
    #: Initial core frequency (None = grid maximum).
    initial_freq: Optional[float] = None

    @property
    def uses_scheduler(self) -> bool:
        return self.load_scheduler is not None

    @property
    def scheduler_class(self) -> Optional[type]:
        return self.load_scheduler() if self.uses_scheduler else None

    def make_scheduler_factory(self, frequencies: Tuple[float, ...],
                               estimator: ExecutionTimeEstimator,
                               sanitize: bool
                               ) -> Callable[[], PolarisScheduler]:
        """One scheduler per worker; ``sanitize`` is the run's resolved
        simsan state (a scheduler built directly defaults to the
        environment instead)."""
        if self.load_scheduler is None:
            raise ValueError(f"scheme {self.name} has no scheduler")
        cls = self.load_scheduler()
        return lambda: cls(frequencies, estimator, sanitize=sanitize)


# A scheme's code loads on its first use, so a cell imports only its
# own (tests/test_import_surface.py); ``variants`` and ``online`` hold
# several schemes' schedulers each.
def _polaris() -> type:
    from repro.core.polaris import PolarisScheduler
    return PolarisScheduler


def _variants() -> ModuleType:
    from repro.core import variants
    return variants


def _online() -> ModuleType:
    from repro.core import online
    return online


def _nonclairvoyant() -> type:
    from repro.governors.nonclairvoyant import NonclairvoyantScheduler
    return NonclairvoyantScheduler


def _ondemand() -> Governor:
    from repro.governors.ondemand import OnDemandGovernor
    return OnDemandGovernor()


def _conservative() -> Governor:
    from repro.governors.conservative import ConservativeGovernor
    return ConservativeGovernor()


def _userspace(freq: float) -> Governor:
    from repro.governors.static import UserspaceGovernor
    return UserspaceGovernor(freq)


def _static(freq: float) -> Scheme:
    # One-decimal formatting keeps the name identical to the registry
    # key for every grid frequency (``:g`` renders 2.0 as "2", making
    # "static-2.0"'s scheme answer to the name "static-2").
    return Scheme(
        name=f"static-{freq:.1f}",
        label=f"{freq:.1f} GHz",
        governor_factory=partial(_userspace, freq),
        initial_freq=freq,
    )


SCHEMES = {
    "polaris": Scheme("polaris", "POLARIS", _polaris),
    "polaris-fifo": Scheme("polaris-fifo", "POLARIS-FIFO",
                           lambda: _variants().PolarisFifoScheduler),
    "polaris-fifo-noarrive": Scheme(
        "polaris-fifo-noarrive", "POLARIS-FIFO-NOARRIVE",
        lambda: _variants().PolarisFifoNoArriveScheduler),
    "polaris-shed": Scheme("polaris-shed", "POLARIS-SHED",
                           lambda: _variants().PolarisShedScheduler),
    "oa-online": Scheme("oa-online", "OA-Online",
                        lambda: _online().QoaScheduler),
    "avr-online": Scheme("avr-online", "AVR-Online",
                         lambda: _online().AvrScheduler),
    "nonclairvoyant": Scheme("nonclairvoyant", "Nonclairvoyant",
                             _nonclairvoyant),
    "ondemand": Scheme("ondemand", "OnDemand", governor_factory=_ondemand),
    "conservative": Scheme("conservative", "Conservative",
                           governor_factory=_conservative),
    "static-2.8": _static(2.8),
    "static-2.4": _static(2.4),
    "static-2.0": _static(2.0),
    "static-1.6": _static(1.6),
    "static-1.2": _static(1.2),
}


def scheme_named(name: str) -> Scheme:
    """Scheme lookup with a helpful error."""
    scheme = SCHEMES.get(name)
    if scheme is None:
        raise KeyError(
            f"unknown scheme {name!r}; available: {sorted(SCHEMES)}")
    return scheme


#: The scheme line-up of Figures 6-8 (POLARIS, dynamic governors,
#: two highest static frequencies).
FIGURE_BASELINE_SCHEMES = ("polaris", "ondemand", "conservative",
                           "static-2.8", "static-2.4")

#: The component-analysis line-up of Figure 12.
VARIANT_SCHEMES = ("polaris", "polaris-fifo", "polaris-fifo-noarrive")

#: The scheduler-arena tournament line-up: POLARIS next to the rest of
#: the speed-scaling family (online qOA-style and AVR promoted from the
#: theory oracles, the nonclairvoyant scaler), the dynamic governors,
#: and the flat-out baseline.
ARENA_SCHEMES = ("polaris", "oa-online", "avr-online", "nonclairvoyant",
                 "ondemand", "conservative", "static-2.8")
