"""Frequency-control schemes: POLARIS, its variants, and the baselines.

A scheme bundles what Section 6.1 calls a "method for controlling core
frequencies": either an in-DBMS scheduler (POLARIS and its two ablated
variants, which also take over transaction ordering) or an OS
governor over Shore-MT's default FIFO scheduling (the Linux dynamic
governors and the fixed-frequency baselines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.core.estimator import ExecutionTimeEstimator
from repro.core.online import AvrScheduler, QoaScheduler
from repro.core.polaris import PolarisScheduler
from repro.core.variants import (
    PolarisFifoNoArriveScheduler, PolarisFifoScheduler, PolarisShedScheduler,
)
from repro.governors.base import Governor
from repro.governors.conservative import ConservativeGovernor
from repro.governors.nonclairvoyant import NonclairvoyantScheduler
from repro.governors.ondemand import OnDemandGovernor
from repro.governors.static import UserspaceGovernor


@dataclass(frozen=True)
class Scheme:
    """One frequency-control scheme.

    Exactly one of ``scheduler_class`` / ``governor_factory`` is set:
    in-DBMS schedulers replace both the transaction order and the
    frequency control; governor schemes keep FIFO dispatch and let the
    governor drive each core.
    """

    name: str
    label: str
    scheduler_class: Optional[type] = None
    governor_factory: Optional[Callable[[], Governor]] = None
    #: Initial core frequency (None = grid maximum).
    initial_freq: Optional[float] = None

    @property
    def uses_scheduler(self) -> bool:
        return self.scheduler_class is not None

    def make_scheduler_factory(self, frequencies: Tuple[float, ...],
                               estimator: ExecutionTimeEstimator,
                               sanitize: bool
                               ) -> Callable[[], PolarisScheduler]:
        """One scheduler per worker; ``sanitize`` is the run's resolved
        simsan state (a scheduler built directly defaults to the
        environment instead)."""
        if self.scheduler_class is None:
            raise ValueError(f"scheme {self.name} has no scheduler")
        cls = self.scheduler_class
        return lambda: cls(frequencies, estimator, sanitize=sanitize)


def _static(freq: float) -> Scheme:
    # One-decimal formatting keeps the name identical to the registry
    # key for every grid frequency (``:g`` renders 2.0 as "2", making
    # "static-2.0"'s scheme answer to the name "static-2").
    return Scheme(
        name=f"static-{freq:.1f}",
        label=f"{freq:.1f} GHz",
        governor_factory=lambda: UserspaceGovernor(freq),
        initial_freq=freq,
    )


SCHEMES = {
    "polaris": Scheme("polaris", "POLARIS",
                      scheduler_class=PolarisScheduler),
    "polaris-fifo": Scheme("polaris-fifo", "POLARIS-FIFO",
                           scheduler_class=PolarisFifoScheduler),
    "polaris-fifo-noarrive": Scheme(
        "polaris-fifo-noarrive", "POLARIS-FIFO-NOARRIVE",
        scheduler_class=PolarisFifoNoArriveScheduler),
    "polaris-shed": Scheme("polaris-shed", "POLARIS-SHED",
                           scheduler_class=PolarisShedScheduler),
    "oa-online": Scheme("oa-online", "OA-Online",
                        scheduler_class=QoaScheduler),
    "avr-online": Scheme("avr-online", "AVR-Online",
                         scheduler_class=AvrScheduler),
    "nonclairvoyant": Scheme("nonclairvoyant", "Nonclairvoyant",
                             scheduler_class=NonclairvoyantScheduler),
    "ondemand": Scheme("ondemand", "OnDemand",
                       governor_factory=OnDemandGovernor),
    "conservative": Scheme("conservative", "Conservative",
                           governor_factory=ConservativeGovernor),
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
