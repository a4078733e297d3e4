"""Simulated DVFS-capable CPU substrate.

Models the paper's testbed processor (2x Intel Xeon E5-2640 v3): ACPI
P-states from 1.2 to 2.6 GHz in 0.1 GHz steps plus a 2.8 GHz turbo
level, per-core frequency control, a calibrated power model, C-state
idle behaviour, an MSR register file (the interface the POLARIS
prototype used to change frequency, Section 5 of the paper), and RAPL
package energy counters.

The central class is :class:`Core`: it executes non-preemptive jobs
whose *work* is expressed in giga-cycles, so a job of work ``w`` takes
``w / f`` virtual seconds at frequency ``f`` GHz --- the execution model
of the paper's Section 4.1, discretized to the P-state grid.  Frequency
may change *while a job runs* (POLARIS does this on request arrival);
the core re-computes the remaining work and reschedules its completion.

Nothing is re-exported here, so a run loads only the modules it uses:
import from the submodule (``from repro.cpu.core import Core``).
"""
