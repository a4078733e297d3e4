"""Measurement layer: wall power meter, latency recorder, reporting.

Mirrors the paper's methodology (Section 6.1): whole-server power is
sampled once per second (the finest granularity of the Watts up? PRO
meter, rated +/-1.5%) and averaged over the test phase; performance is
the *failure rate* --- the fraction of transactions that do not finish
by their deadline.

Nothing is re-exported here, so a run loads only the modules it uses:
import from the submodule (``from repro.metrics.power import
PowerMeter``).
"""
