"""repro.obs --- deterministic tracing and time-series metrics.

The observability subsystem records *why* the simulated system did what
it did: per-transaction spans (enqueue -> dispatch -> execute ->
complete), instant events for scheduler decisions (EDF dispatches,
SetProcessorFreq selections with the slack estimate that drove them,
P-state transitions, governor samples), and Prometheus-style time-series
metrics (queue depth, per-core frequency, power draw, deadline misses)
sampled on the simulator's **virtual clock** --- so every trace is a
bit-deterministic function of ``(ExperimentConfig, seed)``.

Three layers:

* :mod:`repro.obs.trace` --- the :class:`Tracer`, which records each
  event as its export-ready Chrome record on a ``(pid, tid)`` track,
  and the ``REPRO_TRACE`` enable hook (same no-op-when-disabled
  pattern as simsan: components test one pre-resolved boolean).
* :mod:`repro.obs.metrics` --- the virtual-time :class:`MetricsSampler`
  over a plant's ``name -> callable`` gauges.
* :mod:`repro.obs.export` --- Chrome trace-event / Perfetto JSON
  (open the file at ``ui.perfetto.dev``), CSV series dumps, and a
  structural validator.  Figures render their own trace summary
  (:func:`repro.harness.figures.trace_summary`).

Import the submodules directly.  The engine imports
:mod:`repro.obs.trace` in every run, so this init re-exports nothing:
an untraced run loads neither the metrics nor the export layer.
"""
