"""Discrete-event simulation substrate.

The POLARIS paper evaluates on real hardware with microsecond-scale
scheduling decisions.  Python cannot make per-transaction scheduling
decisions at that timescale in real time, so the whole reproduction runs
on a deterministic discrete-event simulator with a virtual clock measured
in (floating point) seconds.  Everything above this package --- CPU cores,
governors, the database server, POLARIS itself --- is written against the
:class:`Simulator` event loop and never consults wall-clock time.

``repro.sim.engine`` holds the event loop (``Simulator``: schedule
callbacks at absolute or relative virtual times, run until a deadline
or until the queue drains; ``Event.cancel``, which cancels the plain
list entry a schedule call returns) and
``repro.sim.rng`` holds ``RandomStreams``, independently seeded streams
so each stochastic component (arrivals, service times, meter noise,
...) draws from its own.  Nothing is re-exported here, so a run loads
only the modules it uses.
"""
