"""The paper's Section 4: speed-scaling theory under the standard model.

In the standard model (Section 4.1), transactions have known loads
``w(t)``, the processor speed is continuous and unbounded, executing a
load-``w`` transaction at speed ``f`` takes ``w/f`` time, and power is
``f^alpha`` for a constant ``alpha > 1``.  Every algorithm meets every
deadline, so only energy is compared.

Implemented here:

* :mod:`repro.theory.model` --- jobs, problem instances, schedules, and
  exact energy/feasibility accounting;
* :mod:`repro.theory.yds` --- the Yao-Demers-Shenker optimal offline
  preemptive algorithm (iterated critical-interval peeling);
* :mod:`repro.theory.oa` --- Optimal Available, the online preemptive
  algorithm that re-runs YDS on the remaining work at each arrival;
* :mod:`repro.theory.polaris_ideal` --- idealized POLARIS: online,
  *non-preemptive*, EDF order, continuous speeds, exact loads --- the
  algorithm analyzed in Lemmas 4.1/4.2 and Theorems 4.3-4.5;
* :mod:`repro.theory.instances` --- generators for agreeable and
  arbitrary instances plus the Section 4.6 adversarial pair.

The theory benches verify the paper's competitive claims empirically:
POLARIS == OA on agreeable instances (Theorem 4.3), OA within
``alpha^alpha`` of YDS, and POLARIS within ``(c*alpha)^alpha`` of YDS
on arbitrary instances (Corollary 4.6).

Nothing is re-exported here, so only the ``theory`` command loads the
oracles: import from the submodule (``from repro.theory.yds import
yds_schedule``).
"""
