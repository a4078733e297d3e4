"""POLARIS reproduction: workload-aware CPU performance scaling for
transactional database systems (Korkmaz et al., SIGMOD 2018).

Public API overview
-------------------
``repro.core``
    The paper's contribution: the POLARIS scheduler (EDF ordering +
    SetProcessorFreq frequency selection), its execution-time
    estimator, workloads with latency targets, and the ablated
    POLARIS-FIFO / POLARIS-FIFO-NOARRIVE variants.
``repro.sim`` / ``repro.cpu`` / ``repro.db`` / ``repro.workloads``
    The simulated substrate: discrete-event engine, DVFS-capable cores
    with a calibrated power model, the multi-worker transactional
    server, and the calibrated TPC-C / TPC-E / YCSB workloads.
``repro.governors``
    The OS baselines: OnDemand, Conservative, and static governors.
``repro.theory``
    Section 4's standard model: YDS, OA, idealized POLARIS, and
    competitive-ratio experiments.
``repro.harness``
    The paper's methodology: ``run_experiment`` for one cell, and one
    function per evaluation figure (``fig3`` ... ``fig12``, theory,
    overhead), also exposed via the ``polaris-repro`` CLI.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
