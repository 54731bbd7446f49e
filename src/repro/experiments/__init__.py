"""Experiment harness: one module per paper table/figure, plus studies.

Paper artefacts:

- :mod:`repro.experiments.table1` — workload characteristics (Table 1).
- :mod:`repro.experiments.fig9` — single-page-size page-table sizes.
- :mod:`repro.experiments.fig10` — sizes with superpage/partial-subblock
  PTEs.
- :mod:`repro.experiments.fig11` — cache lines per TLB miss under four TLB
  architectures (Figures 11a–d).
- :mod:`repro.experiments.table2` — Appendix formulae vs simulation.

Sensitivity sweeps and prose-claim studies:

- :mod:`repro.experiments.sensitivity` — cache-line size, subblock factor,
  bucket count, TLB geometry, hash quality, shared-vs-private tables.
- :mod:`repro.experiments.softtlb` — §7 software-TLB front ends.
- :mod:`repro.experiments.multisize` — §7 two clustered tables for all
  page sizes.
- :mod:`repro.experiments.multiprog` — §7 multiprogramming / ASIDs.
- :mod:`repro.experiments.guarded` — §2 guarded page tables.
- :mod:`repro.experiments.sasos` — §7 single-address-space systems.
- :mod:`repro.experiments.cachesim` — §6.1's caching hypothesis over a
  real L2 simulator.
- :mod:`repro.experiments.pressure` — §7 memory pressure vs placement.
- :mod:`repro.experiments.promotion_scan` — §5 promotion-scan costs.
- :mod:`repro.experiments.tenancy` — multi-tenant consolidation: one
  shared arena, {100 | 1k | 10k} tenants, lifecycle churn, per-tenant
  walk-cycle percentiles.

Harness:

- :mod:`repro.experiments.runner` — run everything (``run_all``), in
  paper order, through one resilient scheduler.
- :mod:`repro.experiments.claims` — verify every headline claim, with a
  non-zero exit on failure (the acceptance gate).

Every module exposes ``run(...)`` returning an
:class:`~repro.experiments.common.ExperimentResult`.  The command line
for all of them is ``python -m repro experiment ID`` (one table, e.g.
``fig9``) or ``python -m repro experiment all`` (the whole suite), which
prints each as a paper-style text table.
"""

from repro.experiments.common import ExperimentResult

__all__ = ["ExperimentResult"]
