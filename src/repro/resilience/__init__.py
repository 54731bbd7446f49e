"""Fault injection, retry/backoff, and checkpoint/resume for experiments.

Real page-table systems are judged on how they degrade under faults —
replica divergence, shootdown races, exhausted disks mid-checkpoint.
This package gives the reproduction the same discipline:

- :mod:`repro.resilience.faults` — a deterministic, seeded fault-
  injection harness (:class:`FaultPlan`) firing failures at named sites
  across the runner, stream cache, NUMA replication, and walk tracer.
- :mod:`repro.resilience.retry` — exponential backoff with jitter,
  retry budgets, and the transient-vs-fatal error classification built
  on the PR 3 taxonomy.
- :mod:`repro.resilience.journal` — an append-only, fsync'd run journal
  keyed by content digests, so ``--resume`` skips completed experiments
  after a crash or SIGINT.

The chaos invariant (enforced by ``tests/test_chaos.py``): under any
seeded fault plan, a run either produces output byte-identical to the
fault-free paper-order run or terminates with an explicit per-experiment
failure record — never silently wrong, never hung.
"""

from repro.resilience.faults import (  # noqa: F401
    FaultInjector,
    FaultPlan,
    FaultRule,
    fault_point,
    inject,
)
from repro.resilience.journal import RunJournal, task_digest  # noqa: F401
from repro.resilience.retry import (  # noqa: F401
    RetryPolicy,
    TaskTimeoutError,
    backoff_delay,
    backoff_schedule,
    classify_error,
)
