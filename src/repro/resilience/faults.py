"""Deterministic, seeded fault injection at named sites.

A :class:`FaultPlan` is a picklable bundle of :class:`FaultRule` — each
rule names a **site** (a ``fault_point`` call compiled into production
code), an **action**, and a deterministic trigger window (the Nth
matching visit to that site).

The scope of a plan is one **task attempt**.  The experiment runner arms
the run's plan around every attempt of every task (:func:`inject`, from
``runner._task_scope``), the same way in its own process and in pool
workers, with a fresh :class:`FaultInjector` that knows the task's label
and attempt number.  So a rule's ``at``/``times`` window counts the
visits of that attempt only, ``match`` reads the task's label and
``max_attempt`` its attempt number at every site, and one plan fires the
same faults at every ``--jobs``: a rule fires in every attempt of every
task it matches, and a rule with ``max_attempt=1`` is a transient fault
its task's first retry recovers from.  Outside an armed scope every site
is inert.

Sites (see :data:`SITES`); every one runs inside a runner task:

``runner.prewarm`` / ``runner.experiment``
    Entry of a stage-1 / stage-2 task.
``cache.store_stream`` / ``cache.load_stream``
    Entry of the stream-cache serialisers; exception actions model
    ENOSPC, EIO, and errno-less I/O failures.
``cache.artifact_stored``
    After an artefact lands on disk (the site passes its ``path``); the
    ``corrupt`` action flips one byte of the file — the bit rot the
    cache's corruption detection must turn into an evict-and-recompute,
    never a wrong answer.
``numa.replica_divergence``
    Inside :class:`~repro.numa.replication.ReplicatedPageTable`'s update
    fan-out; the ``skip-replica`` action drops node 0's update, creating
    the stale-replica divergence the coherence differential must catch.
``trace.ring_overflow``
    Inside :meth:`~repro.obs.trace.WalkTracer.record`; the ``overflow``
    action forces a ring drop so overflow accounting is exercised at any
    capacity.

Exception actions are raised out of the site; behavioural actions
(``skip-replica``, ``overflow``) are *returned* to the site, which
documents the ones it honours.  Every firing is counted in the metrics
registry under ``faults.injected`` labelled by site and action; a fault
that fails its attempt goes with that attempt's registry, and shows in
``runner.task_retries``, the retry history and the failure manifest.
"""

from __future__ import annotations

import errno
import json
import os
import random
import signal
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.metrics import get_registry

#: Every compiled-in fault site.
SITES = (
    "runner.prewarm",
    "runner.experiment",
    "cache.store_stream",
    "cache.load_stream",
    "cache.artifact_stored",
    "numa.replica_divergence",
    "trace.ring_overflow",
)

#: Actions that raise out of the site.
EXCEPTION_ACTIONS = ("raise-enospc", "raise-eio", "raise-oserror")
#: Actions with process-level side effects (worker sites only).
PROCESS_ACTIONS = ("crash", "hang", "sigint")
#: Actions returned to (and interpreted by) the site itself.
BEHAVIOUR_ACTIONS = ("corrupt", "skip-replica", "overflow")
ACTIONS = EXCEPTION_ACTIONS + PROCESS_ACTIONS + BEHAVIOUR_ACTIONS

#: Which actions make sense at which site (used by plan validation and
#: the random-plan generator).
SITE_ACTIONS: Dict[str, Tuple[str, ...]] = {
    "runner.prewarm": EXCEPTION_ACTIONS + PROCESS_ACTIONS,
    "runner.experiment": EXCEPTION_ACTIONS + PROCESS_ACTIONS,
    "cache.store_stream": EXCEPTION_ACTIONS,
    "cache.load_stream": EXCEPTION_ACTIONS,
    "cache.artifact_stored": ("corrupt",),
    "numa.replica_divergence": ("skip-replica",),
    "trace.ring_overflow": ("overflow",),
}


@dataclass(frozen=True)
class FaultRule:
    """One deterministic failure: fire ``action`` at visits N..N+times-1.

    The window counts the rule's visits within one task attempt.
    ``match`` restricts the rule to tasks whose label contains it as a
    substring ('' matches every task); ``max_attempt`` restricts it to
    the scheduler's first ``max_attempt`` tries of a task, at every
    site, so a bounded retry budget can out-live the fault.
    """

    site: str
    action: str
    match: str = ""
    at: int = 1
    times: int = 1
    max_attempt: Optional[int] = None

    def __post_init__(self):
        if self.site not in SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; known: {SITES}"
            )
        if self.action not in SITE_ACTIONS[self.site]:
            raise ConfigurationError(
                f"action {self.action!r} is not valid at site {self.site!r} "
                f"(valid: {SITE_ACTIONS[self.site]})"
            )
        if self.at < 1 or self.times < 1:
            raise ConfigurationError(
                f"fault window must be positive, got at={self.at} "
                f"times={self.times}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic set of fault rules (picklable for workers)."""

    rules: Tuple[FaultRule, ...]
    seed: int = 0
    #: How long a ``hang`` action sleeps; tests pair this with a short
    #: ``--task-timeout`` so a hung worker is detected in milliseconds.
    hang_seconds: float = 30.0

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))

    # ------------------------------------------------------------------
    # Serialisation (CLI --fault-plan FILE, CI chaos lane)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "hang_seconds": self.hang_seconds,
                "rules": [asdict(rule) for rule in self.rules],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            doc = json.loads(text)
            rules = tuple(FaultRule(**rule) for rule in doc.get("rules", ()))
            return cls(
                rules=rules,
                seed=int(doc.get("seed", 0)),
                hang_seconds=float(doc.get("hang_seconds", 30.0)),
            )
        except (TypeError, ValueError, KeyError) as exc:
            raise ConfigurationError(f"invalid fault plan: {exc}")

    # ------------------------------------------------------------------
    # Chaos-sweep generator
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        sites: Tuple[str, ...] = SITES,
        max_rules: int = 3,
        hang_seconds: float = 30.0,
        max_attempt: Optional[int] = None,
        exclude_actions: Tuple[str, ...] = (),
    ) -> "FaultPlan":
        """A deterministic pseudo-random plan for chaos sweeps.

        Same seed, same plan — so a failing sweep member reproduces from
        its seed alone.  ``sites`` restricts the sites drawn from and
        ``exclude_actions`` removes actions (serial chaos runs exclude
        the process-killing ``crash``/``hang``/``sigint``, which only a
        parallel scheduler can survive); ``max_attempt`` caps every
        generated rule so a retry budget can out-live it.  Every rule
        opens its window at an attempt's first visit (``at=1``), so it
        fires in every attempt that reaches its site.
        """
        rng = random.Random(seed)
        excluded = frozenset(exclude_actions)
        sites = tuple(
            site
            for site in sites
            if any(a not in excluded for a in SITE_ACTIONS[site])
        )
        if not sites:
            raise ConfigurationError("no fault sites left after exclusions")
        nrules = rng.randint(1, max(1, max_rules))
        rules: List[FaultRule] = []
        for _ in range(nrules):
            site = rng.choice(sites)
            action = rng.choice(
                [a for a in SITE_ACTIONS[site] if a not in excluded]
            )
            rules.append(
                FaultRule(
                    site=site,
                    action=action,
                    times=rng.randint(1, 2),
                    max_attempt=max_attempt,
                )
            )
        return cls(tuple(rules), seed=seed, hang_seconds=hang_seconds)


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at the fault points of one attempt.

    ``key`` is the task's label and ``attempt`` its 1-based try number;
    only the rules they select are armed (``match``, ``max_attempt``),
    and each armed rule counts its own visits from this attempt's first.
    """

    def __init__(self, plan: FaultPlan, key: str = "", attempt: int = 1):
        self.plan = plan
        self.rules = tuple(
            rule for rule in plan.rules
            if rule.match in key
            and (rule.max_attempt is None or attempt <= rule.max_attempt)
        )
        self._visits = [0] * len(self.rules)

    def visit(
        self, site: str, path: Optional[os.PathLike] = None
    ) -> Optional[str]:
        """Evaluate one site visit; raises or returns a behaviour action."""
        behaviour: Optional[str] = None
        for index, rule in enumerate(self.rules):
            if rule.site != site:
                continue
            self._visits[index] += 1
            if not rule.at <= self._visits[index] < rule.at + rule.times:
                continue
            get_registry().inc(
                "faults.injected", site=site, action=rule.action
            )
            result = self._fire(rule, path)
            if result is not None:
                behaviour = result
        return behaviour

    def _fire(
        self, rule: FaultRule, path: Optional[os.PathLike]
    ) -> Optional[str]:
        action = rule.action
        if action == "raise-enospc":
            raise OSError(
                errno.ENOSPC, f"injected at {rule.site}: no space left"
            )
        if action == "raise-eio":
            raise OSError(errno.EIO, f"injected at {rule.site}: I/O error")
        if action == "raise-oserror":
            # Deliberately errno-less: load_stream classifies this as
            # artefact corruption, not an environment problem.
            raise OSError(f"injected at {rule.site}: unreadable bytes")
        if action == "crash":
            os._exit(73)
        if action == "hang":
            time.sleep(self.plan.hang_seconds)
            return None
        if action == "sigint":
            # Emulates Ctrl-C hitting the run: from a pool worker the
            # parent runner is signalled (the worker itself carries on,
            # exactly like a real foreground process group); in-process
            # (serial runs) the interrupt is raised right here.
            if _IN_WORKER:
                os.kill(os.getppid(), signal.SIGINT)
                return None
            raise KeyboardInterrupt(f"injected at {rule.site}")
        if action == "corrupt":
            if path is not None:
                _flip_one_byte(Path(path), self.plan.seed)
            return None
        # Behaviour actions the site itself interprets.
        return action


def _flip_one_byte(path: Path, seed: int) -> None:
    """Deterministically corrupt one byte of ``path`` in place."""
    try:
        data = bytearray(path.read_bytes())
    except OSError:
        return
    if not data:
        return
    offset = seed % len(data)
    data[offset] ^= 0xFF
    # Deliberately non-atomic: this models in-place bit rot.
    path.write_bytes(bytes(data))


# ---------------------------------------------------------------------------
# The active injector (module global: each fault point is one check)
# ---------------------------------------------------------------------------
_ACTIVE: Optional[FaultInjector] = None

#: True in pool worker processes (set by the runner's worker initializer)
#: — decides whether ``sigint`` signals the parent or raises in-process.
_IN_WORKER = False


def mark_worker_process() -> None:
    """Flag this process as a pool worker (called by worker initializers)."""
    global _IN_WORKER
    _IN_WORKER = True


@contextmanager
def inject(
    plan: Optional[FaultPlan], key: str = "", attempt: int = 1
) -> Iterator[Optional[FaultInjector]]:
    """``with inject(plan, key, attempt) as injector:`` — one fault scope.

    Arms exactly ``plan`` (nothing when it is ``None``) for attempt
    ``attempt`` of the task labelled ``key``, with a fresh injector, and
    restores whatever was armed before when the block exits.  The runner
    opens one around every task attempt.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None if plan is None else FaultInjector(plan, key, attempt)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


def fault_point(
    site: str, path: Optional[os.PathLike] = None
) -> Optional[str]:
    """Hook compiled into production code at every named site.

    With no plan armed this is one global load and a ``None`` check.
    Exception actions raise; behaviour actions are returned for the site
    to honour; otherwise returns None.  ``path`` is the file a
    ``corrupt`` action damages.
    """
    injector = _ACTIVE
    if injector is None:
        return None
    return injector.visit(site, path)
