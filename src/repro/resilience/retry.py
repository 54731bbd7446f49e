"""Retry budgets, exponential backoff with jitter, error classification.

The transient-vs-fatal split extends the PR 3 error taxonomy:

========================================  ==========================
Transient (worth retrying)                Fatal (retry cannot help)
========================================  ==========================
:class:`~repro.cache.stream_cache.       :class:`~repro.errors.
StreamCacheError` (artefact damage —      ConfigurationError`,
recompute may succeed)                    :class:`~repro.errors.
``OSError`` and subclasses (ENOSPC,       AddressError` (bad inputs)
EIO, permission — the environment         :class:`~repro.errors.
may recover)                              PageFaultError` and every
``MemoryError`` (pressure may clear)      other :class:`ReproError`
:class:`TaskTimeoutError` (hung           (simulation-semantics bugs)
worker — a fresh one may finish)          ``ValueError`` / ``TypeError``
``BrokenExecutor`` (worker crash)         / ... (programming errors)
========================================  ==========================

Backoff is exponential with bounded jitter: attempt *n* sleeps
``min(max_delay, base * multiplier**(n-1)) * (1 + jitter * u)`` with
``u`` drawn uniformly from [-1, 1) by a caller-seeded RNG, so schedules
are deterministic in tests and thundering-herd-free in real sweeps.

The experiment runner's scheduler (``repro.experiments.runner``)
applies this policy to every task at every ``--jobs`` setting.  When
the budget is exhausted it re-raises the **original** exception with
the attempt history attached as ``retry_history`` (a tuple of
:class:`AttemptRecord`), so callers see exactly what was tried; with
``max_retries=0`` nothing is retried — fail-fast, bit for bit.
"""

from __future__ import annotations

import random
import zlib
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ReproError


class TaskTimeoutError(ReproError):
    """A task exceeded its wall-clock budget and was abandoned."""

    def __init__(self, key: object, seconds: float):
        self.key = key
        self.seconds = seconds
        super().__init__(
            f"task {key!r} exceeded its {seconds:g}s wall-clock budget"
        )


@dataclass(frozen=True)
class AttemptRecord:
    """One failed try: what was raised and how long we backed off."""

    attempt: int
    error: str
    delay: float


@dataclass(frozen=True)
class RetryPolicy:
    """Budget and backoff shape for one run's task retries."""

    #: Re-tries after the first attempt; 0 reproduces fail-fast exactly.
    max_retries: int = 0
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 5.0
    #: Jitter fraction: each delay is scaled by ``1 + jitter * u``,
    #: ``u ∈ [-1, 1)``.
    jitter: float = 0.1
    #: Seed for the jitter RNG (mixed with the task key per task).
    seed: int = 0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")


def task_rng(policy: RetryPolicy, key: object) -> random.Random:
    """The deterministic per-task jitter RNG (seed ⊕ stable key hash)."""
    mix = zlib.crc32(str(key).encode())
    return random.Random((policy.seed << 32) ^ mix)


def backoff_delay(
    policy: RetryPolicy, attempt: int, rng: Optional[random.Random] = None
) -> float:
    """The sleep before re-trying after failed attempt ``attempt`` (1-based).

    Always within ``[nominal * (1 - jitter), nominal * (1 + jitter))``
    where ``nominal = min(max_delay, base_delay * multiplier**(attempt-1))``.
    """
    if attempt < 1:
        raise ValueError(f"attempt is 1-based, got {attempt}")
    nominal = min(
        policy.max_delay, policy.base_delay * policy.multiplier ** (attempt - 1)
    )
    if policy.jitter == 0.0 or rng is None:
        return nominal
    u = 2.0 * rng.random() - 1.0
    return max(0.0, nominal * (1.0 + policy.jitter * u))


def backoff_schedule(
    policy: RetryPolicy, key: object = ""
) -> Tuple[float, ...]:
    """Every delay the policy would sleep for one task, deterministically."""
    rng = task_rng(policy, key)
    return tuple(
        backoff_delay(policy, attempt, rng)
        for attempt in range(1, policy.max_retries + 1)
    )


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------
def classify_error(exc: BaseException) -> str:
    """``"transient"`` (bounded retry may help) or ``"fatal"``."""
    from repro.cache.stream_cache import StreamCacheError

    if isinstance(exc, (TaskTimeoutError, BrokenExecutor, StreamCacheError)):
        return "transient"
    if isinstance(exc, (OSError, MemoryError)):
        return "transient"
    return "fatal"
