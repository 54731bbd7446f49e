"""Backoff math, retry budgets, and error classification."""

import errno

import pytest

from repro.cache.stream_cache import StreamCacheError
from repro.errors import ConfigurationError, PageFaultError
from repro.resilience.retry import (
    RetryPolicy,
    TaskTimeoutError,
    backoff_delay,
    backoff_schedule,
    classify_error,
    task_rng,
)


class TestBackoffDelay:
    def test_exponential_without_jitter(self):
        policy = RetryPolicy(
            max_retries=5, base_delay=0.1, multiplier=2.0,
            max_delay=100.0, jitter=0.0,
        )
        delays = [backoff_delay(policy, n) for n in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.4, 0.8]

    def test_capped_at_max_delay(self):
        policy = RetryPolicy(
            max_retries=10, base_delay=1.0, multiplier=10.0,
            max_delay=5.0, jitter=0.0,
        )
        assert backoff_delay(policy, 4) == 5.0

    def test_jitter_stays_within_bounds(self):
        policy = RetryPolicy(
            max_retries=3, base_delay=0.1, multiplier=2.0, jitter=0.25,
        )
        for seed in range(200):
            rng = task_rng(RetryPolicy(seed=seed), f"task-{seed}")
            for attempt in (1, 2, 3):
                nominal = min(
                    policy.max_delay,
                    policy.base_delay * policy.multiplier ** (attempt - 1),
                )
                delay = backoff_delay(policy, attempt, rng)
                assert nominal * 0.75 <= delay < nominal * 1.25

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            backoff_delay(RetryPolicy(), 0)

    def test_schedule_is_deterministic_per_key(self):
        policy = RetryPolicy(max_retries=4, jitter=0.2, seed=7)
        assert backoff_schedule(policy, "a") == backoff_schedule(policy, "a")
        assert backoff_schedule(policy, "a") != backoff_schedule(policy, "b")

    def test_schedule_length_equals_budget(self):
        assert len(backoff_schedule(RetryPolicy(max_retries=3))) == 3
        assert backoff_schedule(RetryPolicy(max_retries=0)) == ()


class TestPolicyValidation:
    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    def test_rejects_bad_jitter(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)

    def test_rejects_shrinking_multiplier(self):
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestClassification:
    @pytest.mark.parametrize("exc", [
        TaskTimeoutError("t", 1.0),
        StreamCacheError("damaged", reason="unreadable"),
        OSError(errno.ENOSPC, "no space"),
        OSError(errno.EIO, "I/O error"),
        PermissionError("denied"),
        MemoryError(),
    ])
    def test_transient(self, exc):
        assert classify_error(exc) == "transient"

    @pytest.mark.parametrize("exc", [
        ConfigurationError("bad config"),
        PageFaultError(0x10),
        ValueError("bug"),
        TypeError("bug"),
        KeyError("bug"),
    ])
    def test_fatal(self, exc):
        assert classify_error(exc) == "fatal"


def test_task_timeout_error_carries_key_and_budget():
    error = TaskTimeoutError("fig11d", 2.5)
    assert error.key == "fig11d"
    assert error.seconds == 2.5
    assert "fig11d" in str(error) and "2.5" in str(error)
