"""Metrics registry: counters, gauges, histograms.

A :class:`MetricsRegistry` is the *queryable* view of what the simulator
did: stream-cache hits/misses/stores/evictions (labelled by reason),
shootdown IPI rounds, replication fan-out writes, per-walk cache-line
distributions, and runner task and phase timings all land in the active
registry (:func:`get_registry`: the process default, or the one
:func:`use_registry` installed).  ``run_all`` counts each run into its
own registry, so ``metrics.json`` and ``--metrics`` hold one run.
Objects that keep their own stats (``ShootdownStats``, ``WalkStats``)
report into both; the stream cache and the runner count only here.

Metrics are named ``subsystem.event`` and optionally labelled::

    get_registry().inc("stream_cache.evictions", reason="schema")

Labelled series are independent; :meth:`MetricsRegistry.values` returns
every labelled series of one name.

Histograms are **bucketed**: alongside count/total/min/max, every
observation lands in a log₂ bucket (bucket *e* covers ``(2^(e-1),
2^e]``), which is what lets :meth:`HistogramStats.percentile` estimate
p50/p95/p99 without retaining raw samples.  The bucket-count invariant
``sum(buckets) + zeros == count`` is what the profiler's tests pin
against the walk profile the ``walk.*`` histograms are derived from.

Cross-process aggregation goes through :meth:`MetricsRegistry.state`
(a JSON-safe dump keyed by *structured* name+label pairs) and
:meth:`MetricsRegistry.merge_state` — never through rendered string
keys, so label values containing ``,``, ``=``, or ``}`` survive the
round trip.  Each runner task returns its own registry's ``state()``,
in a worker process or in the runner's, and the run folds it in when
the task succeeds: that is how labelled counters, gauges, and
histograms survive ``--jobs N``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

#: A labelled series key: (metric name, sorted (label, value) pairs).
SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]

#: One series in a :meth:`MetricsRegistry.state` dump:
#: ``[name, {label: value}, payload]``.
StateEntry = List[object]


def _series_key(name: str, labels: Dict[str, object]) -> SeriesKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_key(key: SeriesKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def _key_to_state(key: SeriesKey) -> Tuple[str, Dict[str, str]]:
    name, labels = key
    return name, dict(labels)


class HistogramStats:
    """One histogram series: summary stats plus log₂ bucket counts.

    ``minimum``/``maximum`` are **safe on an empty histogram** — they
    return 0.0 when ``count == 0`` instead of leaking the ``inf``/
    ``-inf`` accumulator sentinels (the raw accumulators are private).
    """

    __slots__ = ("count", "total", "zeros", "buckets", "_min", "_max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        #: Observations ≤ 0 (below every power-of-two bucket).
        self.zeros = 0
        #: Log₂ buckets: exponent ``e`` → observations in ``(2^(e-1), 2^e]``.
        self.buckets: Dict[int, int] = {}
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # ------------------------------------------------------------------
    @staticmethod
    def bucket_of(value: float) -> Optional[int]:
        """The log₂ bucket exponent of one value (None for values ≤ 0)."""
        if value <= 0:
            return None
        mantissa, exponent = math.frexp(value)  # value = mantissa * 2**exponent
        # mantissa ∈ [0.5, 1): exactly 0.5 means value == 2**(exponent-1),
        # which belongs to the bucket it closes, (2**(e-2), 2**(e-1)].
        return exponent - 1 if mantissa == 0.5 else exponent

    def observe(self, value: float) -> None:
        # Summaries are floats whatever the caller passes, so a merged
        # copy (rebuilt by from_dict) dumps the same JSON as the original.
        value = float(value)
        self.count += 1
        self.total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        bucket = self.bucket_of(value)
        if bucket is None:
            self.zeros += 1
        else:
            self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def observe_many(self, value: float, count: int) -> None:
        """Record ``count`` identical observations in O(1).

        Exactly equivalent to calling :meth:`observe` ``count`` times —
        a walk profile derives its ``walk.*`` histograms with one call
        per distinct cost
        (:meth:`~repro.obs.profile.WalkProfile.observe_into`).
        """
        if count <= 0:
            return
        value = float(value)
        self.count += count
        self.total += value * count
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        bucket = self.bucket_of(value)
        if bucket is None:
            self.zeros += count
        else:
            self.buckets[bucket] = self.buckets.get(bucket, 0) + count

    # ------------------------------------------------------------------
    @property
    def minimum(self) -> float:
        """Smallest observation (0.0 when the histogram is empty)."""
        return self._min if self._min is not None else 0.0

    @property
    def maximum(self) -> float:
        """Largest observation (0.0 when the histogram is empty)."""
        return self._max if self._max is not None else 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the q-th percentile (``0 < q <= 1``) from the buckets.

        Nearest-rank over the bucket counts with linear interpolation
        inside the containing bucket, clamped to the observed
        ``[minimum, maximum]`` range — so a single-valued histogram
        reports that exact value at every percentile.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"percentile fraction must be in (0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cumulative = self.zeros
        estimate = 0.0
        if rank > cumulative:
            estimate = self.maximum
            for exponent in sorted(self.buckets):
                in_bucket = self.buckets[exponent]
                if rank <= cumulative + in_bucket:
                    lower, upper = 2.0 ** (exponent - 1), 2.0 ** exponent
                    fraction = (rank - cumulative) / in_bucket
                    estimate = lower + fraction * (upper - lower)
                    break
                cumulative += in_bucket
        return min(max(estimate, self.minimum), self.maximum)

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    # ------------------------------------------------------------------
    def merge(self, other: Union["HistogramStats", Mapping[str, object]]) -> None:
        """Fold another histogram (or its :meth:`as_dict` dump) into this one."""
        if isinstance(other, Mapping):
            other = HistogramStats.from_dict(other)
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.zeros += other.zeros
        for exponent, in_bucket in other.buckets.items():
            self.buckets[exponent] = self.buckets.get(exponent, 0) + in_bucket
        if self._min is None or other.minimum < self._min:
            self._min = other.minimum
        if self._max is None or other.maximum > self._max:
            self._max = other.maximum

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe dump (counts are ints, summaries floats, buckets a list)."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "zeros": self.zeros,
            "buckets": [
                [exponent, self.buckets[exponent]]
                for exponent in sorted(self.buckets)
            ],
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "HistogramStats":
        """Rebuild from an :meth:`as_dict` dump (merge-exact, not sample-exact)."""
        histogram = cls()
        histogram.count = int(doc.get("count", 0))
        histogram.total = float(doc.get("total", 0.0))
        histogram.zeros = int(doc.get("zeros", 0))
        histogram.buckets = {
            int(exponent): int(in_bucket)
            for exponent, in_bucket in doc.get("buckets", [])  # type: ignore[union-attr]
        }
        if histogram.count:
            histogram._min = float(doc.get("min", 0.0))
            histogram._max = float(doc.get("max", 0.0))
        return histogram

    def __repr__(self) -> str:
        return (
            f"<HistogramStats count={self.count} total={self.total} "
            f"min={self.minimum} max={self.maximum}>"
        )


class MetricsRegistry:
    """Counters, gauges, and histograms, keyed by name + labels."""

    def __init__(self) -> None:
        self._counters: Dict[SeriesKey, int] = {}
        self._gauges: Dict[SeriesKey, float] = {}
        self._histograms: Dict[SeriesKey, HistogramStats] = {}

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: int = 1, **labels: object) -> int:
        """Increment a counter; returns the new value."""
        key = _series_key(name, labels)
        value = self._counters.get(key, 0) + amount
        self._counters[key] = value
        return value

    def counter(self, name: str, **labels: object) -> int:
        """Current value of one counter series (0 if never incremented)."""
        return self._counters.get(_series_key(name, labels), 0)

    # ------------------------------------------------------------------
    # Gauges
    # ------------------------------------------------------------------
    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge to an absolute value."""
        self._gauges[_series_key(name, labels)] = value

    def gauge(self, name: str, **labels: object) -> float:
        """Current value of one gauge series (0.0 if never set)."""
        return self._gauges.get(_series_key(name, labels), 0.0)

    # ------------------------------------------------------------------
    # Histograms
    # ------------------------------------------------------------------
    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record one observation into a histogram series."""
        key = _series_key(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = HistogramStats()
        histogram.observe(value)

    def histogram(self, name: str, **labels: object) -> HistogramStats:
        """Summary of one histogram series (empty if never observed)."""
        return self._histograms.get(_series_key(name, labels), HistogramStats())

    def histogram_handle(self, name: str, **labels: object) -> HistogramStats:
        """The *live* histogram of one series, created if absent.

        Hot loops (the NUMA replay observes per walk) resolve the series
        key once and call ``handle.observe(...)`` directly, skipping the
        per-observation label sort of :meth:`observe`.
        """
        key = _series_key(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = HistogramStats()
        return histogram

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def values(self, name: str) -> Dict[str, int]:
        """Every labelled counter series of one name, rendered-key → value."""
        return {
            _render_key(key): value
            for key, value in self._counters.items()
            if key[0] == name
        }

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready *display* dump of every series (rendered keys).

        For merging across processes use :meth:`state` — rendered keys
        are ambiguous once a label value contains ``,``, ``=`` or ``}``.
        """
        return {
            "counters": {
                _render_key(key): value
                for key, value in sorted(self._counters.items())
            },
            "gauges": {
                _render_key(key): value
                for key, value in sorted(self._gauges.items())
            },
            "histograms": {
                _render_key(key): histogram.as_dict()
                for key, histogram in sorted(self._histograms.items())
            },
        }

    # ------------------------------------------------------------------
    # Cross-process aggregation (structured keys, never rendered strings)
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, List[StateEntry]]:
        """JSON-safe structured dump of every series, for merging.

        Each section is a sorted list of ``[name, labels, payload]``
        entries where ``labels`` is a plain dict — label values survive
        verbatim, whatever characters they contain.
        """
        return {
            "counters": [
                [*_key_to_state(key), value]
                for key, value in sorted(self._counters.items())
            ],
            "gauges": [
                [*_key_to_state(key), value]
                for key, value in sorted(self._gauges.items())
            ],
            "histograms": [
                [*_key_to_state(key), histogram.as_dict()]
                for key, histogram in sorted(self._histograms.items())
            ],
        }

    def merge_state(self, state: Mapping[str, Iterable[StateEntry]]) -> None:
        """Fold another registry's :meth:`state` dump into this one.

        Counters accumulate, histograms merge bucket-by-bucket, gauges
        take the incoming value (last writer wins — a gauge is a level,
        not a flow).
        """
        for name, labels, value in state.get("counters", ()):
            self.inc(str(name), int(value), **dict(labels))  # type: ignore[arg-type]
        for name, labels, value in state.get("gauges", ()):
            self.set_gauge(str(name), float(value), **dict(labels))  # type: ignore[arg-type]
        for name, labels, payload in state.get("histograms", ()):
            key = _series_key(str(name), dict(labels))  # type: ignore[arg-type]
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = HistogramStats()
            histogram.merge(payload)  # type: ignore[arg-type]

    def render(self) -> str:
        """Aligned text tables of every non-empty section."""
        from repro.analysis.report import render_table

        sections: List[str] = []
        if self._counters:
            sections.append(render_table(
                ["counter", "value"],
                [[_render_key(k), v] for k, v in sorted(self._counters.items())],
                title="Counters",
            ))
        if self._gauges:
            sections.append(render_table(
                ["gauge", "value"],
                [[_render_key(k), v] for k, v in sorted(self._gauges.items())],
                title="Gauges",
            ))
        if self._histograms:
            sections.append(render_table(
                ["histogram", "count", "total", "mean", "min",
                 "p50", "p95", "p99", "max"],
                [
                    [_render_key(k), h.count, h.total, h.mean, h.minimum,
                     h.p50, h.p95, h.p99, h.maximum]
                    for k, h in sorted(self._histograms.items())
                ],
                title="Histograms", precision=4,
            ))
        if not sections:
            return "(no metrics recorded)"
        return "\n\n".join(sections)

    def reset(self) -> None:
        """Drop every series (tests use this for isolation)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


#: The active registry every subsystem reports into: the process
#: default, or the one :func:`use_registry` installed.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The active registry."""
    return _REGISTRY


def reset_registry() -> MetricsRegistry:
    """Clear the active registry and return it."""
    _REGISTRY.reset()
    return _REGISTRY


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Within the block, :func:`get_registry` returns ``registry``; on
    exit the previously active registry comes back."""
    global _REGISTRY
    previous, _REGISTRY = _REGISTRY, registry
    try:
        yield registry
    finally:
        _REGISTRY = previous
