"""Per-table walk profiles aggregated from the walk-trace stream.

A :class:`WalkProfile` condenses the per-walk events that
:class:`repro.obs.trace.WalkTracer` sees into one structure per page
table:

- **exact** cache-line and probe-count distributions (small-integer
  ``value → count`` maps, so p50/p95/p99 here are exact, where a
  log₂-bucketed registry histogram would only estimate them);
- the PTE-kind mix (``base`` / ``superpage`` / ``partial_subblock`` /
  ``fault`` / ...);
- per-NUMA-node cache-line totals;
- a fixed-width *heat row*: walk VPNs are folded into
  :data:`HEAT_CELLS` cells with a Fibonacci (multiplicative) hash, so a
  skewed row exposes hot hash regions without storing per-bucket state.

Profiles are plain dict-of-ints underneath: picklable across the worker
pool, mergeable in the parent (:meth:`WalkProfile.merge`), and JSON
round-trippable for the ``walk_profile.json`` run artefact that
``repro.cli report`` renders.

The profile is the one place a walk is counted and the one record of
walk costs: the tracer's totals are read from it, and the registry
keeps no walk histograms.

The heat hash is deliberately a *local* copy of the multiplicative hash
used by ``repro.pagetables.hashed`` — importing that module here would
cycle (``pagetables.base`` imports ``repro.obs`` for the tracer hook),
and the profile only needs a well-scattered fold, not the table's exact
bucket function.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Mapping, Optional

#: Cells in the per-table occupancy heat row.
HEAT_CELLS = 16

#: 2^64 / golden ratio — same constant as the hashed page tables use.
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

#: ``heat_cell`` reduces by ``(hash * cells) >> 64``; for a power-of-two
#: cell count that is a plain right shift.
assert HEAT_CELLS & (HEAT_CELLS - 1) == 0, "heat folding assumes 2^k cells"
_HEAT_SHIFT = 64 - (HEAT_CELLS.bit_length() - 1)


def heat_cell(vpn: int, cells: int = HEAT_CELLS) -> int:
    """Fold a VPN into ``[0, cells)`` with a Fibonacci multiplicative hash."""
    return (((vpn * _GOLDEN) & _MASK64) * cells) >> 64


def _exact_percentile(values: Mapping[int, int], q: float) -> int:
    """Exact nearest-rank percentile over a ``value → count`` map."""
    total = sum(values.values())
    if total == 0:
        return 0
    rank = max(1, min(total, int(-(-q * total // 1))))  # ceil(q * total)
    seen = 0
    result = 0
    for value in sorted(values):
        seen += values[value]
        result = value
        if seen >= rank:
            break
    return result


def _counter_as_dict(counter: Mapping[int, int]) -> Dict[str, int]:
    return {str(key): int(count) for key, count in sorted(counter.items())}


def _counter_from_dict(doc: Mapping[str, int]) -> Counter:
    return Counter({int(key): int(count) for key, count in doc.items()})


class TableProfile:
    """Walk-cost profile for one page table."""

    __slots__ = ("walks", "faults", "lines", "probes", "kinds",
                 "lines_by_node", "heat")

    def __init__(self) -> None:
        self.walks = 0
        self.faults = 0
        self.lines: Counter = Counter()   # cache-lines-per-walk → walks
        self.probes: Counter = Counter()  # probes-per-walk → walks
        self.kinds: Counter = Counter()   # PTE kind / "fault" → walks
        self.lines_by_node: Counter = Counter()  # NUMA node → total lines
        self.heat = [0] * HEAT_CELLS      # heat-cell → total lines

    # ------------------------------------------------------------------
    def record(
        self,
        kind: str,
        lines: int,
        probes: int,
        fault: bool,
        node: Optional[int] = None,
        count: int = 1,
    ) -> None:
        """Record ``count`` walks sharing one (kind, cost) signature.

        The heat row depends on each walk's VPN, so callers fold it in
        themselves: one :func:`heat_cell` per walk, or :meth:`add_heat`
        for a whole array of walks.
        """
        if count <= 0:
            return
        self.walks += count
        if fault:
            self.faults += count
        self.lines[int(lines)] += count
        self.probes[int(probes)] += count
        self.kinds[kind] += count
        if node is not None:
            self.lines_by_node[int(node)] += int(lines) * count

    def add_heat(self, vpns, lines) -> None:
        """Fold walks at ``vpns`` charging ``lines`` each into the heat row.

        The vectorised :func:`heat_cell`: the same Fibonacci hash in
        wrapping ``uint64`` arithmetic, reduced to its top bits.
        """
        import numpy as np  # here, so importing repro.obs needs no numpy

        hashed = np.asarray(vpns).astype(np.uint64) * np.uint64(_GOLDEN)
        cells = (hashed >> np.uint64(_HEAT_SHIFT)).astype(np.int64)
        weights = np.asarray(lines).astype(np.float64)
        heat = np.bincount(cells, weights=weights, minlength=HEAT_CELLS)
        for cell, total in enumerate(heat):
            self.heat[cell] += int(total)

    # ------------------------------------------------------------------
    @property
    def total_lines(self) -> int:
        return sum(value * count for value, count in self.lines.items())

    @property
    def total_probes(self) -> int:
        return sum(value * count for value, count in self.probes.items())

    @property
    def mean_lines(self) -> float:
        return self.total_lines / self.walks if self.walks else 0.0

    def lines_percentile(self, q: float) -> int:
        return _exact_percentile(self.lines, q)

    def probes_percentile(self, q: float) -> int:
        return _exact_percentile(self.probes, q)

    # ------------------------------------------------------------------
    def merge(self, other: "TableProfile") -> None:
        self.walks += other.walks
        self.faults += other.faults
        self.lines.update(other.lines)
        self.probes.update(other.probes)
        self.kinds.update(other.kinds)
        self.lines_by_node.update(other.lines_by_node)
        for cell, lines in enumerate(other.heat):
            self.heat[cell] += lines

    def as_dict(self) -> Dict[str, object]:
        return {
            "walks": self.walks,
            "faults": self.faults,
            "total_lines": self.total_lines,
            "total_probes": self.total_probes,
            "mean_lines": self.mean_lines,
            "lines_p50": self.lines_percentile(0.50),
            "lines_p95": self.lines_percentile(0.95),
            "lines_p99": self.lines_percentile(0.99),
            "probes_p50": self.probes_percentile(0.50),
            "probes_p95": self.probes_percentile(0.95),
            "probes_p99": self.probes_percentile(0.99),
            "lines": _counter_as_dict(self.lines),
            "probes": _counter_as_dict(self.probes),
            "kinds": {k: int(v) for k, v in sorted(self.kinds.items())},
            "lines_by_node": _counter_as_dict(self.lines_by_node),
            "heat": list(self.heat),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "TableProfile":
        profile = cls()
        profile.walks = int(doc.get("walks", 0))  # type: ignore[arg-type]
        profile.faults = int(doc.get("faults", 0))  # type: ignore[arg-type]
        profile.lines = _counter_from_dict(doc.get("lines", {}))  # type: ignore[arg-type]
        profile.probes = _counter_from_dict(doc.get("probes", {}))  # type: ignore[arg-type]
        profile.kinds = Counter({
            str(k): int(v)
            for k, v in dict(doc.get("kinds", {})).items()  # type: ignore[arg-type]
        })
        profile.lines_by_node = _counter_from_dict(
            doc.get("lines_by_node", {})  # type: ignore[arg-type]
        )
        heat = list(doc.get("heat", []))  # type: ignore[arg-type]
        profile.heat = [int(v) for v in heat] + [0] * (HEAT_CELLS - len(heat))
        profile.heat = profile.heat[:HEAT_CELLS]
        return profile


class WalkProfile:
    """Profiles for every table seen by a tracer, keyed by table name."""

    __slots__ = ("tables",)

    def __init__(self) -> None:
        self.tables: Dict[str, TableProfile] = {}

    def table(self, name: str) -> TableProfile:
        profile = self.tables.get(name)
        if profile is None:
            profile = self.tables[name] = TableProfile()
        return profile

    # ------------------------------------------------------------------
    @property
    def total_walks(self) -> int:
        return sum(profile.walks for profile in self.tables.values())

    @property
    def total_lines(self) -> int:
        return sum(profile.total_lines for profile in self.tables.values())

    def merge(self, other: "WalkProfile") -> None:
        for name, profile in other.tables.items():
            self.table(name).merge(profile)

    def merge_dict(self, doc: Mapping[str, object]) -> None:
        """Fold a serialised profile (e.g. from a worker) in."""
        for name, table_doc in dict(doc.get("tables", {})).items():  # type: ignore[arg-type]
            self.table(str(name)).merge(TableProfile.from_dict(table_doc))

    def as_dict(self) -> Dict[str, object]:
        return {
            "profile_version": 1,
            "total_walks": self.total_walks,
            "total_lines": self.total_lines,
            "tables": {
                name: profile.as_dict()
                for name, profile in sorted(self.tables.items())
            },
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "WalkProfile":
        profile = cls()
        profile.merge_dict(doc)
        return profile
