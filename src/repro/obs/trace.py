"""Per-walk tracing: one structured event per page-table walk.

A :class:`WalkTracer` records, for every TLB-miss walk serviced while it
is installed, the table kind, the operation (single-PTE ``walk`` or
complete-subblock ``block`` fetch), the probes (buckets / chain nodes /
tree levels examined), the cache lines touched, the resulting PTE kind
(or ``fault``), and the accessing NUMA node.  Events land in a bounded
ring buffer (oldest dropped first, drops counted) and can be exported as
JSON Lines for offline analysis.  Every walk is also counted, once, in
the tracer's :class:`~repro.obs.profile.WalkProfile`, which lives
outside the ring, so aggregate invariants hold even after the ring
wraps.

The emission hook lives in :meth:`repro.pagetables.base.PageTable.lookup`
and the ``lookup_block`` implementations; with no tracer installed it is
one module-attribute check per walk.  No benchmark times that check
alone; the repository benchmark bounds untraced runs end to end.

Correctness anchor (enforced by ``tests/test_trace_differential.py``):
over a traced :func:`repro.mmu.simulate.replay_misses` run,
:attr:`WalkTracer.replay_lines` — block-fetch lines plus non-faulting
walk lines, mirroring exactly what the replay charges — equals the
replay's ``cache_lines``.
"""

from __future__ import annotations

import json
import os
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Deque, Iterator, List, Optional

from repro.obs.profile import TableProfile, WalkProfile, heat_cell

#: Default ring capacity: enough for every miss of a --fast experiment.
DEFAULT_CAPACITY = 65_536

#: Lazily resolved ``repro.resilience.faults.fault_point`` — imported on
#: first use so this module stays import-cycle-free (the fault layer
#: reports into ``repro.obs.metrics``).
_FAULT_POINT = None


def _fault_point():
    global _FAULT_POINT
    if _FAULT_POINT is None:
        from repro.resilience.faults import fault_point

        _FAULT_POINT = fault_point
    return _FAULT_POINT


@dataclass(frozen=True)
class WalkEvent:
    """One page-table walk, as the tracer saw it.

    ``lines``/``probes`` are the costs the table charged to its
    :class:`~repro.pagetables.base.WalkStats` for this walk — independent
    evidence against the :class:`~repro.pagetables.base.LookupResult`
    the caller consumed, which is what lets the differential tests catch
    a table that over-charges its stats relative to its results.
    """

    seq: int
    table: str
    op: str  # "walk" | "block"
    vpn: int
    kind: str  # PTE kind name, or "fault"
    lines: int
    probes: int
    fault: bool
    node: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


class WalkTracer:
    """Bounded ring buffer of :class:`WalkEvent` plus the walks' profile.

    Every recorded walk is counted once, in :attr:`profile` (created
    when none is given).  The totals :attr:`total_lines`,
    :attr:`total_probes` and :attr:`faults` are read from it, and the
    registry's walk histograms are derived from it
    (:meth:`~repro.obs.profile.WalkProfile.observe_into`), so the trace
    header, the histograms and the profile cannot disagree about what
    was walked.  The tracer itself keeps only the ring's accounting and
    :attr:`replay_lines`.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        profile: Optional[WalkProfile] = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._ring: Deque[WalkEvent] = deque(maxlen=capacity)
        #: Events recorded (including any the ring has since dropped).
        self.recorded = 0
        #: Events pushed out of the ring by newer ones.
        self.dropped = 0
        #: The replay-equivalent total: block fetches always charge their
        #: lines; single-PTE walks charge only when they do not fault —
        #: mirroring ``replay_misses`` exactly.
        self.replay_lines = 0
        self.profile = profile if profile is not None else WalkProfile()

    # ------------------------------------------------------------------
    @property
    def total_lines(self) -> int:
        """Lines over every walk (fault walks included)."""
        return self.profile.total_lines

    @property
    def total_probes(self) -> int:
        return sum(t.total_probes for t in self.profile.tables.values())

    @property
    def faults(self) -> int:
        return sum(t.faults for t in self.profile.tables.values())

    # ------------------------------------------------------------------
    def record(
        self,
        table: str,
        op: str,
        vpn: int,
        kind: str,
        lines: int,
        probes: int,
        fault: bool,
        node: int,
    ) -> None:
        """Record one walk (called from the page-table hook)."""
        fault_point = _fault_point()
        event = WalkEvent(
            seq=self.recorded, table=table, op=op, vpn=vpn, kind=kind,
            lines=lines, probes=probes, fault=fault, node=node,
        )
        if len(self._ring) == self.capacity:
            self.dropped += 1
        elif fault_point("trace.ring_overflow") == "overflow":
            # Chaos hook: behave as if the ring were full — the oldest
            # retained event is dropped (and counted) regardless of
            # capacity, so overflow accounting is testable at any size.
            if self._ring:
                self._ring.popleft()
                self.dropped += 1
        self._ring.append(event)
        profile = self._count(table, op, kind, lines, probes, fault, node, 1)
        profile.heat[heat_cell(int(vpn))] += int(lines)

    def record_groups(
        self,
        table: str,
        op: str,
        kind: str,
        lines: int,
        probes: int,
        fault: bool,
        node: int,
        count: int,
    ) -> None:
        """Record ``count`` walks sharing one signature, without the ring.

        The batch replay engine cannot afford one Python event per walk,
        so grouped walks are counted exactly as ``count`` :meth:`record`
        calls would count them, but the ring is not fed: all ``count``
        events are accounted as recorded *and* dropped (``retained ==
        recorded - dropped`` stays true).  Heat rows are VPN-dependent
        and therefore fed separately by the batch engine via
        :meth:`~repro.obs.profile.TableProfile.add_heat`.
        """
        if count <= 0:
            return
        self.dropped += count
        self._count(table, op, kind, lines, probes, fault, node, count)

    def _count(
        self, table: str, op: str, kind: str, lines: int, probes: int,
        fault: bool, node: int, count: int,
    ) -> TableProfile:
        """Count walks into the profile; returns the table's profile."""
        self.recorded += count
        if op == "block" or not fault:
            self.replay_lines += lines * count
        profile = self.profile.table(table)
        profile.record(kind, lines, probes, fault, node, count)
        return profile

    def absorb(self, other: "WalkTracer") -> None:
        """Take in ``other``'s walks as if they were recorded here next.

        Its retained events join the ring with ``seq`` offset by this
        tracer's ``recorded``, an event pushed out counts as dropped (as
        in :meth:`record`), and its counts and profile are added.  So
        tracers of at least this capacity, absorbed in the order their
        walks happened, leave the ring, header and profile that one
        tracer recording every walk would.
        """
        for event in other._ring:
            if len(self._ring) == self.capacity:
                self.dropped += 1
            self._ring.append(replace(event, seq=event.seq + self.recorded))
        self.recorded += other.recorded
        self.dropped += other.dropped
        self.replay_lines += other.replay_lines
        self.profile.merge(other.profile)

    # ------------------------------------------------------------------
    def events(self) -> List[WalkEvent]:
        """The retained events, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[WalkEvent]:
        return iter(self._ring)

    # ------------------------------------------------------------------
    def export_jsonl(self, path: os.PathLike) -> Path:
        """Write the retained events as JSON Lines; returns the path.

        The first line is a header record (``{"trace_header": ...}``)
        carrying the totals, so consumers can detect ring overflow
        (``recorded > len(events)``) without re-summing.
        """
        from repro.util.atomic_io import atomic_writer

        target = Path(path)
        header = {
            "trace_header": {
                "capacity": self.capacity,
                "recorded": self.recorded,
                "dropped": self.dropped,
                "retained": len(self._ring),
                "total_lines": self.total_lines,
                "replay_lines": self.replay_lines,
                "total_probes": self.total_probes,
                "faults": self.faults,
            }
        }
        with atomic_writer(target) as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for event in self._ring:
                handle.write(event.to_json() + "\n")
        return target

    def summary(self) -> str:
        """One-line human-readable totals."""
        return (
            f"[walk trace: {self.recorded} events ({self.dropped} dropped), "
            f"{self.total_lines} lines, {self.faults} faults]"
        )

    # ------------------------------------------------------------------
    def __enter__(self) -> "WalkTracer":
        install_tracer(self)
        return self

    def __exit__(self, *exc_info) -> None:
        uninstall_tracer(self)


# ---------------------------------------------------------------------------
# The active tracer (module global: the hook is one attribute check)
# ---------------------------------------------------------------------------
_ACTIVE: Optional[WalkTracer] = None
#: Suppression depth: >0 means nested walks must not emit (a composite
#: table is charging its constituents' work to one outer event).
_SUPPRESSED = 0


def install_tracer(tracer: WalkTracer) -> WalkTracer:
    """Make ``tracer`` receive every subsequent walk in this process."""
    global _ACTIVE
    _ACTIVE = tracer
    return tracer


def uninstall_tracer(tracer: Optional[WalkTracer] = None) -> None:
    """Stop tracing (pass a tracer to uninstall only if still active)."""
    global _ACTIVE
    if tracer is None or _ACTIVE is tracer:
        _ACTIVE = None


def active_tracer() -> Optional[WalkTracer]:
    """The installed tracer, if any."""
    return _ACTIVE


@contextmanager
def trace_walks(capacity: int = DEFAULT_CAPACITY):
    """``with trace_walks() as tracer:`` — a fresh tracer receives the
    block's walks; on exit the previously installed one is back."""
    global _ACTIVE
    tracer = WalkTracer(capacity)
    previous, _ACTIVE = _ACTIVE, tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


@contextmanager
def suppressed():
    """Silence event emission inside a composite table's nested walks."""
    global _SUPPRESSED
    _SUPPRESSED += 1
    try:
        yield
    finally:
        _SUPPRESSED -= 1


def emit(
    table: str,
    op: str,
    vpn: int,
    kind: str,
    lines: int,
    probes: int,
    fault: bool,
    node: int,
) -> None:
    """Record one walk into the active tracer, if any (hook entry point).

    Callers on the hot path should pre-check ``_ACTIVE is not None``
    themselves to keep the disabled cost at one attribute load.
    """
    if _ACTIVE is None or _SUPPRESSED:
        return
    _ACTIVE.record(table, op, vpn, kind, lines, probes, fault, node)
