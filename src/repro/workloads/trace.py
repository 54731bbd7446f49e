"""Reference trace container and statistics.

A :class:`Trace` is a numpy-backed sequence of virtual page numbers — the
page-granular reference stream that drives TLB simulation.  Multiprocess
traces additionally carry *switch points*: indices at which the executing
process changes, where a TLB without address-space identifiers must flush
(the paper's compress and gcc workloads are multiprogrammed, §6.2).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a reference trace."""

    references: int
    unique_pages: int
    unique_blocks: int
    switches: int

    @property
    def reuse_factor(self) -> float:
        """References per distinct page touched."""
        return self.references / self.unique_pages if self.unique_pages else 0.0


class Trace:
    """A page-granular reference stream, optionally multiprocess.

    Parameters
    ----------
    vpns:
        The referenced virtual page numbers, in order.
    name:
        Label used in reports.
    switch_points:
        Sorted indices where a context switch happens *before* the
        reference at that index.
    subblock_factor:
        Pages per block for block statistics (defaults to 16).
    """

    def __init__(
        self,
        vpns: Sequence[int],
        name: str = "trace",
        switch_points: Optional[Sequence[int]] = None,
        subblock_factor: int = 16,
        segment_owners: Optional[Sequence[int]] = None,
    ):
        self.vpns = np.asarray(vpns, dtype=np.int64)
        if self.vpns.ndim != 1:
            raise ConfigurationError("trace must be one-dimensional")
        self.name = name
        self.switch_points: Tuple[int, ...] = tuple(switch_points or ())
        if any(
            not 0 <= p <= len(self.vpns) for p in self.switch_points
        ) or list(self.switch_points) != sorted(self.switch_points):
            raise ConfigurationError("switch points must be sorted indices")
        self.subblock_factor = subblock_factor
        #: Owning process index per scheduling segment (for ASID-tagged
        #: simulation); defaults to all zero (single process).
        if segment_owners is not None:
            if len(segment_owners) != len(self.switch_points) + 1:
                raise ConfigurationError(
                    "need one segment owner per scheduling segment "
                    f"({len(self.switch_points) + 1}), got "
                    f"{len(segment_owners)}"
                )
            self.segment_owners: Tuple[int, ...] = tuple(segment_owners)
        else:
            self.segment_owners = (0,) * (len(self.switch_points) + 1)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.vpns.shape[0])

    def __iter__(self) -> Iterator[int]:
        return iter(self.vpns.tolist())

    def segments(self) -> Iterator[Tuple[bool, np.ndarray]]:
        """Yield ``(flush_first, vpn_array)`` per scheduling segment."""
        bounds: List[int] = [0, *self.switch_points, len(self.vpns)]
        first = True
        for start, end in zip(bounds, bounds[1:]):
            if start == end:
                continue
            yield (not first), self.vpns[start:end]
            first = False

    def segments_with_owner(self) -> Iterator[Tuple[int, bool, np.ndarray]]:
        """Yield ``(owner, flush_first, vpn_array)`` per segment."""
        bounds: List[int] = [0, *self.switch_points, len(self.vpns)]
        first = True
        for owner, (start, end) in zip(
            self.segment_owners, zip(bounds, bounds[1:])
        ):
            if start == end:
                continue
            yield owner, (not first), self.vpns[start:end]
            first = False

    def content_digest(self) -> bytes:
        """SHA-256 over everything that affects a TLB simulation.

        Covers the reference stream, scheduling structure, and block
        geometry — the trace inputs of a phase-1 run — so persistent
        caches can content-address miss streams.  Memoised: traces are
        immutable once built.
        """
        cached = getattr(self, "_content_digest", None)
        if cached is None:
            digest = hashlib.sha256()
            digest.update(np.ascontiguousarray(self.vpns).tobytes())
            digest.update(repr(self.switch_points).encode())
            digest.update(repr(self.segment_owners).encode())
            digest.update(str(self.subblock_factor).encode())
            cached = self._content_digest = digest.digest()
        return cached

    def stats(self) -> TraceStats:
        """Compute summary statistics."""
        unique_pages = int(np.unique(self.vpns).shape[0]) if len(self) else 0
        blocks = self.vpns // self.subblock_factor
        unique_blocks = int(np.unique(blocks).shape[0]) if len(self) else 0
        return TraceStats(
            references=len(self),
            unique_pages=unique_pages,
            unique_blocks=unique_blocks,
            switches=len(self.switch_points),
        )

    def head(self, n: int) -> "Trace":
        """A prefix of the trace (switch points and owners clipped)."""
        switch_points = [p for p in self.switch_points if p < n]
        return Trace(
            self.vpns[:n],
            name=f"{self.name}[:{n}]",
            switch_points=switch_points,
            subblock_factor=self.subblock_factor,
            segment_owners=self.segment_owners[: len(switch_points) + 1],
        )

    @staticmethod
    def interleave(
        traces: Sequence["Trace"],
        quantum: int,
        name: str = "interleaved",
        seed: int = 0,
    ) -> "Trace":
        """Round-robin schedule several per-process traces.

        Each process runs ``quantum`` references per turn; a switch point
        is recorded at every turn boundary.  This is how the
        multiprogrammed workloads (compress, gcc) are assembled.
        """
        if quantum < 1:
            raise ConfigurationError(f"quantum must be >= 1, got {quantum}")
        cursors = [0] * len(traces)
        parts: List[np.ndarray] = []
        switches: List[int] = []
        owners: List[int] = []
        position = 0
        last_process = -1
        live = True
        while live:
            live = False
            for i, trace in enumerate(traces):
                start = cursors[i]
                if start >= len(trace):
                    continue
                end = min(start + quantum, len(trace))
                chunk = trace.vpns[start:end]
                cursors[i] = end
                if parts and i != last_process:
                    switches.append(position)
                    owners.append(i)
                elif not parts:
                    owners.append(i)
                parts.append(chunk)
                position += len(chunk)
                last_process = i
                live = True
        combined = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        return Trace(
            combined,
            name=name,
            switch_points=switches,
            subblock_factor=traces[0].subblock_factor if traces else 16,
            segment_owners=owners if owners else None,
        )

    def __repr__(self) -> str:
        return f"Trace({self.name!r}, {len(self)} refs)"
