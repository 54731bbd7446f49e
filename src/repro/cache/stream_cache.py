"""On-disk :class:`~repro.mmu.simulate.MissStream` cache.

Artefacts are ``.npz`` files holding the stream's two numpy arrays plus a
JSON metadata record (scalar stats, the per-kind miss counter, and the
schema version).  Each artefact is keyed by a SHA-256 **content hash** of
everything the stream depends on:

- the reference trace (VPNs, switch points, segment owners),
- the TLB configuration (type, capacity, page sizes / subblock factor /
  geometry, prefetch behaviour),
- the logical PTE contents the TLB fills from (the translation map,
  including its address layout),
- :data:`SCHEMA_VERSION`, bumped whenever the simulation semantics or the
  serialised format change.

Content addressing makes invalidation automatic: any change to a trace
generator, a page-size policy, or the schema produces a different key, and
the stale artefact is simply never read again.  A file that *is* read but
fails validation (truncated write, corrupted payload, stale embedded
schema) is treated as a miss and deleted; callers fall back to
recomputation, never crash.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import struct
import zipfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from repro.errors import ReproError
from repro.mmu.simulate import MissStream
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.resilience.faults import fault_point
from repro.util.atomic_io import atomic_writer
from repro.os.translation_map import TranslationMap
from repro.pagetables.pte import PTEKind
from repro.workloads.trace import Trace

#: Bump whenever the MissStream format or the phase-1 semantics change;
#: every artefact written under an older version is silently invalidated.
SCHEMA_VERSION = 1

#: Scalar MissStream fields carried through the metadata record.
_SCALAR_FIELDS = (
    "accesses", "misses", "tlb_block_misses", "tlb_subblock_misses",
)


class StreamCacheError(ReproError):
    """A cache artefact is unreadable, truncated, or from another schema.

    ``reason`` is a stable slug (``unreadable``, ``missing-array``,
    ``corrupt-meta``, ``schema``, ``shape``, ``count-mismatch``) used to
    label the ``stream_cache.evictions`` counter in the metrics
    registry, so the *why* of every evict-and-recompute is queryable.
    """

    def __init__(self, message: str, reason: str = "unreadable"):
        super().__init__(message)
        self.reason = reason


#: np.load failure modes that mean "this artefact is damaged": a
#: truncated or non-zip payload, a corrupt member, a bad header.  Genuine
#: environment errors (PermissionError, ENOSPC, MemoryError, EIO, ...)
#: are deliberately NOT here — converting them to a cache miss would
#: silently recompute forever and mask a real operational problem.
_CORRUPTION_ERRORS = (ValueError, zipfile.BadZipFile, EOFError, struct.error)

#: OSError errnos that indicate the environment, not the artefact.
_ENVIRONMENT_ERRNOS = frozenset(
    code
    for code in (
        errno.EACCES, errno.EPERM, errno.ENOSPC, errno.ENOMEM,
        errno.EMFILE, errno.ENFILE, errno.EROFS, errno.EIO,
        getattr(errno, "EDQUOT", None),
    )
    if code is not None
)


def _is_environment_error(exc: OSError) -> bool:
    """True when an OSError reflects the machine, not the file's bytes."""
    if isinstance(exc, PermissionError):
        return True
    return exc.errno in _ENVIRONMENT_ERRNOS


# ---------------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------------
def _tlb_descriptor(tlb) -> str:
    """A deterministic string identifying a TLB's behaviour-relevant config.

    Covers every TLB model in the package: the type name plus whichever of
    the capacity/geometry attributes the instance defines, recursing
    through ASID-tagged wrappers.
    """
    parts = [type(tlb).__name__]
    for attr in ("capacity", "page_sizes", "subblock_factor",
                 "num_sets", "ways"):
        value = getattr(tlb, attr, None)
        if value is not None:
            parts.append(f"{attr}={value!r}")
    inner = getattr(tlb, "inner", None)
    if inner is not None:
        parts.append(f"inner=({_tlb_descriptor(inner)})")
    return " ".join(parts)


def stream_cache_key(
    trace: Trace,
    tlb,
    tmap: TranslationMap,
    prefetch_subblocks: bool = True,
) -> str:
    """Content hash identifying one phase-1 simulation's inputs."""
    digest = hashlib.sha256()
    digest.update(struct.pack("<I", SCHEMA_VERSION))
    digest.update(trace.content_digest())
    digest.update(tmap.content_digest())
    digest.update(_tlb_descriptor(tlb).encode())
    digest.update(b"prefetch" if prefetch_subblocks else b"noprefetch")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------
def save_stream(stream: MissStream, path: os.PathLike) -> Path:
    """Write one stream as a ``.npz`` artefact (atomically) and return its path."""
    target = Path(path)
    fault_point("cache.store_stream")
    meta = {
        "schema": SCHEMA_VERSION,
        "trace_name": stream.trace_name,
        "tlb_description": stream.tlb_description,
        "misses_by_kind": {
            str(int(kind)): int(count)
            for kind, count in stream.misses_by_kind.items()
        },
    }
    for name in _SCALAR_FIELDS:
        meta[name] = int(getattr(stream, name))
    with atomic_writer(target, "wb") as handle:
        np.savez(
            handle,
            vpns=stream.vpns,
            block_miss=stream.block_miss,
            meta=np.frombuffer(
                json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
            ),
        )
    # Chaos hook: flips a byte of the *landed* artefact, modelling the
    # bit rot the load-side validation must evict, never mis-answer.
    fault_point("cache.artifact_stored", path=target)
    return target


def load_stream(path: os.PathLike) -> MissStream:
    """Read one artefact back; raises :class:`StreamCacheError` if invalid.

    Only *corruption* failure modes (the np.load zoo: truncated zip, bad
    member, non-archive bytes) are converted to :class:`StreamCacheError`
    — environment errors (``PermissionError``, ``ENOSPC``, ``EIO``,
    ``MemoryError``) propagate, because treating them as corruption
    would silently evict-and-recompute around a real operational
    problem.
    """
    fault_point("cache.load_stream")
    try:
        with np.load(path) as archive:
            payload = {name: archive[name] for name in archive.files}
    except _CORRUPTION_ERRORS as exc:
        raise StreamCacheError(
            f"unreadable stream artefact {path}: {exc}", reason="unreadable"
        )
    except OSError as exc:
        if _is_environment_error(exc):
            raise
        # np.load raises plain OSError for non-archive bytes ("Failed to
        # interpret file as a pickle") — that is corruption, not the OS.
        raise StreamCacheError(
            f"unreadable stream artefact {path}: {exc}", reason="unreadable"
        )
    for required in ("vpns", "block_miss", "meta"):
        if required not in payload:
            raise StreamCacheError(
                f"stream artefact {path} lacks array {required!r}",
                reason="missing-array",
            )
    try:
        meta = json.loads(bytes(payload["meta"].tobytes()).decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise StreamCacheError(
            f"corrupt metadata in {path}: {exc}", reason="corrupt-meta"
        )
    if meta.get("schema") != SCHEMA_VERSION:
        raise StreamCacheError(
            f"stream artefact {path} has schema {meta.get('schema')!r}, "
            f"expected {SCHEMA_VERSION}",
            reason="schema",
        )
    vpns = np.asarray(payload["vpns"], dtype=np.int64)
    block_miss = np.asarray(payload["block_miss"], dtype=bool)
    if vpns.ndim != 1 or block_miss.shape != vpns.shape:
        raise StreamCacheError(
            f"array shape mismatch in {path}", reason="shape"
        )
    try:
        scalars = {name: int(meta[name]) for name in _SCALAR_FIELDS}
        by_kind = Counter(
            {
                PTEKind(int(kind)): int(count)
                for kind, count in meta["misses_by_kind"].items()
            }
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StreamCacheError(
            f"corrupt metadata in {path}: {exc}", reason="corrupt-meta"
        )
    if scalars["misses"] != int(vpns.shape[0]):
        raise StreamCacheError(
            f"{path}: metadata claims {scalars['misses']} misses but "
            f"{vpns.shape[0]} were stored",
            reason="count-mismatch",
        )
    return MissStream(
        trace_name=str(meta.get("trace_name", "")),
        tlb_description=str(meta.get("tlb_description", "")),
        vpns=vpns,
        block_miss=block_miss,
        misses_by_kind=by_kind,
        **scalars,
    )


# ---------------------------------------------------------------------------
# The cache proper
# ---------------------------------------------------------------------------
@dataclass
class CacheStats:
    """Stream-cache traffic: the ``stream_cache.*`` counters of a registry."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0

    @classmethod
    def of(cls, registry: MetricsRegistry) -> "CacheStats":
        """The traffic ``registry`` counted."""
        return cls(*(
            registry.counter(f"stream_cache.{name}")
            for name in ("hits", "misses", "stores", "errors")
        ))


class StreamCache:
    """A directory of content-addressed MissStream artefacts.

    Safe for concurrent use by multiple processes: writes are atomic
    renames, reads that find a damaged file delete it and fall back to a
    miss, and identical keys always serialise identical content so racing
    writers are harmless.  Its traffic is counted in the active metrics
    registry, which :meth:`CacheStats.of` reads.
    """

    def __init__(self, directory: os.PathLike):
        self.directory = Path(directory)

    def path_for(self, key: str) -> Path:
        """Artefact path for one content hash (sharded by prefix)."""
        return self.directory / key[:2] / f"{key}.npz"

    def get(self, key: str) -> Optional[MissStream]:
        """The cached stream for ``key``, or None (miss / invalid file).

        A *corrupt* artefact is evicted and counted (by reason) in the
        ``stream_cache.evictions`` registry counter; environment errors
        raised by :func:`load_stream` propagate to the caller.
        """
        registry = get_registry()
        path = self.path_for(key)
        if not path.exists():
            registry.inc("stream_cache.misses")
            return None
        try:
            stream = load_stream(path)
        except StreamCacheError as exc:
            registry.inc("stream_cache.errors")
            registry.inc("stream_cache.misses")
            registry.inc("stream_cache.evictions", reason=exc.reason)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        registry.inc("stream_cache.hits")
        return stream

    def put(self, key: str, stream: MissStream) -> Path:
        """Persist one stream under ``key``."""
        path = save_stream(stream, self.path_for(key))
        get_registry().inc("stream_cache.stores")
        return path


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, or the XDG cache home, or ``~/.cache``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "streams"
