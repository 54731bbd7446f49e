"""Per-layer accounting by wrapping the program's entry points from outside.

Nothing under ``src/`` knows it is measured.  :class:`Probes` replaces
each entry point *at the name its caller looks up* (a module attribute,
or a method on its class) with a wrapper, and :meth:`Probes.uninstall`
puts every original back.  A module-level function is wrapped under
every alias a loaded ``repro`` module holds, because ``from x import f``
gives the importing module its own name for ``f``.

There are two kinds of wrapper:

- **count-only** wrappers read a call's result and add to a counter.
  They read no clock, so untimed rounds use them to count the walks and
  references a run simulated;
- **timed** wrappers keep a stack of open calls and charge each call its
  *self time*: its duration minus the durations of wrapped calls nested
  inside it.  Self times never overlap, so the wall time minus their sum
  is the time no layer accounts for.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Timed probe -> the layer it belongs to.
LAYER_OF: Dict[str, str] = {
    "workloads.load_workload": "workloads",
    "workloads.sample_misses": "workloads",
    "translation_map.from_space": "translation_map",
    "pagetables.populate": "pagetables",
    "pagetables.insert_many": "pagetables",
    "pagetables.remove_many": "pagetables",
    "phase1.collect_misses": "phase1",
    "stream_cache.get": "stream_cache",
    "stream_cache.put": "stream_cache",
    "batch.compile_kernel": "batch",
    "batch.replay_misses_batch": "batch",
    "batch.replay_misses_batch_many": "batch",
    "simulate.replay_misses": "simulate",
    "obs.record_groups": "obs",
    "obs.record_group": "obs",
    "obs.add_heat": "obs",
    "obs.observe_many": "obs",
    "tenancy.admit": "tenancy",
    "tenancy.depart": "tenancy",
    "tenancy.reclaim": "tenancy",
    "tenancy.refault": "tenancy",
    "tenancy.flush_asids": "tenancy",
    "journal.append_result": "journal",
}

#: A count hook: (probes, positional args, keyword args, result).
CountHook = Callable[["Probes", tuple, dict, object], None]


class Probes:
    """Installed wrappers, what they counted, and what they replaced."""

    def __init__(self) -> None:
        #: timed probe -> summed self seconds.
        self.self_seconds: Dict[str, float] = defaultdict(float)
        #: timed probe -> calls.
        self.calls: Counter = Counter()
        #: named counts advanced by count hooks.
        self.counts: Counter = Counter()
        #: page-table type -> scalar replays run while the batch engine
        #: was selected (silent fallbacks).
        self.fallbacks: Counter = Counter()
        #: distinct miss streams already counted into ``refs``.
        self.streams_seen: set = set()
        #: (id(tmap), base_pages_only) -> (tmap, PTEs it writes); the map
        #: is held so its id is never reused while the entry lives.
        self.populate_sizes: Dict[Tuple[int, bool], Tuple[object, int]] = {}
        #: open timed calls, innermost last: [child seconds, probe].
        self._stack: List[list] = []
        #: (owner, attribute, original) in installation order.
        self._originals: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _counting(self, func: Callable, hook: CountHook) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            hook(self, args, kwargs, result)
            return result

        return wrapper

    def _timed(
        self,
        func: Callable,
        probe: str,
        hook: Optional[CountHook],
        inside: Optional[str],
    ) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if inside is not None and (
                not stack or LAYER_OF[stack[-1][1]] != inside
            ):
                return func(*args, **kwargs)
            frame = [0.0, probe]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.self_seconds[probe] += elapsed - frame[0]
                self.calls[probe] += 1
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _replace(self, owner, attr: str, make: Callable[[Callable], Callable]):
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(make(raw.__func__))
            else:
                replacement = make(raw)
        else:
            raw = getattr(owner, attr)
            replacement = make(raw)
        self._originals.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    @staticmethod
    def _aliases(module_name: str, attr: str) -> Iterator[object]:
        """Every loaded ``repro`` module holding the same function."""
        original = getattr(sys.modules[module_name], attr)
        for name, module in sorted(sys.modules.items()):
            if module is None or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            if module.__dict__.get(attr) is original:
                yield module

    def count_function(self, module_name: str, attr: str, hook: CountHook):
        """Count through a module-level function, under every alias."""
        for module in list(self._aliases(module_name, attr)):
            self._replace(module, attr, lambda f: self._counting(f, hook))

    def time_function(
        self,
        module_name: str,
        attr: str,
        probe: str,
        hook: Optional[CountHook] = None,
    ) -> None:
        """Time a module-level function, under every alias."""
        for module in list(self._aliases(module_name, attr)):
            self._replace(
                module, attr, lambda f: self._timed(f, probe, hook, None)
            )

    def time_method(
        self,
        cls: type,
        attr: str,
        probe: str,
        hook: Optional[CountHook] = None,
        inside: Optional[str] = None,
    ) -> None:
        """Time a method of ``cls`` and of every subclass overriding it.

        With ``inside`` set, only calls made directly from a timed call
        of that layer are charged; any other call passes through.
        """
        for owner in [cls, *_subclasses(cls)]:
            if attr in owner.__dict__:
                self._replace(
                    owner, attr,
                    lambda f: self._timed(f, probe, hook, inside),
                )

    def originals(self) -> List[Tuple[object, str, object]]:
        """What :meth:`uninstall` will restore, in installation order."""
        return list(self._originals)

    def uninstall(self) -> None:
        """Put every original back, newest first."""
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)


def layer_seconds(self_seconds: Dict[str, float]) -> Dict[str, float]:
    """Self seconds summed per layer."""
    totals: Dict[str, float] = defaultdict(float)
    for probe, seconds in self_seconds.items():
        totals[LAYER_OF[probe]] += seconds
    return dict(totals)


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found


def _argument(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# ----------------------------------------------------------------------
# Count hooks
# ----------------------------------------------------------------------
def _count_replay(probes: Probes, args, kwargs, result) -> None:
    probes.counts["walks"] += result.misses


def _count_replay_many(probes: Probes, args, kwargs, result) -> None:
    probes.counts["walks"] += sum(item.misses for item in result)


def _count_stream(probes: Probes, args, kwargs, result) -> None:
    key = (result.trace_name, result.tlb_description, result.accesses)
    if key not in probes.streams_seen:
        probes.streams_seen.add(key)
        probes.counts["refs"] += result.accesses


def _count_fallback(probes: Probes, args, kwargs, result) -> None:
    from repro.experiments import common

    if common.active_engine() == "batch":
        table = _argument(args, kwargs, 1, "table")
        probes.fallbacks[type(table).__name__] += 1


def _count_phase1(probes: Probes, args, kwargs, result) -> None:
    probes.counts["phase1.refs"] += result.accesses
    probes.counts["phase1.misses"] += result.misses


def _count_cache_get(probes: Probes, args, kwargs, result) -> None:
    outcome = "hits" if result is not None else "misses"
    probes.counts[f"stream_cache.{outcome}"] += 1


def _count_batch_walks(probes: Probes, args, kwargs, result) -> None:
    probes.counts["batch.walks"] += result.misses


def _count_populate(probes: Probes, args, kwargs, result) -> None:
    # The experiments populate many tables from one memoised translation
    # map, so each map is counted once, not on every call: the count
    # runs outside any timed frame and would otherwise inflate
    # ``unattributed_s``.
    tmap = args[0]
    base_only = bool(_argument(args, kwargs, 2, "base_pages_only", False))
    key = (id(tmap), base_only)
    if key not in probes.populate_sizes:
        if base_only:
            inserted = sum(1 for _ in tmap.mapped_vpns())
        else:
            inserted = sum(tmap.counts().values())
        probes.populate_sizes[key] = (tmap, inserted)
    probes.counts["pagetables.ptes_inserted"] += probes.populate_sizes[key][1]


def _count_inserted(probes: Probes, args, kwargs, result) -> None:
    probes.counts["pagetables.ptes_inserted"] += result


def _count_removed(probes: Probes, args, kwargs, result) -> None:
    probes.counts["pagetables.ptes_removed"] += result


def _count_reclaim(probes: Probes, args, kwargs, result) -> None:
    if result:
        probes.counts["tenancy.reclaims"] += 1


def _load_callers() -> None:
    """Import every module whose aliases the probes must reach."""
    import repro.experiments.runner  # noqa: F401
    import repro.mmu.batch  # noqa: F401
    import repro.tenancy.scheduler  # noqa: F401


def install_counters(probes: Probes) -> Probes:
    """Count-only probes, installed in every round.

    ``walks`` sums ``ReplayResult.misses`` over every replay the
    experiments request.  ``refs`` sums TLB references over the distinct
    miss streams they consume, whether phase 1 computed a stream or the
    stream cache supplied it.  ``fallbacks`` counts scalar replays run
    while the batch engine was selected, by page-table type.
    """
    _load_callers()
    probes.count_function("repro.experiments.common", "replay", _count_replay)
    probes.count_function(
        "repro.experiments.common", "replay_many", _count_replay_many
    )
    probes.count_function(
        "repro.experiments.common", "collect_misses_cached", _count_stream
    )
    probes.count_function(
        "repro.mmu.simulate", "replay_misses", _count_fallback
    )
    return probes


def install_timers(probes: Probes) -> Probes:
    """Timed probes at every layer boundary the benchmark reports."""
    _load_callers()
    from repro.cache.stream_cache import StreamCache
    from repro.obs.metrics import HistogramStats
    from repro.obs.profile import TableProfile
    from repro.obs.trace import WalkTracer
    from repro.os.shootdown import SMPSystem
    from repro.os.translation_map import TranslationMap
    from repro.pagetables.base import PageTable
    from repro.resilience.journal import RunJournal
    from repro.tenancy.arena import SharedArena
    from repro.tenancy.tenant import Tenant

    probes.time_function(
        "repro.workloads.suite", "load_workload", "workloads.load_workload"
    )
    probes.time_method(Tenant, "sample_misses", "workloads.sample_misses")
    probes.time_method(
        TranslationMap, "from_space", "translation_map.from_space"
    )
    probes.time_method(
        TranslationMap, "populate", "pagetables.populate", _count_populate
    )
    probes.time_method(
        PageTable, "insert_many", "pagetables.insert_many", _count_inserted
    )
    probes.time_method(
        PageTable, "remove_many", "pagetables.remove_many", _count_removed
    )
    probes.time_function(
        "repro.mmu.simulate", "collect_misses", "phase1.collect_misses",
        _count_phase1,
    )
    probes.time_method(
        StreamCache, "get", "stream_cache.get", _count_cache_get
    )
    probes.time_method(StreamCache, "put", "stream_cache.put")
    probes.time_function(
        "repro.mmu.batch_kernels", "compile_kernel", "batch.compile_kernel"
    )
    probes.time_function(
        "repro.mmu.batch", "replay_misses_batch",
        "batch.replay_misses_batch", _count_batch_walks,
    )
    probes.time_function(
        "repro.mmu.batch", "replay_misses_batch_many",
        "batch.replay_misses_batch_many",
    )
    probes.time_function(
        "repro.mmu.simulate", "replay_misses", "simulate.replay_misses"
    )
    probes.time_method(WalkTracer, "record_groups", "obs.record_groups")
    probes.time_method(TableProfile, "record_group", "obs.record_group")
    probes.time_method(TableProfile, "add_heat", "obs.add_heat")
    # The tenancy scheduler keeps its own per-tenant histograms; only
    # observations a walk tracer feeds are walk-observation feeds.
    probes.time_method(
        HistogramStats, "observe_many", "obs.observe_many", inside="obs"
    )
    probes.time_method(SharedArena, "admit", "tenancy.admit")
    probes.time_method(SharedArena, "depart", "tenancy.depart")
    probes.time_method(
        SharedArena, "reclaim", "tenancy.reclaim", _count_reclaim
    )
    probes.time_method(SharedArena, "refault", "tenancy.refault")
    probes.time_method(SMPSystem, "flush_asids", "tenancy.flush_asids")
    probes.time_method(RunJournal, "append_result", "journal.append_result")
    return probes
