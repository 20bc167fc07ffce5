"""Multi-core co-running simulation (the Section 5.1 scenario).

Use Case 1's motivation is that the cache space *actually available* to
an application changes when other applications co-run on the shared
LLC.  This module simulates N cores, each with private L1/L2 and its
own trace, sharing the L3 and DRAM:

* cores advance in timestamp order (the core with the smallest local
  clock steps next), so shared-resource contention interleaves
  naturally;
* each application may carry its own XMem process; the shared LLC's
  pinning decision is *global* -- the paper's greedy algorithm "takes
  the active atoms in all the cores" and pins by reuse until the 75%
  budget fills;
* per-application address spaces are disjoint (each core's addresses
  are offset), so one AAM lookup per application resolves cleanly.

Two interleavers evaluate the same model:

``run_events``
    The legacy per-event loop: an ``argmin`` over core clocks picks
    the next core, which interprets one object event.  O(N) per event
    and per-event Python for every L1 hit.  Kept verbatim as the
    differential oracle (fuzz lane ``corun``, equivalence pins in
    ``tests/sim/test_corun_packed.py``), and the path :meth:`run`
    takes for object event streams and for shapes outside
    :meth:`CorunSystem.packed_eligible`.
``run_packed``
    The PackedTrace-native engine.  A binary heap keyed by
    ``(core.now, core.index)`` schedules cores; between shared-LLC
    interactions a core's private stretch -- L1 hits and Work blocks,
    which touch nothing outside the core -- is fast-forwarded with the
    vector tier's machinery (chunked columnar residency probing,
    :meth:`Cache.apply_hit_run` replay, exact dyadic-grid time
    accumulation), so the core yields control only at *yield points*:
    accesses that can leave the L1 (they may ripple writebacks into
    the shared LLC/DRAM or consume shared prefetch state) and XMemOps
    (they can retrigger the global pinning decision).  Shared-resource
    contention still interleaves in timestamp order with the legacy
    tie-break (lowest core index), so the per-core :class:`CoreStats`
    and the whole stats tree are bit-identical.

Private events commute with other cores' shared events (disjoint
state), which is why the packed engine may apply a core's private
prefix eagerly while sibling cores are still behind in model time:
only the *order of shared interactions* is observable, and the heap
reproduces the legacy order exactly.

How ``run_packed`` executes a yield point:

* **Fused yield kernel.**  A yielded access is a known L1 miss.  On the
  shipped machine shape (:meth:`CorunSystem.fused_eligible`: LRU L1s,
  DRRIP L2s and LLC, no checked wrappers) it runs on a per-core
  closure built once per run over the flat tables, from the
  :mod:`repro.mem.flat` probe, fill and DRAM kernels shared with the
  vector tier.  Statistics accumulate in closure locals and are
  flushed once when the run ends, before anything can snapshot
  them.  Every other shape executes yield points through ``_access``,
  the object path ``run_events`` uses.
* **Run-ahead.**  After a yield point, the same core keeps running
  while its ``(now, index)`` is still below the heap top.  This is
  exact: that core is what the heap would pop next under the legacy
  tie-break.  A live L1 probe of the next dense position sends a
  miss-after-miss straight back to the kernel without the planner.
* **``REPRO_CHECK`` fallback.**  With ``REPRO_CHECK=1`` the fused
  kernel is off, so every cache and MSHR operation passes through the
  checked object methods and their invariant hooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

try:
    import numpy as _np
except ImportError:          # pragma: no cover - numpy ships in the image
    _np = None

from repro.core.errors import ConfigurationError
from repro.core.stats import iter_stat_groups
from repro.core.xmemlib import XMemLib
from repro.cpu.engine import TraceEngine
from repro.cpu.trace import (
    MemAccess,
    META_COUNT_SHIFT,
    META_WORK_BIT,
    META_WRITE_BIT,
    PackedTrace,
    Trace,
    Work,
    XMemOp,
)
from repro.dram.system import DramSystem
from repro.mem import flat
from repro.mem.cache import Cache
from repro.mem.flat import dyadic_k
from repro.mem.replacement import (
    BRRIPPolicy,
    DRRIPPolicy,
    LRUPolicy,
    RandomPolicy,
    SRRIPPolicy,
)
from repro.mem.mshr import MSHRFile
from repro.mem.prefetch import MultiStridePrefetcher, XMemPrefetcher
from repro.sim.config import SimConfig
from repro.testing import checks as _checks

#: Address-space stride between co-running applications.
APP_SPACE = 1 << 40

#: Events per columnar decomposition chunk of the packed interleaver.
CHUNK = 2048
#: Addresses must stay well inside int64 after the per-app offset for
#: the numpy decomposition; traces outside use the (equally exact)
#: raw scalar planner.
_ADDR_BOUND = 1 << 61

# Yield kinds of a planned cursor.
_Y_MEM, _Y_XMEM, _Y_END = 0, 1, 2

#: L1 policies whose hit effect the planner's walk writes inline.
_HIT_WALK_POLICIES = (LRUPolicy, RandomPolicy, SRRIPPolicy, BRRIPPolicy,
                      DRRIPPolicy)


@dataclass
class CoreStats:
    """Per-core results."""

    cycles: float = 0.0
    instructions: int = 0
    mem_accesses: int = 0
    llc_misses: int = 0


class _Core:
    """Private state of one core."""

    def __init__(self, index: int, config: SimConfig,
                 xmemlib: Optional[XMemLib]) -> None:
        self.index = index
        self.offset = index * APP_SPACE
        l1, l2 = config.levels[0], config.levels[1]
        self.l1 = Cache(f"c{index}.L1", l1.size_bytes, l1.ways,
                        config.line_bytes, policy=l1.policy)
        self.l2 = Cache(f"c{index}.L2", l2.size_bytes, l2.ways,
                        config.line_bytes, policy=l2.policy)
        self.l1_lat = l1.latency
        self.l2_lat = l2.latency
        self.xmemlib = xmemlib
        self.xmem_pf: Optional[XMemPrefetcher] = None
        self.now = 0.0
        self.mshr = MSHRFile(config.cpu.window)
        self.stats = CoreStats()
        self.trace: Optional[Iterator] = None
        self.done = False

    def stat_groups(self):
        """StatGroup protocol: the core's private machine state."""
        yield "core", self.stats
        yield "l1", self.l1.stats
        yield "l2", self.l2.stats
        yield "mshr", self.mshr.stats
        if self.xmem_pf is not None:
            yield "prefetch.xmem", self.xmem_pf.stats
        if self.xmemlib is not None:
            yield from iter_stat_groups(self.xmemlib.process.amu, "amu")


class _PackedCursor:
    """Per-core interleaver state over one :class:`PackedTrace`.

    Holds the dense position / XMemOp index pair (plus the dense
    position of that next XMemOp, or ``n_dense``), the planned yield
    kind, and the current decomposition chunk: per-position set index,
    tag, line key, work count and write flag, pre-split from the
    packed columns in one vectorized pass (numpy planner only).
    """

    __slots__ = ("core", "trace", "tv", "tm", "xmem", "n_dense", "n_x",
                 "pos", "xi", "xnext", "kind", "va", "me",
                 "cbase", "cend",
                 "csets_l", "ctags_l", "cmem_l", "clkey_l", "cwrite_l",
                 "ccum_l", "cmcum_l")

    def __init__(self, core: _Core, trace: PackedTrace) -> None:
        self.core = core
        self.trace = trace
        self.tv = trace.vaddr
        self.tm = trace.meta
        self.xmem = trace.xmem
        self.n_dense = len(trace.vaddr)
        self.n_x = len(trace.xmem)
        self.pos = 0
        self.xi = 0
        self.xnext = self.xmem[0][0] if self.n_x else self.n_dense
        self.kind = _Y_END
        self.va = None
        self.me = None
        if _np is not None and self.n_dense:
            va = _np.frombuffer(trace.vaddr, dtype=_np.int64)
            lo = int(va.min()) + core.offset
            hi = int(va.max()) + core.offset
            if -_ADDR_BOUND < lo and hi < _ADDR_BOUND:
                self.va = va
                self.me = _np.frombuffer(trace.meta, dtype=_np.int64)
        # Decomposition chunk (empty until the first _classify).
        self.cbase = 0
        self.cend = 0
        self.csets_l: list = []
        self.ctags_l: list = []
        self.cmem_l: list = []
        self.clkey_l: list = []
        self.cwrite_l: list = []
        self.ccum_l: list = []
        self.cmcum_l: list = []


class MultiProcessController:
    """The global greedy pinning decision over every app's atoms.

    Mirrors :class:`repro.policies.cache_mgmt.CacheController` but
    walks the active atoms of *all* registered XMem processes, sorted
    together by reuse, against one shared 75% budget.  Addresses are
    per-application physical (offset), so pin lookups dispatch to the
    owning application's AMU.
    """

    def __init__(self, llc: Cache, pin_fraction: float = 0.75) -> None:
        self.llc = llc
        self.pin_fraction = pin_fraction
        self._apps: List[Tuple[int, XMemLib]] = []
        self._pin_spans: Dict[int, List[Tuple[int, int]]] = {}
        self.prefetchers: Dict[int, XMemPrefetcher] = {}

    def register(self, offset: int, xmemlib: XMemLib,
                 prefetcher: Optional[XMemPrefetcher] = None) -> None:
        """Attach one application (by its address-space offset)."""
        self._apps.append((offset, xmemlib))
        if prefetcher is not None:
            self.prefetchers[offset] = prefetcher
        xmemlib.listeners.append(self.refresh)
        self.refresh()

    def refresh(self) -> None:
        """Recompute the global pinning decision."""
        budget = int(self.llc.size_bytes * self.pin_fraction)
        entries = []
        for offset, lib in self._apps:
            for atom in lib.process.active_atoms():
                if atom.reuse > 0:
                    entries.append((atom.reuse, offset, lib, atom))
        entries.sort(key=lambda e: e[0], reverse=True)
        spans: Dict[int, List[Tuple[int, int]]] = {}
        arm: Dict[int, Dict] = {o: {} for o, _ in self._apps}
        for reuse, offset, lib, atom in entries:
            if budget <= 0:
                break
            aam = lib.process.amu.aam
            chunk = aam.config.chunk_bytes
            atom_spans = _coalesce(sorted(aam.mapped_chunks(atom.atom_id)),
                                   chunk)
            size = sum(e - s for s, e in atom_spans)
            take = min(size, budget)
            if take < chunk:
                continue
            taken = _prefix(atom_spans, take)
            spans.setdefault(offset, []).extend(
                (s + offset, e + offset) for s, e in taken
            )
            budget -= take
            if take < size and offset in self.prefetchers:
                from repro.core.pat import translate_for_prefetcher
                attrs = lib.process.gat.get(atom.atom_id)
                if attrs is not None:
                    arm[offset][atom.atom_id] = XMemPrefetcher.entry(
                        translate_for_prefetcher(attrs), atom_spans)
        if spans != self._pin_spans:
            self.llc.unpin_all()
            self._pin_spans = spans
        for offset, pf in self.prefetchers.items():
            pf.set_pinned_atoms(arm.get(offset, {}))

    def pin_predicate(self, global_addr: int) -> bool:
        """Whether a (global) line address belongs to a pinned atom."""
        offset = (global_addr // APP_SPACE) * APP_SPACE
        spans = self._pin_spans.get(offset)
        if not spans:
            return False
        return any(s <= global_addr < e for s, e in spans)

    def stat_groups(self):
        """StatGroup protocol: a lazy summary of the pinning decision."""
        yield "pin", self.pin_summary

    def pin_summary(self) -> Dict[str, int]:
        """Span-level view of the current global pinning decision."""
        spans = [s for lst in self._pin_spans.values() for s in lst]
        return {
            "apps_pinned": sum(1 for lst in self._pin_spans.values()
                               if lst),
            "spans": len(spans),
            "pinned_bytes": sum(e - s for s, e in spans),
        }


class CorunSystem:
    """N cores over a shared LLC + DRAM."""

    def __init__(self, config: SimConfig, n_cores: int,
                 xmem_cores: Sequence[int] = ()) -> None:
        if n_cores <= 0:
            raise ConfigurationError(f"need at least one core: {n_cores}")
        if len(config.levels) != 3:
            raise ConfigurationError("corun expects an L1/L2/L3 config")
        self.config = config
        l3 = config.levels[2]
        self.llc = Cache("sharedL3", l3.size_bytes, l3.ways,
                         config.line_bytes, policy=l3.policy)
        self.llc_lat = l3.latency
        self.dram = DramSystem(geometry=config.dram_geometry,
                               timing=config.timing(),
                               mapping=config.dram_mapping)
        self.stride_pf = MultiStridePrefetcher(
            streams=config.prefetcher.streams,
            degree=config.prefetcher.degree,
            line_bytes=config.line_bytes,
        ) if config.prefetcher.enabled else None
        self.controller = MultiProcessController(self.llc)
        self.cores: List[_Core] = []
        for i in range(n_cores):
            lib = XMemLib() if i in xmem_cores else None
            core = _Core(i, config, lib)
            self.cores.append(core)
            if lib is not None:
                pf = XMemPrefetcher(
                    lookup_atom=self._app_lookup(core.offset, lib),
                    line_bytes=config.line_bytes,
                )
                core.xmem_pf = pf
                self.controller.register(core.offset, lib, pf)
        self._prefetch_ready: Dict[int, float] = {}
        # Hot-loop hoists (issue width, line size) and the exactness
        # ceiling of batched time accumulation (set by packed_eligible).
        self._issue = config.cpu.issue_width
        self._line_bytes = config.line_bytes
        self._now_limit = 0.0

    @staticmethod
    def _app_lookup(offset: int, lib: XMemLib):
        def lookup(global_addr: int):
            return lib.process.amu.lookup(global_addr - offset)
        return lookup

    # -- Stats ----------------------------------------------------------

    def stat_groups(self):
        """StatGroup protocol: shared resources plus per-core groups."""
        yield "llc", self.llc.stats
        yield "dram", self.dram.stats
        yield "dram.banks", self.dram.bank_summary
        if self.stride_pf is not None:
            yield "prefetch.stride", self.stride_pf.stats
        yield from iter_stat_groups(self.controller, "controller")
        for core in self.cores:
            prefix = f"core{core.index}"
            for sub, group in core.stat_groups():
                yield f"{prefix}.{sub}", group

    def stats_registry(self):
        """The system's full stats tree, assembled fresh.

        Groups are live references into the component counters, so a
        registry built before a run snapshots correctly after it.
        Paths: ``llc``, ``dram``, ``dram.banks``, ``prefetch.stride``,
        ``controller.pin``, and per core ``core<i>.{core,l1,l2,mshr,
        prefetch.xmem,amu,amu.alb}``.
        """
        from repro.sim.stats import StatsRegistry
        registry = StatsRegistry()
        registry.register_provider("", self)
        return registry

    def stats_snapshot(self) -> dict:
        """One nested, JSON-ready snapshot of every component counter."""
        return self.stats_registry().snapshot()

    # -- Running --------------------------------------------------------

    def run(self, traces: Sequence[Trace]) -> List[CoreStats]:
        """Interleave one trace per core until all complete.

        Dispatch is on the input shape alone: all-:class:`PackedTrace`
        inputs run on the heap-scheduled batched interleaver
        (:meth:`run_packed`), anything else on the per-event loop
        (:meth:`run_events`).  Both produce bit-identical
        :class:`CoreStats`.
        """
        if len(traces) != len(self.cores):
            raise ConfigurationError(
                f"{len(self.cores)} cores need {len(self.cores)} traces"
            )
        if all(type(t) is PackedTrace for t in traces):
            return self.run_packed(traces)
        return self.run_events(traces)

    def run_events(self, traces: Sequence[Trace]) -> List[CoreStats]:
        """The per-event interleaver: the co-run differential oracle,
        and the only path for object event streams and for machine
        shapes :meth:`packed_eligible` rejects.

        Accepts object event iterables or :class:`PackedTrace` (which
        is unpacked to its event stream).
        """
        if len(traces) != len(self.cores):
            raise ConfigurationError(
                f"{len(self.cores)} cores need {len(self.cores)} traces"
            )
        for core, trace in zip(self.cores, traces):
            if type(trace) is PackedTrace:
                core.trace = trace.events()
            else:
                core.trace = iter(trace)
            core.done = False
        pending = set(range(len(self.cores)))
        while pending:
            core = min((self.cores[i] for i in pending),
                       key=lambda c: c.now)
            if not self._step(core):
                tail = core.mshr.latest_completion()
                if tail is not None and tail > core.now:
                    core.now = tail
                core.mshr.flush()
                core.stats.cycles = core.now
                core.done = True
                pending.discard(core.index)
        return [c.stats for c in self.cores]

    def _step(self, core: _Core) -> bool:
        try:
            ev = next(core.trace)
        except StopIteration:
            return False
        issue = self.config.cpu.issue_width
        if type(ev) is MemAccess:
            if ev.work:
                core.now += ev.work / issue
                core.stats.instructions += ev.work
            core.stats.instructions += 1
            core.stats.mem_accesses += 1
            completes = self._access(core, ev.vaddr + core.offset,
                                     ev.is_write)
            latency = completes - core.now
            if latency > TraceEngine.PIPELINED_LATENCY:
                start = core.mshr.reserve(core.now, completes)
                core.now = max(core.now, start) + 1.0 / issue
            else:
                core.now += 1.0 / issue
        elif type(ev) is Work:
            core.now += ev.count / issue
            core.stats.instructions += ev.count
        elif type(ev) is XMemOp:
            core.stats.instructions += 1
            core.now += 1.0 / issue
            if core.xmemlib is not None:
                getattr(core.xmemlib, ev.method)(*ev.args)
        else:
            raise TypeError(f"not a trace event: {ev!r}")
        return True

    # -- Packed interleaver ---------------------------------------------

    def packed_eligible(self) -> bool:
        """Whether the machine shape admits the batched fast path.

        The gate mirrors :func:`repro.cpu.vector_engine.eligible`:
        plain :class:`Cache` L1s under a batchable policy with
        shift-decomposable geometry, no prefetched L1 tags (co-run
        prefetches only fill the LLC, so this holds by construction),
        and every time quantum on one dyadic grid so batched ``now``
        accumulation is exact.  Failing the gate falls back to
        :meth:`run_events` -- the packed tier is never a different
        model, only a faster evaluation of the same one.
        """
        issue = self.config.cpu.issue_width
        if issue <= 0 or issue & (issue - 1):
            return False
        lats = [float(self.llc_lat)]
        for core in self.cores:
            l1 = core.l1
            if type(l1) is not Cache or l1._line_shift is None:
                return False
            if type(l1.policy) not in _HIT_WALK_POLICIES:
                return False
            if l1._prefetched_tags:
                return False
            lats.append(float(core.l1_lat))
            lats.append(float(core.l2_lat))
        timing = self.dram.timing
        k = dyadic_k((1.0 / issue, 1.0, TraceEngine.PIPELINED_LATENCY,
                      timing.t_cl, timing.t_rcd, timing.t_rp,
                      timing.t_burst, *lats))
        if k is None:
            return False
        # Grid points below 2**(52-k) carry <= 52 mantissa bits, so
        # every addition in a batched sum is exact.
        self._now_limit = float(1 << (52 - k))
        return True

    def fused_eligible(self) -> bool:
        """Whether yield points may run on the fused kernel.

        The kernel is written for the shipped machine shape: LRU
        private L1s, DRRIP private L2s and a DRRIP shared LLC (with
        shift-decomposable geometry), and no pinned or prefetched lines
        in the private levels (co-run pins and prefetches only into the
        LLC).  ``REPRO_CHECK=1`` -- or components built under it, which
        carry checked wrappers -- keeps the object path, so the
        invariant hooks see every operation.  Any other shape runs yield points through
        :meth:`_access`, the same model.
        """
        if _checks.enabled():
            return False
        shapes = [(self.llc, DRRIPPolicy)]
        for core in self.cores:
            if "reserve" in vars(core.mshr):
                return False
            for cache in (core.l1, core.l2):
                if any(cache._pinned_counts) or cache._prefetched_tags:
                    return False
            shapes += [(core.l1, LRUPolicy), (core.l2, DRRIPPolicy)]
        return all(type(cache.policy) is policy
                   and cache._line_shift is not None
                   and "fill" not in vars(cache)
                   for cache, policy in shapes)

    def _build_fused(self):
        """The fused yield kernel: one executor per core plus the flush.

        Each executor runs one yielded dense MemAccess -- a known L1
        miss -- end to end: :meth:`_access` (private L2 probe, shared
        LLC probe, stride and XMem prefetches, DRAM), the private fills
        with their writeback ripple, and the engine's MSHR step, in
        :meth:`_access`'s order.  Cache probes and fills and DRAM go
        through the :mod:`repro.mem.flat` kernels.  Counters accumulate
        in closure locals and reach the stats objects when the returned
        ``flush`` runs, once, at the end of the run.  That is exact:
        the integer counters are sums, and every DRAM latency lies on
        the dyadic grid :meth:`packed_eligible` checked, so the float
        latency sums do not round while they stay below the same
        ``2**(52-k)`` ceiling as model time.
        """
        issue = self._issue
        slot = 1.0 / issue
        pipelined = TraceEngine.PIPELINED_LATENCY
        line_mask = ~(self._line_bytes - 1)
        llc = self.llc
        llc_k = flat.level_kernels(llc)
        acc3 = llc_k.access
        llc_fa = llc_k.fill_absent
        llc_fill = llc_k.fill
        dram_k = flat.dram_kernels(self.dram)
        dram = dram_k.access
        tags3 = llc._tags
        ls3, sm3, ts3 = llc._line_shift, llc._set_mask, llc._tag_shift
        llc_lat = self.llc_lat
        prefetch_ready = self._prefetch_ready
        ready_pop = prefetch_ready.pop
        observe = (self.stride_pf.observe if self.stride_pf is not None
                   else None)
        no_pin = not self.controller._apps
        pin_predicate = self.controller.pin_predicate
        flushes = [llc_k.flush, dram_k.flush]

        def prefetch(line: int, now: float) -> None:
            """:meth:`_prefetch`."""
            si = (line >> ls3) & sm3
            tg = line >> ts3
            if tg in tags3[si]:
                return
            prefetch_ready[line] = dram(line, now, False)
            wb = llc_fa(si, tg, False,
                        False if no_pin else pin_predicate(line), True)
            if wb is not None:
                dram(wb, now, True)

        def build(core: _Core):
            l1, l2 = core.l1, core.l2
            l1_k = flat.level_kernels(l1)
            l2_k = flat.level_kernels(l2)
            flushes.extend((l1_k.flush, l2_k.flush))
            fa1 = l1_k.fill_absent
            acc2 = l2_k.access
            fa2 = l2_k.fill_absent
            fill2 = l2_k.fill
            ls1, sm1, ts1 = l1._line_shift, l1._set_mask, l1._tag_shift
            ls2, sm2, ts2 = l2._line_shift, l2._set_mask, l2._tag_shift
            l1_lat = core.l1_lat
            l2_lat = core.l2_lat
            offset = core.offset
            reserve = core.mshr.reserve
            on_miss = (core.xmem_pf.on_demand_miss
                       if core.xmem_pf is not None else None)
            instructions = accesses = llc_misses = 0

            def execute(vaddr: int, m: int) -> None:
                nonlocal instructions, accesses, llc_misses
                now = core.now
                work = m >> META_COUNT_SHIFT
                if work:
                    now += work / issue
                instructions += work + 1
                accesses += 1
                line = (vaddr + offset) & line_mask
                w = (m & META_WRITE_BIT) != 0
                t = now + l1_lat
                si2 = (line >> ls2) & sm2
                tg2 = line >> ts2
                if acc2(si2, tg2, False):
                    # L2 hit: only the L1 fills.
                    completes = t + l2_lat
                else:
                    t += l2_lat
                    hit3 = acc3((line >> ls3) & sm3, line >> ts3, False)
                    t += llc_lat
                    if observe is not None:
                        for target in observe(line):
                            prefetch(target, now)
                    if hit3:
                        ready = ready_pop(line, None)
                        if ready is not None and ready > t:
                            t = ready
                        completes = t
                    else:
                        llc_misses += 1
                        completes = dram(line, t, False)
                        ready_pop(line, None)
                        wb = llc_fill(line, False,
                                      False if no_pin
                                      else pin_predicate(line))
                        if wb is not None:
                            dram(wb, t, True)
                        if on_miss is not None:
                            for target in on_miss(line):
                                prefetch(target, now)
                    wb = fa2(si2, tg2, False, False, False)
                    if wb is not None:
                        wb = llc_fill(wb, True, False)
                        if wb is not None:
                            dram(wb, now, True)
                wb = fa1((line >> ls1) & sm1, line >> ts1, w, False, False)
                if wb is not None:
                    wb = fill2(wb, True, False)
                    if wb is not None:
                        wb = llc_fill(wb, True, False)
                        if wb is not None:
                            dram(wb, now, True)
                if completes - now > pipelined:
                    start = reserve(now, completes)
                    if start > now:
                        now = start
                core.now = now + slot

            def flush() -> None:
                nonlocal instructions, accesses, llc_misses
                stats = core.stats
                stats.instructions += instructions
                stats.mem_accesses += accesses
                stats.llc_misses += llc_misses
                l1s = l1.stats
                l1s.accesses += accesses
                l1s.misses += accesses
                instructions = accesses = llc_misses = 0

            flushes.append(flush)
            return execute

        executors = [build(core) for core in self.cores]

        def flush() -> None:
            for f in flushes:
                f()

        return executors, flush

    def run_packed(self, traces: Sequence[PackedTrace]) -> List[CoreStats]:
        """The heap-scheduled batched interleaver.

        Bit-identical to :meth:`run_events` on the same traces; falls
        back to it whenever :meth:`packed_eligible` says no.  Yield
        points run on the fused kernel when :meth:`fused_eligible`
        says yes, else through :meth:`_access`.
        """
        if len(traces) != len(self.cores):
            raise ConfigurationError(
                f"{len(self.cores)} cores need {len(self.cores)} traces"
            )
        for trace in traces:
            if type(trace) is not PackedTrace:
                raise ConfigurationError(
                    f"run_packed needs PackedTrace inputs: {trace!r}")
        if not self.packed_eligible():
            return self.run_events(traces)
        for core in self.cores:
            core.trace = None
            core.done = False
        self._issue = self.config.cpu.issue_width
        cursors = [_PackedCursor(core, trace)
                   for core, trace in zip(self.cores, traces)]
        if self.fused_eligible():
            executors, flush = self._build_fused()
        else:
            executors = [self._object_executor(core) for core in self.cores]
            flush = None
        try:
            self._schedule(cursors, executors)
        finally:
            if flush is not None:
                flush()
        return [c.stats for c in self.cores]

    def _schedule(self, cursors: List[_PackedCursor], executors) -> None:
        """The heap loop: pop the core with the smallest ``(now, index)``
        and run it from yield point to yield point.

        Run-ahead: after a yield point (and the private stretch planned
        behind it), the same core keeps running while its
        ``(now, index)`` is still below the heap top -- pushing it would
        pop it straight back, so skipping the round trip is exact.  A
        live probe of the next dense position catches a second L1 miss
        in a row without the planner's prologue.
        """
        slot = 1.0 / self._issue
        plan = self._plan
        heap: List[Tuple[float, int]] = []
        for cur in cursors:
            plan(cur)
            heappush(heap, (cur.core.now, cur.core.index))
        while heap:
            _, idx = heappop(heap)
            cur = cursors[idx]
            core = cur.core
            execute = executors[idx]
            tv = cur.tv
            tm = cur.tm
            l1_tags = core.l1._tags
            while True:
                kind = cur.kind
                if kind == _Y_MEM:
                    pos = cur.pos
                    execute(tv[pos], tm[pos])
                    pos += 1
                    cur.pos = pos
                    if pos < cur.cend and pos < cur.xnext:
                        i = pos - cur.cbase
                        if not (cur.cmem_l[i] and cur.ctags_l[i]
                                not in l1_tags[cur.csets_l[i]]):
                            plan(cur)
                    else:
                        plan(cur)
                elif kind == _Y_XMEM:
                    op = cur.xmem[cur.xi][1]
                    core.stats.instructions += 1
                    core.now += slot
                    if core.xmemlib is not None:
                        getattr(core.xmemlib, op.method)(*op.args)
                    cur.xi += 1
                    cur.xnext = (cur.xmem[cur.xi][0] if cur.xi < cur.n_x
                                 else cur.n_dense)
                    plan(cur)
                else:
                    tail = core.mshr.latest_completion()
                    if tail is not None and tail > core.now:
                        core.now = tail
                    core.mshr.flush()
                    core.stats.cycles = core.now
                    core.done = True
                    break
                if heap and (core.now, idx) > heap[0]:
                    heappush(heap, (core.now, idx))
                    break

    def _object_executor(self, core: _Core):
        """Execute one yielded dense MemAccess through :meth:`_access`,
        with the legacy arithmetic (same operations, same order as
        :meth:`_step`).  Yield points are always MemAccesses: the
        planner consumes Work blocks."""
        access = self._access
        issue = self._issue
        pipelined = TraceEngine.PIPELINED_LATENCY
        stats = core.stats
        offset = core.offset
        reserve = core.mshr.reserve

        def execute(vaddr: int, m: int) -> None:
            work = m >> META_COUNT_SHIFT
            if work:
                core.now += work / issue
                stats.instructions += work
            stats.instructions += 1
            stats.mem_accesses += 1
            completes = access(core, vaddr + offset,
                               bool(m & META_WRITE_BIT))
            if completes - core.now > pipelined:
                start = reserve(core.now, completes)
                core.now = max(core.now, start) + 1.0 / issue
            else:
                core.now += 1.0 / issue

        return execute

    def _plan(self, cur: _PackedCursor) -> None:
        """Fast-forward the core's private prefix and record the next
        yield point in ``cur.kind``.

        Applies batched L1-hit/Work stretches eagerly (they commute
        with other cores' shared events), stopping at the first access
        that can leave the L1, at the next XMemOp position, or at the
        end of the trace.
        """
        n_dense = cur.n_dense
        while True:
            pos = cur.pos
            if cur.xi < cur.n_x and cur.xnext <= pos:
                cur.kind = _Y_XMEM
                return
            if pos >= n_dense:
                cur.kind = _Y_END
                return
            if not self._advance(cur, cur.xnext):
                cur.kind = _Y_MEM
                return
            # Reached the bound: loop to emit the XMemOp / END, or to
            # continue into the next inter-op window.

    def _advance(self, cur: _PackedCursor, bound: int) -> bool:
        """Consume private events up to ``bound``; True iff reached."""
        if cur.va is None:
            return self._advance_scalar(cur, bound)
        while cur.pos < bound:
            if cur.pos >= cur.cend:
                self._classify(cur)
            hi = cur.cend if cur.cend < bound else bound
            if not self._advance_scalar_snap(cur, hi):
                return False
        return True

    def _classify(self, cur: _PackedCursor) -> None:
        """Decompose the next chunk of packed columns in one pass.

        One vectorized sweep splits each position into L1 set index,
        tag, line key, work count and write flag (the loop-header
        decomposition of the vector tier), so the planner's walk needs
        no per-event address arithmetic.  Residency is *not*
        snapshotted: a chunk's own misses fill lines its later
        positions reuse, so a static residency table misclassifies
        whole miss-then-reuse groups -- the planner probes the live
        tag table instead, which can never go stale.
        """
        pos = cur.pos
        stop = pos + CHUNK
        if stop > cur.n_dense:
            stop = cur.n_dense
        cur.cbase = pos
        cur.cend = stop
        l1 = cur.core.l1
        m = cur.me[pos:stop]
        v = cur.va[pos:stop]
        ga = v + cur.core.offset
        lkey = ga >> l1._line_shift
        is_mem = (m & META_WORK_BIT) == 0
        cur.csets_l = (lkey & l1._set_mask).tolist()
        cur.ctags_l = (ga >> l1._tag_shift).tolist()
        cur.cmem_l = is_mem.tolist()
        cur.clkey_l = lkey.tolist()
        cur.cwrite_l = ((m & META_WRITE_BIT) != 0).tolist()
        # Inclusive prefix sums of the work counts and the MemAccess
        # flags: any walked range's instruction/access totals become
        # two subtractions instead of per-event accumulation.
        cur.ccum_l = (m >> META_COUNT_SHIFT).cumsum().tolist()
        cur.cmcum_l = is_mem.cumsum().tolist()

    def _advance_scalar_snap(self, cur: _PackedCursor, bound: int) -> bool:
        """Fused live-probing planner over the chunk's snapshot columns.

        Walks positions with set/tag/write pre-decomposed (no per-event
        address arithmetic), probing the *live* L1 tag table, and
        applies each hit's replacement/dirty effect inline -- the same
        per-event state writes the legacy hit path performs (LRU: one
        clock tick and a stamp; RRIP: RRPV promotion to 0; random:
        nothing), so no replay pass is needed.  Counters and model time
        for the whole run then commit in one batched step.  Probes are
        live, so snapshot staleness never matters here.  True iff
        ``bound`` reached.
        """
        core = cur.core
        l1 = core.l1
        l1_tags = l1._tags
        l1_dirty = l1._dirty
        base = cur.cbase
        cmem = cur.cmem_l
        csets = cur.csets_l
        ctags = cur.ctags_l
        cwr = cur.cwrite_l
        start = pos = cur.pos
        i = pos - base
        pol = l1.policy
        tpol = type(pol)
        if tpol is LRUPolicy:
            clock = pol._clock
            stamp = pol._stamp
            while pos < bound:
                if cmem[i]:
                    sidx = csets[i]
                    tags = l1_tags[sidx]
                    try:
                        w = tags.index(ctags[i])
                    except ValueError:
                        break
                    clock += 1
                    stamp[sidx][w] = clock
                    if cwr[i]:
                        l1_dirty[sidx][w] = True
                pos += 1
                i += 1
            pol._clock = clock
        elif tpol is RandomPolicy:
            while pos < bound:
                if cmem[i]:
                    sidx = csets[i]
                    tags = l1_tags[sidx]
                    if cwr[i]:
                        try:
                            w = tags.index(ctags[i])
                        except ValueError:
                            break
                        l1_dirty[sidx][w] = True
                    elif ctags[i] not in tags:
                        break
                pos += 1
                i += 1
        else:
            # The RRIP family: a hit promotes the line to RRPV 0.
            rrpv = pol._rrpv
            while pos < bound:
                if cmem[i]:
                    sidx = csets[i]
                    tags = l1_tags[sidx]
                    try:
                        w = tags.index(ctags[i])
                    except ValueError:
                        break
                    rrpv[sidx][w] = 0
                    if cwr[i]:
                        l1_dirty[sidx][w] = True
                pos += 1
                i += 1
        if pos > start:
            i0 = start - base
            i1 = pos - base - 1
            ccum = cur.ccum_l
            cmcum = cur.cmcum_l
            total = ccum[i1] - (ccum[i0 - 1] if i0 else 0)
            n_mem = cmcum[i1] - (cmcum[i0 - 1] if i0 else 0)
            self._commit_run(cur, start, pos, total, n_mem)
            cur.pos = pos
        return pos >= bound

    def _advance_scalar(self, cur: _PackedCursor, bound: int) -> bool:
        """Fallback planner over the raw packed columns (no numpy, or
        addresses outside the int64-safe window).

        Interprets hit events one at a time with the exact legacy
        arithmetic -- pure Python ints, so it is exact for any
        addresses -- and yields at the first probe miss.  True iff
        ``bound`` reached.
        """
        core = cur.core
        l1 = core.l1
        l1_tags = l1._tags
        ls = l1._line_shift
        sm = l1._set_mask
        ts = l1._tag_shift
        lb = self._line_bytes
        offs = core.offset
        issue = self._issue
        stats = core.stats
        tv, tm = cur.tv, cur.tm
        pos = cur.pos
        while pos < bound:
            m = tm[pos]
            if m & META_WORK_BIT:
                count = m >> META_COUNT_SHIFT
                core.now += count / issue
                stats.instructions += count
                pos += 1
                continue
            ga = tv[pos] + offs
            if (ga >> ts) not in l1_tags[(ga >> ls) & sm]:
                break
            work = m >> META_COUNT_SHIFT
            if work:
                core.now += work / issue
                stats.instructions += work
            stats.instructions += 1
            stats.mem_accesses += 1
            l1.access(ga - ga % lb, bool(m & META_WRITE_BIT))
            # L1 hit: completes - now is the 1.0 L1 latency, which
            # never exceeds the PIPELINED_LATENCY MSHR threshold.
            core.now += 1.0 / issue
            pos += 1
        cur.pos = pos
        return pos >= bound

    def _commit_run(self, cur: _PackedCursor, begin: int, end: int,
                    total: int, n_mem: int) -> None:
        """Apply an accumulated hit run's counters and time in one step.

        Replacement and dirty state were already written inline by the
        fused walk; what remains advances by run totals -- ``now`` by
        the run's exact issue-slot sum (dyadic grid), the core and L1
        counters by batch increments.  Past the exactness ceiling --
        unreachable in practice -- model time is re-walked event by
        event with legacy rounding instead.
        """
        core = cur.core
        issue = self._issue
        add = (total + n_mem) / issue
        if core.now + add >= self._now_limit:
            self._commit_sequential(cur, begin, end, total, n_mem)
            return
        core.stats.instructions += total + n_mem
        if total:
            core.now += total / issue
        if n_mem:
            core.stats.mem_accesses += n_mem
            core.now += n_mem * (1.0 / issue)
            l1stats = core.l1.stats
            l1stats.accesses += n_mem
            l1stats.hits += n_mem

    def _commit_sequential(self, cur: _PackedCursor, begin: int,
                           end: int, total: int, n_mem: int) -> None:
        """Event-by-event time replay of a known-hit run (legacy float
        rounding beyond the dyadic-grid ceiling).  Replacement state
        was already applied by the fused walk; only ``now`` needs the
        per-event rounding, and the integer counters batch as usual."""
        core = cur.core
        issue = self._issue
        tm = cur.tm
        for pos in range(begin, end):
            m = tm[pos]
            if m & META_WORK_BIT:
                core.now += (m >> META_COUNT_SHIFT) / issue
                continue
            work = m >> META_COUNT_SHIFT
            if work:
                core.now += work / issue
            # L1 hit: completes - now is the 1.0 L1 latency, which
            # never exceeds the PIPELINED_LATENCY MSHR threshold.
            core.now += 1.0 / issue
        core.stats.instructions += total + n_mem
        core.stats.mem_accesses += n_mem
        l1stats = core.l1.stats
        l1stats.accesses += n_mem
        l1stats.hits += n_mem

    # -- Shared memory path (both interleavers) -------------------------

    def _access(self, core: _Core, addr: int, is_write: bool) -> float:
        line = addr - addr % self._line_bytes
        now = core.now
        # Private L1.
        if core.l1.access(line, is_write).hit:
            return now + 1.0
        t = now + core.l1_lat
        # Private L2.
        if core.l2.access(line, False).hit:
            self._fill_private(core, line, is_write, l2_resident=True)
            return t + core.l2_lat
        t += core.l2_lat
        # Shared L3.
        result = self.llc.access(line, False)
        t += self.llc_lat
        if self.stride_pf is not None:
            for target in self.stride_pf.observe(line):
                self._prefetch(target, now)
        if result.hit:
            ready = self._prefetch_ready.pop(line, None)
            if ready is not None and ready > t:
                t = ready
            self._fill_private(core, line, is_write)
            return t
        core.stats.llc_misses += 1
        res = self.dram.access(line, t, is_write=False)
        self._prefetch_ready.pop(line, None)
        wb = self.llc.fill(line,
                           pinned=self.controller.pin_predicate(line))
        if wb is not None:
            self.dram.access(wb, t, is_write=True)
        if core.xmem_pf is not None:
            for target in core.xmem_pf.on_demand_miss(line):
                self._prefetch(target, now)
        self._fill_private(core, line, is_write)
        return res.completes_at

    def _fill_private(self, core: _Core, line: int, is_write: bool,
                      l2_resident: bool = False) -> None:
        # Callers establish the line's L2 state within the same
        # ``_access`` (nothing in between touches the private levels):
        # a resident merge with no flags is a no-op, and an absent
        # line can fill without the presence re-scan.  The writeback
        # ripples keep plain :meth:`Cache.fill` -- an L1 victim is
        # usually still L2-resident.
        if not l2_resident:
            wb2 = core.l2.fill_absent(line)
            if wb2 is not None:
                wb3 = self.llc.fill(wb2, dirty=True)
                if wb3 is not None:
                    self.dram.access(wb3, core.now, is_write=True)
        wb1 = core.l1.fill_absent(line, dirty=is_write)
        if wb1 is not None:
            wb2 = core.l2.fill(wb1, dirty=True)
            if wb2 is not None:
                wb3 = self.llc.fill(wb2, dirty=True)
                if wb3 is not None:
                    self.dram.access(wb3, core.now, is_write=True)

    def _prefetch(self, line: int, now: float) -> None:
        if self.llc.probe(line):
            return
        res = self.dram.access(line, now, is_write=False)
        self._prefetch_ready[line] = res.completes_at
        wb = self.llc.fill(line, prefetch=True,
                           pinned=self.controller.pin_predicate(line))
        if wb is not None:
            self.dram.access(wb, now, is_write=True)


def _coalesce(chunks: List[int], chunk_bytes: int
              ) -> List[Tuple[int, int]]:
    """Chunk indices -> coalesced (start, end) byte spans."""
    spans: List[Tuple[int, int]] = []
    for c in chunks:
        start = c * chunk_bytes
        if spans and spans[-1][1] == start:
            spans[-1] = (spans[-1][0], start + chunk_bytes)
        else:
            spans.append((start, start + chunk_bytes))
    return spans


def _prefix(spans: List[Tuple[int, int]], budget: int
            ) -> List[Tuple[int, int]]:
    """Leading ``budget`` bytes of a span list."""
    out: List[Tuple[int, int]] = []
    remaining = budget
    for s, e in spans:
        if remaining <= 0:
            break
        take = min(e - s, remaining)
        out.append((s, s + take))
        remaining -= take
    return out
