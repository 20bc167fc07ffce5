"""Executable reference models: the simple way to compute each answer.

Each class here re-implements one optimized model with textbook data
structures and no hot-path tricks -- the form you would write on a
whiteboard.  The fuzz lanes (:mod:`repro.testing.fuzz`) drive the
optimized model and its reference over the same random input and
require the answers to agree exactly:

* :class:`ReferenceCache` vs. :class:`repro.mem.cache.Cache` (LRU):
  dict-of-lists recency order, per-set tag sets for dirty/pinned state;
  hits, victims, writebacks, refusals, and the final resident set must
  all match the columnar cache.
* :class:`ReferenceEngine` vs. :class:`repro.cpu.engine.TraceEngine`:
  a naive in-order interpreter with a plain-list outstanding-miss
  window (``min``/``remove`` instead of a heap).  Statistics and MSHR
  counters must be bit-identical -- every arithmetic expression
  mirrors the engine, so float accumulation order is the same.  It is
  the single-core engine's only oracle.
* :class:`ReferenceDram` vs. :class:`repro.dram.system.DramSystem`
  under FIFO issue: a naive open-row bank/channel timing model.
  Per-request (outcome, latency, completion) must match exactly.
* :class:`ToyMemory`: not an oracle but a seeded, deterministic memory
  stand-in for engine lanes -- two instances with the same seed give
  identical (completes_at, went_to_memory) streams, with enough long
  misses to saturate small windows.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from repro.cpu.trace import MemAccess, PackedTrace, Trace, Work, XMemOp
from repro.dram.mapping import AddressMapping, DramGeometry, make_mapping
from repro.dram.timing import DramTiming, ddr3_1066


# ---------------------------------------------------------------------------
# Cache reference
# ---------------------------------------------------------------------------

class ReferenceCache:
    """Dict-of-lists LRU cache with write-back state and pinning.

    Per set: ``order`` is the recency list (LRU at the front, MRU at
    the back), ``dirty`` and ``pinned`` are tag sets.  The semantics
    deliberately restate :class:`repro.mem.cache.Cache` with
    ``policy="lru"``:

    * a hit promotes to MRU; a flag-merging :meth:`fill` of a resident
      line does **not** (the cache's resident-fill path skips the
      policy hook);
    * a fill into a non-full set evicts nothing;
    * the victim of a full set is the least-recent non-pinned line, or
      the least-recent line outright if every way is pinned (only
      reachable with ``pin_quota=1.0``);
    * pin requests beyond ``max(0, int(ways * pin_quota))`` pinned
      lines per set degrade to normal fills and count as refusals.
    """

    def __init__(self, num_sets: int, ways: int, line_bytes: int = 64,
                 pin_quota: float = 0.75) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.line_bytes = line_bytes
        self.max_pinned_ways = max(0, int(ways * pin_quota))
        self.order: List[List[int]] = [[] for _ in range(num_sets)]
        self.dirty: List[Set[int]] = [set() for _ in range(num_sets)]
        self.pinned: List[Set[int]] = [set() for _ in range(num_sets)]
        self.evictions = 0
        self.writebacks = 0
        self.pin_refusals = 0

    def place(self, addr: int) -> Tuple[int, int]:
        """(set index, tag) of the line holding ``addr``."""
        line = addr // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def line_of(self, set_idx: int, tag: int) -> int:
        """Inverse of :meth:`place`: the line address."""
        return (tag * self.num_sets + set_idx) * self.line_bytes

    def access(self, addr: int, is_write: bool = False) -> bool:
        """One demand access; True on hit (with LRU promotion)."""
        set_idx, tag = self.place(addr)
        order = self.order[set_idx]
        if tag not in order:
            return False
        order.remove(tag)
        order.append(tag)
        if is_write:
            self.dirty[set_idx].add(tag)
        return True

    def fill(self, addr: int, *, dirty: bool = False,
             pinned: bool = False) -> Optional[int]:
        """Install (or flag-merge) a line; returns the writeback, if any."""
        set_idx, tag = self.place(addr)
        order = self.order[set_idx]
        if tag in order:
            # Resident: merge flags, recency untouched.
            if dirty:
                self.dirty[set_idx].add(tag)
            if pinned and tag not in self.pinned[set_idx] \
                    and len(self.pinned[set_idx]) < self.max_pinned_ways:
                self.pinned[set_idx].add(tag)
            return None
        writeback = None
        if len(order) >= self.ways:
            victims = [t for t in order if t not in self.pinned[set_idx]]
            victim = victims[0] if victims else order[0]
            order.remove(victim)
            self.evictions += 1
            if victim in self.dirty[set_idx]:
                self.dirty[set_idx].discard(victim)
                self.writebacks += 1
                writeback = self.line_of(set_idx, victim)
            self.pinned[set_idx].discard(victim)
        order.append(tag)
        if dirty:
            self.dirty[set_idx].add(tag)
        if pinned:
            if len(self.pinned[set_idx]) < self.max_pinned_ways:
                self.pinned[set_idx].add(tag)
            else:
                self.pin_refusals += 1
        return writeback

    def unpin_all(self) -> int:
        """Age every pin; returns how many lines were pinned."""
        count = sum(len(p) for p in self.pinned)
        for p in self.pinned:
            p.clear()
        return count

    def resident_set(self) -> Set[int]:
        """All resident line addresses."""
        return {
            self.line_of(s, t)
            for s, order in enumerate(self.order) for t in order
        }

    def pinned_lines(self) -> int:
        """Total pinned lines."""
        return sum(len(p) for p in self.pinned)


# ---------------------------------------------------------------------------
# Engine reference
# ---------------------------------------------------------------------------

class ReferenceEngine:
    """Naive in-order trace interpreter with a plain-list miss window.

    Mirrors the timing contract of :class:`repro.cpu.engine.TraceEngine`
    event for event -- same pipelined-hit threshold, same window-full
    stall rule, same end-of-trace drain -- but with none of the
    hot-path structure: object dispatch by ``isinstance``, the
    outstanding-miss window as a list scanned with ``min``.  Every
    arithmetic expression restates the engine's, so the returned
    :class:`~repro.cpu.engine.EngineStats` is bit-identical for any
    trace over the same memory behaviour.  The window also counts what
    :class:`~repro.mem.mshr.MSHRFile` counts: after a run,
    ``reservations`` (long accesses entered into the window) and
    ``full_stalls`` (entries that found it full).
    """

    PIPELINED_LATENCY = 4.0

    def __init__(self, memory, xmemlib=None, translate=None,
                 issue_width: int = 4, window: int = 32) -> None:
        self.memory = memory
        self.xmemlib = xmemlib
        self.translate = translate
        self.issue_width = issue_width
        self.window = window
        self.reservations = 0
        self.full_stalls = 0

    def run(self, trace: Trace):
        from repro.cpu.engine import EngineStats

        if isinstance(trace, PackedTrace):
            trace = trace.events()
        now = 0.0
        issue = self.issue_width
        slot = 1.0 / issue
        outstanding: List[float] = []
        stats = EngineStats()
        self.reservations = self.full_stalls = 0
        for ev in trace:
            if isinstance(ev, MemAccess):
                work = ev.work
                if work:
                    now += work / issue
                    stats.instructions += work
                stats.instructions += 1
                stats.mem_accesses += 1
                vaddr = ev.vaddr
                if self.translate is not None:
                    vaddr = self.translate(vaddr)
                completes_at, to_memory = self.memory.access(
                    vaddr, ev.is_write, now)
                if to_memory:
                    stats.misses_to_memory += 1
                if completes_at - now > self.PIPELINED_LATENCY:
                    # Retire everything that has completed, then stall
                    # on the oldest miss if the window is still full.
                    outstanding = [t for t in outstanding if t > now]
                    start = now
                    if len(outstanding) >= self.window:
                        start = min(outstanding)
                        outstanding.remove(start)
                        self.full_stalls += 1
                    outstanding.append(completes_at)
                    self.reservations += 1
                    if start > now:
                        stats.stall_cycles += start - now
                        now = start
                now += slot
            elif isinstance(ev, Work):
                now += ev.count / issue
                stats.instructions += ev.count
            elif isinstance(ev, XMemOp):
                stats.instructions += 1
                stats.xmem_instructions += 1
                now += slot
                if self.xmemlib is not None:
                    getattr(self.xmemlib, ev.method)(*ev.args)
            else:
                raise TypeError(f"not a trace event: {ev!r}")
        if outstanding:
            tail = max(outstanding)
            if tail > now:
                now = tail
        stats.cycles = now
        return stats


# ---------------------------------------------------------------------------
# DRAM reference
# ---------------------------------------------------------------------------

class ReferenceDram:
    """Naive FIFO open-row DRAM model.

    One dict entry per touched bank holding ``[open_row, busy_until]``,
    one free-time per channel, requests served strictly in the order
    presented.  Restates the
    :class:`~repro.dram.system.DramSystem`/:class:`~repro.dram.bank.Bank`
    arithmetic (classify, per-outcome overhead, bank busy advance,
    channel burst serialization) without the object structure.  Address
    decomposition is shared input, not model under test, so the same
    mapping scheme object is used.
    """

    def __init__(self, geometry: Optional[DramGeometry] = None,
                 timing: Optional[DramTiming] = None,
                 mapping: str = "scheme2") -> None:
        self.geometry = geometry or DramGeometry()
        self.timing = timing or ddr3_1066()
        self.mapping: AddressMapping = make_mapping(mapping, self.geometry)
        self.banks: Dict[Tuple[int, int, int], List] = {}
        self.channel_free = [0.0] * self.geometry.channels
        self.reads = 0
        self.writes = 0
        self.read_latency_sum = 0.0
        self.write_latency_sum = 0.0
        self.row_hits = 0
        self.row_closed = 0
        self.row_conflicts = 0

    def access(self, paddr: int, now: float,
               is_write: bool = False) -> Tuple[str, float, float]:
        """Serve one request; returns (outcome, latency, completes_at)."""
        t = self.timing
        addr = self.mapping.decompose(paddr)
        bank = self.banks.setdefault(addr.bank_key, [None, 0.0])
        start = now if now >= bank[1] else bank[1]
        if bank[0] is None:
            outcome = "closed"
            overhead = t.t_rcd
            self.row_closed += 1
        elif bank[0] == addr.row:
            outcome = "hit"
            overhead = 0.0
            self.row_hits += 1
        else:
            outcome = "conflict"
            overhead = t.t_rp + t.t_rcd
            self.row_conflicts += 1
        bank[0] = addr.row
        bank[1] = start + overhead + t.t_burst
        data_ready = start + overhead + t.t_cl
        chan = self.channel_free[addr.channel]
        burst_start = data_ready if data_ready >= chan else chan
        done = burst_start + t.t_burst
        self.channel_free[addr.channel] = done
        latency = done - now
        if is_write:
            self.writes += 1
            self.write_latency_sum += latency
        else:
            self.reads += 1
            self.read_latency_sum += latency
        return outcome, latency, done


# ---------------------------------------------------------------------------
# Seeded toy memory for engine lanes
# ---------------------------------------------------------------------------

class ToyMemory:
    """Deterministic seeded stand-in for a memory system.

    Engine lanes need two *identical* memory behaviours -- one for the
    optimized engine, one for the reference -- without sharing mutable
    state between the runs.  Two ``ToyMemory(seed)`` instances draw the
    same per-access pseudo-random (hit-or-miss, latency) stream, so the
    engines see the same machine.  Miss latencies are long enough to
    pile misses into small windows (MSHR saturation).
    """

    def __init__(self, seed: int, hit_latency: float = 2.0,
                 miss_rate: float = 0.35,
                 miss_latency: Tuple[float, float] = (40.0, 400.0)) -> None:
        self._rng = random.Random(seed)
        self.hit_latency = hit_latency
        self.miss_rate = miss_rate
        self.miss_latency = miss_latency
        self.accesses = 0

    def access(self, paddr: int, is_write: bool,
               now: float) -> Tuple[float, bool]:
        self.accesses += 1
        rng = self._rng
        if rng.random() < self.miss_rate:
            lo, hi = self.miss_latency
            return now + rng.uniform(lo, hi), True
        return now + self.hit_latency, False
