"""Flat-table kernels: cache-level and DRAM paths as closures over columnar state.

The batched engines (``repro.cpu.vector_engine``'s generic path and the
fused co-run kernel in ``repro.sim.corun``) cannot afford the object
methods' dispatch, keyword arguments and result objects on every miss,
so they run the memory model as closures built once per run over the
flat tables of :class:`~repro.mem.cache.Cache` and
:class:`~repro.dram.system.DramSystem`.  This module is the one place
those closures are written:

:func:`level_kernels`
    One cache level's demand ``access`` (:meth:`Cache.access`: hit
    update, prefetched-tag accounting, DRRIP duel training on a miss),
    ``fill_absent`` and the merging ``fill``, with victim selection and
    insertion specialised to the level's policy (LRU, the RRIP family,
    or the policy's own hooks for anything else).
:func:`dram_kernels`
    One DRAM read or write: bank classify, bank access, channel bus,
    latency histogram bucket -- :meth:`DramSystem.access` without the
    :class:`~repro.dram.system.DramResult`.

Every kernel performs the same state writes, in the same order, as the
object method it replaces.  Statistics are the exception: each kernel
counts into closure-local integers (and float latency sums) that its
``flush()`` adds to the stats objects and resets.  Callers flush once,
at the end of a run and before anything snapshots the stats.  Integer
counters are sums, so deferring them is exact in any order; the float
latency sums are exact because the engines only use these kernels when
every time quantum lies on one dyadic grid (:func:`dyadic_k`), where
float addition does not round.

Policy state (LRU clock, DRRIP ``psel`` and BRRIP fill count) stays on
the policy objects and is read live, so the kernels interleave freely
with the object paths and with each other.
"""

from __future__ import annotations

from itertools import compress
from operator import not_
from typing import Callable, NamedTuple, Optional

from repro.dram.system import DramSystem
from repro.mem.cache import INVALID_TAG, Cache
from repro.mem.replacement import (
    BRRIPPolicy,
    DRRIPPolicy,
    LRUPolicy,
    RRPV_LONG,
    RRPV_MAX,
    SRRIPPolicy,
)

_RRIP_FAMILY = (SRRIPPolicy, BRRIPPolicy, DRRIPPolicy)


def dyadic_k(values, k_max: int = 12) -> Optional[int]:
    """Smallest ``k`` with every value an integer multiple of ``2**-k``.

    Batched and deferred sums reorder float additions; that is exact
    only while every addend and every partial sum is exactly
    representable, i.e. all time quanta live on one dyadic grid and the
    sums stay small enough that grid points need at most 53 mantissa
    bits.
    """
    for k in range(k_max + 1):
        scale = 1 << k
        if all(float(v) * scale == int(v * scale) for v in values):
            return k
    return None


#: ``LevelKernels.access`` outcomes; only ``MISS`` is falsy.
MISS, HIT, HIT_PREFETCHED = 0, 1, 2


class LevelKernels(NamedTuple):
    """The closures of one cache level.

    ``access(set_idx, tag, is_write)`` returns :data:`MISS`,
    :data:`HIT` or :data:`HIT_PREFETCHED`.
    ``fill_absent(set_idx, tag, dirty, pinned, prefetch)`` and
    ``fill(line, dirty, pinned)`` return the dirty victim's line
    address or None.
    """

    access: Callable[[int, int, bool], int]
    fill_absent: Callable
    fill: Callable
    flush: Callable[[], None]


class DramKernels(NamedTuple):
    """``access(line, t, is_write) -> completion time`` plus its flush."""

    access: Callable[[int, float, bool], float]
    flush: Callable[[], None]


def level_kernels(cache: Cache, *,
                  on_evict: Optional[Callable[[int], None]] = None
                  ) -> LevelKernels:
    """Build the closures over ``cache``'s tables.

    ``on_evict(line)`` is told the line address of every victim, dirty
    or clean.
    """
    if type(cache) is not Cache or cache._line_shift is None:
        raise ValueError(f"{cache!r}: flat kernels need a plain Cache "
                         f"with power-of-two geometry")
    tags = cache._tags
    dirty = cache._dirty
    pinned = cache._pinned
    vcount = cache._valid_counts
    pcount = cache._pinned_counts
    all_ways = cache._all_ways
    ways = cache.ways
    nsets = cache.num_sets
    lb = cache.line_bytes
    ls = cache._line_shift
    sm = cache._set_mask
    ts = cache._tag_shift
    maxpin = cache._max_pinned_ways
    pfd = cache._prefetched_tags
    stats = cache.stats
    pol = cache.policy
    tpol = type(pol)
    lru = tpol is LRUPolicy
    rrip = tpol in _RRIP_FAMILY
    drrip = tpol is DRRIPPolicy
    stamp = pol._stamp if lru else None
    rrpv = pol._rrpv if rrip else None
    brrip = pol._brrip if drrip else None
    duel = DRRIPPolicy.DUEL_PERIOD
    record_miss = (pol.record_miss
                   if isinstance(pol, DRRIPPolicy) and not drrip else None)
    lip = BRRIPPolicy.LONG_INTERVAL_PERIOD
    hit_hook = pol.on_hit
    victim_hook = pol.victim
    invalidate_hook = pol.on_invalidate
    fill_hook = pol.on_fill
    itag = INVALID_TAG
    rmax = RRPV_MAX
    rlong = RRPV_LONG

    accesses = hits = prefetch_hits = 0
    evictions = writebacks = 0
    pinned_fills = pin_refusals = prefetch_fills = 0

    def flush() -> None:
        nonlocal accesses, hits, prefetch_hits, evictions, writebacks, \
            pinned_fills, pin_refusals, prefetch_fills
        stats.accesses += accesses
        stats.hits += hits
        stats.misses += accesses - hits
        stats.prefetch_hits += prefetch_hits
        stats.evictions += evictions
        stats.writebacks += writebacks
        stats.pinned_fills += pinned_fills
        stats.pin_refusals += pin_refusals
        stats.prefetch_fills += prefetch_fills
        accesses = hits = prefetch_hits = 0
        evictions = writebacks = 0
        pinned_fills = pin_refusals = prefetch_fills = 0

    def access(si: int, tg: int, w: bool) -> int:
        nonlocal accesses, hits, prefetch_hits
        accesses += 1
        row = tags[si]
        if tg not in row:
            if drrip:
                # DRRIPPolicy.record_miss.
                ph = si % duel
                if ph == 0:
                    if pol._psel < pol._psel_max:
                        pol._psel += 1
                elif ph == 1:
                    if pol._psel > 0:
                        pol._psel -= 1
            elif record_miss is not None:
                record_miss(si)
            return MISS
        way = row.index(tg)
        hits += 1
        if w:
            dirty[si][way] = True
        if lru:
            pol._clock += 1
            stamp[si][way] = pol._clock
        elif rrip:
            rrpv[si][way] = 0
        else:
            hit_hook(si, way)
        if pfd:
            key = (si, tg)
            if key in pfd:
                prefetch_hits += 1
                pfd.discard(key)
                return HIT_PREFETCHED
        return HIT

    # Victim selection and insertion below are LRUPolicy / _RRIPBase /
    # DRRIPPolicy's hooks written out; the LRU/RRIP invalidate hooks
    # are skipped because the insertion overwrites the same slot.

    def fill_absent(si: int, tg: int, d: bool, pin: bool,
                    prefetch: bool) -> Optional[int]:
        nonlocal evictions, writebacks, pinned_fills, pin_refusals, \
            prefetch_fills
        row = tags[si]
        prow = pinned[si]
        wb = None
        if vcount[si] < ways:
            way = row.index(itag)
            vcount[si] += 1
        else:
            if pcount[si]:
                cands = list(compress(all_ways, map(not_, prow)))
                if not cands:
                    cands = all_ways
            else:
                cands = all_ways
            if lru:
                st = stamp[si]
                if cands is all_ways:
                    way = st.index(min(st))
                else:
                    way = min(cands, key=st.__getitem__)
            elif rrip:
                rr = rrpv[si]
                if cands is all_ways:
                    if rmax not in rr:
                        bump = rmax - max(rr)
                        for w in all_ways:
                            rr[w] += bump
                    way = rr.index(rmax)
                else:
                    hi = max(map(rr.__getitem__, cands))
                    if hi < rmax:
                        bump = rmax - hi
                        for w in cands:
                            rr[w] += bump
                    for w in cands:
                        if rr[w] >= rmax:
                            way = w
                            break
            else:
                way = victim_hook(si, cands)
            evictions += 1
            vt = row[way]
            if dirty[si][way]:
                writebacks += 1
                wb = (vt * nsets + si) * lb
            if pfd:
                pfd.discard((si, vt))
            if prow[way]:
                prow[way] = False
                pcount[si] -= 1
            if not (lru or rrip):
                invalidate_hook(si, way)
            if on_evict is not None:
                on_evict((vt * nsets + si) * lb)
        row[way] = tg
        dirty[si][way] = d
        want_pin = pin and pcount[si] < maxpin
        if pin and not want_pin:
            pin_refusals += 1
        prow[way] = want_pin
        if want_pin:
            pinned_fills += 1
            pcount[si] += 1
        if prefetch:
            prefetch_fills += 1
            pfd.add((si, tg))
        if lru:
            pol._clock += 1
            stamp[si][way] = pol._clock
        elif drrip:
            if want_pin:
                rrpv[si][way] = 0
            else:
                ph = si % duel
                if ph == 1 or (ph != 0 and pol._psel > pol._psel_half):
                    brrip._fill_count += 1
                    rrpv[si][way] = (rlong
                                     if brrip._fill_count % lip == 0
                                     else rmax)
                else:
                    rrpv[si][way] = rlong
        else:
            fill_hook(si, way, high_priority=want_pin)
        return wb

    def fill(line: int, d: bool, pin: bool) -> Optional[int]:
        si = (line >> ls) & sm
        tg = line >> ts
        row = tags[si]
        if tg in row:
            way = row.index(tg)
            if d:
                dirty[si][way] = True
            if pin and not pinned[si][way] and pcount[si] < maxpin:
                pinned[si][way] = True
                pcount[si] += 1
            return None
        return fill_absent(si, tg, d, pin, False)

    return LevelKernels(access, fill_absent, fill, flush)


def dram_kernels(dram: DramSystem) -> DramKernels:
    """Build the DRAM access closure over ``dram``'s banks and channels.

    Valid for one run: :meth:`DramSystem.reset_time` replaces the
    channel list the closure holds.
    """
    timing = dram.timing
    t_burst = timing.t_burst
    memo = dram._decomposed
    addr_bank = dram._addr_bank
    channel_free = dram._channel_free
    force_hit = dram.perfect_rbl
    ds = dram.stats
    rbuckets = ds.read_latency_hist.buckets
    wbuckets = ds.write_latency_hist.buckets

    row_hits = row_closed = row_conflicts = reads = writes = 0
    read_sum = write_sum = 0.0

    def access(line: int, t: float, is_write: bool) -> float:
        nonlocal row_hits, row_closed, row_conflicts, reads, writes, \
            read_sum, write_sum
        ent = memo.get(line)
        if ent is None:
            ent = addr_bank(line)
        addr, bank = ent
        busy = bank.busy_until
        start = t if t > busy else busy
        row = addr.row
        # Bank.classify, counted in place.
        open_row = bank.open_row
        if force_hit or open_row == row:
            row_hits += 1
        elif open_row is None:
            row_closed += 1
        else:
            row_conflicts += 1
        data_ready = bank.access(row, start, timing, force_hit)
        channel = addr.channel
        free_at = channel_free[channel]
        done = (data_ready if data_ready > free_at else free_at) + t_burst
        channel_free[channel] = done
        latency = done - t
        v = int(latency)
        bound = 1 if v <= 1 else 1 << (v - 1).bit_length()
        if is_write:
            writes += 1
            write_sum += latency
            wbuckets[bound] = wbuckets.get(bound, 0) + 1
        else:
            reads += 1
            read_sum += latency
            rbuckets[bound] = rbuckets.get(bound, 0) + 1
        return done

    def flush() -> None:
        nonlocal row_hits, row_closed, row_conflicts, reads, writes, \
            read_sum, write_sum
        ds.row_hits += row_hits
        ds.row_closed += row_closed
        ds.row_conflicts += row_conflicts
        ds.reads += reads
        ds.writes += writes
        ds.read_latency_sum += read_sum
        ds.write_latency_sum += write_sum
        rh = ds.read_latency_hist
        rh.count += reads
        rh.total += read_sum
        wh = ds.write_latency_hist
        wh.count += writes
        wh.total += write_sum
        row_hits = row_closed = row_conflicts = reads = writes = 0
        read_sum = write_sum = 0.0

    return DramKernels(access, flush)
