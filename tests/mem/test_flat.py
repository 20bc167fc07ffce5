"""The flat-table kernels vs. the object methods they stand in for.

Twin caches (and twin DRAM systems) take the same random operation
sequence, one through :class:`Cache` / :class:`DramSystem` methods,
the other through :mod:`repro.mem.flat` closures; after a flush, line
state, policy state and every counter must be identical.  Covers every
policy family the kernels specialise (LRU, RRIP) and the policy-hook
fallback (random), demand accesses (hits, prefetched-tag hits, DRRIP
duel training on misses), the pinned-candidate victim path, prefetched
tags and the eviction callback.
"""

from __future__ import annotations

import random

import pytest

from repro.dram.system import DramSystem
from repro.mem import flat
from repro.mem.cache import Cache

POLICIES = ["lru", "srrip", "brrip", "drrip", "random"]
LINE = 64


def twins(policy):
    # 8 sets x 4 ways: small enough that fills evict constantly.
    return (Cache("obj", 8 * 4 * LINE, 4, LINE, policy=policy),
            Cache("flat", 8 * 4 * LINE, 4, LINE, policy=policy))


def cache_state(cache):
    pol = cache.policy
    return (cache._tags, cache._dirty, cache._pinned, cache._valid_counts,
            cache._pinned_counts, sorted(cache._prefetched_tags),
            vars(cache.stats), getattr(pol, "_stamp", None),
            getattr(pol, "_clock", None), getattr(pol, "_rrpv", None),
            getattr(pol, "_psel", None),
            getattr(getattr(pol, "_brrip", pol), "_fill_count", None),
            pol._rng.getstate() if hasattr(pol, "_rng") else None)


def resident(cache):
    return {(s, t) for s, row in enumerate(cache._tags) for t in row
            if t >= 0}


def ops(seed, n=3000):
    """(kind, line, dirty, pinned, prefetch) tuples over 64 lines."""
    rng = random.Random(seed)
    for _ in range(n):
        line = rng.randrange(64) * LINE
        yield (rng.choice(("access", "absent", "fill", "unpin")),
               line, rng.random() < 0.4, rng.random() < 0.5,
               rng.random() < 0.2)


OUTCOMES = {(False, False): flat.MISS, (True, False): flat.HIT,
            (True, True): flat.HIT_PREFETCHED}


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", [1, 2])
def test_kernels_match_cache(policy, seed):
    obj, fl = twins(policy)
    evicted_obj, evicted_flat = [], []
    k = flat.level_kernels(fl, on_evict=evicted_flat.append)
    for kind, line, dirty, pinned, prefetch in ops(seed):
        if kind == "unpin":
            assert obj.unpin_all() == fl.unpin_all()
            continue
        if kind == "access":
            res = obj.access(line, dirty)
            assert k.access(fl._index(line), fl._tag(line), dirty) == \
                OUTCOMES[res.hit, res.was_prefetched]
            continue
        if kind == "absent" and obj.probe(line):
            kind = "fill"       # fill_absent needs an absent line
        before = resident(obj)
        if kind == "absent":
            want = obj.fill_absent(line, dirty=dirty, pinned=pinned,
                                   prefetch=prefetch)
            got = k.fill_absent(fl._index(line), fl._tag(line), dirty,
                                pinned, prefetch)
        else:
            want = obj.fill(line, dirty=dirty, pinned=pinned)
            got = k.fill(line, dirty, pinned)
        assert got == want
        evicted_obj.extend(obj._victim_addr(s, t)
                           for s, t in before - resident(obj))
    k.flush()
    assert cache_state(fl) == cache_state(obj)
    assert evicted_flat == evicted_obj
    stats = obj.stats
    assert stats.hits > 0 and stats.misses > 0 and stats.prefetch_hits > 0
    assert stats.evictions > 0 and stats.writebacks > 0
    assert stats.pinned_fills > 0 and stats.prefetch_fills > 0


@pytest.mark.parametrize("perfect_rbl", [False, True])
def test_dram_kernel_matches_dram_system(perfect_rbl):
    obj = DramSystem(perfect_rbl=perfect_rbl)
    fl = DramSystem(perfect_rbl=perfect_rbl)
    k = flat.dram_kernels(fl)
    rng = random.Random(5)
    t = 0.0
    for _ in range(2000):
        line = rng.randrange(1 << 16) * LINE
        write = rng.random() < 0.3
        t += rng.choice((0.0, 0.25, 1.0, 7.5))
        assert k.access(line, t, write) == obj.access(
            line, t, is_write=write).completes_at
    k.flush()
    assert vars(fl.stats) == vars(obj.stats)
    assert fl.bank_summary() == obj.bank_summary()
    assert obj.stats.reads and obj.stats.writes
