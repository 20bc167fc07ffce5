"""The packed co-run interleaver vs. the legacy per-event oracle.

The heap-scheduled batched engine (:meth:`CorunSystem.run_packed`)
must be bit-identical to the legacy ``run_events`` loop -- CoreStats
and the full stats snapshot -- on real suite-catalog tenant mixes,
baseline and XMem, whether its yield points run on the fused kernel or
(for machine shapes outside the kernel's gate) through ``_access``.
Plus unit coverage of the global pin controller's budget edge cases.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.attributes import PatternType
from repro.core.xmemlib import XMemLib
from repro.mem.cache import Cache
from repro.sim.config import scaled_config
from repro.sim.corun import CorunSystem, MultiProcessController
from repro.sim.runner import record_suite_trace

PAIRS = [
    ("mcf", "lbm"),
    ("omnetpp", "sc"),
    ("libquantum", "GemsFDTD"),
]


MISS_MIX = ("mcf", "lbm", "libquantum", "omnetpp")


def run_pair(names, mode, engine, accesses=2500, footprint_div=256,
             cfg=None, xmem_tenants=(0,)):
    """One mix through the selected engine (None = ``run`` dispatch)."""
    cfg = cfg if cfg is not None else scaled_config(32)
    xmem = xmem_tenants if mode == "xmem" else ()
    system = CorunSystem(cfg, len(names), xmem_cores=xmem)
    traces = []
    for core, name in zip(system.cores, names):
        recording = record_suite_trace(name, accesses, footprint_div)
        if core.xmemlib is not None:
            traces.append(recording.replay(core.xmemlib))
        else:
            traces.append(recording.packed.without_xmem())
    run = {"object": system.run_events,
           "packed": system.run_packed,
           None: system.run}[engine]
    return run(traces), system.stats_snapshot()


@pytest.mark.parametrize("mode", ["baseline", "xmem"])
@pytest.mark.parametrize("names", PAIRS,
                         ids=["+".join(p) for p in PAIRS])
def test_packed_bit_identical_to_legacy(names, mode):
    stats_obj, snap_obj = run_pair(names, mode, "object")
    stats_packed, snap_packed = run_pair(names, mode, "packed")
    for legacy, packed in zip(stats_obj, stats_packed):
        assert (packed.cycles, packed.instructions,
                packed.mem_accesses, packed.llc_misses) == (
            legacy.cycles, legacy.instructions,
            legacy.mem_accesses, legacy.llc_misses)
    assert snap_obj == snap_packed


def assert_identical(legacy, packed):
    (stats_obj, snap_obj), (stats_packed, snap_packed) = legacy, packed
    assert stats_packed == stats_obj
    assert snap_packed == snap_obj


@pytest.fixture
def fused_calls(monkeypatch):
    """Counts the runs whose yield points took the fused kernel."""
    calls = []
    build = CorunSystem._build_fused

    def counting(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(CorunSystem, "_build_fused", counting)
    return calls


@pytest.mark.parametrize("mode", ["baseline", "xmem"])
def test_fused_miss_mix_bit_identical(mode, fused_calls):
    """The 4-tenant miss mix, XMem on tenants 0 and 2: the fused
    kernel must reproduce the oracle's CoreStats and snapshot."""
    kw = dict(accesses=1500, xmem_tenants=(0, 2))
    legacy = run_pair(MISS_MIX, mode, "object", **kw)
    packed = run_pair(MISS_MIX, mode, "packed", **kw)
    assert len(fused_calls) == 1
    assert_identical(legacy, packed)
    # Non-vacuity: the mix exercises writebacks to DRAM, LLC
    # prefetches and (under XMem) pinned fills.
    snap = packed[1]
    assert snap["dram"]["writes"] > 0
    assert snap["llc"]["prefetch_fills"] > 0
    if mode == "xmem":
        assert snap["llc"]["pinned_fills"] > 0


def _lru_llc(cfg):
    levels = list(cfg.levels)
    levels[-1] = replace(levels[-1], policy="lru")
    return replace(cfg, levels=levels)


def _no_prefetcher(cfg):
    return replace(cfg, prefetcher=replace(cfg.prefetcher, enabled=False))


def test_fused_without_stride_prefetcher(fused_calls):
    """The stride prefetcher is optional inside the kernel: with it
    off, yield points still take the fused path and equal the
    oracle."""
    kw = dict(accesses=800, xmem_tenants=(0, 2),
              cfg=_no_prefetcher(scaled_config(32)))
    legacy = run_pair(MISS_MIX, "xmem", "object", **kw)
    packed = run_pair(MISS_MIX, "xmem", "packed", **kw)
    assert len(fused_calls) == 1
    assert_identical(legacy, packed)


@pytest.mark.parametrize("shape", ["lru-llc", "checked"])
def test_fallback_shapes_match_oracle(shape, monkeypatch):
    """Shapes outside the fused kernel's gate run yield points through
    ``_access`` and still equal the oracle."""
    def refuse(self):
        raise AssertionError(f"fused kernel taken for shape {shape!r}")

    monkeypatch.setattr(CorunSystem, "_build_fused", refuse)
    cfg = scaled_config(32)
    if shape == "lru-llc":
        cfg = _lru_llc(cfg)
    else:
        monkeypatch.setenv("REPRO_CHECK", "1")
    kw = dict(accesses=800, xmem_tenants=(0, 2), cfg=cfg)
    legacy = run_pair(MISS_MIX, "xmem", "object", **kw)
    packed = run_pair(MISS_MIX, "xmem", "packed", **kw)
    system = CorunSystem(cfg, 2)
    assert system.packed_eligible() and not system.fused_eligible()
    assert_identical(legacy, packed)


def test_run_ahead_tie_break(fused_calls):
    """Two identical tenants sit at equal ``now`` until the shared
    levels separate them: the run-ahead rule must keep the legacy
    lowest-index tie-break."""
    names = ("lbm", "lbm")
    legacy = run_pair(names, "baseline", "object", accesses=1500)
    packed = run_pair(names, "baseline", "packed", accesses=1500)
    assert len(fused_calls) == 1
    assert_identical(legacy, packed)


def test_run_dispatch_honours_engine_tier(monkeypatch):
    """All-packed traces take the batched engine by default; the
    oracle stays selectable via REPRO_ENGINE -- and both agree."""
    stats_default, _ = run_pair(PAIRS[0], "xmem", None)
    monkeypatch.setenv("REPRO_ENGINE", "object")
    stats_object, _ = run_pair(PAIRS[0], "xmem", None)
    assert stats_default == stats_object


# -- MultiProcessController.refresh edge cases --------------------------


def make_lib(name: str, atom_bytes: int, reuse: int) -> XMemLib:
    """One library with a single mapped+active atom of ``atom_bytes``."""
    lib = XMemLib()
    atom = lib.create_atom(
        name, pattern=PatternType.REGULAR, stride_bytes=64, reuse=reuse)
    lib.atom_map(atom, 0, atom_bytes)
    lib.atom_activate(atom)
    return lib


def test_refresh_budget_exhaustion():
    """Once the top-reuse atom spends the budget, ``refresh`` breaks
    out and every lower-reuse atom stays unpinned."""
    llc = Cache("llc", 32 * 1024, 8, 64, policy="lru")
    ctl = MultiProcessController(llc)          # 75% budget = 24 KB
    budget = int(llc.size_bytes * ctl.pin_fraction)
    ctl.register(0, make_lib("hot", budget, reuse=255))
    offset = 1 << 40
    ctl.register(offset, make_lib("cold", budget, reuse=100))
    summary = ctl.pin_summary()
    assert summary["pinned_bytes"] == budget
    assert summary["apps_pinned"] == 1
    assert ctl.pin_predicate(0)
    assert not ctl.pin_predicate(offset)


def test_refresh_skips_sub_chunk_takes():
    """A take clamped below one AAM chunk is skipped outright, even
    with budget left: pinning fragments below the mapping granularity
    would be unaccountable."""
    lib = make_lib("tiny", 4096, reuse=255)
    chunk = lib.process.amu.aam.config.chunk_bytes
    llc = Cache("llc", 64 * chunk, 8, 64, policy="lru")
    ctl = MultiProcessController(
        llc, pin_fraction=(chunk // 2) / llc.size_bytes)
    ctl.register(0, lib)
    summary = ctl.pin_summary()
    assert summary["pinned_bytes"] == 0
    assert summary["spans"] == 0
    assert not ctl.pin_predicate(0)
