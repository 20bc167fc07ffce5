"""Differential fuzzing: optimized models vs. reference models.

Nine lanes, each pairing a hot-path implementation with its oracle
(:mod:`repro.testing.oracles`) over seeded random input
(:mod:`repro.testing.generators`):

* ``packed``  -- the same trace through two identically built full
  systems (baseline or XMem, with atom churn):
  :class:`~repro.testing.oracles.ReferenceEngine` drives one machine's
  memory system, XMem library and translation over the object stream,
  ``run_packed`` drives the other over the :class:`PackedTrace`.
  Engine statistics and the full stats snapshot (its ``engine`` and
  ``engine.mshr`` groups taken from the reference's counters) must be
  bit-identical.
* ``corun``   -- random multi-tenant mixes (2-3 cores, per-core
  generated streams, atom churn on the XMem tenant) through two
  identically built :class:`~repro.sim.corun.CorunSystem` machines:
  the legacy per-event interleaver vs. the heap-scheduled packed
  engine, per-core CoreStats and full snapshot bit-identical.  Items
  are ``(core, event)`` pairs, so shrinking drops events from any
  tenant.
* ``vector``  -- the same machines, tri-way: the reference against the
  ``packed`` and ``vector`` engine tiers (:mod:`repro.cpu.tiers`).
  All three statistics and snapshots must be bit-identical, pinning
  the vector batch interpreter (and its scalar-fallback boundary
  handling) against the oracle.
* ``cache``   -- random access/fill/unpin op strings through the
  columnar :class:`~repro.mem.cache.Cache` (LRU) and the dict-of-lists
  :class:`~repro.testing.oracles.ReferenceCache`: per-op hits,
  writeback addresses, eviction/refusal counts, pinned totals, and the
  final resident set must match.
* ``engine``  -- MemAccess/Work streams against a seeded
  :class:`~repro.testing.oracles.ToyMemory`: the packed loop and the
  naive :class:`~repro.testing.oracles.ReferenceEngine` must return
  bit-identical :class:`EngineStats` (windows small enough to
  saturate the MSHR file).
* ``dram``    -- timed FIFO request streams through
  :class:`~repro.dram.system.DramSystem` and the naive
  :class:`~repro.testing.oracles.ReferenceDram`: per-request row
  outcome, latency, and completion time, plus the final counters.
* ``sched``   -- request lists through
  :class:`~repro.dram.scheduler.FRFCFSScheduler`: every request
  serviced exactly once, completions self-consistent, service never
  before arrival (starvation bounds are the scheduler's own
  ``REPRO_CHECK`` hook).
* ``serve``   -- random request sequences (including concurrent
  duplicate POSTs and deliberate junk) against a real in-process
  ``repro serve`` HTTP server (:mod:`repro.serve`): every response is
  JSON with the documented status, concurrent identical scenario
  requests share one build (build-once accounting), completed runs
  carry ``servepoint`` documents, and the final ``/debug/state``
  shows zero internal errors, zero failed points, a drained queue,
  and a memo within its bound.  Items are self-contained request
  descriptors, so shrinking drops whole requests.
* ``scenario`` -- random declarative workload specs
  (:mod:`repro.scenarios`) against the spec pipeline's own contract:
  canonicalization is idempotent and hash-stable through a JSON
  round-trip, compiling the same canonical spec twice yields
  bit-identical setup logs and packed columns, the recording survives
  its versioned payload round-trip, and the packed trace round-trips
  through the object event stream.  Items are raw phase dicts over a
  fixed base spec, so shrinking drops phases; sublists that are no
  longer valid specs are vacuously passing and ddmin converges on
  the smallest *valid* diverging spec.

A failing case is shrunk (:mod:`repro.testing.shrink`) against the
same lane predicate and written to the corpus directory as a JSON
reproducer; :func:`replay` re-runs a reproducer file, which is how a
checked-in corpus entry becomes a regression test.  Everything is
deterministic in (seed, case index).
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.cpu.trace import (
    MemAccess,
    PackedTrace,
    TraceEvent,
    Work,
    XMemOp,
    strip_xmem,
)
from repro.testing import generators
from repro.testing.generators import GenConfig, setup_atoms
from repro.testing.oracles import (
    ReferenceCache,
    ReferenceDram,
    ReferenceEngine,
    ToyMemory,
)
from repro.testing.shrink import DEFAULT_BUDGET, shrink


# ---------------------------------------------------------------------------
# Event / item (de)serialization -- reproducers are plain JSON
# ---------------------------------------------------------------------------

def event_to_json(ev: TraceEvent) -> list:
    """One trace event as a JSON-ready list."""
    kind = type(ev)
    if kind is MemAccess:
        return ["M", ev.vaddr, int(ev.is_write), ev.work]
    if kind is Work:
        return ["W", ev.count]
    if kind is XMemOp:
        return ["X", ev.method, *ev.args]
    raise TypeError(f"not a trace event: {ev!r}")


def event_from_json(data: list) -> TraceEvent:
    """Inverse of :func:`event_to_json`."""
    tag = data[0]
    if tag == "M":
        return MemAccess(data[1], bool(data[2]), data[3])
    if tag == "W":
        return Work(data[1])
    if tag == "X":
        return XMemOp(data[1], *data[2:])
    raise ValueError(f"unknown event tag {tag!r}")


# ---------------------------------------------------------------------------
# Lanes
# ---------------------------------------------------------------------------

class Lane:
    """One differential lane: a generator, an oracle, a shrinker input.

    ``make(rng, length)`` draws (params, items); ``fail(params,
    items)`` re-runs the comparison and returns an error string (None
    when the models agree).  ``items`` must be a list the shrinker can
    take sublists of, and round-trip through ``to_json``/``from_json``.
    """

    name = "abstract"

    def make(self, rng: random.Random, length: int) -> Tuple[dict, list]:
        raise NotImplementedError

    def fail(self, params: dict, items: list) -> Optional[str]:
        raise NotImplementedError

    def to_json(self, items: list) -> list:
        return [list(item) for item in items]

    def from_json(self, data: list) -> list:
        return [tuple(item) for item in data]


class PackedLane(Lane):
    """ReferenceEngine vs. ``run_packed`` through identical full
    systems."""

    name = "packed"

    def make(self, rng: random.Random, length: int) -> Tuple[dict, list]:
        system = rng.choice(("baseline", "xmem", "xmem"))
        atoms = rng.randint(2, 6) if system == "xmem" else 0
        cfg = GenConfig(
            seed=rng.randrange(1 << 32),
            length=length,
            regions=rng.randint(2, 5),
            write_frac=rng.uniform(0.0, 0.6),
            atoms=atoms,
            churn=rng.uniform(0.1, 0.5) if atoms else 0.0,
        )
        events, _ = generators.generate_trace(cfg)
        params = {
            "system": system,
            "atoms": atoms,
            "window": rng.choice((2, 4, 8, 32)),
            "scale": rng.choice((32, 64)),
        }
        return params, events

    def _build(self, params: dict):
        import dataclasses as dc

        from repro.sim import build_baseline, build_xmem, scaled_config
        from repro.sim.config import CpuConfig

        cfg = scaled_config(params["scale"])
        cfg = dc.replace(cfg, cpu=CpuConfig(window=params["window"]))
        if params["system"] == "xmem":
            handle = build_xmem(cfg)
            setup_atoms(handle.xmemlib, GenConfig(atoms=params["atoms"]))
        else:
            handle = build_baseline(cfg)
        return handle

    def _reference(self, params: dict, items: list):
        """(EngineStats, snapshot) of :class:`ReferenceEngine` driving
        a fresh machine's memory system, XMem library and translation.

        The machine's own engine never runs, so the snapshot's
        ``engine``/``engine.mshr`` groups are filled from the
        reference's counters before it is taken.
        """
        from repro.mem.mshr import MSHRStats

        handle = self._build(params)
        engine = handle.engine
        ref = ReferenceEngine(engine.memory, engine.xmemlib,
                              engine.translate,
                              issue_width=engine.issue_width,
                              window=engine.mshr.entries)
        # SystemHandle.run drops XMem ops on machines without XMem.
        trace = items if engine.xmemlib is not None else strip_xmem(items)
        stats = ref.run(list(trace))
        engine.last_stats = stats
        engine.mshr.stats = MSHRStats(reservations=ref.reservations,
                                      full_stalls=ref.full_stalls)
        return stats, handle.stats_snapshot()

    def _check(self, params: dict, items: list, tiers) -> Optional[str]:
        """The reference against each of ``tiers``: stats, then the
        full snapshot."""
        want, want_snap = self._reference(params, items)
        for tier in tiers:
            handle = self._build(params)
            got = handle.run(PackedTrace.from_events(items),
                             engine_tier=tier)
            if got != want:
                return (f"{tier} tier stats diverged from the reference: "
                        f"reference={want} {tier}={got}")
            snap = handle.stats_snapshot()
            if snap != want_snap:
                keys = _first_snapshot_delta(want_snap, snap)
                return (f"{tier} tier snapshot diverged from the "
                        f"reference at {keys}")
        return None

    def fail(self, params: dict, items: list) -> Optional[str]:
        return self._check(params, items, ("packed",))

    def to_json(self, items: list) -> list:
        return [event_to_json(ev) for ev in items]

    def from_json(self, data: list) -> list:
        return [event_from_json(item) for item in data]


class VectorLane(PackedLane):
    """Reference vs. packed vs. vector engine tiers, tri-way.

    Same generator and system shapes as the ``packed`` lane (so the
    vector tier sees XMem side-tables, atom churn, and small windows);
    either tier diverging from the reference -- stats or full snapshot
    -- is a failure.  The vector tier legitimately falls back to the
    packed loop on shapes outside its domain; the comparison then
    still holds trivially, so the lane spends its cases where the fast
    path actually runs.
    """

    name = "vector"

    def fail(self, params: dict, items: list) -> Optional[str]:
        return self._check(params, items, ("packed", "vector"))


class CorunLane(Lane):
    """Legacy per-event co-run interleaver vs. the packed engine.

    The packed engine dispatches through ``run`` (so ineligible
    machine shapes legitimately fall back to the legacy loop and the
    comparison holds trivially, as in the vector lane); the oracle
    side always takes ``run_events``.  Core 0 optionally carries XMem
    semantics with atom churn, exercising yield-at-XMemOp scheduling
    and the shared pin controller under interleaving.
    """

    name = "corun"

    def make(self, rng: random.Random, length: int) -> Tuple[dict, list]:
        cores = rng.randint(2, 3)
        mode = rng.choice(("baseline", "xmem", "xmem"))
        atoms = rng.randint(2, 5) if mode == "xmem" else 0
        items: list = []
        for core in range(cores):
            cfg = GenConfig(
                seed=rng.randrange(1 << 32),
                length=max(1, length // cores),
                regions=rng.randint(2, 4),
                write_frac=rng.uniform(0.0, 0.6),
                atoms=atoms if core == 0 else 0,
                churn=rng.uniform(0.1, 0.4) if atoms and core == 0
                else 0.0,
            )
            events, _ = generators.generate_trace(cfg)
            items.extend((core, ev) for ev in events)
        params = {
            "cores": cores,
            "xmem": [0] if mode == "xmem" else [],
            "atoms": atoms,
            "scale": rng.choice((16, 32)),
        }
        return params, items

    def _build(self, params: dict):
        from repro.sim.config import scaled_config
        from repro.sim.corun import CorunSystem

        system = CorunSystem(scaled_config(params["scale"]),
                             params["cores"],
                             xmem_cores=tuple(params["xmem"]))
        for idx in params["xmem"]:
            setup_atoms(system.cores[idx].xmemlib,
                        GenConfig(atoms=params["atoms"]))
        return system

    def fail(self, params: dict, items: list) -> Optional[str]:
        streams: List[list] = [[] for _ in range(params["cores"])]
        for core, ev in items:
            streams[core].append(ev)
        obj_sys = self._build(params)
        stats_obj = obj_sys.run_events([list(s) for s in streams])
        packed_sys = self._build(params)
        stats_packed = packed_sys.run(
            [PackedTrace.from_events(s) for s in streams])
        if stats_obj != stats_packed:
            return (f"core stats diverged: object={stats_obj} "
                    f"packed={stats_packed}")
        snap_obj = obj_sys.stats_snapshot()
        snap_packed = packed_sys.stats_snapshot()
        if snap_obj != snap_packed:
            keys = _first_snapshot_delta(snap_obj, snap_packed)
            return f"stats snapshot diverged at {keys}"
        return None

    def to_json(self, items: list) -> list:
        return [[core, event_to_json(ev)] for core, ev in items]

    def from_json(self, data: list) -> list:
        return [(core, event_from_json(ev)) for core, ev in data]


class CacheLane(Lane):
    """Columnar LRU cache vs. the dict-of-lists reference."""

    name = "cache"

    def make(self, rng: random.Random, length: int) -> Tuple[dict, list]:
        sets = rng.choice((2, 4, 8))
        ways = rng.choice((1, 2, 4, 8))
        quota = rng.choice((0.0, 0.5, 0.75, 1.0))
        line = 64
        cfg = GenConfig(
            seed=rng.randrange(1 << 32),
            length=length,
            regions=1,
            # Tight region: ~4x the cache so sets see real contention.
            region_bytes=max(line * 8, sets * ways * line * 4),
            line_bytes=line,
        )
        items: list = []
        for addr in generators.generate_lines(cfg):
            r = rng.random()
            if r < 0.7:
                items.append(("acc", addr, int(rng.random() < 0.4),
                              int(rng.random() < 0.3)))
            elif r < 0.95:
                items.append(("fill", addr, int(rng.random() < 0.4),
                              int(rng.random() < 0.4)))
            else:
                items.append(("unpin",))
        params = {"sets": sets, "ways": ways, "line": line,
                  "quota": quota}
        return params, items

    def fail(self, params: dict, items: list) -> Optional[str]:
        from repro.mem.cache import Cache

        sets, ways, line = params["sets"], params["ways"], params["line"]
        cache = Cache("fuzz", sets * ways * line, ways, line,
                      policy="lru", pin_quota=params["quota"])
        ref = ReferenceCache(sets, ways, line, pin_quota=params["quota"])
        for step, item in enumerate(items):
            kind = item[0]
            if kind == "acc":
                _, addr, write, pin = item
                got = cache.access(addr, bool(write)).hit
                want = ref.access(addr, bool(write))
                if got != want:
                    return (f"step {step}: hit/miss diverged at "
                            f"{addr:#x} (cache={got} ref={want})")
                if not got:
                    got_wb = cache.fill(addr, dirty=bool(write),
                                        pinned=bool(pin))
                    want_wb = ref.fill(addr, dirty=bool(write),
                                       pinned=bool(pin))
                    if got_wb != want_wb:
                        return (f"step {step}: writeback diverged at "
                                f"{addr:#x} (cache={got_wb} "
                                f"ref={want_wb})")
            elif kind == "fill":
                _, addr, dirty, pin = item
                got_wb = cache.fill(addr, dirty=bool(dirty),
                                    pinned=bool(pin))
                want_wb = ref.fill(addr, dirty=bool(dirty),
                                   pinned=bool(pin))
                if got_wb != want_wb:
                    return (f"step {step}: direct-fill writeback "
                            f"diverged at {addr:#x} (cache={got_wb} "
                            f"ref={want_wb})")
            elif kind == "unpin":
                got_n = cache.unpin_all()
                want_n = ref.unpin_all()
                if got_n != want_n:
                    return (f"step {step}: unpin_all diverged "
                            f"(cache={got_n} ref={want_n})")
        seen = {item[1] for item in items if item[0] != "unpin"}
        got_resident = {a for a in seen if cache.probe(a)}
        want_resident = ref.resident_set()
        if got_resident != want_resident:
            return (f"resident sets diverged: only-cache="
                    f"{sorted(got_resident - want_resident)} only-ref="
                    f"{sorted(want_resident - got_resident)}")
        if cache.pinned_lines != ref.pinned_lines():
            return (f"pinned totals diverged: cache="
                    f"{cache.pinned_lines} ref={ref.pinned_lines()}")
        if (cache.stats.evictions, cache.stats.writebacks,
                cache.stats.pin_refusals) != (
                ref.evictions, ref.writebacks, ref.pin_refusals):
            return (f"counters diverged: cache=("
                    f"{cache.stats.evictions}, {cache.stats.writebacks},"
                    f" {cache.stats.pin_refusals}) ref=({ref.evictions},"
                    f" {ref.writebacks}, {ref.pin_refusals})")
        return None


class EngineLane(Lane):
    """Packed loop vs. naive reference engine over a toy memory."""

    name = "engine"

    def make(self, rng: random.Random, length: int) -> Tuple[dict, list]:
        cfg = GenConfig(
            seed=rng.randrange(1 << 32),
            length=length,
            work_frac=rng.uniform(0.0, 0.25),
            write_frac=rng.uniform(0.0, 0.6),
        )
        events, _ = generators.generate_trace(cfg)
        params = {
            "window": rng.choice((1, 2, 4, 8, 16)),
            "issue_width": rng.choice((1, 2, 4)),
            "mem_seed": rng.randrange(1 << 32),
            "miss_rate": round(rng.uniform(0.1, 0.9), 3),
        }
        return params, events

    def fail(self, params: dict, items: list) -> Optional[str]:
        from repro.cpu.engine import TraceEngine

        def toy() -> ToyMemory:
            return ToyMemory(params["mem_seed"],
                             miss_rate=params["miss_rate"])

        opt_packed = TraceEngine(toy(), issue_width=params["issue_width"],
                                 window=params["window"])
        got_packed = opt_packed.run(PackedTrace.from_events(items))
        ref = ReferenceEngine(toy(), issue_width=params["issue_width"],
                              window=params["window"])
        want = ref.run(list(items))
        if got_packed != want:
            return f"packed loop diverged: engine={got_packed} ref={want}"
        return None

    def to_json(self, items: list) -> list:
        return [event_to_json(ev) for ev in items]

    def from_json(self, data: list) -> list:
        return [event_from_json(item) for item in data]


class DramLane(Lane):
    """FIFO-issued DramSystem vs. the naive open-row reference."""

    name = "dram"

    MAPPINGS = ("scheme1", "scheme2", "scheme3", "scheme5",
                "permutation", "xmem_interleaved")

    def make(self, rng: random.Random, length: int) -> Tuple[dict, list]:
        cfg = GenConfig(
            seed=rng.randrange(1 << 32),
            length=length,
            regions=rng.randint(1, 4),
            region_bytes=1 << rng.randint(14, 18),
            write_frac=rng.uniform(0.0, 0.5),
        )
        params = {"mapping": rng.choice(self.MAPPINGS)}
        return params, generators.generate_requests(cfg)

    def fail(self, params: dict, items: list) -> Optional[str]:
        from repro.dram.system import DramSystem

        dram = DramSystem(mapping=params["mapping"])
        ref = ReferenceDram(mapping=params["mapping"])
        for step, (paddr, arrival, is_write) in enumerate(items):
            res = dram.access(paddr, arrival, is_write=bool(is_write))
            outcome, latency, done = ref.access(paddr, arrival,
                                                bool(is_write))
            if (res.outcome.value, res.latency, res.completes_at) != (
                    outcome, latency, done):
                return (f"step {step}: {paddr:#x}@{arrival} diverged: "
                        f"dram=({res.outcome.value}, {res.latency}, "
                        f"{res.completes_at}) ref=({outcome}, {latency},"
                        f" {done})")
        s = dram.stats
        got = (s.reads, s.writes, s.row_hits, s.row_closed,
               s.row_conflicts, s.read_latency_sum, s.write_latency_sum)
        want = (ref.reads, ref.writes, ref.row_hits, ref.row_closed,
                ref.row_conflicts, ref.read_latency_sum,
                ref.write_latency_sum)
        if got != want:
            return f"final counters diverged: dram={got} ref={want}"
        return None


class SchedLane(Lane):
    """FR-FCFS service invariants over random request lists."""

    name = "sched"

    def make(self, rng: random.Random, length: int) -> Tuple[dict, list]:
        cfg = GenConfig(
            seed=rng.randrange(1 << 32),
            length=min(length, 200),     # service() is O(n^2)
            regions=rng.randint(1, 3),
            region_bytes=1 << rng.randint(13, 16),
        )
        params = {"mapping": rng.choice(DramLane.MAPPINGS)}
        return params, generators.generate_requests(cfg)

    def fail(self, params: dict, items: list) -> Optional[str]:
        from repro.dram.scheduler import FRFCFSScheduler, Request
        from repro.dram.system import DramSystem

        requests = [Request(paddr, arrival, bool(is_write), req_id=i)
                    for i, (paddr, arrival, is_write) in enumerate(items)]
        sched = FRFCFSScheduler(DramSystem(mapping=params["mapping"]))
        completions = sched.service(list(requests))
        if len(completions) != len(requests):
            return (f"{len(requests)} requests but "
                    f"{len(completions)} completions")
        served = sorted(c.request.req_id for c in completions)
        if served != list(range(len(requests))):
            return f"service multiset wrong: {served}"
        if sched.stats.serviced != len(requests):
            return (f"serviced counter {sched.stats.serviced} != "
                    f"{len(requests)}")
        if sched.stats.reordered > sched.stats.serviced:
            return "reordered exceeds serviced"
        for c in completions:
            if c.result.completes_at < c.request.arrival:
                return (f"request {c.request.req_id} completed at "
                        f"{c.result.completes_at} before arrival "
                        f"{c.request.arrival}")
            if c.latency < 0:
                return f"negative latency for request {c.request.req_id}"
        if sched.dram.stats.accesses != len(requests):
            return (f"dram serviced {sched.dram.stats.accesses} of "
                    f"{len(requests)} requests")
        return None


class ServeLane(Lane):
    """The ``repro serve`` HTTP surface under random and concurrent load.

    Each case boots a real in-process server (ephemeral port, disk
    trace cache off so cases are hermetic) and drives it with a random
    sequence of self-contained request descriptors: health/state
    probes, kernel and suite scenario builds, full run lifecycles, and
    deliberately malformed requests.  ``dup`` descriptors issue the
    same POST twice *concurrently* (barrier-synchronized threads), so
    the build-once and point-dedup paths are exercised under real
    races.  Cases drawn with the process executor also inject worker
    faults through the ``REPRO_SERVE_TEST_*`` hooks: ``crash`` ops run
    a scenario whose worker child exits mid-job (the point must fail,
    the server must stay healthy) and ``cancel`` ops DELETE a run
    whose point is stalled inside a worker (the child must die and the
    slot free).  The oracle is the server's own contract: documented
    status codes, JSON-only bodies, build-once accounting in
    ``/debug/state``, and a clean final state (no internal errors,
    failed points exactly matching the injected crashes, drained
    queue, bounded memo, healthy pool).
    """

    name = "serve"

    KERNEL_NAMES = ("mvt", "gemver", "jacobi2d")
    SUITE_NAMES = ("mcf", "libquantum", "milc")
    #: Every op runs real simulations; keep sequences short.
    MAX_OPS = 8
    #: Reserved fault-injection shapes -- ``n=10`` never appears in
    #: randomly drawn scenarios/runs, so the CRASH/SLOW env markers
    #: (one scenario hash each) cannot collide with normal ops.
    CRASH_SCENARIO = ("jacobi2d", 10, 4)
    SLOW_SCENARIO = ("gemver", 10, 4)

    def make(self, rng: random.Random, length: int) -> Tuple[dict, list]:
        executor = rng.choice(("thread", "process"))
        ops: list = []
        for _ in range(max(1, min(length // 50, self.MAX_OPS))):
            r = rng.random()
            dup = int(rng.random() < 0.5)
            if executor == "process" and r < 0.08:
                ops.append(("crash",))
            elif executor == "process" and r < 0.16:
                ops.append(("cancel",))
            elif r < 0.24:
                ops.append(("health",))
            elif r < 0.32:
                ops.append(("state",))
            elif r < 0.48:
                ops.append(("scenario", "kernel",
                            rng.choice(self.KERNEL_NAMES),
                            rng.choice((8, 12, 16)),
                            rng.choice((4, 8)), dup))
            elif r < 0.60:
                ops.append(("scenario", "suite",
                            rng.choice(self.SUITE_NAMES),
                            rng.choice((300, 500, 800)),
                            rng.choice((16, 64)), dup))
            elif r < 0.86:
                ops.append(("run", rng.choice(self.KERNEL_NAMES),
                            rng.choice((8, 12)), 4,
                            rng.choice((16, 32)), dup))
            else:
                ops.append(("bad", rng.randrange(6)))
        params = {"workers": rng.choice((1, 2)), "queue_limit": 32,
                  "executor": executor}
        return params, ops

    def fail(self, params: dict, items: list) -> Optional[str]:
        import http.client
        import os
        import threading
        import time

        from repro.serve.app import serve
        from repro.serve.pool import CRASH_ENV, SLOW_ENV

        executor = params.get("executor", "thread")
        crash_hash = _kernel_scenario_hash(*self.CRASH_SCENARIO)
        slow_hash = _kernel_scenario_hash(*self.SLOW_SCENARIO)
        # The markers must be in the environment before any worker
        # child spawns (children inherit it); scope them to this case.
        env_backup = {CRASH_ENV: os.environ.get(CRASH_ENV),
                      SLOW_ENV: os.environ.get(SLOW_ENV)}
        if executor == "process":
            os.environ[CRASH_ENV] = crash_hash
            os.environ[SLOW_ENV] = f"{slow_hash}:20"

        server = serve(port=0, workers=params["workers"],
                       queue_limit=params["queue_limit"], cache_dir="off",
                       executor=executor)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        host, port = server.server_address[:2]

        def call(method: str, path: str, body: object = None,
                 raw: Optional[bytes] = None):
            payload = raw
            if payload is None and body is not None:
                payload = json.dumps(body).encode()
            conn = http.client.HTTPConnection(host, port, timeout=60)
            try:
                conn.request(method, path, body=payload,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                data = resp.read()
                status = resp.status
            finally:
                conn.close()
            try:
                return status, json.loads(data)
            except ValueError:
                return status, None

        def concurrent_pair(method: str, path: str, body: object):
            results: list = [None, None]
            barrier = threading.Barrier(2)

            def shoot(slot: int) -> None:
                barrier.wait()
                results[slot] = call(method, path, body)

            threads = [threading.Thread(target=shoot, args=(i,))
                       for i in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return results

        def post_scenario(body: object, dup: int):
            if dup:
                return concurrent_pair("POST", "/v1/scenarios", body)
            return [call("POST", "/v1/scenarios", body)]

        def wait_terminal(run_id: str):
            """The run's terminal document (with the ``running`` count
            drained -- a killed in-flight point lands asynchronously),
            or an error string."""
            deadline = time.monotonic() + 120
            doc = None
            while time.monotonic() < deadline:
                status, doc = call("GET", f"/v1/runs/{run_id}")
                if status != 200 or doc is None:
                    return f"poll {run_id}: HTTP {status}, doc {doc!r}"
                if doc["status"] in ("done", "failed", "cancelled") \
                        and doc["points"]["running"] == 0:
                    return doc
                time.sleep(0.02)
            return (f"{run_id} still "
                    f"{doc['status'] if doc else 'unpolled'} after "
                    f"120s")

        def wait_run(run_id: str) -> Optional[str]:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                status, doc = call("GET", f"/v1/runs/{run_id}")
                if status != 200 or doc is None:
                    return f"poll {run_id}: HTTP {status}, doc {doc!r}"
                if doc["status"] in ("done", "failed", "cancelled"):
                    if doc["status"] != "done":
                        return (f"{run_id} ended {doc['status']}: "
                                f"{doc.get('errors')}")
                    for name, d in (doc.get("documents") or {}).items():
                        kind = (d or {}).get("manifest", {}).get("kind")
                        if kind != "servepoint":
                            return (f"{run_id} doc {name}: kind "
                                    f"{kind!r} != 'servepoint'")
                        if "stats" not in d:
                            return f"{run_id} doc {name}: no stats"
                    return None
                time.sleep(0.02)
            return f"{run_id} still {doc['status']} after 120s"

        # Per-hash count of created=True responses: build-once says
        # the whole session sees exactly one per distinct scenario.
        created: Dict[str, int] = {}
        #: Injected worker crashes; the only tolerated failed points.
        expected_crashes = 0

        def check_scenario(results, want_hash_of=None) -> Optional[str]:
            hashes = set()
            for status, doc in results:
                if status not in (200, 201) or doc is None:
                    return (f"scenario POST: HTTP {status}, "
                            f"doc {doc!r}")
                hashes.add(doc["scenario"])
                if doc["created"]:
                    created[doc["scenario"]] = (
                        created.get(doc["scenario"], 0) + 1)
                else:
                    created.setdefault(doc["scenario"], 0)
            if len(hashes) != 1:
                return f"duplicate POSTs returned hashes {hashes}"
            return None

        bad_cases = (
            ("POST", "/v1/scenarios", {"kernel": "nope"}, None, 400),
            ("POST", "/v1/scenarios", {"kernel": "mvt", "n": -3},
             None, 400),
            ("POST", "/v1/runs",
             {"scenario": "0" * 16, "configs": [{}]}, None, 404),
            ("POST", "/v1/runs", {}, None, 400),
            ("GET", "/v1/runs/run-999999", None, None, 404),
            ("POST", "/v1/scenarios", None, b"not json", 400),
        )

        try:
            for step, item in enumerate(items):
                op = item[0]
                where = f"step {step} [{op}]"
                if op == "health":
                    status, doc = call("GET", "/health")
                    if status != 200 or doc is None:
                        return (f"{where}: HTTP {status}, doc {doc!r}")
                    missing = {"status", "queue_depth", "workers",
                               "engine_tier"} - set(doc)
                    if missing:
                        return f"{where}: missing keys {sorted(missing)}"
                elif op == "state":
                    status, doc = call("GET", "/debug/state")
                    if status != 200 or doc is None:
                        return f"{where}: HTTP {status}, doc {doc!r}"
                    missing = {"serve", "queue", "workers", "pool",
                               "memo", "scenarios", "runs"} - set(doc)
                    if missing:
                        return f"{where}: missing keys {sorted(missing)}"
                elif op == "scenario":
                    _, kind, workload, n, tile, dup = item
                    if kind == "kernel":
                        body = {"kernel": workload, "n": n, "tile": tile}
                    else:
                        body = {"workload": workload, "accesses": n,
                                "footprint_div": tile}
                    error = check_scenario(post_scenario(body, dup))
                    if error:
                        return f"{where}: {error}"
                elif op == "run":
                    _, kernel, n, tile, scale, dup = item
                    error = check_scenario(post_scenario(
                        {"kernel": kernel, "n": n, "tile": tile}, 0))
                    if error:
                        return f"{where}: {error}"
                    run_body = {"scenario": _kernel_scenario_hash(
                        kernel, n, tile), "configs": [{"scale": scale}]}
                    if dup:
                        results = concurrent_pair("POST", "/v1/runs",
                                                  run_body)
                    else:
                        results = [call("POST", "/v1/runs", run_body)]
                    new_total = 0
                    for status, doc in results:
                        if status != 202 or doc is None:
                            return (f"{where}: HTTP {status}, "
                                    f"doc {doc!r}")
                        if doc["new"] + doc["deduped"] != doc["points"]:
                            return (f"{where}: new {doc['new']} + "
                                    f"deduped {doc['deduped']} != "
                                    f"points {doc['points']}")
                        new_total += doc["new"]
                    if new_total > results[0][1]["points"]:
                        # The point table must hand each (scenario,
                        # config) pair to exactly one submission.
                        return (f"{where}: {new_total} creations for "
                                f"{results[0][1]['points']} point(s)")
                    for _, doc in results:
                        error = wait_run(doc["run"])
                        if error:
                            return f"{where}: {error}"
                elif op == "bad":
                    method, path, body, raw, want = bad_cases[item[1]]
                    status, doc = call(method, path, body, raw=raw)
                    if status != want or doc is None:
                        return (f"{where}: {method} {path} gave HTTP "
                                f"{status} (doc {doc!r}), want {want}")
                    if "error" not in doc:
                        return f"{where}: {want} body without error key"
                elif op == "crash":
                    kernel, n, tile = self.CRASH_SCENARIO
                    error = check_scenario(post_scenario(
                        {"kernel": kernel, "n": n, "tile": tile}, 0))
                    if error:
                        return f"{where}: {error}"
                    status, doc = call("POST", "/v1/runs",
                                       {"scenario": crash_hash,
                                        "configs": [{}]})
                    if status != 202 or doc is None:
                        return f"{where}: HTTP {status}, doc {doc!r}"
                    expected_crashes += 1
                    final = wait_terminal(doc["run"])
                    if not isinstance(final, dict):
                        return f"{where}: {final}"
                    if final["status"] != "failed":
                        return (f"{where}: crash run ended "
                                f"{final['status']!r}, want 'failed'")
                    errors = " ".join((final.get("errors")
                                       or {}).values())
                    if "worker crashed" not in errors:
                        return (f"{where}: crash run errors "
                                f"{final.get('errors')!r} do not "
                                f"mention the worker crash")
                    status, doc = call("GET", "/health")
                    if status != 200:
                        return (f"{where}: health {status} after a "
                                f"worker crash -- not isolated")
                elif op == "cancel":
                    kernel, n, tile = self.SLOW_SCENARIO
                    error = check_scenario(post_scenario(
                        {"kernel": kernel, "n": n, "tile": tile}, 0))
                    if error:
                        return f"{where}: {error}"
                    status, doc = call("POST", "/v1/runs",
                                       {"scenario": slow_hash,
                                        "configs": [{}]})
                    if status != 202 or doc is None:
                        return f"{where}: HTTP {status}, doc {doc!r}"
                    run_id = doc["run"]
                    # Let the point reach a worker (it stalls there
                    # for 20 s) -- or cancel it while still queued;
                    # both must leave clean state.
                    deadline = time.monotonic() + 15
                    while time.monotonic() < deadline:
                        status, doc = call("GET", f"/v1/runs/{run_id}")
                        if status != 200 or doc is None:
                            return (f"{where}: poll HTTP {status}, "
                                    f"doc {doc!r}")
                        if doc["points"]["running"]:
                            break
                        time.sleep(0.02)
                    status, doc = call("DELETE", f"/v1/runs/{run_id}")
                    if status != 200:
                        return (f"{where}: DELETE gave {status}, "
                                f"doc {doc!r}")
                    final = wait_terminal(run_id)
                    if not isinstance(final, dict):
                        return f"{where}: {final}"
                    if final["status"] != "cancelled":
                        return (f"{where}: cancelled run ended "
                                f"{final['status']!r}")
                else:
                    return f"{where}: unknown op {op!r}"

            status, doc = call("GET", "/debug/state")
            if status != 200 or doc is None:
                return f"final state: HTTP {status}, doc {doc!r}"
            counters = doc["serve"]
            if counters["internal_errors"]:
                return (f"final state: {counters['internal_errors']} "
                        f"internal error(s)")
            if counters["points_failed"] != expected_crashes:
                return (f"final state: {counters['points_failed']} "
                        f"failed point(s), want exactly the "
                        f"{expected_crashes} injected crash(es)")
            if counters["workers_crashed"] != expected_crashes:
                return (f"final state: workers_crashed "
                        f"{counters['workers_crashed']} != "
                        f"{expected_crashes} injected crash(es)")
            over = [h for h, c in created.items() if c > 1]
            if over:
                return f"build-once violated for scenarios {over}"
            if created and counters["scenarios_built"] != len(created):
                return (f"scenarios_built {counters['scenarios_built']}"
                        f" != {len(created)} distinct scenario(s)")
            if doc["queue"]["depth"] != 0:
                return (f"final state: queue depth "
                        f"{doc['queue']['depth']} after all runs done")
            if doc["memo"]["entries"] > doc["memo"]["limit"]:
                return (f"final state: memo {doc['memo']['entries']} "
                        f"entries over limit {doc['memo']['limit']}")
            if doc["pool"]["executor"] != executor:
                return (f"final state: pool executor "
                        f"{doc['pool']['executor']!r} != {executor!r}")
            status, health = call("GET", "/health")
            if status != 200 or health is None \
                    or health["status"] != "ok":
                return (f"final health: HTTP {status}, "
                        f"doc {health!r} -- pool not healthy after "
                        f"the case")
            return None
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=10)
            for var, old in env_backup.items():
                if old is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = old


class ScenarioLane(Lane):
    """Workload-spec canonicalization and compile determinism.

    The generator draws a random but *valid* base spec (regions,
    atoms, global knobs) into ``params`` and a list of raw phase
    dicts as the shrinkable ``items``.  There is no second
    implementation to diff against; the oracle is the scenario
    pipeline's own contract, every clause of which the trace cache
    and the manifest hashes depend on.  A shrunk sublist can stop
    being a valid spec (e.g. zero phases); ``fail`` treats
    :class:`~repro.core.errors.ScenarioError` on a candidate as
    vacuously passing so ddmin only explores real specs.
    """

    name = "scenario"

    PATTERNS = ("regular", "irregular", "non_det")
    RW = ("read_only", "read_write", "write_heavy")
    MAX_PHASES = 8

    def make(self, rng: random.Random, length: int) -> Tuple[dict, list]:
        regions = [{"name": f"r{i}",
                    "bytes": rng.choice((4096, 8192, 16384))}
                   for i in range(rng.randint(1, 3))]
        atoms = []
        for i in range(rng.randint(0, 2)):
            pattern = rng.choice(self.PATTERNS)
            atom = {"name": f"a{i}",
                    "region": rng.choice(regions)["name"],
                    "pattern": pattern,
                    "rw": rng.choice(self.RW),
                    "intensity": rng.randrange(256),
                    "reuse": rng.randrange(256)}
            if pattern == "regular":
                atom["stride_bytes"] = rng.choice((64, 128, 256))
            atoms.append(atom)
        base = {"kind": "workload", "name": "fuzzspec",
                "seed": rng.randrange(1 << 16), "line_bytes": 64,
                "work_per_access": rng.choice((0, 1, 2)),
                "regions": regions, "atoms": atoms}
        items = [self._phase(rng, regions)
                 for _ in range(max(1, min(length // 50,
                                           self.MAX_PHASES)))]
        return {"base": base}, items

    def _phase(self, rng: random.Random, regions: list) -> dict:
        region = rng.choice(regions)
        lines = region["bytes"] // 64
        kind = rng.choice(("strided", "pointer_chase", "hot_set",
                           "mix"))
        accesses = rng.randint(50, 400)
        wf = round(rng.uniform(0.0, 0.8), 3)
        if kind == "strided":
            return {"kind": kind, "region": region["name"],
                    "accesses": accesses,
                    "stride_lines": rng.choice((1, 2, 3, 8, 16)),
                    "start_line": rng.randrange(lines),
                    "write_frac": wf}
        if kind == "pointer_chase":
            return {"kind": kind, "region": region["name"],
                    "accesses": accesses, "write_frac": wf}
        if kind == "hot_set":
            return {"kind": kind, "region": region["name"],
                    "accesses": accesses,
                    "hot_lines": rng.randint(1, min(64, lines)),
                    "hot_frac": round(rng.uniform(0.3, 0.95), 3),
                    "write_frac": wf}
        min_lines = min(r["bytes"] // 64 for r in regions)
        lo = rng.randint(1, 8)
        return {"kind": "mix",
                "regions": [r["name"] for r in regions],
                "accesses": accesses,
                "weights": [rng.randint(1, 4) for _ in range(3)],
                "run_len": [lo, lo + rng.randint(0, 24)],
                "hot_lines": rng.randint(1, min(64, min_lines)),
                "write_frac": wf}

    def fail(self, params: dict, items: list) -> Optional[str]:
        from repro.core.errors import ScenarioError
        from repro.scenarios import (
            canonical_json,
            canonicalize,
            compile_canonical,
            spec_hash,
        )
        from repro.sim.runner import TraceRecording

        if not items:
            return None
        body = dict(params["base"])
        body["phases"] = [dict(p) for p in items]
        try:
            canonical = canonicalize(body)
        except ScenarioError:
            return None    # shrunk candidate is not a valid spec
        again = canonicalize(json.loads(canonical_json(canonical)))
        if again != canonical:
            return "canonicalize is not idempotent over its own output"
        if spec_hash(again) != spec_hash(canonical):
            return (f"spec hash unstable through JSON round-trip: "
                    f"{spec_hash(canonical)} != {spec_hash(again)}")
        rec_a = compile_canonical(canonical)
        rec_b = compile_canonical(json.loads(canonical_json(canonical)))
        if rec_a.setup != rec_b.setup:
            return "setup logs diverged between identical compiles"
        if rec_a.packed != rec_b.packed:
            ca, cb = rec_a.packed.counts(), rec_b.packed.counts()
            return (f"packed traces diverged between identical "
                    f"compiles: counts {ca} vs {cb}")
        back = TraceRecording.from_payload(rec_a.to_payload())
        if back.packed != rec_a.packed or back.setup != rec_a.setup:
            return "recording diverged through payload round-trip"
        if PackedTrace.from_events(list(rec_a.packed.events())) \
                != rec_a.packed:
            return "packed trace diverged through object event stream"
        return None

    def to_json(self, items: list) -> list:
        return [dict(p) for p in items]

    def from_json(self, data: list) -> list:
        return [dict(p) for p in data]


def _kernel_scenario_hash(kernel: str, n: int, tile: int) -> str:
    """Client-side scenario hash, for addressing runs in the lane."""
    from repro.serve.scenarios import ScenarioSpec

    return ScenarioSpec(kind="kernel", workload=kernel, n=n,
                        tile=tile).scenario_hash


LANES: Dict[str, Lane] = {
    lane.name: lane
    for lane in (PackedLane(), VectorLane(), CorunLane(), CacheLane(),
                 EngineLane(), DramLane(), SchedLane(), ServeLane(),
                 ScenarioLane())
}


def _first_snapshot_delta(a: dict, b: dict, prefix: str = "") -> str:
    """The first differing key path between two nested snapshots."""
    for key in sorted(set(a) | set(b)):
        path = f"{prefix}{key}"
        va, vb = a.get(key), b.get(key)
        if isinstance(va, dict) and isinstance(vb, dict):
            if va != vb:
                return _first_snapshot_delta(va, vb, f"{path}.")
        elif va != vb:
            return f"{path}: {va!r} != {vb!r}"
    return "<no delta>"


# ---------------------------------------------------------------------------
# The fuzz loop
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class FuzzFailure:
    """One diverging case, after shrinking."""

    lane: str
    case_index: int
    params: dict
    items: list
    error: str
    original_size: int

    def reproducer(self) -> dict:
        """The JSON document written to the corpus."""
        return {
            "lane": self.lane,
            "case_index": self.case_index,
            "params": self.params,
            "items": LANES[self.lane].to_json(self.items),
            "error": self.error,
            "original_size": self.original_size,
        }


@dataclasses.dataclass
class FuzzReport:
    """Outcome of one :func:`run_fuzz` sweep."""

    cases: int
    per_lane: Dict[str, int]
    failures: List[FuzzFailure]
    corpus_paths: List[Path]

    @property
    def ok(self) -> bool:
        return not self.failures


def case_rng(seed: int, case_index: int) -> random.Random:
    """The per-case RNG: deterministic in (sweep seed, case index)."""
    return random.Random((seed << 24) ^ (case_index * 0x9E3779B1))


def run_case(lane: Lane, seed: int, case_index: int,
             length: int) -> Optional[FuzzFailure]:
    """Generate and run one case; None when the models agree."""
    rng = case_rng(seed, case_index)
    params, items = lane.make(rng, length)
    error = lane.fail(params, items)
    if error is None:
        return None
    return FuzzFailure(lane=lane.name, case_index=case_index,
                       params=params, items=items, error=error,
                       original_size=len(items))


def shrink_failure(failure: FuzzFailure,
                   budget: int = DEFAULT_BUDGET) -> FuzzFailure:
    """Shrink a failure's items against its own lane predicate."""
    lane = LANES[failure.lane]

    def still_fails(candidate: list) -> bool:
        return lane.fail(failure.params, candidate) is not None

    small = shrink(failure.items, still_fails, budget=budget)
    error = lane.fail(failure.params, small)
    return dataclasses.replace(failure, items=small,
                               error=error or failure.error)


def write_reproducer(corpus_dir: Path, failure: FuzzFailure) -> Path:
    """One JSON reproducer file per failure, name keyed by the case."""
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    path = corpus_dir / f"{failure.lane}-case{failure.case_index:05d}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(failure.reproducer(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def run_fuzz(cases: int, seed: int = 0, length: int = 400,
             lanes: Optional[List[str]] = None,
             corpus_dir: Optional[Path] = None,
             shrink_budget: int = DEFAULT_BUDGET,
             log: Optional[Callable[[str], None]] = None) -> FuzzReport:
    """The ``repro fuzz`` engine: N cases round-robin over the lanes.

    Failing cases are shrunk and (when ``corpus_dir`` is given) written
    as reproducers.  Fuzzing continues past failures so one sweep
    reports every diverging lane.
    """
    names = list(lanes) if lanes else list(LANES)
    unknown = [n for n in names if n not in LANES]
    if unknown:
        raise ValueError(
            f"unknown lanes {unknown}; choices: {sorted(LANES)}")
    per_lane: Dict[str, int] = {n: 0 for n in names}
    failures: List[FuzzFailure] = []
    paths: List[Path] = []
    for i in range(cases):
        lane = LANES[names[i % len(names)]]
        per_lane[lane.name] += 1
        failure = run_case(lane, seed, i, length)
        if failure is None:
            continue
        if log:
            log(f"case {i} [{lane.name}]: FAILED ({failure.error}); "
                f"shrinking {len(failure.items)} items...")
        failure = shrink_failure(failure, budget=shrink_budget)
        failures.append(failure)
        if log:
            log(f"case {i} [{lane.name}]: shrunk to "
                f"{len(failure.items)} items: {failure.error}")
        if corpus_dir is not None:
            paths.append(write_reproducer(corpus_dir, failure))
    return FuzzReport(cases=cases, per_lane=per_lane,
                      failures=failures, corpus_paths=paths)


# ---------------------------------------------------------------------------
# Reproducer replay
# ---------------------------------------------------------------------------

def load_reproducer(path: Path) -> Tuple[Lane, dict, list]:
    """(lane, params, items) from a corpus JSON document."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    lane = LANES[doc["lane"]]
    return lane, doc["params"], lane.from_json(doc["items"])


def replay(path: Path) -> Optional[str]:
    """Re-run one reproducer; the lane's error, or None when fixed."""
    lane, params, items = load_reproducer(path)
    return lane.fail(params, items)
