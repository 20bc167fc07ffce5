"""The in-process paths, each run in a child process of its own.

``probe`` is one set-up sample: a fresh interpreter imports the
simulator and generates every trace the run replays, cold, into an
empty trace-cache directory.  ``fig4`` times the gemm Fig. 4 sweep on
the default exact tier and on ``vector``; ``corun`` times the hit mix
(``CorunSystem.run``) and the miss mix (``run_corun_point``).  Every
repetition checks the simulated statistics against the goldens.

With tracing on, each path first runs once through the public entry
point (``sweep`` / ``run_corun_point``), untraced, as the reference and
the untraced total, then once more rebuilt from the public pieces
(trace cache, system builders, replay, ``SystemHandle.run``,
``stats_snapshot``, ``point_document``) with a span around every call.
The rebuilt path's statistics must equal the reference's exactly
before its times are reported.

The parent passes a scrubbed environment: no ``REPRO_*`` variable but
``REPRO_TRACE_CACHE`` (the run's private cache) and ``REPRO_JOBS=1``.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

import config
from goldens import Checker, digest
from spans import Tracer, self_time_by_name, self_times


def _peak_rss_kb() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _clear_memo() -> None:
    """Start a repetition like a fresh process: empty in-process trace
    memo, warm on-disk trace cache."""
    from repro.sim import runner
    with runner._MEMO_LOCK:
        runner._MEMO.clear()


@contextmanager
def _engine(tier: Optional[str]):
    """Scope ``REPRO_ENGINE`` for one sweep (None = the default tier)."""
    if tier is not None:
        os.environ["REPRO_ENGINE"] = tier
    try:
        yield
    finally:
        os.environ.pop("REPRO_ENGINE", None)


# ---------------------------------------------------------------------------
# Set-up probe
# ---------------------------------------------------------------------------

def probe(profile: dict, workload: str, cache_dir: Path) -> None:
    """Import the simulator and generate every trace cold."""
    from repro.sim.runner import (
        TraceCache, record_suite_trace, record_trace, suite_trace_key,
        trace_key)
    import repro.cpu.vector_engine  # noqa: F401 - the vector tier's import
    cache = TraceCache(cache_dir)
    fig = profile["fig4"][config.role(workload, "fig4")]
    for tile in fig["tiles"]:
        cache.store(trace_key("gemm", fig["n"], tile, True),
                    record_trace("gemm", fig["n"], tile))
    hit = profile["hit"][config.role(workload, "corun")]
    for kernel in config.HIT_KERNELS:
        cache.store(trace_key(kernel, hit["n"], hit["tile"], True),
                    record_trace(kernel, hit["n"], hit["tile"]))
    miss = profile["miss"][config.role(workload, "corun")]
    for name in config.MISS_TENANTS:
        cache.store(
            suite_trace_key(name, miss["accesses"], miss["footprint_div"]),
            record_suite_trace(name, miss["accesses"],
                               miss["footprint_div"]))


# ---------------------------------------------------------------------------
# Fig. 4 sweep
# ---------------------------------------------------------------------------

#: (tier, metric): None is the default exact tier.
TIERS = ((None, "sweep_s"), ("vector", "vector_sweep_s"))
#: The traced run times both exact tiers by name, whichever is default.
TRACED_TIERS = ("packed", "vector")


def _fig4_points(size: dict, rng: random.Random):
    from repro.sim.runner import SimPoint
    points = [SimPoint("gemm", size["n"], t, scale=size["scale"])
              for t in size["tiles"]]
    rng.shuffle(points)
    return points


def _check_point(checker: Checker, result, label: str) -> None:
    p = result.point
    key = config.golden_key_sim(p.kernel, p.n, p.tile, p.scale)
    for system, snap in result.stats.items():
        checker.sim(key, system, result.cycles(system), snap, label)


class Units:
    """The units of one path, handed out one at a time: every pass
    runs each unit once, in a seeded order of its own."""

    def __init__(self, units: list, rng: random.Random) -> None:
        self.units = units
        self.rng = rng
        self.pending: list = []

    def __len__(self) -> int:
        return len(self.units)

    def next(self):
        if not self.pending:
            self.pending = list(self.units)
            self.rng.shuffle(self.pending)
        return self.pending.pop()


class Fig4Path:
    """The gemm Fig. 4 sweep, default exact tier then ``vector``, timed
    one point at a time: a sweep's time is the sum over its points of
    each point's median (see ``run.py``)."""

    def __init__(self, profile: dict, role: str, rng: random.Random,
                 out_dir: Path, checker: Checker) -> None:
        self.size = profile["fig4"][role]
        self.rng = rng
        self.out_dir = out_dir
        self.checker = checker
        self.sim: Dict[str, Dict[str, float]] = {}
        self.units = Units([(tier, name, tile) for tier, name in TIERS
                            for tile in self.size["tiles"]], rng)
        #: (tier, tile) -> the stats digests of its last run.
        self.digests: Dict[tuple, dict] = {}

    def rep(self) -> dict:
        """One point of the sweep on one tier, through ``sweep`` and
        ``write_point_documents``, checked against the goldens, with
        the default tier's stats required to equal vector's."""
        from repro.sim.runner import SimPoint, sweep, write_point_documents
        tier, name, tile = self.units.next()
        point = SimPoint("gemm", self.size["n"], tile,
                         scale=self.size["scale"])
        _clear_memo()
        with _engine(tier):
            t0 = time.perf_counter()
            results = sweep([point], jobs=1, collect_stats=True)
            write_point_documents(self.out_dir / name, results)
            elapsed = time.perf_counter() - t0
        for r in results:
            _check_point(self.checker, r,
                         f"fig4 {tier or 'default'} tile {tile}")
            self.digests[(tier, tile)] = {
                s: digest(v) for s, v in r.stats.items()}
            self.sim[f"gemm n{r.point.n} t{tile}"] = {
                s: r.cycles(s) for s in r.runs}
        pair = [self.digests.get((t, tile)) for t, _ in TIERS]
        if None not in pair:
            self.checker.equal(pair[0], pair[1], f"fig4 tile {tile}: "
                               f"default tier vs vector stats")
        return {"metric": name, "part": f"t{tile}", "seconds": elapsed}

    def traced(self) -> dict:
        return _fig4_traced(self.size, self.rng, self.out_dir, self.checker)


def _fig4_traced(size: dict, rng: random.Random, out_dir: Path,
                 checker: Checker) -> dict:
    """Per-layer breakdown of one sweep per tier (see module doc)."""
    from repro.sim.runner import (
        SYSTEM_BUILDERS, PointResult, TraceCache, point_document,
        record_trace, sweep, trace_key, write_point_documents)

    tracer = Tracer()
    # Cold generation into a scratch cache: the set-up layer.
    scratch = TraceCache(out_dir / "cold-traces")
    with tracer.span("fig4.cold"):
        for tile in size["tiles"]:
            with tracer.span("runner.trace_gen"):
                rec = record_trace("gemm", size["n"], tile)
            with tracer.span("runner.trace_store"):
                scratch.store(trace_key("gemm", size["n"], tile, True), rec)
    cache = TraceCache()
    untraced_total = traced_total = 0.0
    events = {tier: 0 for tier in TRACED_TIERS}
    doc_bytes = trace_bytes = 0
    snapshots = []
    for tier_name in TRACED_TIERS:
        points = _fig4_points(size, rng)
        _clear_memo()
        with _engine(tier_name):
            t0 = time.perf_counter()
            reference = sweep(points, jobs=1, collect_stats=True)
            write_point_documents(out_dir / f"reference-{tier_name}",
                                  reference)
            untraced_total += time.perf_counter() - t0
        by_tile = {r.point.tile: r for r in reference}
        for r in reference:
            _check_point(checker, r, f"fig4 {tier_name} reference")
        rebuilt = {}
        with tracer.span(f"fig4.{tier_name}.sweep") as root_span:
            for point in points:
                ref = by_tile[point.tile]
                with tracer.span("fig4.point", tile=point.tile):
                    key = trace_key(point.kernel, point.n, point.tile, True)
                    with tracer.span("runner.trace_load"):
                        recording = cache.load(key)
                    if recording is None:
                        continue
                    packed = recording.packed
                    trace_bytes += (len(packed.vaddr) * packed.vaddr.itemsize
                                    + len(packed.meta) * packed.meta.itemsize)
                    snaps = {}
                    cfg = point.config()
                    for system in point.systems:
                        with tracer.span("system.build"):
                            handle = SYSTEM_BUILDERS[system](cfg)
                        with tracer.span("runner.setup_replay"):
                            trace = recording.replay(handle.xmemlib)
                        with tracer.span(f"cpu.{tier_name}.run"):
                            handle.run(trace, engine_tier=tier_name)
                        events[tier_name] += len(trace)
                        with tracer.span("stats.snapshot"):
                            snaps[system] = handle.stats_snapshot()
                    rebuilt[point.tile] = snaps
                    with tracer.span("runner.document"):
                        doc = point_document(PointResult(
                            point=point, runs=ref.runs, stats=snaps,
                            manifest=ref.manifest))
                        text = json.dumps(doc, sort_keys=True, indent=2)
                    doc_bytes += len(text)
                    with tracer.span("runner.write"):
                        (out_dir / f"traced-{tier_name}-{point.tile}.json"
                         ).write_text(text + "\n", encoding="utf-8")
        for point in points:
            snaps = rebuilt.get(point.tile)
            if snaps is None:
                checker.fail(f"fig4 tile {point.tile}: trace cache miss "
                             f"in the traced run")
                continue
            checker.equal(
                {s: digest(v) for s, v in snaps.items()},
                {s: digest(v) for s, v in by_tile[point.tile].stats.items()},
                f"fig4 {tier_name} tile {point.tile}: rebuilt path vs "
                f"run_point stats")
            if tier_name == "packed":
                snapshots.append(snaps)
        traced_total += root_span["end"] - root_span["start"]
    by_name = self_time_by_name(tracer.spans)
    layers = {
        "runner.trace_gen_s": by_name.get("runner.trace_gen", 0.0),
        "runner.trace_load_s": by_name.get("runner.trace_load", 0.0),
        "runner.trace_bytes": trace_bytes,
        "runner.setup_replay_s": by_name.get("runner.setup_replay", 0.0),
        "runner.document_s": by_name.get("runner.document", 0.0),
        "runner.document_bytes": doc_bytes,
        "runner.write_s": by_name.get("runner.write", 0.0),
        "system.build_s": by_name.get("system.build", 0.0),
        "cpu.packed.run_s": by_name.get("cpu.packed.run", 0.0),
        "cpu.vector.run_s": by_name.get("cpu.vector.run", 0.0),
        "cpu.events": events["packed"],
        "cpu.packed.ns_per_event":
            1e9 * by_name.get("cpu.packed.run", 0.0)
            / max(events["packed"], 1),
        "cpu.vector.ns_per_event":
            1e9 * by_name.get("cpu.vector.run", 0.0)
            / max(events["vector"], 1),
        "stats.snapshot_s": by_name.get("stats.snapshot", 0.0),
        **_mem_layers(snapshots),
    }
    return {"layers": layers, "spans": tracer.spans,
            "untraced_s": untraced_total, "traced_s": traced_total,
            "roots": _root_accounting(tracer.spans)}


def _mem_layers(snapshots: List[dict]) -> Dict[str, float]:
    """Memory/core counters summed over every (point, system); the
    prefetch and ALB ratios over the XMem machines only."""
    tot: Counter = Counter()
    for snaps in snapshots:
        for system, snap in snaps.items():
            l1, l3 = snap["cache.l1"], snap["cache.l3"]
            tot.update(l1_hits=l1["hits"], l1_acc=l1["accesses"],
                       l1_miss=l1["misses"], llc_miss=l3["misses"],
                       llc_acc=l3["accesses"])
            if system == "xmem":
                tot.update(pf_hits=l3["prefetch_hits"],
                           pf_fills=l3["prefetch_fills"],
                           alb_hits=snap["amu.alb"]["hits"],
                           alb_lookups=snap["amu.alb"]["lookups"])
    return {
        "mem.l1.hit_rate": tot["l1_hits"] / max(tot["l1_acc"], 1),
        "mem.l1.misses": tot["l1_miss"],
        "mem.llc.miss_rate": tot["llc_miss"] / max(tot["llc_acc"], 1),
        "mem.prefetch.xmem_useful_ratio":
            tot["pf_hits"] / max(tot["pf_fills"], 1),
        "core.amu.alb_hit_rate":
            tot["alb_hits"] / max(tot["alb_lookups"], 1),
    }


#: Spans that group layer calls without being a layer themselves.
STRUCTURAL = ("fig4.point",)


def _root_accounting(spans: List[dict]) -> Dict[str, float]:
    """Traced total (root spans) and the part of it no layer span
    covers (the self time of root and grouping spans)."""
    st = self_times(spans)
    roots = [s for s in spans if s["parent"] is None]
    return {"total_s": sum(s["end"] - s["start"] for s in roots),
            "unattributed_s": sum(
                st[s["id"]] for s in spans
                if s["parent"] is None or s["name"] in STRUCTURAL)}


# ---------------------------------------------------------------------------
# Co-run mixes
# ---------------------------------------------------------------------------

def _hit_recordings(size: dict):
    from repro.sim.runner import get_recording
    return [get_recording(k, size["n"], size["tile"])
            for k in config.HIT_KERNELS]


def _miss_point(size: dict):
    from repro.sim.runner import CorunPoint
    return CorunPoint(tuple(config.MISS_TENANTS),
                      accesses=size["accesses"], scale=size["scale"],
                      footprint_div=size["footprint_div"],
                      modes=("baseline", "xmem"))


def _run_hit(size: dict, recordings, tracer: Optional[Tracer] = None):
    """One hit-mix run; returns (seconds, per-core cycles, snapshot)."""
    from repro.sim.config import scaled_config
    from repro.sim.corun import CorunSystem
    traces = [r.packed.without_xmem() for r in recordings]
    if tracer is None:
        t0 = time.perf_counter()
        system = CorunSystem(scaled_config(size["scale"]), len(traces))
        stats = system.run(traces)
        elapsed = time.perf_counter() - t0
        return elapsed, [c.cycles for c in stats], system.stats_snapshot()
    with tracer.span("corun.hit.mix") as root:
        with tracer.span("corun.build"):
            system = CorunSystem(scaled_config(size["scale"]), len(traces))
        with tracer.span("corun.hit.run"):
            stats = system.run(traces)
        with tracer.span("stats.snapshot"):
            snap = system.stats_snapshot()
    return root["end"] - root["start"], [c.cycles for c in stats], snap


class CorunPath:
    """The hit mix and the miss mix, one mix per unit."""

    def __init__(self, profile: dict, role: str, rng: random.Random,
                 out_dir: Path, checker: Checker) -> None:
        self.hit = profile["hit"][role]
        self.miss = profile["miss"][role]
        self.rng = rng
        self.checker = checker
        self.sim: Dict[str, float] = {}
        self.recordings = _hit_recordings(self.hit)
        self.units = Units(["hit", "miss"], rng)

    def rep(self) -> dict:
        from repro.sim.runner import run_corun_point
        if self.units.next() == "hit":
            elapsed, cycles, snap = _run_hit(self.hit, self.recordings)
            self.checker.mix(config.golden_key_hit(self.hit), None,
                             cycles, snap, "hit mix")
            self.sim["hit mix cycles[gemm]"] = cycles[0]
            return {"metric": "hit_mix_s", "part": "", "seconds": elapsed}
        _clear_memo()
        t0 = time.perf_counter()
        res = run_corun_point(_miss_point(self.miss), collect=True)
        elapsed = time.perf_counter() - t0
        for mode, cores in res.runs.items():
            self.checker.mix(config.golden_key_miss(self.miss), mode,
                             [c.cycles for c in cores], res.stats[mode],
                             f"miss mix {mode}")
            self.sim[f"miss mix cycles[mcf] {mode}"] = cores[0].cycles
        return {"metric": "miss_mix_s", "part": "", "seconds": elapsed}

    def traced(self) -> dict:
        return _corun_traced(self.hit, self.miss, self.checker)


def _corun_traced(hit: dict, miss: dict, checker: Checker) -> dict:
    from repro.core.xmemlib import XMemLib
    from repro.sim.corun import CorunSystem
    from repro.sim.runner import (
        TraceCache, apply_setup, run_corun_point, suite_trace_key)

    tracer = Tracer()
    recordings = _hit_recordings(hit)
    untraced, _, _ = _run_hit(hit, recordings)
    traced, cycles, snap = _run_hit(hit, recordings, tracer)
    checker.mix(config.golden_key_hit(hit), None, cycles, snap,
                "traced hit mix")
    snapshots = {"hit": snap}

    point = _miss_point(miss)
    _clear_memo()
    t0 = time.perf_counter()
    reference = run_corun_point(point, collect=True)
    untraced += time.perf_counter() - t0
    cache = TraceCache()
    cycles = {}
    with tracer.span("corun.miss.mix") as root:
        recs = []
        for name in point.tenants:
            with tracer.span("runner.trace_load"):
                recs.append(cache.load(suite_trace_key(
                    name, point.accesses, point.footprint_div)))
        if None in recs:
            checker.fail("miss mix: trace cache miss in the traced run")
            return {}
        with tracer.span("runner.setup_check"):
            for rec in recs:
                apply_setup(XMemLib(), rec.setup)
        for mode in point.modes:
            xmem = tuple(point.xmem_tenants) if mode == "xmem" else ()
            with tracer.span("corun.build"):
                system = CorunSystem(point.config(), len(recs),
                                     xmem_cores=xmem)
            with tracer.span("runner.setup_replay"):
                traces = [rec.replay(core.xmemlib)
                          if core.xmemlib is not None
                          else rec.packed.without_xmem()
                          for core, rec in zip(system.cores, recs)]
            with tracer.span(f"corun.miss.{mode}_run"):
                cycles[mode] = [c.cycles for c in system.run(traces)]
            with tracer.span("stats.snapshot"):
                snapshots[mode] = system.stats_snapshot()
    traced += root["end"] - root["start"]
    for mode in point.modes:
        checker.equal(digest(snapshots[mode]),
                      digest(reference.stats[mode]),
                      f"miss mix {mode}: rebuilt path vs run_corun_point "
                      f"stats")
        checker.mix(config.golden_key_miss(miss), mode, cycles[mode],
                    snapshots[mode], f"traced miss mix {mode}")
    by_name = self_time_by_name(tracer.spans)
    l1_misses = sum(group["misses"] for snap in snapshots.values()
                    for path, group in snap.items()
                    if path.startswith("core") and path.endswith(".l1"))
    run_s = (by_name.get("corun.hit.run", 0.0)
             + by_name.get("corun.miss.baseline_run", 0.0)
             + by_name.get("corun.miss.xmem_run", 0.0))
    miss_snaps = [snapshots[m] for m in point.modes]
    row_hits = sum(s["dram.banks"]["row_hits"] for s in miss_snaps)
    row_accesses = sum(s["dram.banks"]["accesses"] for s in miss_snaps)
    layers = {
        "corun.hit.run_s": by_name.get("corun.hit.run", 0.0),
        "corun.miss.baseline_run_s":
            by_name.get("corun.miss.baseline_run", 0.0),
        "corun.miss.xmem_run_s": by_name.get("corun.miss.xmem_run", 0.0),
        "corun.l1_misses": l1_misses,
        "corun.us_per_l1_miss": 1e6 * run_s / max(l1_misses, 1),
        "dram.reads": sum(s["dram"]["reads"] for s in miss_snaps),
        "dram.writes": sum(s["dram"]["writes"] for s in miss_snaps),
        "dram.row_hit_rate": row_hits / max(row_accesses, 1),
    }
    return {"layers": layers, "spans": tracer.spans,
            "untraced_s": untraced, "traced_s": traced,
            "roots": _root_accounting(tracer.spans)}


# ---------------------------------------------------------------------------
# Child entry point
# ---------------------------------------------------------------------------

def main(args) -> int:
    """``probe`` runs once and exits.  ``fig4``/``corun`` serve one
    line-based command at a time on stdin -- ``rep`` (the next unit),
    ``traced`` or ``quit`` -- and answer each with one JSON line, so
    the parent can interleave the paths' units across the whole run."""
    profile = config.PROFILES[args.profile]
    if args.child == "probe":
        probe(profile, args.workload, Path(args.cache))
        return 0
    from repro.cpu.tiers import resolve_engine_tier
    checker = Checker(json.loads(Path(args.goldens).read_text()))
    rng = random.Random(f"{args.seed}:{args.child}")
    role = config.role(args.workload, args.child)
    work = Path(args.out)
    work.mkdir(parents=True, exist_ok=True)
    cls = Fig4Path if args.child == "fig4" else CorunPath
    path = cls(profile, role, rng, work, checker)
    reply({"ready": True, "default_tier": resolve_engine_tier(),
           "units": len(path.units)})
    for line in sys.stdin:
        command = line.strip()
        if command == "rep":
            reply(path.rep())
        elif command == "traced":
            reply(path.traced())
        elif command == "quit":
            summary = checker.report()
            summary.update(sim=path.sim, peak_rss_kb=_peak_rss_kb())
            reply(summary)
            return 0
        else:
            reply({"error": f"unknown command {command!r}"})
    return 1


def reply(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":  # pragma: no cover - run through run.py
    sys.exit("run this module through perfbench/run.py")
