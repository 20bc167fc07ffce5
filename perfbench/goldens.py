"""Golden simulated statistics and the checks made against them.

The simulator is deterministic, so every (point, system) has exactly
one right answer: its cycle count and the SHA-256 digest of its full
stats snapshot (canonical sorted JSON).  ``goldens.json`` holds them
for every input the benchmark runs, recorded by ``run.py
--record-goldens`` through the public entry points (``run_point``,
``run_corun_point``, ``CorunSystem.run``).  Served documents are
checked against the same ``run_point`` goldens.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

import config


def digest(snapshot: dict) -> str:
    """Canonical digest of one stats snapshot."""
    text = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Counts checked operations and records every mismatch."""

    def __init__(self, goldens: Dict[str, dict]) -> None:
        self.goldens = goldens
        self.attempted = 0
        self.errors: List[str] = []

    def _expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.errors.append(message)
        return ok

    def fail(self, message: str) -> None:
        self._expect(False, message)

    def equal(self, a, b, label: str) -> bool:
        return self._expect(a == b, f"{label}: {a!r} != {b!r}")

    def _against(self, entry: Optional[dict], cycles, snapshot: dict,
                 label: str) -> bool:
        if entry is None:
            return self._expect(False, f"{label}: no golden recorded")
        got = {"cycles": cycles, "digest": digest(snapshot)}
        return self._expect(
            got == entry, f"{label}: got {got}, golden {entry}")

    def sim(self, key: str, system: str, cycles: float, snapshot: dict,
            label: str) -> bool:
        """One (point, system) run against its golden."""
        return self._against(self.goldens.get(key, {}).get(system),
                             cycles, snapshot, f"{label} [{key} {system}]")

    def mix(self, key: str, mode: Optional[str], cycles: List[float],
            snapshot: dict, label: str) -> bool:
        """One co-run mix (per mode) against its golden."""
        entry = self.goldens.get(key)
        if mode is not None and entry is not None:
            entry = entry.get(mode)
        return self._against(entry, cycles, snapshot, f"{label} [{key}]")

    def report(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.errors),
                "errors": self.errors}


def record(profiles: Dict[str, dict]) -> Dict[str, dict]:
    """Compute the goldens of every input of every profile."""
    from repro.sim.config import scaled_config
    from repro.sim.corun import CorunSystem
    from repro.sim.runner import (
        CorunPoint, SimPoint, get_recording, run_corun_point, run_point)

    out: Dict[str, dict] = {}
    sims = set()
    for profile in profiles.values():
        for size in profile["fig4"].values():
            sims.update((size["n"], t, size["scale"])
                        for t in size["tiles"])
        sims.update(config.serve_points(profile))
        for size in profile["hit"].values():
            recs = [get_recording(k, size["n"], size["tile"])
                    for k in config.HIT_KERNELS]
            system = CorunSystem(scaled_config(size["scale"]), len(recs))
            stats = system.run([r.packed.without_xmem() for r in recs])
            out[config.golden_key_hit(size)] = {
                "cycles": [c.cycles for c in stats],
                "digest": digest(system.stats_snapshot())}
        for size in profile["miss"].values():
            res = run_corun_point(CorunPoint(
                tuple(config.MISS_TENANTS), accesses=size["accesses"],
                scale=size["scale"], footprint_div=size["footprint_div"],
                modes=("baseline", "xmem")), collect=True)
            out[config.golden_key_miss(size)] = {
                mode: {"cycles": [c.cycles for c in cores],
                       "digest": digest(res.stats[mode])}
                for mode, cores in res.runs.items()}
    for n, tile, scale in sorted(sims):
        res = run_point(SimPoint("gemm", n, tile, scale=scale),
                        collect=True)
        out[config.golden_key_sim("gemm", n, tile, scale)] = {
            system: {"cycles": res.cycles(system),
                     "digest": digest(res.stats[system])}
            for system in res.runs}
    return dict(sorted(out.items()))
