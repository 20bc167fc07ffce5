"""Workloads, input sizes and time shares of the benchmark.

Every run drives all three paths -- the Fig. 4 sweep (in process), the
two 4-tenant co-run mixes (in process) and the served batch (over
HTTP) -- so that every end-to-end metric is measured on every
workload.  The workload names the *focus* path, which runs at full
size and gets the largest share of the run's time (``SHARES``); the
other in-process path runs as a small companion.  The served batch has
one size and runs in every workload, so a workload of its own would
only measure it a third time.  Each in-process path is timed in short
units (one sweep point on one tier, one co-run mix), and a run keeps
handing the next unit to the path furthest behind its share until
``--seconds`` have passed and every unit has ``rounds`` samples (and
at least ``rounds`` served lifecycles ran), so every metric's samples
spread over the whole run.  ``full`` is what the benchmark reports,
``small`` is the self-test's smallest sizes.
"""

from __future__ import annotations

#: Workload name -> focus path.
WORKLOADS = {
    "fig4-gemm": "fig4",
    "corun-mix4": "corun",
}

#: Share of a run's time per path.  A served lifecycle (about 5 s)
#: yields one set-up and one batch sample, so three of them fill the
#: serve share of a 55 s run.
SHARES = {"serve": 0.3, "focus": 0.5, "companion": 0.2}

HIT_KERNELS = ("gemm", "trmm", "2mm", "3mm")
MISS_TENANTS = ("mcf", "lbm", "libquantum", "omnetpp")

PROFILES = {
    "full": {
        # gemm, baseline+xmem, default exact tier then vector.  At
        # n=56 on the 1/64-scaled machine the 16 KB LLC sits between
        # tile 28 and tile 56: the baseline falls off the cliff at 56
        # (612386 cycles against 286156 at tile 28) and XMem pinning
        # recovers most of it (422560).
        "fig4": {
            "focus": {"n": 56, "tiles": [7, 14, 28, 56], "scale": 64},
            "companion": {"n": 32, "tiles": [4, 8, 16, 32], "scale": 32},
        },
        # Hit mix: the corun_packed.txt protocol (baseline cores,
        # full-size config, ~97% L1 hits).  Miss mix: suite tenants
        # whose L1 miss rate exceeds 93%, baseline and xmem modes.
        "hit": {
            "focus": {"n": 96, "tile": 48, "scale": 1},
            "companion": {"n": 48, "tile": 24, "scale": 1},
        },
        "miss": {
            "focus": {"accesses": 8000, "footprint_div": 256, "scale": 32},
            "companion": {"accesses": 2000, "footprint_div": 256,
                          "scale": 32},
        },
        # Eight distinct gemm points per batch (4 tiles x 2 scales).
        "serve": {"n": 32, "tiles": [4, 8, 16, 32], "scales": [16, 32],
                  "warm": {"n": 8, "tiles": [2, 4, 8, 1]},
                  "gets": 250},
        "rounds": 3,
    },
    "small": {
        "fig4": {
            "focus": {"n": 16, "tiles": [4, 16], "scale": 32},
            "companion": {"n": 8, "tiles": [4, 8], "scale": 32},
        },
        "hit": {
            "focus": {"n": 16, "tile": 8, "scale": 1},
            "companion": {"n": 8, "tile": 4, "scale": 1},
        },
        "miss": {
            "focus": {"accesses": 300, "footprint_div": 256, "scale": 32},
            "companion": {"accesses": 150, "footprint_div": 256,
                          "scale": 32},
        },
        "serve": {"n": 8, "tiles": [4, 8], "scales": [16, 32],
                  "warm": {"n": 4, "tiles": [1, 2]},
                  "gets": 20},
        "rounds": 2,
    },
}


def role(workload: str, path: str) -> str:
    """``focus`` for the workload's own path, else ``companion``."""
    return "focus" if WORKLOADS[workload] == path else "companion"


def serve_points(profile: dict):
    """The (n, tile, scale) points of one served batch."""
    s = profile["serve"]
    return [(s["n"], t, sc) for t in s["tiles"] for sc in s["scales"]]


def golden_key_sim(kernel: str, n: int, tile: int, scale: int) -> str:
    return f"sim:{kernel}:n{n}:t{tile}:s{scale}"


def golden_key_hit(size: dict) -> str:
    return (f"hit:{'+'.join(HIT_KERNELS)}:n{size['n']}:t{size['tile']}"
            f":s{size['scale']}")


def golden_key_miss(size: dict) -> str:
    return (f"miss:{'+'.join(MISS_TENANTS)}:a{size['accesses']}"
            f":d{size['footprint_div']}:s{size['scale']}")
