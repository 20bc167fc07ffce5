"""Engine-tier selection: one model, two exact evaluation strategies.

The simulator has a single memory-system model and two ways to drive a
trace through it, bit-identical on every statistic:

``packed``
    :meth:`TraceEngine.run_packed` over :class:`PackedTrace` columns
    (the zero-object interpreter).  The default.
``vector``
    :func:`repro.cpu.vector_engine.run_vector`: chunked columnar
    probing with run-length fast-forwarding of pure-hit stretches.
    Falls back to ``packed`` when the machine shape is outside its
    verified domain.

Both are pinned against :class:`repro.testing.oracles.ReferenceEngine`
(fuzz lanes ``packed`` and ``vector``).  The active tier comes from the
``REPRO_ENGINE`` environment variable (so it propagates to sweep worker
processes) or an explicit argument; ``packed`` is the default.
:func:`run_tier` is the single dispatch point used by
:meth:`SystemHandle.run`.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.core.errors import ConfigurationError
from repro.cpu.engine import EngineStats, TraceEngine
from repro.cpu.trace import PackedTrace

#: Recognized tiers; their results are interchangeable.
ENGINE_TIERS = ("packed", "vector")

_ENV_VAR = "REPRO_ENGINE"


def resolve_engine_tier(explicit: Optional[str] = None) -> str:
    """The active tier: ``explicit`` if given, else ``$REPRO_ENGINE``,
    else ``packed``.  Unknown names raise (typos must not silently run
    a different interpreter).

    The value is stripped before matching, like every other ``REPRO_*``
    knob (``REPRO_JOBS`` strips before parsing): ``REPRO_ENGINE="packed "``
    from a shell export or an HTTP request must select ``packed``, not
    raise.
    """
    tier = (explicit or os.environ.get(_ENV_VAR) or "packed").strip()
    if not tier:
        tier = "packed"
    if tier not in ENGINE_TIERS:
        raise ConfigurationError(
            f"unknown engine tier {tier!r}; choices: {ENGINE_TIERS}"
        )
    return tier


def run_tier(engine: TraceEngine, trace,
             tier: Optional[str] = None) -> EngineStats:
    """Execute ``trace`` on ``engine`` with the selected tier.

    Object traces (iterables of events) are accepted by both tiers:
    they are packed first, so tier selection never changes what a
    caller may pass.
    """
    if resolve_engine_tier(tier) == "packed":
        return engine.run(trace)
    if not isinstance(trace, PackedTrace):
        trace = PackedTrace.from_events(trace)
    from repro.cpu.vector_engine import run_vector
    return run_vector(engine, trace)
