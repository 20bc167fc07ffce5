"""The window-limited trace-driven timing engine.

This is the reproduction's stand-in for the paper's zsim OOO core
(Table 3: 4-wide issue, 128-entry ROB, Westmere-like).  The model:

* non-memory instructions retire at ``issue_width`` per cycle;
* cache hits cost their lookup latency, but first-level hits are
  pipelined (1 issue slot) -- an OOO core hides them;
* misses to memory are issued into a bounded window of outstanding
  misses (ROB/MSHR-limited).  While the window has room, the core runs
  ahead and misses overlap (memory-level parallelism); when it fills,
  the core stalls until the oldest miss completes -- exactly the
  first-order behaviour that makes thrashing (Use Case 1) and bank
  conflicts (Use Case 2) expensive.

The engine owns no policy: it translates virtual addresses through an
optional MMU hook and forwards physical accesses to a memory system
(see :class:`repro.sim.system.MemorySystem`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Optional

from repro.core.errors import ConfigurationError
from repro.cpu.trace import PackedTrace, Trace
from repro.mem.mshr import MSHRFile
from repro.testing import checks as _checks


@dataclass
class EngineStats:
    """What one run measured."""

    cycles: float = 0.0
    instructions: int = 0
    mem_accesses: int = 0
    xmem_instructions: int = 0
    misses_to_memory: int = 0
    stall_cycles: float = 0.0

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def xmem_instruction_overhead(self) -> float:
        """XMem ISA instructions / total instructions (Section 4.4)."""
        if not self.instructions:
            return 0.0
        return self.xmem_instructions / self.instructions


class TraceEngine:
    """Interprets a trace against a memory system.

    ``memory`` must provide ``access(paddr, is_write, now) ->
    (completes_at, served_by_memory)``; ``translate`` maps VA->PA
    (identity when absent); ``xmemlib`` receives :class:`XMemOp` events
    (skipped when absent -- the baseline machine).
    """

    def __init__(
        self,
        memory,
        xmemlib=None,
        translate: Optional[Callable[[int], int]] = None,
        issue_width: int = 4,
        window: int = 32,
    ) -> None:
        if issue_width <= 0:
            raise ConfigurationError(f"issue_width must be > 0: {issue_width}")
        self.memory = memory
        self.xmemlib = xmemlib
        self.translate = translate
        self.issue_width = issue_width
        self.mshr = MSHRFile(window)
        #: Statistics of the most recent :meth:`run` (zeroed until one
        #: completes) -- what the engine contributes to the stats tree.
        self.last_stats = EngineStats()
        #: ``REPRO_CHECK=1``: validate end-of-run statistics.  Read
        #: once at construction so the per-run cost of a disabled check
        #: is a single attribute test.
        self._check = _checks.enabled()

    def stat_groups(self):
        """StatGroup protocol: the engine and its MSHR file."""
        yield "", self.last_stats
        yield "mshr", self.mshr.stats

    #: Accesses at most this many cycles long are considered hidden by
    #: the pipeline (first-level cache hits).
    PIPELINED_LATENCY = 4.0

    def run(self, trace: Trace) -> EngineStats:
        """Execute ``trace`` to completion; returns the statistics.

        An object event stream is packed first
        (:meth:`PackedTrace.from_events`), so every input runs on the
        one interpreter loop, :meth:`run_packed`.
        """
        if type(trace) is not PackedTrace:
            trace = PackedTrace.from_events(trace)
        return self.run_packed(trace)

    def run_packed(self, trace: PackedTrace) -> EngineStats:
        """Execute a packed trace: the engine's interpreter loop.

        The dense stream is consumed as (vaddr, flag-word) integer
        pairs straight from the columns -- no event objects, no
        ``type()`` dispatch -- and the sparse XMemOp side-table
        partitions it into segments, each drained with one ``islice``
        pass.  Every loop-invariant lookup is hoisted into a local and
        counters accumulate in plain ints/floats, written back once.
        :class:`repro.testing.oracles.ReferenceEngine` restates the
        same arithmetic expression for expression.
        """
        now = 0.0
        issue = self.issue_width
        slot = 1.0 / issue
        pipelined = self.PIPELINED_LATENCY
        translate = self.translate
        memory_access = self.memory.access
        mshr = self.mshr
        reserve = mshr.reserve
        xmemlib = self.xmemlib
        instructions = 0
        mem_accesses = 0
        xmem_instructions = 0
        misses_to_memory = 0
        stall_cycles = 0.0
        # Segment the dense stream at the side-table positions; one
        # shared zip iterator walks the columns exactly once.
        pairs = zip(trace.vaddr, trace.meta)
        segments = []
        done = 0
        for idx, op in trace.xmem:
            segments.append((idx - done, op))
            done = idx
        segments.append((len(trace.vaddr) - done, None))
        for seg_len, op in segments:
            for vaddr, m in islice(pairs, seg_len):
                if m & 2:                       # Work block
                    count = m >> 2
                    now += count / issue
                    instructions += count
                    continue
                work = m >> 2                   # MemAccess
                if work:
                    now += work / issue
                    instructions += work
                instructions += 1
                mem_accesses += 1
                completes_at, to_memory = memory_access(
                    translate(vaddr) if translate else vaddr,
                    m & 1, now,
                )
                if to_memory:
                    misses_to_memory += 1
                if completes_at - now > pipelined:
                    start = reserve(now, completes_at)
                    if start > now:
                        stall_cycles += start - now
                        now = start
                now += slot
            if op is not None:
                instructions += 1
                xmem_instructions += 1
                now += slot
                if xmemlib is not None:
                    getattr(xmemlib, op.method)(*op.args)
        tail = mshr.latest_completion()
        if tail is not None and tail > now:
            now = tail
        mshr.flush()
        self.last_stats = EngineStats(
            cycles=now,
            instructions=instructions,
            mem_accesses=mem_accesses,
            xmem_instructions=xmem_instructions,
            misses_to_memory=misses_to_memory,
            stall_cycles=stall_cycles,
        )
        if self._check:
            _checks.check_engine_run(self, self.last_stats)
        return self.last_stats
