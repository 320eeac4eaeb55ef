"""Hierarchical span tracing over the process-wide recorder.

A *span* is a named, timed interval with an id and a parent id — the
tree-shaped counterpart of the flat counters that
:class:`~repro.obs.collectors.RunCollector` aggregates.  Instrumented code
opens spans with the :class:`span` context manager::

    with span("mcs.slot", slot=3):
        ...

which emits a :class:`~repro.obs.events.SpanStart` on entry and a
:class:`~repro.obs.events.SpanEnd` on exit through the installed recorder.
Nesting is tracked by a process-wide stack (mirroring the process-wide
recorder), so a covering-schedule run produces the tree::

    mcs.run
    └── mcs.slot                 (one per time-slot)
        ├── mcs.solve
        │   ├── solver.call      (the registry-wrapped one-shot solve)
        │   │   └── distsim.run  (distributed solver only)
        │   └── scale.verify     (array-first driver only)
        ├── mcs.inventory
        │   └── linklayer.session
        └── mcs.retire

Null-recorder discipline: with tracing off, entering a span costs one
object construction plus one ``enabled`` check — no id is allocated, no
clock is read, and nothing is emitted
(``tests/test_obs_recorder.py::TestNullRecorderOverhead`` booby-traps every
site).  Events that are not spans (fault events, collision tallies, …)
emitted while a span is open are attributed to the innermost open span by
stream order — the Chrome-trace exporter in :mod:`repro.obs.sink` turns
them into instant events attached to that span.

The span taxonomy below is part of the observability contract: every name
in :data:`SPAN_NAMES` is documented in ``docs/observability.md`` (enforced
by ``tests/test_obs_docs.py``).
"""

from __future__ import annotations

import time
from itertools import count
from typing import Dict, List, Optional

from repro.obs.events import SpanEnd, SpanStart, get_recorder

#: The span taxonomy: every span name the instrumented library emits, with
#: its site and meaning.  Diffed against the ``Span taxonomy`` table in
#: ``docs/observability.md`` by ``tests/test_obs_docs.py``.
SPAN_NAMES: Dict[str, str] = {
    "mcs.run": "one whole covering-schedule run of the slot loop "
    "(core.mcs.run_slot_loop, behind core.mcs.greedy_covering_schedule, "
    "the Colorwave, CSMA and multi-channel baselines and "
    "shard.scale.run_scale_schedule), fault-tolerant or not",
    "mcs.slot": "one time-slot of the MCS driver; fault events of the slot "
    "nest under it",
    "mcs.solve": "the slot's solve stage: fault bookkeeping, the one-shot "
    "solver call, well-covered extraction and the singleton fallback",
    "mcs.inventory": "the slot's link-layer inventory stage (only when a "
    "link layer is simulated)",
    "mcs.retire": "the slot's retirement stage: marking served tags read "
    "and updating the incremental schedule context",
    "solver.call": "one registry-wrapped one-shot solver invocation "
    "(core.oneshot.get_solver wrapper)",
    "linklayer.session": "one slot's link-layer arbitration "
    "(linklayer.session.run_inventory_session)",
    "distsim.run": "one run-to-quiescence of the synchronous "
    "message-passing engine (distsim.engine.SyncEngine.run)",
    "sweep.run": "one replicated experiment sweep over its parameter grid "
    "(experiments.sweep.run_sweep)",
    "shard.solve": "one spatial cell's slot solve in the sharded drivers "
    "(shard.runtime.ShardRuntime._solve_cell), timed wherever it runs: "
    "under mcs.solve in process, or relayed from a pool worker under "
    "pool.dispatch; the cell's solver.call span nests under it",
    "shard.merge": "the slot's boundary-reconciliation pass merging "
    "per-cell activations (shard.runtime.ShardRuntime.solve_slot)",
    "shard.refresh": "one incremental partition refresh after confirmed "
    "permanent reader crashes: orphaned tags re-bucketed and dirtied cells "
    "rebuilt (shard.runtime.ShardRuntime.refresh)",
    "scenario.build": "materialising one scenario into an RFIDSystem: "
    "placement, radii and the derived coverage/conflict arrays "
    "(deployment.scenario.Scenario.build)",
    "partition.build": "one spatial partition of a deployment into cells "
    "with halos, the coverage relation and the conflict graph "
    "(shard.partition.ShardPartition.from_arrays)",
    "coverage.pack": "the lazy word-packing of a system's coverage matrix "
    "on first use (model.system.RFIDSystem.packed_coverage)",
    "scale.verify": "one sparse well-covered verification of an active set "
    "in the array-first driver (shard.scale._slot_verification)",
    "pool.dispatch": "one deterministic parallel map "
    "(perf.pool.WorkerPool.map): task submission, the wait for "
    "payload-order results, and the replay of relayed worker events",
}

_ids = count(1)
_stack: List[int] = []


def current_span_id() -> Optional[int]:
    """Id of the innermost open span, or ``None`` outside every span."""
    return _stack[-1] if _stack else None


def next_span_id() -> int:
    """Allocate one fresh id from the process-wide span-id counter.

    The cross-process trace relay (:mod:`repro.obs.relay`) rebases
    worker-side span ids through this: forked workers clone the counter, so
    their raw ids collide with ids the parent allocates after the fork —
    replaying a shipped worker trace therefore maps every worker id onto a
    fresh parent id before emission.
    """
    return next(_ids)


def reset_spans() -> None:
    """Restart the span-id counter and clear the open-span stack.

    For test isolation and for CLI entry points that want span ids starting
    at 1; never required for correctness (ids only ever need to be unique
    within one recorded stream).
    """
    global _ids
    _ids = count(1)
    _stack.clear()


class span:
    """Context manager emitting ``SpanStart``/``SpanEnd`` around its block.

    ``attrs`` are static keyword attributes recorded on the start event
    (sorted into ``(key, value)`` pairs).  Sites must keep them cheap to
    build — they are evaluated even when tracing is off, which is why the
    instrumented code only ever passes already-computed scalars.
    """

    __slots__ = ("name", "attrs", "_rec", "_id", "_t0")

    def __init__(self, name: str, **attrs) -> None:
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "span":
        rec = get_recorder()
        if not rec.enabled:
            self._rec = None
            return self
        self._rec = rec
        self._id = next(_ids)
        parent = _stack[-1] if _stack else None
        t = time.perf_counter()
        self._t0 = t
        rec.emit(
            SpanStart(
                span_id=self._id,
                parent_id=parent,
                name=self.name,
                t=t,
                attrs=tuple(sorted(self.attrs.items())),
            )
        )
        _stack.append(self._id)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._rec is None:
            return False
        if _stack and _stack[-1] == self._id:
            _stack.pop()
        t = time.perf_counter()
        self._rec.emit(
            SpanEnd(span_id=self._id, name=self.name, t=t, seconds=t - self._t0)
        )
        return False
