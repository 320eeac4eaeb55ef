"""Per-layer timing for traced runs, recorded from the benchmark's own code.

Each layer is a public function or method of the program.  While a traced
run is active, :func:`layer_patches` swaps it for a wrapper that records
calls, seconds and (where the layer has a natural unit of work) items into
a :class:`LayerClock`; leaving the context restores the originals, so the
program itself is unchanged.  The clock tracks nesting: a call made while
no other layer call is open is *top-level*, and only top-level time is
summed against the run's wall, so nested layers (the kernel inside the
solver, the pool map inside ``solve_slot``) are never counted twice.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Callable, Dict, Optional

import numpy as np

from repro.core import mcs
from repro.deployment.scenario import Scenario
from repro.geometry.grid import SpatialHashGrid
from repro.model.system import RFIDSystem
from repro.obs import RunCollector
from repro.perf.backends import NumpyKernel
from repro.perf.backends.base import KERNEL_METHODS
from repro.perf.packed import PackedCoverage
from repro.perf.pool import WorkerPool
from repro.perf.slotdelta import ScheduleContext
from repro.shard.partition import ShardPartition
from repro.shard.runtime import ShardRuntime
from repro.shard.scale import ScaleDeployment


@contextmanager
def patched(owner, attr: str, wrap: Callable):
    """Replace ``owner.attr`` by ``wrap(original)`` for the block.

    Handles plain functions, class- and static methods, methods inherited
    from a base class (the override is deleted again on exit) and module
    attributes."""
    own = attr in vars(owner)
    raw = vars(owner)[attr] if own else inspect.getattr_static(owner, attr)
    if isinstance(raw, (classmethod, staticmethod)):
        new = type(raw)(wrap(raw.__func__))
    else:
        new = wrap(raw)
    setattr(owner, attr, new)
    try:
        yield
    finally:
        if own:
            setattr(owner, attr, raw)
        else:
            delattr(owner, attr)


class CountingCollector(RunCollector):
    """The program's :class:`RunCollector`, also counting events received."""

    def __init__(self) -> None:
        super().__init__()
        self.events = 0

    def emit(self, event) -> None:
        self.events += 1
        super().emit(event)


class LayerClock:
    """Calls, inclusive seconds and work items per layer name, plus the
    top-level seconds of one traced run."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.items: Dict[str, int] = defaultdict(int)
        self.last: Dict[str, object] = {}
        self.top_level_s = 0.0
        self._depth = 0

    def timed(
        self,
        name: str,
        fn: Callable,
        items: Optional[Callable] = None,
        keep_result: bool = False,
    ) -> Callable:
        """*fn* wrapped to record into this clock under *name*.  *items*
        maps the call's ``(args, kwargs)`` to a work count; *keep_result*
        keeps the latest return value in :attr:`last`."""

        def timed_call(*args, **kwargs):
            self._depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._depth -= 1
                self.seconds[name] += dt
                self.calls[name] += 1
                if self._depth == 0:
                    self.top_level_s += dt
            if items is not None:
                self.items[name] += items(args, kwargs)
            if keep_result:
                self.last[name] = result
            return result

        return timed_call


def _last_arg(name: str) -> Callable:
    """Item counter: length of the argument *name*, passed by keyword or as
    the last positional argument."""

    def count(args, kwargs):
        return len(kwargs[name]) if name in kwargs else len(args[-1])

    return count


def _kernel_items() -> Dict[str, Callable]:
    """Candidates evaluated per ``WeightKernel`` call: the candidate list of
    the batch methods, the reader count of the best-singleton scan."""
    batch = _last_arg("candidates")
    return {
        "solo_weights": batch,
        "oracle_weights_with": batch,
        "climb_weights_with": batch,
        "new_coverage_counts": batch,
        "filter_compatible": lambda a, k: len(k["candidates"] if "candidates" in k else a[1]),
        "covered_counts": lambda a, k: int(a[0].system.num_readers),
    }


@contextmanager
def layer_patches(clock: LayerClock):
    """Time every layer of the program into *clock* for the block."""
    layers = [
        (Scenario, "build", "deployment.build", None, False),
        (ScaleDeployment, "materialize", "deployment.build", None, False),
        (PackedCoverage, "__init__", "model.pack", None, False),
        (RFIDSystem, "well_covered_tags", "model.verify", None, False),
        (ScheduleContext, "__init__", "context.build", None, False),
        (ScheduleContext, "retire_tags", "context.retire", None, False),
        (ShardPartition, "from_arrays", "partition.build", None, True),
        (ShardRuntime, "refresh", "partition.refresh", None, False),
        (ShardRuntime, "solve_slot", "shard.solve_slot", None, False),
        (ShardRuntime, "retire", "shard.retire", None, False),
        (WorkerPool, "start", "pool.start", None, False),
        (WorkerPool, "map", "pool.map", lambda a, k: len(a[2]), False),
        (SpatialHashGrid, "__init__", "grid.build", None, False),
        (SpatialHashGrid, "query_radius", "grid.query", None, False),
        (mcs, "run_inventory_session", "linklayer.session", None, False),
    ]
    kernel_items = _kernel_items()
    layers += [
        (NumpyKernel, method, "kernel", kernel_items[method], False)
        for method in KERNEL_METHODS
    ]
    with ExitStack() as stack:
        for owner, attr, name, items, keep in layers:
            stack.enter_context(
                patched(
                    owner,
                    attr,
                    lambda fn, name=name, items=items, keep=keep: clock.timed(
                        name, fn, items, keep
                    ),
                )
            )
        yield


def _p(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(
    clock: LayerClock,
    summary: dict,
    events: int,
    wall_s: float,
    untraced_wall_s: float,
    slot_entries,
    end: float,
    workers: int,
) -> Dict[str, float]:
    """The per-layer metrics of one traced run.  *summary* is the run's
    ``RunCollector.summary()``; *slot_entries* the slot-solve entry
    timestamps and *end* the driver's return time."""
    s, c, it = clock.seconds, clock.calls, clock.items
    hist = summary.get("histograms", {}).get("cell_solve_s", {})
    # solver calls made in pool workers reach the collector as relayed
    # SolverCall events; their seconds are measured inside the worker
    relayed_s = max(summary.get("solver_wall_clock_s", 0.0) - s["solver"], 0.0)
    slot_ms = np.diff(np.append(np.asarray(slot_entries, dtype=float), end)) * 1e3
    tags_per_slot = summary.get("tags_per_slot", [])
    partition = clock.last.get("partition.build")
    m = {
        "deployment.build_s": s["deployment.build"],
        "model.pack_s": s["model.pack"],
        "model.verify_s": s["model.verify"],
        "model.verify_calls": c["model.verify"],
        "solver.s": s["solver"],
        "solver.calls": c["solver"],
        "solver.sets_evaluated": summary.get("sets_evaluated", 0),
        "solver.relayed_s": relayed_s,
        "kernel.s": s["kernel"],
        "kernel.calls": c["kernel"],
        "kernel.candidates": it["kernel"],
        "kernel.share": s["kernel"] / s["solver"] if s["solver"] else 0.0,
        "context.build_s": s["context.build"],
        "context.retire_s": s["context.retire"],
        "partition.build_s": s["partition.build"],
        "partition.cells": partition.num_cells if partition is not None else 0,
        "partition.halo_readers": (
            partition.total_halo_readers if partition is not None else 0
        ),
        "partition.refresh_s": s["partition.refresh"],
        "partition.refreshes": c["partition.refresh"],
        "shard.solve_slot_s": s["shard.solve_slot"],
        "shard.merge_s": max(s["shard.solve_slot"] - s["pool.map"], 0.0),
        "shard.boundary_repairs": summary.get("shard_boundary_repairs", 0),
        "shard.cell_solve_s.p50": float(hist.get("p50", 0.0)),
        "shard.cell_solve_s.p90": float(hist.get("p90", 0.0)),
        "shard.cell_solve_s.sum": float(hist.get("sum", 0.0)),
        "shard.retire_s": s["shard.retire"],
        "pool.start_s": s["pool.start"],
        "pool.map_s": s["pool.map"],
        "pool.maps": c["pool.map"],
        "pool.tasks": summary.get("pool_tasks", 0),
        "pool.payload_bytes": summary.get("pool_payload_bytes", 0),
        "pool.spawns": summary.get("pool_spawns", 0),
        "pool.respawns": summary.get("pool_respawns", 0),
        "pool.overhead_s": (
            s["pool.map"] - relayed_s / workers if c["pool.map"] else 0.0
        ),
        "grid.build_s": s["grid.build"],
        "grid.query_s": s["grid.query"],
        "grid.queries": c["grid.query"],
        "faults.readers_failed": summary.get("readers_failed", 0),
        "faults.reads_missed": summary.get("reads_missed", 0),
        "faults.degradations": summary.get("schedule_degradations", 0),
        "linklayer.session_s": s["linklayer.session"],
        "linklayer.micro_slots": summary.get("linklayer_micro_slots", 0),
        "mcs.slots": len(slot_ms),
        "mcs.slot_ms.p50": _p(slot_ms, 50),
        "mcs.slot_ms.max": float(slot_ms.max()) if len(slot_ms) else 0.0,
        "mcs.useful_slot_share": (
            sum(1 for t in tags_per_slot if t > 0) / len(tags_per_slot)
            if tags_per_slot else 0.0
        ),
        "traced.wall_s": wall_s,
        "unattributed_s": wall_s - clock.top_level_s,
        "obs.overhead": wall_s / untraced_wall_s - 1.0,
        "obs.events": events,
    }
    return {k: float(v) for k, v in m.items()}


#: Unit, better direction, and the end-to-end metric (on which workloads)
#: each per-layer metric should move.  The first two fields feed
#: ``BENCHMARK.json``; the third is printed beside traced results.
PER_LAYER = {
    "deployment.build_s": ("s", "lower", "setup_s (dense_ghc, chaos_shard)"),
    "model.pack_s": ("s", "lower", "setup_s (dense_ghc)"),
    "model.verify_s": ("s", "lower", "schedule_s (chaos_shard)"),
    "model.verify_calls": ("count", "lower", "schedule_s (chaos_shard)"),
    "solver.s": ("s", "lower", "schedule_s (dense_ghc)"),
    "solver.calls": ("count", "lower", "schedule_s (dense_ghc)"),
    "solver.sets_evaluated": ("count", "lower", "schedule_s (chaos_shard)"),
    "solver.relayed_s": ("s", "lower", "schedule_s (scale_array, chaos_shard)"),
    "kernel.s": ("s", "lower", "schedule_s (dense_ghc)"),
    "kernel.calls": ("count", "lower", "schedule_s (dense_ghc)"),
    "kernel.candidates": ("count", "lower", "schedule_s (dense_ghc)"),
    "kernel.share": ("ratio", "lower", "schedule_s (dense_ghc)"),
    "context.build_s": ("s", "lower", "setup_s (scale_array)"),
    "context.retire_s": ("s", "lower", "schedule_s (dense_ghc, chaos_shard)"),
    "partition.build_s": ("s", "lower", "setup_s (scale_array, chaos_shard)"),
    "partition.cells": ("count", "lower", "setup_s (scale_array, chaos_shard)"),
    "partition.halo_readers": ("count", "lower", "setup_s (scale_array, chaos_shard)"),
    "partition.refresh_s": ("s", "lower", "schedule_s (chaos_shard)"),
    "partition.refreshes": ("count", "lower", "schedule_s (chaos_shard)"),
    "shard.solve_slot_s": ("s", "lower", "schedule_s (scale_array, chaos_shard)"),
    "shard.merge_s": ("s", "lower", "schedule_s (scale_array)"),
    "shard.boundary_repairs": ("count", "lower", "slots (scale_array)"),
    "shard.cell_solve_s.p50": ("s", "lower", "schedule_s (scale_array, chaos_shard)"),
    "shard.cell_solve_s.p90": ("s", "lower", "schedule_s (scale_array, chaos_shard)"),
    "shard.cell_solve_s.sum": ("s", "lower", "schedule_s (scale_array, chaos_shard)"),
    "shard.retire_s": ("s", "lower", "schedule_s (scale_array, chaos_shard)"),
    "pool.start_s": ("s", "lower", "setup_s (scale_array, chaos_shard)"),
    "pool.map_s": ("s", "lower", "schedule_s (scale_array, chaos_shard)"),
    "pool.maps": ("count", "lower", "schedule_s (chaos_shard)"),
    "pool.tasks": ("count", "lower", "schedule_s (chaos_shard)"),
    "pool.payload_bytes": ("bytes", "lower", "schedule_s (chaos_shard)"),
    "pool.spawns": ("count", "lower", "setup_s (scale_array, chaos_shard)"),
    "pool.respawns": ("count", "lower", "schedule_s (chaos_shard)"),
    "pool.overhead_s": ("s", "lower", "schedule_s (scale_array, chaos_shard)"),
    "grid.build_s": ("s", "lower", "setup_s (scale_array)"),
    "grid.query_s": ("s", "lower", "schedule_s (scale_array)"),
    "grid.queries": ("count", "lower", "schedule_s (scale_array)"),
    "faults.readers_failed": ("count", "lower", "slots, coverage (chaos_shard)"),
    "faults.reads_missed": ("count", "lower", "slots, coverage (chaos_shard)"),
    "faults.degradations": ("count", "lower", "slots, coverage (chaos_shard)"),
    "linklayer.session_s": ("s", "lower", "schedule_s (chaos_shard)"),
    "linklayer.micro_slots": ("count", "lower", "schedule_s (chaos_shard)"),
    "mcs.slots": ("count", "lower", "slots (all)"),
    "mcs.slot_ms.p50": ("ms", "lower", "schedule_s (all)"),
    "mcs.slot_ms.max": ("ms", "lower", "schedule_s (all)"),
    "mcs.useful_slot_share": ("ratio", "higher", "slots (chaos_shard)"),
    "traced.wall_s": ("s", "lower", "setup_s + schedule_s (all)"),
    "unattributed_s": ("s", "lower", "none: the residual no layer explains"),
    "obs.overhead": ("ratio", "lower", "none: tracing cost, moves no metric"),
    "obs.events": ("count", "lower", "none: tracing volume"),
}
