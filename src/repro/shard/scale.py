"""Array-first covering-schedule driver for paper-overflowing deployments.

The MCS driver (:func:`repro.core.mcs.greedy_covering_schedule`) builds a
full :class:`~repro.model.system.RFIDSystem` — dense coverage and conflict
matrices — which is the right tool up to a few thousand readers.  The
10⁴-reader / 10⁶-tag scale tier cannot afford ``n × n`` and ``m × n`` dense
global state, so :func:`run_scale_schedule` runs the same greedy loop
(:func:`repro.core.mcs.run_slot_loop`) over a *sparse world*:

* the deployment is partitioned by :class:`~repro.shard.partition.
  ShardPartition` straight from coordinate/radius arrays, recording the
  one (tag, reader) coverage relation the driver reads.  A cell's small
  dense subsystem is built only for a cell solved on its own (a non-GHC
  solver, or a suspected reader), so a fault-free GHC run builds none;
* each slot's active set comes from :class:`~repro.shard.runtime.
  ShardRuntime` (cell solves plus boundary reconciliation), exactly as in
  the sharded MCS driver — but always in process: ``spec.workers`` is a
  setting of the dense sharded driver only, because on this driver's
  small GHC cells parallel solves lost to serial end to end
  (``docs/scale.md``);
* the global well-covered verification (Definition 1) is computed sparsely:
  the active readers' unread tags, read from the coverage relation by
  reader, give exact coverage counts in one ``bincount``, and RTc
  suppression walks the partition's reader conflict graph restricted to
  the *active* readers;
* the singleton fallback uses owned-cell counts
  (:meth:`~repro.shard.runtime.ShardRuntime.best_singleton`);
* retirement (:meth:`~repro.shard.runtime.ShardRuntime.retire`) is one
  vectorised pass over the stacked cell state, never a per-cell scan.

Being the same loop, it emits the standard driver spans (``mcs.run`` /
``mcs.slot`` / ``mcs.solve`` / ``mcs.retire``, plus ``scale.verify``
around each sparse verification and ``partition.build`` around the
partition) and events (``SlotStart`` / ``CollisionTally`` / ``SlotEnd`` /
``ScheduleDone``), so a :class:`~repro.obs.collectors.RunCollector`
aggregates a scale run exactly like an MCS run (stage times are span
durations) and ``BENCH_scale.json`` records validate against the ordinary
schema (family ``scale``).

Fault tolerance is the loop's fault layer (``docs/robustness.md``):
passing ``faults=FaultPlan(...)`` runs the slot loop against the
deterministic degraded world — heartbeat suspicion via
:class:`~repro.faults.HeartbeatMonitor`, suspicion-aware cell solves and
singleton fallbacks, ACK-based retirement of only the confirmed reads, a
stall guard, and incremental partition refresh on confirmed permanent
crashes.  A refresh that orphans every remaining tag ends the run
``stalled`` at once.  With ``faults=None`` the loop is bit-identical to
the fault-free scale driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.deployment.generators import uniform_deployment
from repro.deployment.radii import sample_radii
from repro.faults import FaultPlan, FaultPolicy
from repro.obs.events import get_recorder
from repro.obs.spans import span
from repro.shard.partition import ShardPartition, _ranges
from repro.shard.runtime import ShardRuntime
from repro.shard.spec import ShardSpec
from repro.util.rng import RngLike, as_rng


@dataclass(frozen=True)
class ScaleDeployment:
    """Parameters of a pinned-seed uniform scale deployment.

    Mirrors :class:`~repro.deployment.scenario.Scenario`'s fields but
    materialises raw arrays instead of an :class:`~repro.model.system.
    RFIDSystem` — the scale tier never builds the global dense matrices.
    """

    num_readers: int
    num_tags: int
    side: float
    lambda_interference: float = 10.0
    lambda_interrogation: float = 5.0
    seed: int = 0

    def materialize(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Draw the deployment: ``(reader_positions, interference_radii,
        interrogation_radii, tag_positions)``.  One seeded stream drives
        positions then radii, so equal parameters give equal arrays."""
        rng = as_rng(self.seed)
        placement = uniform_deployment(
            self.num_readers, self.num_tags, side=self.side, seed=rng
        )
        interference, interrogation = sample_radii(
            self.num_readers,
            self.lambda_interference,
            self.lambda_interrogation,
            seed=rng,
        )
        return (
            placement.reader_positions,
            interference,
            interrogation,
            placement.tag_positions,
        )


@dataclass(frozen=True)
class ScaleSlotRecord:
    """One slot of a scale schedule (ids elided — at 10⁶ tags the schedule
    history keeps counts, not per-tag arrays)."""

    slot: int
    active_readers: int
    tags_read: int
    cells_solved: int
    boundary_repairs: int


@dataclass(frozen=True)
class ScaleScheduleResult:
    """Outcome of :func:`run_scale_schedule`.

    ``outcome`` is ``"complete"`` / ``"exhausted"`` / ``"stalled"``
    (mirroring :class:`~repro.core.mcs.ScheduleOutcome`, kept a plain
    string here so the scale tier stays import-free of the dense driver).
    """

    slots: List[ScaleSlotRecord]
    tags_read_total: int
    complete: bool
    num_cells: int
    uncoverable_tags: int
    outcome: str

    @property
    def size(self) -> int:
        """Number of time-slots executed."""
        return len(self.slots)


def _slot_verification(
    active: np.ndarray, partition: ShardPartition, unread: np.ndarray
) -> Tuple[np.ndarray, int, int]:
    """Exact well-covered tags of *active* (Definition 1), sparsely.

    Coverage comes from the partition's coverage relation, read by reader
    (:attr:`~repro.shard.partition.ShardPartition.tags_by_reader`): the
    active readers' unread tags are counted with one ``bincount``.  RTc is
    checked over the partition's conflict graph restricted to *active*:
    reader *i* is silenced iff some active neighbour *j* has ``d² <=
    R_j²``, and any such *j* is a neighbour because ``R_j <= max(R_i,
    R_j)``.  Returns ``(well_covered_tags, rrc_blocked, rtc_silenced)``.
    """
    k = int(len(active))
    if k == 0:
        return np.empty(0, dtype=np.int64), 0, 0
    rpos = partition.reader_positions
    R = partition.interference_radii
    rows, cols = partition.active_conflicts(active)
    near = active[cols]
    diff = rpos[active[rows]] - rpos[near]
    d2 = (diff * diff).sum(axis=-1)
    suffering = np.zeros(k, dtype=bool)
    suffering[rows[d2 <= R[near] ** 2]] = True

    indptr, tag_ids = partition.tags_by_reader
    starts, ends = indptr[active], indptr[active + 1]
    tags = tag_ids[_ranges(starts, ends)]
    by = np.repeat(np.arange(k), ends - starts)
    keep = unread[tags]
    tags, by = tags[keep], by[keep]
    counts = np.bincount(tags, minlength=len(unread))
    once = counts[tags] == 1
    well = np.sort(tags[once & ~suffering[by]])
    return well, int((counts >= 2).sum()), int(suffering.sum())


class _ArrayWorld:
    """The slot loop's world over raw deployment arrays.

    Slots are solved by a :class:`ShardRuntime` over *partition*
    (:meth:`ShardRuntime.solve_slot`), which shares this world's unread
    mask, and verified sparsely by :func:`_slot_verification`; the
    singleton fallback uses owned-cell counts
    (:meth:`ShardRuntime.best_singleton`).  Only the runtime's owned tags
    count as solvable work, so a refresh that orphans every remaining tag
    ends the run.
    """

    def __init__(
        self,
        partition: ShardPartition,
        solver,
        takes_context: bool,
        rec,
        lockstep: bool,
    ) -> None:
        self.rec = rec
        #: coverable tags not yet read (orphans of a refresh included)
        self.unread = partition.owner_of_tag >= 0
        self.runtime = ShardRuntime(
            partition, self.unread, solver, takes_context, lockstep
        )
        self._tally = (0, 0)

    @property
    def num_unread(self) -> int:
        return self.runtime.num_unread

    @property
    def retired_readers(self) -> np.ndarray:
        return self.runtime.retired_readers

    def solve(self, slot: int, rng, suspected):
        return self.runtime.solve_slot(slot, rng, self.rec, suspected)

    def verify(self, active: np.ndarray, unread: np.ndarray) -> np.ndarray:
        with span("scale.verify", active=int(len(active))):
            well, rrc, rtc = _slot_verification(
                active, self.runtime.partition, unread
            )
        self._tally = (rrc, rtc)
        return well

    def collisions(self, active, unread):
        """The collision counts of the last verified set."""
        return self._tally

    def best_singleton(self, suspected) -> Optional[int]:
        return self.runtime.best_singleton(suspected=suspected)

    def retire(self, confirmed: np.ndarray, active: np.ndarray) -> None:
        self.runtime.retire(confirmed)
        self.unread[confirmed] = False

    def refresh(self, dead: np.ndarray) -> bool:
        """Retire confirmed-dead readers; ``True`` (stalled) when no live
        reader covers any remaining tag."""
        self.runtime.refresh(dead)
        return self.runtime.num_unread == 0

    def record(self, slot, active, confirmed, weight, meta, inventory):
        return ScaleSlotRecord(
            slot=slot,
            active_readers=int(len(active)),
            tags_read=int(len(confirmed)),
            cells_solved=int(meta.get("cells_solved", 0)),
            boundary_repairs=int(meta.get("boundary_repairs", 0)),
        )


def run_scale_schedule(
    deployment: ScaleDeployment,
    spec: ShardSpec,
    solver: str = "ghc",
    seed: RngLike = None,
    max_slots: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    policy: Optional[FaultPolicy] = None,
    max_stall_slots: Optional[int] = None,
) -> ScaleScheduleResult:
    """Run the sparse greedy covering schedule over a scale deployment.

    *solver* is a registry name resolved via
    :func:`repro.core.oneshot.get_solver` and applied per cell, in
    process (``spec.workers`` is ignored here).  *spec* must yield a
    partition: a deployment that collapses to one cell
    (:meth:`~repro.shard.partition.ShardPartition.from_arrays` returns
    ``None``) belongs in :func:`repro.core.mcs.greedy_covering_schedule`,
    which this function refuses to duplicate, so it raises ``ValueError``
    before building anything else.

    Termination mirrors the MCS driver: a slot that would read nothing
    activates the best owned singleton
    (:meth:`~repro.shard.runtime.ShardRuntime.best_singleton`), which
    always makes positive progress, so the loop ends at full coverage or
    the ``max_slots`` cap (default ``4·n + 64``).

    *faults* engages the deterministic fault world (see the module
    docstring): suspicion-aware solves and fallbacks, confirmed-only
    retirement, partition refresh for confirmed permanent crashes, and
    the stall guard (*max_stall_slots* defaults to
    ``policy.max_stall_slots``; a plan-less *policy* engages the fault
    path with an empty :class:`~repro.faults.FaultPlan`, as in the MCS
    driver).  A permanently crashed sole owner of a tag makes that tag
    unreachable; the run then terminates with ``outcome="stalled"``.
    """
    # deferred: core imports shard
    from repro.core.mcs import (
        FaultLayer, accepts_context, check_slot_caps, run_slot_loop,
    )
    from repro.core.oneshot import get_solver

    # reject a bad solver or cap before the deployment is drawn
    solver_fn = get_solver(solver)
    cap = (
        max_slots if max_slots is not None else 4 * deployment.num_readers + 64
    )
    check_slot_caps(cap, max_stall_slots)
    rpos, interference, interrogation, tpos = deployment.materialize()
    partition = ShardPartition.from_arrays(
        rpos, interference, interrogation, tpos, spec
    )
    if partition is None:
        raise ValueError(
            "deployment collapses to a single cell; use "
            "greedy_covering_schedule (optionally with shard=) instead"
        )
    takes_context = accepts_context(solver_fn)
    rng = as_rng(seed)
    rec = get_recorder()
    fault_layer = FaultLayer.engage(
        faults, policy, deployment.num_readers, len(tpos)
    )
    # the registry's plain GHC climbs its calm cells in lockstep
    world = _ArrayWorld(
        partition, solver_fn, takes_context, rec, lockstep=solver == "ghc"
    )
    uncoverable = int((~world.unread).sum())
    slots, total_read, complete, outcome = run_slot_loop(
        world, rng, cap, fault_layer, max_stall_slots,
        solver=getattr(solver_fn, "__name__", solver),
    )
    return ScaleScheduleResult(
        slots=slots,
        tags_read_total=total_read,
        complete=complete,
        num_cells=partition.num_cells,
        uncoverable_tags=uncoverable,
        outcome=outcome,
    )
