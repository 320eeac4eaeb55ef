"""Tests for the spatial sharding subsystem (``repro.shard``).

Covers the three certificates of ``docs/scale.md``:

* ``cells == 1`` is **bit-identical** to the unsharded driver — schedules
  and all non-timing work counters;
* non-trivial sharding is **coverage-equivalent** — same tags read, same
  completeness — and its merged active sets never carry a cross-cell
  conflict, including on hand-built adversarial boundary scenarios (reader
  balls straddling two and four cells, tags exactly on cell edges);
* worker count never changes results.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import get_solver, greedy_covering_schedule
from repro.deployment.scenario import Scenario
from repro.obs.collectors import RunCollector
from repro.obs.events import recording
from repro.perf.slotdelta import ScheduleContext
from repro.shard import (
    ShardPartition,
    ShardRuntime,
    ShardSpec,
    interaction_radius,
)
from tests.conftest import shrunken_chaos_shard

#: Metric fields that vary run to run by construction: wall-clock noise,
#: plus the parallel-tier dispatch counters (present only on parallel runs
#: — spawn counts and payload bytes are telemetry about *how* the work was
#: dispatched, not *what* was computed).
TIMING = (
    "solver_wall_clock_s",
    "solver_seconds_by_name",
    "stage_seconds_by_name",
    "peak_tracemalloc_kb",
    "peak_rss_kb",
    "pool_spawns",
    "pool_tasks",
    "pool_payload_bytes",
    "pool_respawns",
    "pool_deadline_hits",
    "relay_dropped_events",
    "histograms",
)


def strip_timing(summary):
    return {k: v for k, v in summary.items() if k not in TIMING}


def run_collected(system, solver, **kwargs):
    """Schedule *system* under a fresh collector; returns (result, summary)."""
    collector = RunCollector()
    with recording(collector):
        result = greedy_covering_schedule(system, solver, **kwargs)
    return result, collector.summary()


def assert_same_schedule(a, b):
    """Slot-for-slot bit identity of two ScheduleResults."""
    assert a.size == b.size
    for sa, sb in zip(a.slots, b.slots):
        assert np.array_equal(sa.active, sb.active)
        assert np.array_equal(sa.tags_read, sb.tags_read)
    assert a.tags_read_total == b.tags_read_total
    assert a.complete == b.complete
    assert np.array_equal(a.uncovered_tags, b.uncovered_tags)


@pytest.fixture(scope="module")
def medium_system():
    """Spread-out deployment that shards into a healthy number of cells."""
    return Scenario(
        num_readers=60, num_tags=600, side=200.0,
        lambda_interference=10.0, lambda_interrogation=5.0, seed=5,
    ).build()


class TestSpec:
    def test_interaction_radius(self):
        R = np.array([3.0, 8.0, 2.0])
        gamma = np.array([1.0, 2.0, 5.0])
        assert interaction_radius(R, gamma) == 10.0  # 2 * gamma_max wins
        assert interaction_radius(np.array([9.0]), np.array([1.0])) == 9.0
        assert interaction_radius(np.empty(0), np.empty(0)) == 0.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ShardSpec(cells=-1)
        # auto, trivial and explicit targets are all fine
        ShardSpec(cells=0)
        ShardSpec(cells=1)
        ShardSpec(cells=16, workers=4)
        ShardSpec(cells=16, workers=-1)
        ShardSpec(cells=np.int64(4))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 2.5, 4.0, True])
    def test_bad_cells_rejected(self, bad):
        """A non-integer cell target is an error, not a silent auto-size
        (NaN, inf) or a silent "no partition" (``True``)."""
        with pytest.raises(ValueError, match="cells"):
            ShardSpec(cells=bad)

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "two"])
    def test_bad_workers_rejected_before_any_build(
        self, bad, medium_system, monkeypatch
    ):
        """Both sharded drivers reject a non-integer worker count when the
        spec is made, before any deployment or partition is built."""
        from repro.shard.scale import ScaleDeployment, run_scale_schedule

        def booby_trap(*args, **kwargs):
            raise AssertionError("built despite an invalid ShardSpec")

        monkeypatch.setattr(ScaleDeployment, "materialize", booby_trap)
        monkeypatch.setattr(ShardPartition, "from_arrays", booby_trap)
        with pytest.raises(ValueError, match="workers"):
            run_scale_schedule(
                ScaleDeployment(200, 3000, 140.0, seed=1),
                ShardSpec(cells=4, workers=bad),
                solver="ghc",
            )
        with pytest.raises(ValueError, match="workers"):
            greedy_covering_schedule(
                medium_system,
                get_solver("ghc"),
                shard=ShardSpec(cells=4, workers=bad),
            )

    def test_cell_side_clamped_to_interaction_radius(self):
        spec = ShardSpec(cells=10_000)
        R = np.array([6.0, 4.0])
        gamma = np.array([2.0, 1.0])
        # the target would want tiny cells; the clamp keeps side >= H
        assert spec.cell_side(R, gamma, extent=100.0) == 6.0


class TestPartitionInvariants:
    @pytest.fixture(scope="class")
    def partition(self, medium_system):
        return ShardPartition.from_system(medium_system, ShardSpec(cells=16))

    def test_nontrivial_and_indexed(self, partition):
        assert partition is not None
        assert partition.num_cells > 1
        for i, cell in enumerate(partition.cells):
            assert cell.index == i

    def test_readers_partitioned(self, partition, medium_system):
        seen = np.concatenate([c.reader_ids for c in partition.cells])
        assert np.array_equal(np.sort(seen), np.arange(medium_system.num_readers))
        for cell in partition.cells:
            assert (partition.cell_of_reader[cell.reader_ids] == cell.index).all()

    def test_local_global_maps_consistent(self, partition, medium_system):
        for cell in partition.cells:
            union = np.sort(
                np.concatenate([cell.reader_ids, cell.halo_reader_ids])
            )
            assert np.array_equal(cell.all_reader_ids, union)
            assert np.array_equal(
                cell.subsystem.reader_positions,
                medium_system.reader_positions[cell.all_reader_ids],
            )
            assert np.array_equal(
                cell.subsystem.tag_positions,
                medium_system.tag_positions[cell.tag_ids],
            )
            assert np.array_equal(
                cell.all_reader_ids[cell.owned_reader_mask], cell.reader_ids
            )

    def test_owner_cell_can_cover_its_tags(self, partition, medium_system):
        """Every coverable tag's owner cell owns a reader covering it —
        the liveness guarantee behind ``best_singleton``."""
        cov = medium_system.coverage  # (m, n) boolean: tags x readers
        owner = partition.owner_of_tag
        uncoverable = ~cov.any(axis=1)
        assert (owner[uncoverable] == -1).all()
        assert (owner[~uncoverable] >= 0).all()
        for cell in partition.cells:
            mine = np.flatnonzero(owner == cell.index)
            assert cov[np.ix_(mine, cell.reader_ids)].any(axis=1).all()

    def test_halos_cover_cross_cell_conflicts(self, partition, medium_system):
        """If readers of different cells can conflict, each cell imports
        the other's reader as halo (the one-ring contract)."""
        pos = medium_system.reader_positions
        R = medium_system.interference_radii
        n = medium_system.num_readers
        diff = pos[:, None, :] - pos[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=-1))
        rmax = np.maximum(R[:, None], R[None, :])
        owner = partition.cell_of_reader
        for i in range(n):
            for j in range(i + 1, n):
                if d[i, j] <= rmax[i, j] and owner[i] != owner[j]:
                    assert j in partition.cells[owner[i]].all_reader_ids
                    assert i in partition.cells[owner[j]].all_reader_ids

    def test_trivial_cases(self, medium_system):
        """A deployment collapsing to one cell has no partition."""
        one = ShardPartition.from_system(medium_system, ShardSpec(cells=1))
        assert one is None
        # the whole deployment fits in one interaction radius -> one bucket
        rpos = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        auto = ShardPartition.from_arrays(
            rpos, np.full(3, 5.0), np.full(3, 2.0),
            np.array([[1.0, 0.5]]), ShardSpec(cells=0),
        )
        assert auto is None
        # no readers at all is trivial too
        empty = ShardPartition.from_arrays(
            np.empty((0, 2)), np.empty(0), np.empty(0),
            np.empty((0, 2)), ShardSpec(cells=0),
        )
        assert empty is None


class TestCellsOneBitIdentity:
    """The trivial sharded path must be indistinguishable from no sharding."""

    @pytest.fixture(scope="class")
    def system(self):
        return Scenario(
            num_readers=40, num_tags=400, side=100.0, seed=13
        ).build()

    def test_schedule_and_counters_identical(self, system):
        base, base_sum = run_collected(system, get_solver("ghc"), seed=3)
        shard, shard_sum = run_collected(
            system, get_solver("ghc"), seed=3, shard=ShardSpec(cells=1)
        )
        assert_same_schedule(base, shard)
        assert strip_timing(base_sum) == strip_timing(shard_sum)

    def test_trivial_records_no_shard_counters(self, system):
        _, summary = run_collected(
            system, get_solver("ghc"), seed=3, shard=ShardSpec(cells=1)
        )
        assert "shard_cells" not in summary


class TestShardedEquivalence:
    @pytest.fixture(scope="class")
    def runs(self, medium_system):
        solver = get_solver("ghc")
        base, base_sum = run_collected(medium_system, solver, seed=9)
        shard, shard_sum = run_collected(
            medium_system, solver, seed=9, shard=ShardSpec(cells=16)
        )
        return base, base_sum, shard, shard_sum

    def test_coverage_equivalent(self, runs):
        base, _, shard, _ = runs
        assert shard.complete == base.complete
        assert shard.tags_read_total == base.tags_read_total
        assert np.array_equal(shard.uncovered_tags, base.uncovered_tags)
        # every coverable tag read exactly once overall
        base_read = np.sort(np.concatenate([s.tags_read for s in base.slots]))
        shard_read = np.sort(np.concatenate([s.tags_read for s in shard.slots]))
        assert np.array_equal(shard_read, base_read)

    def test_no_cross_cell_conflicts_survive(self, runs, medium_system):
        _, _, shard, _ = runs
        partition = ShardPartition.from_system(medium_system, ShardSpec(cells=16))
        owner = partition.cell_of_reader
        for slot in shard.slots:
            act = slot.active
            for a in range(len(act)):
                for b in range(a + 1, len(act)):
                    i, j = int(act[a]), int(act[b])
                    if owner[i] != owner[j]:
                        assert not medium_system.conflict[i, j]

    def test_shard_counters_exported(self, runs):
        _, base_sum, _, shard_sum = runs
        assert "shard_cells" not in base_sum
        assert shard_sum["shard_cells"] > 0
        assert shard_sum["shard_halo_readers"] > 0
        assert shard_sum["shard_boundary_repairs"] >= 0

    def test_workers_do_not_change_results(self, medium_system):
        solver = get_solver("ghc")
        serial, serial_sum = run_collected(
            medium_system, solver, seed=9,
            shard=ShardSpec(cells=16, workers=1),
        )
        forked, forked_sum = run_collected(
            medium_system, solver, seed=9,
            shard=ShardSpec(cells=16, workers=3),
        )
        assert_same_schedule(serial, forked)
        assert strip_timing(serial_sum) == strip_timing(forked_sum)

    def test_budget_cut_offs_counted_at_any_worker_count(self):
        """PTAS cells whose enumeration budget binds are counted in the
        merge events, identically in process and on the pool; counting
        them moves no schedule."""
        system = Scenario(
            num_readers=100, num_tags=2400, side=141.0, seed=3
        ).build()
        solver = get_solver("ptas", k=3)
        runs = [
            run_collected(
                system, solver, seed=3, shard=ShardSpec(cells=4, workers=w)
            )
            for w in (1, 2)
        ]
        (serial, serial_sum), (pooled, pooled_sum) = runs
        assert_same_schedule(serial, pooled)
        assert serial_sum["shard_budget_exhausted"] == 4
        assert pooled_sum["shard_budget_exhausted"] == 4
        assert serial_sum["shard_cells"] == 14
        plain = greedy_covering_schedule(
            system, solver, seed=3, shard=ShardSpec(cells=4)
        )
        assert_same_schedule(serial, plain)

    def test_budget_cut_offs_counted_at_any_worker_count_under_faults(self):
        """The same under a fault plan (the shrunken ``chaos_shard`` of
        ``tests/test_golden.py``): degraded cell solves report their
        cut-offs too, and the count survives the pool relay."""
        system, kwargs = shrunken_chaos_shard()
        runs = [
            run_collected(
                system, get_solver("ptas", k=3),
                shard=ShardSpec(cells=4, workers=w), **kwargs,
            )
            for w in (1, 2)
        ]
        (serial, serial_sum), (pooled, pooled_sum) = runs
        assert_same_schedule(serial, pooled)
        assert serial.fault_trace == pooled.fault_trace
        cut = serial_sum["shard_budget_exhausted"]
        assert cut > 0
        assert pooled_sum["shard_budget_exhausted"] == cut
        assert serial_sum["solver_budget_exhausted"] == cut
        assert pooled_sum["solver_budget_exhausted"] == cut


class TestShardFaultComposition:
    """``shard=`` composes with ``faults=``: degraded per-cell solves,
    deterministic suspicion payloads, and incremental partition refresh
    on confirmed permanent crashes (``docs/robustness.md``)."""

    @pytest.fixture(scope="class")
    def flaky_plan(self, medium_system):
        from repro.faults import FaultPlan

        return FaultPlan.uniform_flaky(
            medium_system.num_readers, p_fail=0.1, miss_rate=0.1, seed=1
        )

    @pytest.mark.parametrize(
        "solver_name",
        ["exact", "ptas", "localsearch", "centralized", "distributed", "ghc"],
    )
    def test_all_solvers_complete_under_faults(
        self, medium_system, flaky_plan, solver_name
    ):
        from repro.experiments.figures import SOLVER_KWARGS

        solver = get_solver(
            solver_name, **SOLVER_KWARGS.get(solver_name, {})
        )
        result = greedy_covering_schedule(
            medium_system, solver, seed=9, faults=flaky_plan,
            shard=ShardSpec(cells=16),
        )
        coverable = int(medium_system.covered_by_any().sum())
        assert result.complete
        assert result.tags_read_total == coverable

    def test_fault_draws_identical_across_workers_and_pool(
        self, medium_system, flaky_plan
    ):
        solver = get_solver("ghc")

        def run(**shard_kwargs):
            return run_collected(
                medium_system, solver, seed=9, faults=flaky_plan,
                shard=ShardSpec(cells=16, **shard_kwargs),
            )

        serial, serial_sum = run(workers=1)
        pooled, pooled_sum = run(workers=3)
        assert_same_schedule(serial, pooled)
        assert serial.fault_trace == pooled.fault_trace
        assert strip_timing(serial_sum) == strip_timing(pooled_sum)

    def test_trivial_partition_matches_unsharded_fault_path(
        self, medium_system, flaky_plan
    ):
        solver = get_solver("ghc")
        base, base_sum = run_collected(
            medium_system, solver, seed=9, faults=flaky_plan
        )
        shard, shard_sum = run_collected(
            medium_system, solver, seed=9, faults=flaky_plan,
            shard=ShardSpec(cells=1),
        )
        assert_same_schedule(base, shard)
        assert base.fault_trace == shard.fault_trace
        assert strip_timing(base_sum) == strip_timing(shard_sum)

    def test_confirmed_permanent_crash_triggers_refresh(self, medium_system):
        from repro.faults import FaultPlan
        from repro.faults.plan import PermanentCrash
        from repro.obs.events import SpanStart, TraceRecorder

        plan = FaultPlan(
            reader_faults=(PermanentCrash(reader=2, at_slot=0),),
            miss_rate=0.3, seed=11,
        )
        tracer = TraceRecorder()
        with recording(tracer):
            result = greedy_covering_schedule(
                medium_system, get_solver("ghc"), seed=9, faults=plan,
                shard=ShardSpec(cells=16),
            )
        refreshes = [
            e for e in tracer.events
            if isinstance(e, SpanStart) and e.name == "shard.refresh"
        ]
        assert len(refreshes) == 1  # one crash, confirmed exactly once
        # the run still reads every tag reachable without the dead reader
        unread = np.ones(medium_system.num_tags, dtype=bool)
        for s in result.slots:
            unread[s.tags_read] = False
        alive = np.ones(medium_system.num_readers, dtype=bool)
        alive[2] = False
        left = np.flatnonzero(unread & medium_system.covered_by_any())
        reachable = medium_system.coverage[
            np.ix_(left, np.flatnonzero(alive))
        ]
        assert not reachable.any()

    def test_retire_readers_rebuckets_orphans(self, medium_system):
        """Direct partition-level check: killing a cell's reader re-homes
        its tags to surviving covering readers or orphans them."""
        partition = ShardPartition.from_system(
            medium_system, ShardSpec(cells=16)
        )
        victim = int(partition.cells[0].reader_ids[0])
        owned_before = np.flatnonzero(partition.owner_of_tag >= 0)
        report = partition.retire_readers([victim])
        assert report.retired == (victim,)
        assert not partition.reader_alive[victim]
        # every formerly-owned tag is re-homed to an alive covering reader
        # or orphaned (owner -1); none may point at the dead reader's cell
        # without an alive owner covering it
        for t in owned_before:
            c = int(partition.owner_of_tag[t])
            if c < 0:
                continue
            cell = partition.cells[c]
            local_t = int(np.searchsorted(cell.tag_ids, t))
            alive_local = partition.reader_alive[cell.all_reader_ids]
            covers = cell.subsystem.coverage[local_t] & alive_local
            assert covers.any()
        assert report.moved_tags + report.orphaned_tags >= 0
        # idempotent: retiring the same reader again is a no-op
        again = partition.retire_readers([victim])
        assert again.retired == ()


def boundary_deployment():
    """Hand-built adversarial boundary deployment.

    ``R = 4``, ``gamma = 2`` for all readers gives interaction radius
    ``H = 4``; with ``ShardSpec(cells=0)`` the grid side is exactly 4 and
    the origin is pinned at (0, 0) by reader 0.  The deployment then
    exercises every boundary case the merge pass must survive:

    * reader 1 at (3.5, 2): its interrogation ball straddles the cells
      keyed (0, 0) and (1, 0);
    * reader 4 at (3.8, 3.8): its ball straddles all four cells around the
      grid corner (4, 4);
    * readers 1/2 and 4/5 are cross-cell conflicting pairs;
    * tags sit exactly ON cell edges ((4, 2), (8, 2)) and the corner
      (4, 4), where ``floor`` tips them into the neighbouring bucket —
      (8, 2) additionally sits exactly at its only reader's interrogation
      radius.
    """
    rpos = np.array([
        [0.0, 0.0],    # 0: pins the origin, cell (0,0)
        [3.5, 2.0],    # 1: straddles the x=4 edge, cell (0,0)
        [4.5, 2.0],    # 2: cell (1,0) — conflicts with 1 across the edge
        [10.0, 2.0],   # 3: interior of cell (2,0)
        [3.8, 3.8],    # 4: straddles the 4-cell corner (4,4), cell (0,0)
        [4.2, 4.2],    # 5: cell (1,1) — conflicts with 4 across the corner
        [10.0, 10.0],  # 6: interior of cell (2,2)
    ])
    n = len(rpos)
    R = np.full(n, 4.0)
    gamma = np.full(n, 2.0)
    tpos = np.array([
        [4.0, 2.0],    # exactly on the x=4 edge, between readers 1 and 2
        [4.0, 4.0],    # exactly on the 4-cell corner
        [8.0, 2.0],    # on the x=8 edge, exactly at reader 3's radius
        [2.0, 2.0],    # interior, covered by reader 1 only
        [10.5, 2.0],   # interior of cell (2,0)
        [9.5, 10.0],   # interior of cell (2,2)
        [0.5, 0.5],    # near origin, covered by reader 0 only
        [50.0, 50.0],  # uncoverable
    ])
    return rpos, R, gamma, tpos


class TestBoundaryScenarios:
    @pytest.fixture(scope="class")
    def built(self):
        from repro.model.system import build_system

        rpos, R, gamma, tpos = boundary_deployment()
        system = build_system(rpos, R, gamma, tpos)
        partition = ShardPartition.from_arrays(
            rpos, R, gamma, tpos, ShardSpec(cells=0)
        )
        return system, partition

    def test_partition_shape(self, built):
        system, partition = built
        assert partition is not None
        assert partition.cell_side == 4.0
        # straddling readers stay owned by the cell containing their centre
        assert partition.cell_of_reader[1] == partition.cell_of_reader[0]
        assert partition.cell_of_reader[4] == partition.cell_of_reader[0]
        assert partition.cell_of_reader[2] != partition.cell_of_reader[1]
        assert partition.cell_of_reader[5] != partition.cell_of_reader[4]

    def test_edge_tags_owned_by_lowest_covering_reader(self, built):
        system, partition = built
        owner = partition.owner_of_tag
        # tag 0 on the x=4 edge: covered by readers 1 and 2, owner = cell(1)
        assert owner[0] == partition.cell_of_reader[1]
        # tag 1 on the corner: covered by readers 4 and 5, owner = cell(4)
        assert owner[1] == partition.cell_of_reader[4]
        # the uncoverable tag is unowned
        assert owner[7] == -1
        # ownership always implies the owner cell covers the tag
        cov = system.coverage  # (m, n)
        for t in range(system.num_tags - 1):
            cell = partition.cells[owner[t]]
            assert cov[t, cell.reader_ids].any()

    def test_straddling_balls_imported_as_halo(self, built):
        _, partition = built
        c1 = partition.cell_of_reader[1]
        c2 = partition.cell_of_reader[2]
        assert 2 in partition.cells[c1].all_reader_ids
        assert 1 in partition.cells[c2].all_reader_ids
        # the corner reader is halo in its diagonal neighbour
        c5 = partition.cell_of_reader[5]
        assert 4 in partition.cells[c5].all_reader_ids

    def test_schedule_matches_unsharded_coverage(self, built):
        system, _ = built
        solver = get_solver("ghc")
        base = greedy_covering_schedule(system, solver, seed=2)
        shard = greedy_covering_schedule(
            system, solver, seed=2, shard=ShardSpec(cells=0)
        )
        assert shard.complete and base.complete
        assert shard.tags_read_total == base.tags_read_total == 7
        assert np.array_equal(shard.uncovered_tags, base.uncovered_tags)


def owned_runtime(partition, unread=None):
    """A GHC runtime over *unread* (default: every coverable tag unread,
    as the array driver starts)."""
    if unread is None:
        unread = partition.owner_of_tag >= 0
    return ShardRuntime(partition, unread, get_solver("ghc"), True)


class TestRuntime:
    def test_retire_advances_unread_counts(self, medium_system):
        partition = ShardPartition.from_system(medium_system, ShardSpec(cells=16))
        runtime = owned_runtime(partition)
        before = runtime.num_unread
        coverable = np.flatnonzero(partition.owner_of_tag >= 0)
        confirmed = coverable[: min(25, len(coverable))]
        runtime.retire(confirmed)
        assert runtime.num_unread == before - len(confirmed)
        # retiring again is idempotent
        runtime.retire(confirmed)
        assert runtime.num_unread == before - len(confirmed)

    def test_best_singleton_is_max_coverage_owned_reader(self, medium_system):
        partition = ShardPartition.from_system(medium_system, ShardSpec(cells=16))
        runtime = owned_runtime(partition)
        best = runtime.best_singleton()
        cov = medium_system.coverage  # (m, n)
        coverable = partition.owner_of_tag >= 0
        counts = cov[coverable].sum(axis=0)
        assert counts[best] == counts.max()
        # ties break to the lowest global id
        assert best == int(np.argmax(counts == counts.max()))

    def test_refresh_rebuilds_from_the_driver_mask(self, medium_system):
        """The runtime reads the driver's unread mask by reference: tags
        the driver retired stay read in rebuilt cells."""
        partition = ShardPartition.from_system(medium_system, ShardSpec(cells=16))
        unread = partition.owner_of_tag >= 0
        runtime = owned_runtime(partition, unread)
        victim = int(partition.cells[0].reader_ids[0])
        read = np.flatnonzero(partition.owner_of_tag == 0)
        runtime.retire(read)
        unread[read] = False
        report = runtime.refresh([victim])
        assert report.rebuilt_cells or report.emptied_cells
        owned = unread & (partition.owner_of_tag >= 0)
        assert runtime.num_unread == int(owned.sum())


# ----------------------------------------------------------------------
# Sparse conflict graph, one-pass merge and sparse verification, each
# against the dense code path it replaced (kept here as the reference).


@st.composite
def shard_deployments(draw):
    """Random multi-cell deployments as ``(rpos, R, gamma, tpos)``.

    Interrogation radii never exceed interference radii.  Integer
    deployments add *twin* readers placed exactly
    ``max(R_i, R_j)`` from an existing reader (axis-aligned, or a 3-4-5
    triangle), so boundary pairs ``d == max(R_i, R_j)`` occur every time.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(4, 30))
    m = draw(st.integers(0, 60))
    if draw(st.booleans()):
        rpos = rng.integers(0, 30, size=(n, 2)).astype(float)
        R = rng.integers(1, 6, size=n).astype(float)
        gamma = rng.integers(1, 3, size=n).astype(float)
        tpos = rng.integers(0, 30, size=(m, 2)).astype(float)
        twins = []
        for i in rng.choice(n, size=min(n, 8), replace=False):
            r = R[i]
            step = [(r, 0.0), (0.0, r), (-r, 0.0)][int(rng.integers(3))]
            if r == 5.0 and rng.integers(2):
                step = (3.0, 4.0)
            twins.append((rpos[i] + step, float(rng.integers(1, r + 1))))
        rpos = np.vstack([rpos] + [p[None, :] for p, _ in twins])
        R = np.concatenate([R, [r for _, r in twins]])
        gamma = np.concatenate([gamma, rng.integers(1, 3, size=len(twins))])
        gamma = gamma.astype(float)
    else:
        rpos = rng.uniform(0, 40, size=(n, 2))
        R = rng.exponential(3.0, size=n) + 0.5
        gamma = rng.exponential(1.0, size=n) + 0.2
        tpos = rng.uniform(0, 40, size=(m, 2))
    return rpos, R, np.minimum(gamma, R), tpos


def multi_cell_partition(deployment):
    partition = ShardPartition.from_arrays(*deployment, ShardSpec(cells=0))
    assume(partition is not None)
    return partition


def dense_conflicts(rpos, R):
    """Every ordered pair ``i != j`` with ``d² <= max(R_i, R_j)²``."""
    diff = rpos[:, None, :] - rpos[None, :, :]
    d2 = (diff * diff).sum(axis=-1)
    rmax = np.maximum(R[:, None], R[None, :])
    hit = d2 <= rmax * rmax
    np.fill_diagonal(hit, False)
    return hit


def reference_contexts(partition, unread):
    """Per cell, a context over its owned tags unread in the driver's
    *unread* mask: what the runtime's stacked cell state must hold."""
    return [
        ScheduleContext(cell.subsystem, cell.owned_tag_mask & unread[cell.tag_ids])
        for cell in partition.cells
    ]


def reference_owner_count(partition, contexts, reader):
    """*reader*'s remaining count in its owner cell's reference context."""
    cell = partition.cells[int(partition.cell_of_reader[reader])]
    loc = int(np.searchsorted(cell.all_reader_ids, reader))
    return int(contexts[cell.index].remaining_counts[loc])


def dense_reconcile(partition, unread, active):
    """The dense iterate-until-clean merge the one-pass version replaced,
    with owner counts from :func:`reference_contexts`."""
    k = int(len(active))
    if k <= 1:
        return active, 0
    pos = partition.reader_positions[active]
    R = partition.interference_radii[active]
    owner = partition.cell_of_reader[active]
    diff = pos[:, None, :] - pos[None, :, :]
    d2 = (diff * diff).sum(axis=-1)
    rmax = np.maximum(R[:, None], R[None, :])
    cross = (d2 <= rmax * rmax) & (owner[:, None] != owner[None, :])
    if not cross.any():
        return active, 0
    contexts = reference_contexts(partition, unread)
    vals = np.array(
        [reference_owner_count(partition, contexts, g) for g in active],
        dtype=np.int64,
    )
    live = np.ones(k, dtype=bool)
    repairs = 0
    while True:
        conflicted = (cross & live[None, :]).any(axis=1) & live
        if not conflicted.any():
            break
        cand = np.flatnonzero(conflicted)
        v = vals[cand]
        live[cand[np.flatnonzero(v == v.min())[-1]]] = False
        repairs += 1
    return active[live], repairs


def dense_verification(active, rpos, R, gamma, tpos, unread):
    """Definition 1 over dense reader-reader and tag-reader matrices."""
    empty = np.empty(0, dtype=np.int64)
    if len(active) == 0:
        return empty, 0, 0
    pos = rpos[active]
    diff = pos[:, None, :] - pos[None, :, :]
    in_range = (diff * diff).sum(axis=-1) <= R[active][None, :] ** 2
    np.fill_diagonal(in_range, False)
    suffering = in_range.any(axis=1)
    dx = tpos[:, 0][:, None] - pos[None, :, 0]
    dy = tpos[:, 1][:, None] - pos[None, :, 1]
    g = gamma[active]
    cov = dx * dx + dy * dy <= (g * g)[None, :]
    counts = cov.sum(axis=1)
    once = unread & (counts == 1)
    well = np.flatnonzero(once & ~suffering[np.argmax(cov, axis=1)])
    rrc = int((unread & (counts >= 2)).sum())
    return well, rrc, int(suffering.sum())


def random_active(rng, readers):
    """A sorted random subset of *readers*."""
    keep = rng.random(len(readers)) < rng.uniform(0.2, 1.0)
    return np.sort(readers[keep])


class TestLockstepClimb:
    """The lockstep GHC over every calm cell activates exactly the readers
    of the per-cell GHC solves, slot after slot."""

    @staticmethod
    def assert_same_slots(partition, seed, suspect_rate=0.0, slots=6):
        runs = []
        for lockstep in (False, True):
            unread = partition.owner_of_tag >= 0
            runtime = ShardRuntime(
                partition, unread, get_solver("ghc"), True, lockstep
            )
            rng = np.random.default_rng(seed)
            draws = np.random.default_rng(seed + 1)
            actives = []
            for slot in range(slots):
                suspected = draws.random(len(partition.reader_positions))
                suspected = (
                    suspected < suspect_rate if suspect_rate else None
                )
                active, meta = runtime.solve_slot(
                    slot, rng, RunCollector(), suspected
                )
                actives.append((active.tolist(), meta))
                left = np.flatnonzero(unread)
                gone = left[draws.random(len(left)) < 0.5]
                runtime.retire(gone)
                unread[gone] = False
            runs.append(actives)
        assert runs[0] == runs[1]

    @settings(max_examples=40, deadline=None)
    @given(deployment=shard_deployments(), seed=st.integers(0, 2 ** 16))
    def test_matches_per_cell_solves(self, deployment, seed):
        partition = multi_cell_partition(deployment)
        self.assert_same_slots(partition, seed)

    @settings(max_examples=15, deadline=None)
    @given(deployment=shard_deployments(), seed=st.integers(0, 2 ** 16))
    def test_suspected_cells_keep_their_own_solve(self, deployment, seed):
        partition = multi_cell_partition(deployment)
        self.assert_same_slots(partition, seed, suspect_rate=0.1)

    def test_wide_cells_match_the_pruned_climb(self):
        """Cells with frontiers above BATCH_MIN, which the per-cell climb
        scores bound-pruned."""
        system = Scenario(num_readers=300, num_tags=3000, side=100.0, seed=4).build()
        partition = ShardPartition.from_system(system, ShardSpec(cells=4))
        assert max(len(c.all_reader_ids) for c in partition.cells) > 64
        self.assert_same_slots(partition, 3)

    def test_scale_schedule_matches_per_cell_solves(self):
        """The scale driver climbs in lockstep only for the name "ghc"; the
        same solver under another name solves cell by cell."""
        from repro.core import oneshot
        from repro.shard.scale import ScaleDeployment, run_scale_schedule

        deployment = ScaleDeployment(400, 8000, 280.0, seed=5)
        spec = ShardSpec(cells=0)
        lockstep = run_scale_schedule(deployment, spec, seed=2)
        oneshot._ensure_builtins()
        alias = {"ghc_per_cell": oneshot._REGISTRY["ghc"]}
        with mock.patch.dict(oneshot._REGISTRY, alias):
            per_cell = run_scale_schedule(
                deployment, spec, solver="ghc_per_cell", seed=2
            )
        assert lockstep == per_cell


class TestConflictGraph:
    @given(deployment=shard_deployments())
    @settings(max_examples=60, deadline=None)
    def test_csr_equals_all_pairs(self, deployment):
        partition = multi_cell_partition(deployment)
        rpos, R = deployment[0], deployment[1]
        n = len(rpos)
        indptr, ids = partition.conflict_indptr, partition.conflict_ids
        assert indptr.shape == (n + 1,)
        got = np.zeros((n, n), dtype=bool)
        for i in range(n):
            row = ids[indptr[i]:indptr[i + 1]]
            assert (np.diff(row) > 0).all()
            got[i, row] = True
        assert np.array_equal(got, dense_conflicts(rpos, R))

    @given(deployment=shard_deployments(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_active_conflicts_restrict_the_graph(self, deployment, data):
        partition = multi_cell_partition(deployment)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        active = rng.permutation(len(deployment[0]))[: rng.integers(0, 10)]
        rows, cols = partition.active_conflicts(active)
        assert (np.diff(rows) >= 0).all()
        hit = dense_conflicts(deployment[0], deployment[1])
        want = set(zip(*np.nonzero(hit[np.ix_(active, active)])))
        assert set(zip(rows.tolist(), cols.tolist())) == want


class TestCoverageRelation:
    """The partition's (tag, reader) pairs are the dense coverage matrix,
    and ownership and the reader-major transpose follow from them, before
    and after a refresh (which keeps the pairs)."""

    @staticmethod
    def assert_relation(partition, deployment):
        from repro.model.system import build_system

        coverage = build_system(*deployment).coverage
        m, n = coverage.shape
        indptr, ids = partition.cover_indptr, partition.cover_ids
        assert indptr.shape == (m + 1,)
        got = np.zeros((m, n), dtype=bool)
        for t in range(m):
            row = ids[indptr[t]:indptr[t + 1]]
            assert (np.diff(row) > 0).all()
            got[t, row] = True
        coverable = coverage.any(axis=1)
        np.testing.assert_array_equal(got[coverable], coverage[coverable])
        assert not got[~coverable].any()
        by_reader, tags = partition.tags_by_reader
        assert by_reader.shape == (n + 1,)
        for r in range(n):
            row = tags[by_reader[r]:by_reader[r + 1]]
            np.testing.assert_array_equal(row, np.flatnonzero(coverage[:, r]))
        np.testing.assert_array_equal(
            partition.owner_of_tag, reference_owners(deployment, partition)
        )

    @given(deployment=shard_deployments(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_pairs_equal_dense_coverage(self, deployment, data):
        partition = multi_cell_partition(deployment)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        self.assert_relation(partition, deployment)
        pairs = (partition.cover_indptr, partition.cover_ids)
        n = len(deployment[0])
        dead = rng.choice(n, size=int(rng.integers(1, n // 2 + 1)), replace=False)
        partition.retire_readers(dead)
        assert partition.cover_indptr is pairs[0]
        assert partition.cover_ids is pairs[1]
        self.assert_relation(partition, deployment)


class TestReconcileDifferential:
    """The one-pass merge returns the same set and repair count as the
    dense iterate-until-clean rule."""

    @staticmethod
    def _check(runtime, unread, rng, readers):
        for _ in range(5):
            active = random_active(rng, readers)
            got, got_repairs = runtime._reconcile(active)
            want, want_repairs = dense_reconcile(runtime.partition, unread, active)
            assert np.array_equal(got, want)
            assert got_repairs == want_repairs

    @given(deployment=shard_deployments(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_rule(self, deployment, data):
        partition = multi_cell_partition(deployment)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        unread = partition.owner_of_tag >= 0
        runtime = owned_runtime(partition, unread)
        coverable = np.flatnonzero(unread)
        gone = coverable[rng.random(len(coverable)) < 0.4]
        runtime.retire(gone)
        unread[gone] = False
        self._check(runtime, unread, rng, np.arange(len(deployment[0])))

    @given(deployment=shard_deployments(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_rule_after_refresh(self, deployment, data):
        partition = multi_cell_partition(deployment)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        unread = partition.owner_of_tag >= 0
        runtime = owned_runtime(partition, unread)
        graph = (partition.conflict_indptr, partition.conflict_ids)
        n = len(deployment[0])
        dead = rng.choice(n, size=int(rng.integers(1, n // 2 + 1)), replace=False)
        runtime.refresh(dead)
        # the graph depends on positions and radii only: refresh keeps it
        assert partition.conflict_indptr is graph[0]
        assert partition.conflict_ids is graph[1]
        self._check(
            runtime, unread, rng, np.flatnonzero(partition.reader_alive)
        )


class TestCellStateDifferential:
    """The runtime's stacked cell state equals one fresh
    :class:`ScheduleContext` per cell over the driver's unread mask,
    through retire batches and a refresh that orphans tags."""

    @staticmethod
    def assert_matches(runtime, unread, rng):
        partition, stack = runtime.partition, runtime._stack
        contexts = reference_contexts(partition, unread)
        assert runtime.num_unread == sum(c.num_unread for c in contexts)
        assert runtime.live_cells() == [
            i for i, c in enumerate(contexts) if c.num_unread > 0
        ]
        for i, ctx in enumerate(contexts):
            np.testing.assert_array_equal(stack.cell_unread_mask(i), ctx.unread)
            r = slice(stack.reader_start[i], stack.reader_start[i + 1])
            np.testing.assert_array_equal(
                stack.remaining[r], ctx.remaining_counts
            )
        owned = np.flatnonzero(partition.reader_alive)
        owned = owned[[
            g in partition.cells[int(partition.cell_of_reader[g])].reader_ids
            for g in owned
        ]]
        np.testing.assert_array_equal(
            stack.owner_counts(owned),
            [reference_owner_count(partition, contexts, g) for g in owned],
        )
        for rate in (0.0, 0.3):
            suspected = rng.random(len(partition.reader_positions)) < rate
            best = None
            for cell, ctx in zip(partition.cells, contexts):
                ok = cell.owned_reader_mask & ~suspected[cell.all_reader_ids]
                for loc in np.flatnonzero(ok & (ctx.remaining_counts > 0)):
                    key = (-int(ctx.remaining_counts[loc]),
                           int(cell.all_reader_ids[loc]))
                    best = key if best is None else min(best, key)
            want = None if best is None else best[1]
            assert runtime.best_singleton(suspected if rate else None) == want

    @staticmethod
    def retire_batch(runtime, unread, rng):
        """Retire a batch of still-unread tags mixed with repeats and
        arbitrary tags: halo, unowned and already-read ones."""
        m = len(unread)
        left = np.flatnonzero(unread)
        batch = np.concatenate([
            left[rng.random(len(left)) < 0.3],
            rng.integers(0, m, size=int(rng.integers(0, 6))) if m else [],
        ]).astype(np.int64)
        batch = np.concatenate([batch, batch[: len(batch) // 2]])
        runtime.retire(rng.permutation(batch))
        unread[batch] = False

    @given(deployment=shard_deployments(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_cell_contexts(self, deployment, data):
        partition = multi_cell_partition(deployment)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        # the dense driver's mask: coverable tags, orphans of a refresh
        # stay unread
        unread = partition.owner_of_tag >= 0
        runtime = owned_runtime(partition, unread)
        self.assert_matches(runtime, unread, rng)
        for step in range(4):
            self.retire_batch(runtime, unread, rng)
            self.assert_matches(runtime, unread, rng)
            if step == 1:
                # kill every cover of one unread tag, and a few readers more
                dead = rng.choice(
                    len(partition.reader_positions),
                    size=int(rng.integers(0, 3)),
                )
                owners = partition.owner_of_tag
                left = np.flatnonzero(unread & (owners >= 0))
                if left.size:
                    tag = int(rng.choice(left))
                    cell = partition.cells[int(owners[tag])]
                    row = int(np.searchsorted(cell.tag_ids, tag))
                    covers = cell.all_reader_ids[cell.subsystem.coverage[row]]
                    dead = np.concatenate([dead, covers])
                report = runtime.refresh(dead)
                assert report.orphaned_tags > 0 or not left.size
                self.assert_matches(runtime, unread, rng)


class TestSparseVerification:
    """Verification over the partition's coverage relation equals
    Definition 1 over dense matrices, before and after a refresh (which
    keeps the relation)."""

    @staticmethod
    def _check(partition, deployment, rng, readers):
        from repro.shard.scale import _slot_verification

        rpos, R, gamma, tpos = deployment
        for _ in range(5):
            active = random_active(rng, readers)
            unread = rng.random(len(tpos)) < 0.7
            well, rrc, rtc = _slot_verification(active, partition, unread)
            ref = dense_verification(active, rpos, R, gamma, tpos, unread)
            assert np.array_equal(well, ref[0])
            assert (rrc, rtc) == ref[1:]

    @given(deployment=shard_deployments(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_reference(self, deployment, data):
        partition = multi_cell_partition(deployment)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        self._check(partition, deployment, rng, np.arange(len(deployment[0])))

    @given(deployment=shard_deployments(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_reference_after_refresh(self, deployment, data):
        partition = multi_cell_partition(deployment)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        # the transpose is built here and kept by the refresh
        self._check(partition, deployment, rng, np.arange(len(deployment[0])))
        n = len(deployment[0])
        dead = rng.choice(n, size=int(rng.integers(1, n // 2 + 1)), replace=False)
        partition.retire_readers(dead)
        self._check(
            partition, deployment, rng, np.flatnonzero(partition.reader_alive)
        )


# ----------------------------------------------------------------------
# The batched cell builder against the per-cell builder it replaced
# (kept here as the reference) and a dense ownership rule.


def reference_cell(partition, idx, key):
    """Cell *idx* at bucket *key*, built alone as the per-cell builder
    did: one-ring gather, halo by rectangle distance, band by ``γ_max``."""
    from repro.model.system import build_system
    from repro.shard.partition import RING_OFFSETS, NEIGHBOURHOOD, ShardCell

    def gather(buckets, offsets):
        parts = [
            buckets[(key[0] + dx, key[1] + dy)]
            for dx, dy in offsets
            if (key[0] + dx, key[1] + dy) in buckets
        ]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def dist_to_rect(points):
        dx = np.clip(points[:, 0], x0, x1) - points[:, 0]
        dy = np.clip(points[:, 1], y0, y1) - points[:, 1]
        return np.hypot(dx, dy)

    rpos, tpos = partition.reader_positions, partition.tag_positions
    R, gamma = partition.interference_radii, partition.interrogation_radii
    alive = partition.reader_alive
    side = partition.cell_side
    x0 = float(partition.origin[0] + key[0] * side)
    y0 = float(partition.origin[1] + key[1] * side)
    x1, y1 = x0 + side, y0 + side
    owned = partition._reader_buckets[key]
    owned = owned[alive[owned]]
    R_own = float(R[owned].max())
    g_own = float(gamma[owned].max())
    ring = gather(partition._reader_buckets, RING_OFFSETS)
    ring = ring[alive[ring]]
    reach = np.maximum(np.maximum(R[ring], R_own), gamma[ring] + g_own)
    halo = np.sort(ring[dist_to_rect(rpos[ring]) <= reach])
    all_readers = np.sort(np.concatenate([owned, halo]))
    g_inc = float(gamma[all_readers].max())
    band = gather(partition._tag_buckets, NEIGHBOURHOOD)
    keep = (dist_to_rect(tpos[band]) <= g_inc) | (
        partition.owner_of_tag[band] == idx
    )
    tag_ids = np.sort(band[keep])
    cell = ShardCell(
        index=idx,
        key=key,
        bounds=(x0, x1, y0, y1),
        reader_ids=owned,
        halo_reader_ids=halo,
        all_reader_ids=all_readers,
        tag_ids=tag_ids,
        owned_reader_mask=np.isin(all_readers, owned, assume_unique=True),
        owned_tag_mask=partition.owner_of_tag[tag_ids] == idx,
    )
    cell.subsystem = build_system(
        rpos[all_readers], R[all_readers], gamma[all_readers], tpos[tag_ids]
    )
    return cell


def reference_owners(deployment, partition):
    """Owner cell of each tag's lowest-id alive covering reader (``-1``
    when none), decided on ``(diff*diff).sum(-1)`` over every reader."""
    rpos, _, gamma, tpos = deployment
    diff = tpos[:, None, :] - rpos[None, :, :]
    covers = (diff * diff).sum(axis=-1) <= (gamma * gamma)[None, :]
    covers &= partition.reader_alive[None, :]
    first = np.argmax(covers, axis=1)
    return np.where(
        covers.any(axis=1), partition.cell_of_reader[first], -1
    )


CELL_ARRAYS = (
    "reader_ids",
    "halo_reader_ids",
    "all_reader_ids",
    "tag_ids",
    "owned_reader_mask",
    "owned_tag_mask",
)
SUBSYSTEM_ARRAYS = (
    "reader_positions",
    "interference_radii",
    "interrogation_radii",
    "tag_positions",
    "coverage",
    "in_interference_range",
    "conflict",
)


def assert_same_cell(got, want):
    assert (got.index, got.key, got.bounds) == (want.index, want.key, want.bounds)
    for name in CELL_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    for name in SUBSYSTEM_ARRAYS:
        a, b = getattr(got.subsystem, name), getattr(want.subsystem, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        np.testing.assert_array_equal(a, b, err_msg=name)


class TestBatchedCellBuilder:
    """``ShardPartition._build_cells`` equals the per-cell reference on
    every field, at construction and after a refresh."""

    @given(deployment=shard_deployments(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_cell_builder(self, deployment, data):
        partition = multi_cell_partition(deployment)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        np.testing.assert_array_equal(
            partition.owner_of_tag, reference_owners(deployment, partition)
        )
        indptr, ids = partition.conflict_indptr, partition.conflict_ids
        got = np.zeros((len(deployment[0]),) * 2, dtype=bool)
        got[np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)), ids] = True
        np.testing.assert_array_equal(
            got, dense_conflicts(deployment[0], deployment[1])
        )
        for cell in partition.cells:
            assert_same_cell(cell, reference_cell(partition, cell.index, cell.key))

        before = list(partition.cells)
        n = len(deployment[0])
        dead = rng.choice(n, size=int(rng.integers(1, n // 2 + 1)), replace=False)
        report = partition.retire_readers(dead)
        np.testing.assert_array_equal(
            partition.owner_of_tag, reference_owners(deployment, partition)
        )
        for idx in report.rebuilt_cells:
            cell = partition.cells[idx]
            assert_same_cell(cell, reference_cell(partition, idx, cell.key))
        for idx in report.emptied_cells:
            assert partition.cells[idx].reader_ids.size == 0
        touched = set(report.rebuilt_cells) | set(report.emptied_cells)
        for idx, cell in enumerate(partition.cells):
            if idx not in touched:
                assert cell is before[idx]

    def test_blocks_do_not_change_cells(self, monkeypatch):
        from repro.shard import partition as partition_module

        deployment = Scenario(
            num_readers=150, num_tags=3000, side=170.0, seed=4
        ).build()
        arrays = (
            deployment.reader_positions,
            deployment.interference_radii,
            deployment.interrogation_radii,
            deployment.tag_positions,
        )
        one = ShardPartition.from_arrays(*arrays, ShardSpec(cells=0))
        monkeypatch.setattr(partition_module, "BUILD_BLOCK", 1)
        many = ShardPartition.from_arrays(*arrays, ShardSpec(cells=0))
        assert many.num_cells == one.num_cells > 1
        for a, b in zip(many.cells, one.cells):
            assert_same_cell(a, b)
