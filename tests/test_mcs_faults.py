"""Contract tests for the fault-tolerant covering-schedule driver.

Pins, per ``docs/robustness.md``:

* **default-path identity** — with ``faults=None`` the hardened driver's
  schedules and BENCH counters are bit-identical to the historical path;
* **determinism** — equal (schedule seed, plan) pairs reproduce identical
  fault traces and schedules, and every solver faces the same failed-reader
  trace;
* **liveness** — under non-permanent faults with ACK-based retirement every
  solver still reads 100 % of coverable tags;
* heartbeat suspicion excludes crashed readers and lifts on recovery;
* the deadline ladder degrades primary → fallback → singleton and emits the
  typed events;
* the stall guard terminates hopeless runs with ``ScheduleOutcome.stalled``.
"""

import functools

import numpy as np
import pytest

from repro.baselines.hillclimb import greedy_hill_climbing
from repro.core.distributed import distributed_mwfs
from repro.core.exact import exact_mwfs
from repro.core.localsearch import local_search_mwfs
from repro.core.mcs import ScheduleOutcome, greedy_covering_schedule
from repro.core.neighborhood import centralized_location_free
from repro.core.oneshot import get_solver
from repro.core.ptas import ptas_mwfs
from repro.faults import (
    FaultPlan,
    FaultPolicy,
    FlakyActivation,
    PermanentCrash,
    TransientCrash,
)
from repro.model import build_system
from repro.obs.collectors import RunCollector
from repro.obs.events import (
    ReaderFailed,
    ReadMissed,
    ScheduleDegraded,
    SolverDeadline,
    TraceRecorder,
    recording,
)
from tests.conftest import make_random_system

SOLVERS = {
    "exact": exact_mwfs,
    "ptas": functools.partial(ptas_mwfs, k=2),
    "localsearch": local_search_mwfs,
    "centralized": centralized_location_free,
    "distributed": distributed_mwfs,
    "ghc": greedy_hill_climbing,
}


def _fingerprint(result):
    return {
        "size": result.size,
        "complete": result.complete,
        "outcome": result.outcome,
        "weights": [slot.weight for slot in result.slots],
        "tags_read": [slot.tags_read.tolist() for slot in result.slots],
        "active": [slot.active.tolist() for slot in result.slots],
    }


def _small():
    return make_random_system(10, 120, 40, 8, 5, seed=3)


def _all_coverable():
    """Dense instance where every tag is coverable (liveness precondition)."""
    rng = np.random.default_rng(12)
    n, m, side = 8, 80, 24.0
    readers = rng.uniform(0, side, size=(n, 2))
    tags = readers[rng.integers(0, n, size=m)] + rng.uniform(
        -2.0, 2.0, size=(m, 2)
    )
    system = build_system(
        readers, np.full(n, 10.0), np.full(n, 6.0), tags
    )
    assert system.covered_by_any().all()
    return system


# ---------------------------------------------------------------------------
# default-path identity
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SOLVERS))
class TestDefaultPathIdentity:
    def test_schedule_and_counters_identical(self, name):
        system = _small()
        solver = SOLVERS[name]

        def run(**kwargs):
            collector = RunCollector()
            with recording(collector):
                result = greedy_covering_schedule(
                    system, solver, seed=11, **kwargs
                )
            metrics = collector.summary()
            for key in ("solver_wall_clock_s", "solver_seconds_by_name",
                        "stage_seconds_by_name", "histograms"):
                metrics.pop(key, None)
            return result, metrics

        ref, ref_metrics = run()
        new, new_metrics = run(faults=None)
        assert _fingerprint(new) == _fingerprint(ref)
        assert new_metrics == ref_metrics
        assert new.fault_trace is None
        # no fault counters leak into default-path records
        assert "readers_failed" not in new_metrics

    def test_empty_plan_matches_default_schedule(self, name):
        system = _small()
        solver = SOLVERS[name]
        ref = greedy_covering_schedule(system, solver, seed=11)
        empty = greedy_covering_schedule(
            system, solver, seed=11, faults=FaultPlan()
        )
        assert _fingerprint(empty) == _fingerprint(ref)
        assert empty.fault_trace is not None


# ---------------------------------------------------------------------------
# determinism and solver independence
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SOLVERS))
class TestDeterminism:
    def test_equal_seeds_equal_traces_and_schedules(self, name):
        system = _all_coverable()
        plan = FaultPlan.uniform_flaky(
            system.num_readers, 0.3, miss_rate=0.2, seed=41
        )
        a = greedy_covering_schedule(
            system, SOLVERS[name], seed=7, faults=plan, max_slots=4000
        )
        b = greedy_covering_schedule(
            system, SOLVERS[name], seed=7, faults=plan, max_slots=4000
        )
        assert a.fault_trace == b.fault_trace
        assert _fingerprint(a) == _fingerprint(b)


def test_failed_reader_trace_is_solver_independent():
    """Every solver faces the same failure mask at slot *t*."""
    system = _all_coverable()
    plan = FaultPlan.uniform_flaky(system.num_readers, 0.3, seed=13)
    failed_by_solver = {}
    for name, solver in SOLVERS.items():
        result = greedy_covering_schedule(
            system, solver, seed=7, faults=plan, max_slots=4000
        )
        failed_by_solver[name] = {
            slot: failed for slot, failed, _ in result.fault_trace
        }
    names = sorted(failed_by_solver)
    shortest = min(len(failed_by_solver[n]) for n in names)
    for slot in range(shortest):
        masks = {failed_by_solver[n][slot] for n in names}
        assert len(masks) == 1, f"slot {slot} masks differ: {masks}"


# ---------------------------------------------------------------------------
# liveness: non-permanent faults never cost tags, only slots
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_liveness_under_flaky_and_miss(name):
    system = _all_coverable()
    plan = FaultPlan.uniform_flaky(
        system.num_readers, 0.3, miss_rate=0.2, seed=29
    )
    result = greedy_covering_schedule(
        system, SOLVERS[name], seed=5, faults=plan, max_slots=4000
    )
    assert result.outcome is ScheduleOutcome.complete
    assert result.complete
    assert result.tags_read_total == system.num_tags


def test_ack_retirement_retries_missed_reads():
    system = _all_coverable()
    plan = FaultPlan(miss_rate=0.5, seed=3)
    collector = RunCollector()
    with recording(collector):
        result = greedy_covering_schedule(
            system, SOLVERS["ghc"], seed=5, faults=plan, max_slots=4000
        )
    assert result.complete
    assert collector.fault_counters["reads_missed"] > 0
    # missed reads cost slots, never tags
    baseline = greedy_covering_schedule(system, SOLVERS["ghc"], seed=5)
    assert result.size > baseline.size
    assert result.tags_read_total == baseline.tags_read_total
    # the summary exports the fault block only when events were seen
    assert collector.summary()["reads_missed"] > 0


# ---------------------------------------------------------------------------
# heartbeat suspicion and recovery
# ---------------------------------------------------------------------------
class TestSuspicion:
    def test_permanent_crash_of_sole_coverer_stalls(self, line_system):
        # reader C is tag 2's only coverer; crash it from slot 0
        plan = FaultPlan(reader_faults=(PermanentCrash(2, 0),))
        rec = TraceRecorder()
        with recording(rec):
            result = greedy_covering_schedule(
                line_system, SOLVERS["ghc"], seed=0, faults=plan,
                policy=FaultPolicy(max_stall_slots=4),
            )
        assert result.outcome is ScheduleOutcome.stalled
        assert not result.complete
        # tags 0 and 1 (covered by live readers) were still read
        assert result.tags_read_total == 2
        failures = [e for e in rec.events if isinstance(e, ReaderFailed)]
        assert [e.reader for e in failures] == [2]

    def test_transient_crash_recovers_and_completes(self, line_system):
        plan = FaultPlan(reader_faults=(TransientCrash(2, 0, 5),))
        result = greedy_covering_schedule(
            line_system, SOLVERS["ghc"], seed=0, faults=plan
        )
        assert result.outcome is ScheduleOutcome.complete
        # reader C was down for the first 5 slots, so the run took longer
        baseline = greedy_covering_schedule(line_system, SOLVERS["ghc"], seed=0)
        assert result.size > baseline.size
        assert result.tags_read_total == baseline.tags_read_total

    def test_suspected_readers_not_proposed(self):
        system = _all_coverable()
        crashed = 0
        plan = FaultPlan(reader_faults=(PermanentCrash(crashed, 0),))
        policy = FaultPolicy(heartbeat_timeout=2)
        result = greedy_covering_schedule(
            system, SOLVERS["ghc"], seed=5, faults=plan, policy=policy,
            max_slots=4000,
        )
        # after the timeout, the crashed reader never appears active
        for slot in result.slots[policy.heartbeat_timeout:]:
            assert crashed not in slot.active.tolist()


# ---------------------------------------------------------------------------
# deadline ladder
# ---------------------------------------------------------------------------
class TestDeadlineLadder:
    def test_degrades_through_fallback_to_singleton(self):
        system = _small()
        policy = FaultPolicy(
            solver_deadline_s=0.0, deadline_retries=0, fallback_solver="ghc"
        )
        rec = TraceRecorder()
        with recording(rec):
            result = greedy_covering_schedule(
                system, get_solver("centralized"), seed=11, policy=policy
            )
        assert result.complete
        misses = [e for e in rec.events if isinstance(e, SolverDeadline)]
        steps = [e for e in rec.events if isinstance(e, ScheduleDegraded)]
        assert len(misses) >= 2
        assert [(e.from_policy, e.to_policy) for e in steps] == [
            ("centralized_location_free", "ghc"),
            ("ghc", "singleton"),
        ]
        # once on the singleton rung, slots carry the singleton meta
        last_meta = result.slots[-1].solver_meta
        assert last_meta.get("solver") == "singleton"

    def test_no_fallback_goes_straight_to_singleton(self):
        system = _small()
        policy = FaultPolicy(solver_deadline_s=0.0, deadline_retries=1)
        rec = TraceRecorder()
        with recording(rec):
            result = greedy_covering_schedule(
                system, get_solver("ghc"), seed=11, policy=policy
            )
        assert result.complete
        steps = [e for e in rec.events if isinstance(e, ScheduleDegraded)]
        if steps:  # enough slots to trip the retries
            assert steps[0].to_policy == "singleton"

    def test_generous_deadline_never_degrades(self):
        system = _small()
        policy = FaultPolicy(solver_deadline_s=3600.0)
        ref = greedy_covering_schedule(system, SOLVERS["ghc"], seed=11)
        rec = TraceRecorder()
        with recording(rec):
            result = greedy_covering_schedule(
                system, SOLVERS["ghc"], seed=11, policy=policy
            )
        assert not [e for e in rec.events if isinstance(e, ScheduleDegraded)]
        assert _fingerprint(result) == _fingerprint(ref)


# ---------------------------------------------------------------------------
# stall guard and outcomes
# ---------------------------------------------------------------------------
class TestOutcomes:
    def test_max_slots_exhausted(self):
        system = _small()
        result = greedy_covering_schedule(
            system, SOLVERS["ghc"], seed=11, max_slots=1
        )
        assert not result.complete
        assert result.outcome is ScheduleOutcome.exhausted

    def test_complete_outcome_default_path(self):
        system = _small()
        result = greedy_covering_schedule(system, SOLVERS["ghc"], seed=11)
        assert result.complete
        assert result.outcome is ScheduleOutcome.complete

    def test_all_readers_crashed_stalls_quickly(self):
        system = _small()
        plan = FaultPlan(
            reader_faults=tuple(
                PermanentCrash(r, 0) for r in range(system.num_readers)
            )
        )
        result = greedy_covering_schedule(
            system, SOLVERS["ghc"], seed=11, faults=plan,
            policy=FaultPolicy(max_stall_slots=3),
        )
        assert result.outcome is ScheduleOutcome.stalled
        assert result.size == 3
        assert result.tags_read_total == 0

    def test_stall_guard_respects_override(self):
        system = _small()
        plan = FaultPlan(
            reader_faults=tuple(
                PermanentCrash(r, 0) for r in range(system.num_readers)
            )
        )
        result = greedy_covering_schedule(
            system, SOLVERS["ghc"], seed=11, faults=plan, max_stall_slots=7
        )
        assert result.outcome is ScheduleOutcome.stalled
        assert result.size == 7

    def test_total_miss_world_terminates_stalled(self):
        # miss_rate=1.0 loses every read forever: ACK retirement never
        # fires, so liveness rests entirely on the stall guard — the run
        # must end in exactly max_stall_slots slots with nothing retired,
        # not spin to the slot cap.
        system = _small()
        plan = FaultPlan(miss_rate=1.0, seed=1)
        result = greedy_covering_schedule(
            system, SOLVERS["ghc"], seed=11, faults=plan,
            policy=FaultPolicy(max_stall_slots=5),
        )
        assert result.outcome is ScheduleOutcome.stalled
        assert result.size == 5
        assert result.tags_read_total == 0

    def test_stall_guard_available_without_faults(self):
        # an explicit max_stall_slots works on the default path too; a
        # completing run never trips it
        system = _small()
        ref = greedy_covering_schedule(system, SOLVERS["ghc"], seed=11)
        guarded = greedy_covering_schedule(
            system, SOLVERS["ghc"], seed=11, max_stall_slots=2
        )
        assert _fingerprint(guarded) == _fingerprint(ref)


# ---------------------------------------------------------------------------
# composition with the incremental engine
# ---------------------------------------------------------------------------
def test_faults_compose_with_incremental():
    system = _all_coverable()
    plan = FaultPlan.uniform_flaky(
        system.num_readers, 0.2, miss_rate=0.1, seed=31
    )

    def context_blind_ghc(system, unread, rng):
        return SOLVERS["ghc"](system, unread, rng)

    plain = greedy_covering_schedule(
        system, context_blind_ghc, seed=5, faults=plan, max_slots=4000
    )
    inc = greedy_covering_schedule(
        system, SOLVERS["ghc"], seed=5, faults=plan, max_slots=4000
    )
    assert inc.complete
    assert inc.fault_trace is not None
    assert plain.complete


def test_linklayer_charges_missed_reads():
    """Missed tags still pay micro-slots but are not counted as read."""
    system = _all_coverable()
    plan = FaultPlan(miss_rate=0.4, seed=9)
    result = greedy_covering_schedule(
        system, SOLVERS["ghc"], seed=5, faults=plan, linklayer="aloha",
        max_slots=4000,
    )
    assert result.complete
    for slot in result.slots:
        if slot.inventory is not None:
            assert slot.inventory.tags_read == len(slot.tags_read)
