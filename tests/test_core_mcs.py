"""Tests for the greedy covering-schedule driver."""

import numpy as np
import pytest

from repro.core import get_solver, greedy_covering_schedule
from repro.model import ReadState
from tests.conftest import make_random_system


@pytest.fixture
def system():
    return make_random_system(12, 150, 40, 8, 5, seed=3)


@pytest.fixture
def exact_solver():
    return get_solver("exact")


class TestTermination:
    def test_reads_all_coverable(self, system, exact_solver):
        result = greedy_covering_schedule(system, exact_solver)
        assert result.complete
        coverable = int(system.covered_by_any().sum())
        assert result.tags_read_total == coverable
        assert len(result.uncovered_tags) == system.num_tags - coverable

    def test_every_solver_completes(self, system):
        for name in ("exact", "ptas", "centralized", "distributed", "ghc", "random"):
            result = greedy_covering_schedule(
                system, get_solver(name), seed=0
            )
            assert result.complete, name

    def test_max_slots_cap(self, system, exact_solver):
        result = greedy_covering_schedule(system, exact_solver, max_slots=1)
        assert result.size == 1
        # one exact slot cannot finish this instance
        assert not result.complete

    def test_empty_population(self, exact_solver):
        from repro.model import RFIDSystem, Reader

        system = RFIDSystem(
            [Reader(id=0, x=0, y=0, interference_radius=2, interrogation_radius=1)],
            [],
        )
        result = greedy_covering_schedule(system, exact_solver)
        assert result.size == 0
        assert result.complete


class TestSlotCaps:
    """``run_slot_loop`` validates both caps, so every driver rejects a
    cap that is not an integer in range instead of misreading it."""

    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.deployment.scenario import Scenario

        return Scenario(40, 400, 100.0, seed=1).build()

    @pytest.mark.parametrize("cap", [-1, 1.5, True])
    def test_bad_max_slots_rejected(self, scenario, cap):
        with pytest.raises(ValueError, match="max_slots"):
            greedy_covering_schedule(scenario, get_solver("ghc"), max_slots=cap)

    @pytest.mark.parametrize("limit", [0, -1, 2.5])
    def test_bad_max_stall_slots_rejected(self, scenario, limit):
        from repro.faults import FaultPlan

        with pytest.raises(ValueError, match="max_stall_slots"):
            greedy_covering_schedule(
                scenario, get_solver("ghc"),
                faults=FaultPlan(miss_rate=0.3, seed=3), max_stall_slots=limit,
            )

    def test_zero_slots_stays_legal(self, scenario):
        result = greedy_covering_schedule(
            scenario, get_solver("ghc"), max_slots=0
        )
        assert result.size == 0
        assert result.outcome.value == "exhausted"


class TestBookkeeping:
    def test_slots_partition_coverable_tags(self, system, exact_solver):
        result = greedy_covering_schedule(system, exact_solver)
        seen = []
        for slot in result.slots:
            seen.extend(slot.tags_read.tolist())
        assert len(seen) == len(set(seen)), "a tag was read twice"
        coverable = set(np.flatnonzero(system.covered_by_any()).tolist())
        assert set(seen) == coverable

    def test_each_slot_weight_consistent(self, system, exact_solver):
        result = greedy_covering_schedule(system, exact_solver)
        for slot in result.slots:
            assert slot.weight == slot.num_read == len(slot.tags_read)

    def test_greedy_slots_weakly_decreasing_for_exact(self, system, exact_solver):
        """With an exact one-shot solver the per-slot yield cannot increase:
        a later slot's set was also available earlier on a superset of
        unread tags."""
        result = greedy_covering_schedule(system, exact_solver)
        reads = result.reads_per_slot()
        assert all(a >= b for a, b in zip(reads, reads[1:]))

    def test_state_mutated_in_place(self, system, exact_solver):
        state = ReadState(system.num_tags)
        greedy_covering_schedule(system, exact_solver, state=state)
        coverable = int(system.covered_by_any().sum())
        assert state.num_read() == coverable

    def test_resume_from_partial_state(self, system, exact_solver):
        state = ReadState(system.num_tags)
        greedy_covering_schedule(system, exact_solver, state=state, max_slots=1)
        read_after_one = state.num_read()
        assert read_after_one > 0
        result = greedy_covering_schedule(system, exact_solver, state=state)
        assert result.complete
        assert result.tags_read_total == int(system.covered_by_any().sum()) - read_after_one


class TestReadModes:
    def test_single_mode_one_tag_per_reader(self, system, exact_solver):
        result = greedy_covering_schedule(
            system, exact_solver, read_mode="single"
        )
        assert result.complete
        for slot in result.slots:
            # at most one tag per active reader
            assert slot.num_read <= len(slot.active)

    def test_single_mode_needs_more_slots(self, system, exact_solver):
        all_mode = greedy_covering_schedule(system, exact_solver)
        single = greedy_covering_schedule(system, exact_solver, read_mode="single")
        assert single.size >= all_mode.size

    def test_bad_mode(self, system, exact_solver):
        with pytest.raises(ValueError):
            greedy_covering_schedule(system, exact_solver, read_mode="both")


class TestZeroWeightFallback:
    def test_fallback_singleton_used(self, system):
        """A solver that always returns the empty set must not stall the
        schedule — the driver activates best singletons instead."""

        def useless_solver(sys_, unread, seed):
            from repro.core.oneshot import make_result

            return make_result(sys_, [], unread)

        result = greedy_covering_schedule(system, useless_solver)
        assert result.complete
        for slot in result.slots:
            assert len(slot.active) == 1


class TestLinkLayerIntegration:
    def test_inventory_attached(self, system, exact_solver):
        result = greedy_covering_schedule(
            system, exact_solver, linklayer="aloha", seed=0
        )
        for slot in result.slots:
            assert slot.inventory is not None
            assert slot.inventory.tags_read == slot.num_read
        assert result.total_micro_slots > 0

    def test_no_linklayer_by_default(self, system, exact_solver):
        result = greedy_covering_schedule(system, exact_solver)
        assert all(slot.inventory is None for slot in result.slots)
        assert result.total_micro_slots == 0

    def test_deterministic_with_seed(self, system, exact_solver):
        a = greedy_covering_schedule(system, exact_solver, linklayer="aloha", seed=4)
        b = greedy_covering_schedule(system, exact_solver, linklayer="aloha", seed=4)
        assert a.total_micro_slots == b.total_micro_slots

    def test_single_mode_with_linklayer(self, system, exact_solver):
        result = greedy_covering_schedule(
            system, exact_solver, read_mode="single", linklayer="treewalk", seed=1
        )
        assert result.complete
        for slot in result.slots:
            assert slot.inventory is not None
            assert slot.num_read <= len(slot.active)


class TestDriverTelemetry:
    """Counter-level coverage of the driver paths: single-read mode, the
    zero-weight singleton fallback, and the per-stage timing events."""

    def _collect(self, system, solver, **kwargs):
        from repro.obs.collectors import RunCollector
        from repro.obs.events import recording

        collector = RunCollector()
        with recording(collector):
            result = greedy_covering_schedule(system, solver, **kwargs)
        return result, collector.summary()

    def test_single_mode_counters(self, system, exact_solver):
        result, summary = self._collect(
            system, exact_solver, read_mode="single"
        )
        assert result.complete
        assert summary["slots"] == result.size
        assert summary["tags_read"] == result.tags_read_total
        assert summary["tags_per_slot"] == result.reads_per_slot()
        # one registry-wrapped solver call per slot, each scoring candidates
        assert summary["solver_calls"] == result.size
        assert summary["sets_evaluated"] > 0
        # the single-mode cap is applied *after* the solve, so per-slot
        # tallies count the kept tags, not the well-covered population
        for slot, n in zip(result.slots, summary["tags_per_slot"]):
            assert n == slot.num_read <= len(slot.active)

    def test_fallback_singleton_counters(self, system):
        """A solver that always returns the empty set drives every slot
        through the singleton fallback: one active reader per slot, zero
        candidate sets scored, telemetry still consistent."""

        def useless_solver(sys_, unread, seed):
            from repro.core.oneshot import make_result

            return make_result(sys_, [], unread)

        result, summary = self._collect(system, useless_solver)
        assert result.complete
        assert all(len(slot.active) == 1 for slot in result.slots)
        assert summary["slots"] == result.size
        assert summary["sets_evaluated"] == 0  # no search ever ran
        assert summary["solver_calls"] == 0  # bare callable, not registry-wrapped
        assert summary["tags_per_slot"] == result.reads_per_slot()
        assert sum(summary["tags_per_slot"]) == result.tags_read_total

    def test_fallback_singleton_counters_incremental(self, system):
        """The fallback consults the context's remaining counts; a solver
        taking the context must see the same schedule and tallies as a
        context-blind one."""
        from repro.core.oneshot import make_result

        def blind_solver(sys_, unread, seed):
            return make_result(sys_, [], unread)

        def useless_solver(sys_, unread, seed, context=None):
            # the driver hands over the context's own mask as unread
            assert context is not None and unread is context.unread
            return make_result(sys_, [], unread)

        ref, ref_summary = self._collect(system, blind_solver)
        inc, inc_summary = self._collect(system, useless_solver)
        assert [s.active.tolist() for s in inc.slots] == [
            s.active.tolist() for s in ref.slots
        ]
        assert inc_summary["tags_per_slot"] == ref_summary["tags_per_slot"]

    def test_stage_timing_split(self, system, exact_solver):
        _, summary = self._collect(system, exact_solver)
        stages = summary["stage_seconds_by_name"]  # keyed by span name
        assert {"mcs.solve", "mcs.retire"} <= set(stages)
        assert "mcs.inventory" not in stages  # no link layer simulated
        assert all(v >= 0.0 for v in stages.values())

    def test_stage_timing_includes_inventory_with_linklayer(
        self, system, exact_solver
    ):
        _, summary = self._collect(
            system, exact_solver, linklayer="aloha", seed=0
        )
        stages = summary["stage_seconds_by_name"]
        assert {"mcs.solve", "mcs.inventory", "mcs.retire"} <= set(stages)
        assert stages["mcs.inventory"] >= stages["linklayer.session"]

    def test_stage_timing_absent_without_recorder_is_free(
        self, system, exact_solver
    ):
        # With the null recorder no span reads a clock; the driver must
        # still run to completion.
        result = greedy_covering_schedule(system, exact_solver)
        assert result.complete
