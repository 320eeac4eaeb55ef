"""One slot loop: every covering-schedule driver runs ``run_slot_loop``.

The baseline drivers (Colorwave, CSMA, multi-channel) are traced like the
MCS driver, and a source scan keeps slot records and schedule results
built in ``core/mcs.py`` only.
"""

import ast
from pathlib import Path

import pytest

from repro.baselines import colorwave_covering_schedule, csma_covering_schedule
from repro.core import multichannel_covering_schedule
from repro.core.multichannel import ChannelAssignment, multichannel_operational
from repro.model import Reader, RFIDSystem, Tag
from repro.model.collisions import rtc_victims
from repro.obs import (
    CollisionTally,
    RunCollector,
    SlotEnd,
    SlotStart,
    SpanStart,
    TeeRecorder,
    TraceRecorder,
    recording,
)
from tests.conftest import make_random_system

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Baseline driver name -> call on (system).
DRIVERS = {
    "colorwave": lambda system: colorwave_covering_schedule(system, seed=1),
    "csma": lambda system: csma_covering_schedule(system, seed=1),
    "multichannel": lambda system: multichannel_covering_schedule(system, 2),
}
#: The ``solver`` attribute of each driver's ``mcs.run`` span.
RUN_NAMES = {
    "colorwave": "colorwave",
    "csma": "csma_oneshot",
    "multichannel": "multichannel-greedy",
}


def _traced(run):
    """Run under a collector and a tracer; returns (result, summary,
    events)."""
    collector, tracer = RunCollector(), TraceRecorder()
    with recording(TeeRecorder(collector, tracer)):
        result = run()
    return result, collector.summary(), tracer.events


def _of(events, kind):
    return [e for e in events if isinstance(e, kind)]


@pytest.fixture
def system():
    return make_random_system(15, 150, 40, 12, 6, seed=9)


@pytest.mark.parametrize("driver", list(DRIVERS))
def test_baseline_driver_is_traced(system, driver):
    result, summary, events = _traced(lambda: DRIVERS[driver](system))
    assert result.complete
    runs = [e for e in _of(events, SpanStart) if e.name == "mcs.run"]
    assert len(runs) == 1
    assert dict(runs[0].attrs)["solver"] == RUN_NAMES[driver]
    assert [e.slot for e in _of(events, SlotStart)] == list(range(result.size))
    assert [e.slot for e in _of(events, SlotEnd)] == list(range(result.size))
    assert summary["slots"] == result.size
    assert summary["tags_per_slot"] == result.reads_per_slot()


@pytest.mark.parametrize(
    "run",
    [
        lambda system: colorwave_covering_schedule(system, seed=1, max_slots=-1),
        lambda system: csma_covering_schedule(system, seed=1, max_slots=1.5),
        lambda system: multichannel_covering_schedule(system, 2, max_slots=True),
    ],
    ids=list(DRIVERS),
)
def test_baseline_driver_rejects_a_bad_slot_cap(system, run):
    """The loop validates its cap, so every driver inherits the check."""
    with pytest.raises(ValueError, match="max_slots"):
        run(system)


def test_multichannel_rtc_counts_same_channel_only():
    """Two interfering readers on different channels both read: the tally
    charges no RTc, although single-channel RTc would silence both."""
    system = RFIDSystem(
        [
            Reader(id=0, x=0, y=0, interference_radius=10, interrogation_radius=2),
            Reader(id=1, x=5, y=0, interference_radius=10, interrogation_radius=2),
        ],
        [Tag(id=0, x=0, y=0.5), Tag(id=1, x=5, y=0.5)],
    )
    result, _, events = _traced(
        lambda: multichannel_covering_schedule(system, 2)
    )
    assert result.size == 1
    assert result.slots[0].active.tolist() == [0, 1]
    assert len(rtc_victims(system, [0, 1])) == 2
    assert [e.rtc_silenced for e in _of(events, CollisionTally)] == [0]


def test_multichannel_rtc_tally_matches_assignment(system):
    result, summary, events = _traced(
        lambda: multichannel_covering_schedule(system, 2)
    )
    tallies = _of(events, CollisionTally)
    assert len(tallies) == result.size
    for slot, tally in zip(result.slots, tallies):
        assignment = ChannelAssignment(slot.solver_meta["channels"], 2)
        silenced = len(slot.active) - len(
            multichannel_operational(system, assignment)
        )
        assert tally.rtc_silenced == silenced
    assert summary["rtc_silenced"] == sum(t.rtc_silenced for t in tallies)


#: Result types only the slot loop's module may construct.
LOOP_TYPES = {"SlotRecord", "ScheduleResult"}


def _constructs(path: Path) -> set:
    """Names from :data:`LOOP_TYPES` called anywhere in *path*."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None
            )
            if name in LOOP_TYPES:
                found.add(name)
    return found


def test_only_core_mcs_builds_schedule_records():
    loop = SRC / "core" / "mcs.py"
    modules = sorted(SRC.rglob("*.py"))
    assert loop in modules
    offenders = {
        str(path.relative_to(SRC)): sorted(_constructs(path))
        for path in modules
        if path != loop and _constructs(path)
    }
    assert offenders == {}
    assert _constructs(loop) == LOOP_TYPES


def test_scan_sees_a_construction(tmp_path):
    """The scan catches direct and attribute calls alike."""
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from repro.core import mcs\n"
        "mcs.SlotRecord(0, [], [], 0)\n"
        "ScheduleResult([], 0, None, True)\n"
    )
    assert _constructs(probe) == LOOP_TYPES
