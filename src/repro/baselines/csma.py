"""Listen-before-talk (CSMA-style) baseline.

What ships in many real reader deployments (e.g. ETSI EN 302 208 LBT):
no schedule at all — a reader that wants to read picks a random backoff,
senses the channel, and transmits only if no interfering neighbour got
there first.  Per contention window this yields the greedy independent set
by random-priority order, restricted to readers that actually have unread
work.

Implemented as a real protocol on :mod:`repro.distsim`: each contention
window is ``backoff_slots`` rounds; a reader broadcasts ``BUSY`` at its
chosen backoff round unless it heard a neighbour's ``BUSY`` earlier (ties
within one round lose to the lower id, mimicking capture of the earlier
preamble).

Weight-oblivious *and* coverage-aware only through participation, so it
sits between ``random`` (pure floor) and Colorwave (coordinated TDMA) in
the baseline spectrum.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.mcs import ScheduleResult, greedy_covering_schedule
from repro.core.oneshot import OneShotResult, get_solver, make_result
from repro.distsim.engine import Node, SyncEngine
from repro.model.interference import adjacency_lists
from repro.model.state import ReadState
from repro.model.system import RFIDSystem
from repro.util.rng import RngLike, as_rng


class _CsmaNode(Node):
    """One reader contending in a single LBT window."""

    def __init__(self, node_id: int, wants_to_read: bool, backoff: int):
        super().__init__(node_id)
        self.wants_to_read = bool(wants_to_read)
        self.backoff = int(backoff)
        self.transmitting = False
        self.deferred = False
        self.collided = False

    def on_round(self, round_no: int, inbox) -> None:
        for msg in inbox:
            kind, sender_backoff = msg.payload
            if kind != "busy":
                continue
            if self.transmitting:
                # two interfering readers drew the same backoff and started
                # simultaneously — both transmissions are lost (no schedule,
                # no arbiter: that is the cost of pure LBT)
                if sender_backoff == self.backoff:
                    self.collided = True
            else:
                # a neighbour seized the channel before our backoff expired
                self.deferred = True
        if (
            self.wants_to_read
            and not self.transmitting
            and not self.deferred
            and round_no == self.backoff
        ):
            self.transmitting = True
            self.broadcast(("busy", self.backoff))

    def is_idle(self) -> bool:
        return True


def csma_contention(
    system: RFIDSystem,
    participants: np.ndarray,
    backoff_slots: int = 16,
    seed: RngLike = None,
    loss_rate: float = 0.0,
) -> np.ndarray:
    """Run one LBT contention window; returns the winning reader set.

    On loss-free links the winners are pairwise independent by
    construction: a reader only transmits if no interfering neighbour with
    an earlier (or tied) backoff already did.  With ``loss_rate > 0`` a
    BUSY preamble can be lost in the sensing path, so two interfering
    readers may *both* win — the hidden-carrier failure real LBT suffers;
    downstream weight accounting (the RTc-aware oracle) charges for it.
    """
    if backoff_slots <= 0:
        raise ValueError(f"backoff_slots must be > 0, got {backoff_slots}")
    n = system.num_readers
    participates = np.zeros(n, dtype=bool)
    participates[np.asarray(list(participants), dtype=np.int64)] = True
    rng = as_rng(seed)
    backoffs = rng.integers(0, backoff_slots, size=n)
    adj = adjacency_lists(system)
    nodes = [
        _CsmaNode(i, wants_to_read=bool(participates[i]), backoff=int(backoffs[i]))
        for i in range(n)
    ]
    engine = SyncEngine(
        [a.tolist() for a in adj], nodes, loss_rate=loss_rate, seed=rng
    )
    # the window needs backoff_slots rounds plus one for the last broadcasts
    for _ in range(backoff_slots + 1):
        engine.step()
    winners = np.asarray(
        [node.id for node in nodes if node.transmitting and not node.collided],
        dtype=np.int64,
    )
    return winners


def csma_oneshot(
    system: RFIDSystem,
    unread: Optional[np.ndarray] = None,
    seed: RngLike = None,
    backoff_slots: int = 16,
) -> OneShotResult:
    """LBT as a one-shot solver: readers with unread coverage contend."""
    if unread is None:
        unread_mask = np.ones(system.num_tags, dtype=bool)
    else:
        unread_mask = np.asarray(unread, dtype=bool)
    has_work = (system.coverage & unread_mask[:, None]).any(axis=0)
    winners = csma_contention(
        system, np.flatnonzero(has_work), backoff_slots=backoff_slots, seed=seed
    )
    return make_result(system, winners, unread, solver="csma")


def csma_covering_schedule(
    system: RFIDSystem,
    state: Optional[ReadState] = None,
    seed: RngLike = None,
    backoff_slots: int = 16,
    max_slots: Optional[int] = None,
) -> ScheduleResult:
    """Repeated LBT windows until every coverable tag is read.

    Runs the greedy covering-schedule driver with the registry's ``csma``
    solver per slot, so a window whose winners read nothing (two
    non-interfering winners blanking each other's last tags) falls back to
    the best single reader instead of contending forever.
    """
    cap = max_slots if max_slots is not None else 16 * system.num_readers + 256
    solver = get_solver("csma", backoff_slots=backoff_slots)
    return greedy_covering_schedule(system, solver, state, cap, seed=seed)
