"""Multi-channel reader scheduling (extension).

The paper's related-work section points at two escape hatches from RTc that
this module implements as a first-class extension:

* the EPCGlobal Gen-2 *dense reading mode* [8], where tag responses occupy
  different spectrum than reader carriers, so readers on **different
  channels** no longer drown each other's uplinks (RTc vanishes across
  channels);
* the `k`-colouring formulation of [13] and the multi-channel extension of
  Zhou et al. [7].

Model: an **assignment** maps each reader to a channel ``0..C-1`` or ``-1``
(inactive).  Active readers on the *same* channel must still respect
Definition 2 independence; cross-channel reader pairs are always RTc-free.
RRc is *unchanged* — a passive tag inside two active interrogation regions
is blanked regardless of the readers' channels, because the tag itself is
channel-agnostic.  With ``C = 1`` everything reduces exactly to the paper's
single-channel model (tested).

Two schedulers are provided:

* :func:`greedy_multichannel_assignment` — weight-aware greedy: repeatedly
  add the (reader, channel) pair of maximum incremental weight.
* :func:`coloring_multichannel_assignment` — colour the interference graph
  with ``C`` colours (largest-degree-first), drop uncolourable readers,
  then prune readers whose presence lowers the weight (RRc victims).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.mcs import ScheduleResult, _dense_schedule, _DenseWorld
from repro.model.collisions import rrc_blocked_tags
from repro.model.state import ReadState
from repro.model.system import RFIDSystem
from repro.util.rng import RngLike

INACTIVE = -1


@dataclass(frozen=True)
class ChannelAssignment:
    """Channels per reader: ``channels[i] ∈ {0..C-1}`` or ``-1`` (off)."""

    channels: np.ndarray
    num_channels: int

    def __post_init__(self) -> None:
        channels = np.asarray(self.channels, dtype=np.int64)
        object.__setattr__(self, "channels", channels)
        if self.num_channels < 1:
            raise ValueError(f"num_channels must be >= 1, got {self.num_channels}")
        if channels.size and (
            channels.min() < INACTIVE or channels.max() >= self.num_channels
        ):
            raise ValueError("channel indices out of range")

    @property
    def active(self) -> np.ndarray:
        """Indices of active readers (sorted)."""
        return np.flatnonzero(self.channels != INACTIVE)

    def on_channel(self, channel: int) -> np.ndarray:
        """Readers assigned to *channel* (sorted)."""
        return np.flatnonzero(self.channels == channel)

    def with_reader(self, reader: int, channel: int) -> "ChannelAssignment":
        """Functional update: a copy with *reader* moved to *channel*."""
        out = self.channels.copy()
        out[reader] = channel
        return ChannelAssignment(out, self.num_channels)


def empty_assignment(system: RFIDSystem, num_channels: int) -> ChannelAssignment:
    """All readers inactive."""
    return ChannelAssignment(
        np.full(system.num_readers, INACTIVE, dtype=np.int64), num_channels
    )


def is_channel_feasible(system: RFIDSystem, assignment: ChannelAssignment) -> bool:
    """Every same-channel active pair must be independent (Definition 2)."""
    for c in range(assignment.num_channels):
        members = assignment.on_channel(c)
        if len(members) > 1 and system.conflict[np.ix_(members, members)].any():
            return False
    return True


def multichannel_operational(
    system: RFIDSystem, assignment: ChannelAssignment
) -> np.ndarray:
    """Active readers not suffering RTc — i.e. not inside the interference
    disk of another active reader **on the same channel**."""
    active = assignment.active
    if active.size == 0:
        return active
    ok: List[int] = []
    in_range = system.in_interference_range
    for i in active:
        same = assignment.on_channel(int(assignment.channels[i]))
        others = same[same != i]
        if others.size == 0 or not in_range[i, others].any():
            ok.append(int(i))
    return np.asarray(ok, dtype=np.int64)


def multichannel_well_covered(
    system: RFIDSystem,
    assignment: ChannelAssignment,
    unread: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Well-covered tags under a channel assignment: covered by exactly one
    active reader (RRc counts *all* active readers, channels do not shield
    tags), that reader being same-channel-RTc-free."""
    active = assignment.active
    m = system.num_tags
    if active.size == 0 or m == 0:
        return np.empty(0, dtype=np.int64)
    cov = system.coverage[:, active]
    counts = cov.sum(axis=1)
    once = counts == 1
    if unread is not None:
        unread = np.asarray(unread, dtype=bool)
        if unread.shape != (m,):
            raise ValueError(f"unread mask must have shape ({m},)")
        once = once & unread
    if not once.any():
        return np.empty(0, dtype=np.int64)
    owner_local = np.argmax(cov[once], axis=1)
    operational = multichannel_operational(system, assignment)
    op_local = np.isin(active, operational)
    return np.flatnonzero(once)[op_local[owner_local]]


def multichannel_weight(
    system: RFIDSystem,
    assignment: ChannelAssignment,
    unread: Optional[np.ndarray] = None,
) -> int:
    """Weight of an assignment — the multi-channel Definition 3."""
    return int(len(multichannel_well_covered(system, assignment, unread)))


def greedy_multichannel_assignment(
    system: RFIDSystem,
    num_channels: int,
    unread: Optional[np.ndarray] = None,
    require_feasible: bool = True,
) -> ChannelAssignment:
    """Weight-aware greedy: add the (reader, channel) pair with the largest
    incremental weight until no pair improves.

    With ``require_feasible`` (default) a reader is only eligible on a
    channel where it is independent of that channel's current members, so
    the result always satisfies :func:`is_channel_feasible`.  Because
    cross-channel RTc is gone, channel choice only matters through
    same-channel conflicts — the greedy tries each channel for each reader.
    """
    if num_channels < 1:
        raise ValueError(f"num_channels must be >= 1, got {num_channels}")
    assignment = empty_assignment(system, num_channels)
    current = 0
    n = system.num_readers
    while True:
        best_gain = 0
        best: Optional[Tuple[int, int]] = None
        best_assignment = None
        for r in range(n):
            if assignment.channels[r] != INACTIVE:
                continue
            for c in range(num_channels):
                if require_feasible:
                    members = assignment.on_channel(c)
                    if members.size and system.conflict[r, members].any():
                        continue
                trial = assignment.with_reader(r, c)
                w = multichannel_weight(system, trial, unread)
                if w - current > best_gain:
                    best_gain = w - current
                    best = (r, c)
                    best_assignment = trial
                if require_feasible and num_channels > 1:
                    # channels are symmetric for the first conflict-free fit;
                    # trying the remaining ones cannot change the weight.
                    break
        if best is None:
            break
        assignment = best_assignment
        current += best_gain
    return assignment


def coloring_multichannel_assignment(
    system: RFIDSystem,
    num_channels: int,
    unread: Optional[np.ndarray] = None,
    prune: bool = True,
) -> ChannelAssignment:
    """k-colouring scheduler in the spirit of [13]: greedy largest-first
    colouring of the interference graph with ``num_channels`` colours;
    readers that cannot be coloured stay inactive.  With ``prune``, readers
    whose removal increases the weight (pure RRc victims) are then dropped
    greedily."""
    if num_channels < 1:
        raise ValueError(f"num_channels must be >= 1, got {num_channels}")
    n = system.num_readers
    channels = np.full(n, INACTIVE, dtype=np.int64)
    order = np.argsort(-system.conflict.sum(axis=1), kind="stable")
    for r in order:
        used = set(
            channels[j]
            for j in np.flatnonzero(system.conflict[r])
            if channels[j] != INACTIVE
        )
        for c in range(num_channels):
            if c not in used:
                channels[r] = c
                break
    assignment = ChannelAssignment(channels, num_channels)
    if not prune:
        return assignment

    improved = True
    current = multichannel_weight(system, assignment, unread)
    while improved:
        improved = False
        for r in assignment.active:
            trial = assignment.with_reader(int(r), INACTIVE)
            w = multichannel_weight(system, trial, unread)
            if w > current:
                assignment = trial
                current = w
                improved = True
    return assignment


def distributed_channel_assignment(
    system: RFIDSystem,
    num_channels: int,
    seed: RngLike = None,
    max_rounds: int = 500,
) -> ChannelAssignment:
    """Distributed channel assignment: Colorwave's kick protocol with a
    *fixed* palette of ``num_channels`` colours (spectrum is not elastic the
    way TDMA slots are).

    Runs the real message-passing protocol; readers still conflicting when
    the round budget expires are deactivated (higher id yields), so the
    result always satisfies :func:`is_channel_feasible`.
    """
    if num_channels < 1:
        raise ValueError(f"num_channels must be >= 1, got {num_channels}")
    from repro.baselines.colorwave import ColorwaveConfig, colorwave_coloring

    cfg = ColorwaveConfig(
        initial_colors=num_channels,
        min_colors=num_channels,
        max_colors=num_channels,
        max_rounds=max_rounds,
    )
    outcome = colorwave_coloring(system, seed=seed, config=cfg)
    channels = outcome.colors.copy()
    # deactivate the higher-id endpoint of any residual same-channel conflict
    conflict = system.conflict
    for i in range(system.num_readers):
        if channels[i] == INACTIVE:
            continue
        for j in np.flatnonzero(conflict[i]):
            if j < i and channels[j] == channels[i]:
                channels[i] = INACTIVE
                break
    return ChannelAssignment(channels, num_channels)


class _ChannelWorld(_DenseWorld):
    """The slot loop over channel assignments: each slot serves the
    multi-channel well-covered tags of *scheduler*'s assignment
    (:attr:`assignment`, which ``verify`` reads), RTc counts only
    same-channel silencing, and the fallback reader runs alone on
    channel 0."""

    def __init__(self, system, state, num_channels: int, scheduler: str) -> None:
        super().__init__(system, state)
        self.num_channels = num_channels
        self.scheduler = scheduler
        self.assignment = empty_assignment(system, num_channels)

    def solve(self, slot: int, rng, suspected):
        assign = (
            greedy_multichannel_assignment if self.scheduler == "greedy"
            else coloring_multichannel_assignment
        )
        self.assignment = assign(self.system, self.num_channels, self.unread)
        return self.assignment.active, {
            "solver": f"multichannel-{self.scheduler}",
            "num_channels": self.num_channels,
        }

    def verify(self, active: np.ndarray, unread: np.ndarray) -> np.ndarray:
        return multichannel_well_covered(self.system, self.assignment, unread)

    def collisions(self, active: np.ndarray, unread: np.ndarray):
        rtc = len(active) - len(multichannel_operational(self.system, self.assignment))
        return int(len(rrc_blocked_tags(self.system, active, unread))), rtc

    def best_singleton(self, suspected) -> Optional[int]:
        solo = super().best_singleton(suspected)
        if solo is not None:
            self.assignment = empty_assignment(
                self.system, self.num_channels
            ).with_reader(solo, 0)
        return solo

    def record(self, slot, active, confirmed, weight, meta, inventory):
        meta["channels"] = self.assignment.channels.tolist()
        return super().record(slot, active, confirmed, weight, meta, inventory)


def multichannel_covering_schedule(
    system: RFIDSystem,
    num_channels: int,
    state: Optional[ReadState] = None,
    scheduler: str = "greedy",
    max_slots: Optional[int] = None,
) -> ScheduleResult:
    """Covering schedule where each slot is a full channel assignment.

    More channels → more concurrent readers per slot → fewer slots, with
    diminishing returns once RRc (channel-blind) dominates.  Both channel
    schedulers are deterministic, so the schedule takes no seed.
    """
    if scheduler not in ("greedy", "coloring"):
        raise ValueError(f"scheduler must be 'greedy' or 'coloring', got {scheduler!r}")
    cap = max_slots if max_slots is not None else 4 * system.num_readers + 64
    return _dense_schedule(
        _ChannelWorld(system, state, num_channels, scheduler), cap, None,
        solver=f"multichannel-{scheduler}",
    )
