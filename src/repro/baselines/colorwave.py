"""Colorwave / DCS baseline (Waldrop, Engels, Sarma — IEEE WCNC 2003).

No reference implementation of Colorwave exists in the open; this module
reconstructs it from the published description (see also the paper's Related
Work): readers randomly colour themselves with one of ``maxColors``
time-slots; when two interfering readers pick the same slot one of them
*kicks* — re-picks a random colour and notifies its neighbours; a reader
whose collision rate stays high grows its palette, one that stays quiet
shrinks it.  The stabilised colouring is a TDMA schedule: colour classes are
independent sets of the interference graph, so every slot is feasible
(RTc-free) — but the colouring is *weight-oblivious*, which is precisely why
Colorwave trails the paper's algorithms in Figures 6–9.

Runs as a real protocol on :mod:`repro.distsim`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.mcs import ScheduleResult, _dense_schedule, _DenseWorld
from repro.core.oneshot import OneShotResult, make_result
from repro.distsim.engine import Node, SyncEngine
from repro.model.interference import adjacency_lists
from repro.model.state import ReadState
from repro.model.system import RFIDSystem
from repro.util.rng import RngLike, as_rng, spawn_rngs


@dataclass(frozen=True)
class ColorwaveConfig:
    """Tuning knobs of the reconstructed protocol."""

    initial_colors: int = 4
    min_colors: int = 2
    max_colors: int = 64
    #: consecutive collision-free rounds required to declare stability
    stable_rounds: int = 5
    #: collisions within the window that trigger palette growth
    grow_after_collisions: int = 3
    #: collision-free rounds after which the palette shrinks
    shrink_after_quiet: int = 8
    max_rounds: int = 2_000


@dataclass(frozen=True)
class ColoringOutcome:
    """Result of one Colorwave stabilisation run."""

    colors: np.ndarray
    num_colors: int
    rounds: int
    messages: int
    kicks: int
    stable: bool

    def color_classes(self) -> List[np.ndarray]:
        """Readers per colour, ascending colour index (may include empties
        when the palette grew past what is used)."""
        return [
            np.flatnonzero(self.colors == c) for c in range(self.num_colors)
        ]


class _ColorwaveNode(Node):
    """One reader running DCS: broadcast colour, kick on collision."""

    def __init__(self, node_id: int, rng: np.random.Generator, cfg: ColorwaveConfig):
        super().__init__(node_id)
        self.rng = rng
        self.cfg = cfg
        self.palette = cfg.initial_colors
        self.color = int(rng.integers(0, self.palette))
        self.quiet_rounds = 0
        self.recent_collisions = 0
        self.kicks = 0

    def on_start(self) -> None:
        self.broadcast(("color", self.color))

    def on_round(self, round_no: int, inbox) -> None:
        neighbor_colors = {}
        kicked = False
        for msg in inbox:
            kind, value = msg.payload
            if kind == "color":
                neighbor_colors[msg.sender] = value
            elif kind == "kick" and value == self.color:
                kicked = True

        collided = any(c == self.color for c in neighbor_colors.values())
        if collided or kicked:
            self.quiet_rounds = 0
            self.recent_collisions += 1
            if self.recent_collisions >= self.cfg.grow_after_collisions:
                self.palette = min(self.palette + 1, self.cfg.max_colors)
                self.recent_collisions = 0
            # DCS kick: loser re-picks; the smaller id wins ties with a
            # neighbour, standing its ground.
            must_move = kicked or any(
                c == self.color and u < self.id for u, c in neighbor_colors.items()
            )
            if must_move:
                self.kicks += 1
                self.color = int(self.rng.integers(0, self.palette))
                self.broadcast(("kick", self.color))
        else:
            self.quiet_rounds += 1
            # Shrink the palette after a quiet spell, but never below the
            # local degree+1 floor: a node that did would recreate conflicts
            # forever (palette churn livelock on dense graphs).
            floor = max(self.cfg.min_colors, len(self.neighbors) + 1)
            if self.quiet_rounds >= self.cfg.shrink_after_quiet and self.palette > floor:
                self.palette -= 1
                self.quiet_rounds = 0
                if self.color >= self.palette:
                    self.color = int(self.rng.integers(0, self.palette))
        self.broadcast(("color", self.color))

    def is_idle(self) -> bool:
        # The protocol is perpetual; stabilisation is detected by the driver.
        return True


def colorwave_coloring(
    system: RFIDSystem,
    seed: RngLike = None,
    config: Optional[ColorwaveConfig] = None,
) -> ColoringOutcome:
    """Run the protocol until the colouring is proper and stable (or
    ``max_rounds``); returns the colour assignment."""
    cfg = config or ColorwaveConfig()
    n = system.num_readers
    adj = adjacency_lists(system)
    rngs = spawn_rngs(seed if seed is not None else as_rng(None), n)
    nodes = [_ColorwaveNode(i, rngs[i], cfg) for i in range(n)]
    engine = SyncEngine([a.tolist() for a in adj], nodes)

    conflict = system.conflict

    def proper() -> bool:
        colors = np.array([node.color for node in nodes])
        ii, jj = np.nonzero(np.triu(conflict, k=1))
        return not np.any(colors[ii] == colors[jj])

    stable_for = 0
    rounds = 0
    stable = False
    while rounds < cfg.max_rounds:
        engine.step()
        rounds += 1
        if proper():
            stable_for += 1
            if stable_for >= cfg.stable_rounds:
                stable = True
                break
        else:
            stable_for = 0

    colors = np.array([node.color for node in nodes], dtype=np.int64)
    num_colors = int(colors.max()) + 1 if n else 0
    return ColoringOutcome(
        colors=colors,
        num_colors=num_colors,
        rounds=rounds,
        messages=engine.stats.messages,
        kicks=sum(node.kicks for node in nodes),
        stable=stable,
    )


def colorwave_oneshot(
    system: RFIDSystem,
    unread: Optional[np.ndarray] = None,
    seed: RngLike = None,
    config: Optional[ColorwaveConfig] = None,
) -> OneShotResult:
    """Colorwave as a one-shot solver: stabilise a colouring, then activate
    its best colour class (the protocol's most productive TDMA slot).

    If the colouring failed to stabilise, improper classes are repaired by
    dropping the higher-id endpoint of each monochromatic edge, preserving
    feasibility."""
    outcome = colorwave_coloring(system, seed=seed, config=config)
    best: List[int] = []
    best_w = -1
    for cls in outcome.color_classes():
        members = _repair_class(system, cls.tolist())
        w = system.weight(members, unread)
        if w > best_w:
            best_w = w
            best = members
    return make_result(
        system,
        best,
        unread,
        solver="colorwave",
        rounds=outcome.rounds,
        num_colors=outcome.num_colors,
        stable=outcome.stable,
    )


def _repair_class(system: RFIDSystem, members: List[int]) -> List[int]:
    """Drop higher-id endpoints of conflicting pairs (no-op for proper
    colourings)."""
    conflict = system.conflict
    kept: List[int] = []
    for u in sorted(members):
        if all(not conflict[u, v] for v in kept):
            kept.append(u)
    return kept


class _ColorwaveWorld(_DenseWorld):
    """The slot loop over TDMA frames: each slot activates the next
    non-empty colour class, repaired to feasibility, and a spent frame
    re-stabilises the colouring with the run's rng.  No singleton
    fallback: a frame slot that reads nothing still counts."""

    def __init__(self, system, state, config) -> None:
        super().__init__(system, state)
        self.config = config
        self._frame: List[np.ndarray] = []

    def solve(self, slot: int, rng, suspected):
        if not self._frame:
            outcome = colorwave_coloring(self.system, seed=rng, config=self.config)
            self._frame = [c for c in outcome.color_classes() if len(c)]
        members = _repair_class(self.system, self._frame.pop(0).tolist())
        meta = {"solver": "colorwave", "frame": True}
        return np.asarray(members, dtype=np.int64), meta

    def best_singleton(self, suspected) -> None:
        return None


def colorwave_covering_schedule(
    system: RFIDSystem,
    state: Optional[ReadState] = None,
    seed: RngLike = None,
    config: Optional[ColorwaveConfig] = None,
    max_slots: Optional[int] = None,
) -> ScheduleResult:
    """Colorwave as a covering scheduler (for Figures 6–7).

    TDMA frames cycle through the stabilised colouring's non-empty classes,
    one slot per class; between frames the protocol re-stabilises with fresh
    randomness (Colorwave is an online protocol — this also breaks RRc
    stalemates where two same-coloured readers perpetually blank the same
    tag).  Slot count follows Definition 4: every scheduled slot counts,
    productive or not.
    """
    cap = max_slots if max_slots is not None else 16 * system.num_readers + 256
    return _dense_schedule(
        _ColorwaveWorld(system, state, config), cap, seed, solver="colorwave"
    )
