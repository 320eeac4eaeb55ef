"""Algorithm 3 — distributed scheduling without location information
(Section V-B), executed as a real message-passing protocol on
:mod:`repro.distsim`.

Protocol per node *v* (White → Red/Black):

* **Gather** — flood ``HELLO(id, neighbours, coverage-mask)`` with TTL
  ``2c+2``.  After ``2c+2`` rounds every node knows the subgraph and the
  per-reader unread-tag coverage of its ``(2c+2)``-hop ball.
* **Head election** — once gathering completes, a node that has the maximum
  weight among the *White* nodes of its ball view (ties broken by lower id)
  becomes a coordinator.  Two simultaneous coordinators are therefore
  > ``2c+2`` hops apart, which keeps their local solutions mutually
  independent (the paper's separation argument, Figure 5).
* **Local computation** — the coordinator grows ``Γ_0, Γ_1, …`` inside its
  White view by enumeration, stopping at the first ``r̄`` with
  ``w(Γ_{r̄+1}) < ρ·w(Γ_{r̄})`` (or at the cap ``r̄ = c``; Theorem 5
  guarantees a constant ``c(ρ)`` suffices).
* **Announce** — flood ``RESULT(Γ_{r̄}, N^{r̄+1})`` with TTL
  ``r̄+1+2c+2``.  Γ members turn Red, other ``N^{r̄+1}`` members turn
  Black, and every receiver deletes the announced ball from its White view,
  possibly becoming a coordinator itself (Algorithm 3 lines 18–20).

The run terminates when every node is coloured; Red nodes form the feasible
scheduling set, with weight ≥ ``w(OPT)/ρ`` (Theorem 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.exact import solve_mwfs_masks
from repro.core.oneshot import OneShotResult, make_result
from repro.distsim.engine import Node, SyncEngine
from repro.distsim.flooding import FloodMessage, FloodService, ReliableFloodService
from repro.model.interference import adjacency_lists
from repro.model.system import RFIDSystem
from repro.perf.incremental import GeneralizedWeightClimber
from repro.util.compat import bit_count
from repro.util.rng import RngLike
from repro.util.validation import check_in_range

WHITE, RED, BLACK = "white", "red", "black"


@dataclass(frozen=True)
class _Hello:
    node: int
    neighbors: Tuple[int, ...]
    cover_mask: int
    weight: int


@dataclass(frozen=True)
class _Result:
    coordinator: int
    gamma: Tuple[int, ...]
    removed: Tuple[int, ...]
    radius: int


class SchedulerNode(Node):
    """One reader participating in the distributed one-shot protocol."""

    def __init__(
        self,
        node_id: int,
        cover_mask: int,
        rho: float,
        c: int,
        ball_node_budget: int = 100_000,
        reliable: bool = False,
        gather_slack: int = 0,
        prune_zero: bool = False,
    ):
        super().__init__(node_id)
        self.cover_mask = int(cover_mask)
        self.weight = bit_count(self.cover_mask)
        self.rho = float(rho)
        self.c = int(c)
        # On loss-free links a TTL-h flood completes in exactly h rounds;
        # with retransmitting (reliable) floods over lossy links the node
        # waits `gather_slack` extra rounds before trusting its ball view.
        self.gather_rounds = 2 * self.c + 2 + int(gather_slack)
        self.ball_node_budget = int(ball_node_budget)
        self.reliable = bool(reliable)
        # Incremental-MCS pruning: drop zero-weight (retired) readers from
        # local MWFS candidate pools.  Message pattern, round count and the
        # set of *tag-serving* Red nodes are unchanged — a retired reader in
        # gamma turns Black instead of Red, serving the same (empty) tag set.
        self.prune_zero = bool(prune_zero)
        self.state = WHITE
        self.announced = False
        self.coordinator_of: Optional[_Result] = None
        # ball view: facts gathered about nodes within 2c+2 hops
        self.view_neighbors: Dict[int, Tuple[int, ...]] = {}
        self.view_masks: Dict[int, int] = {}
        self.view_weights: Dict[int, int] = {}
        self.view_colored: Set[int] = set()
        service = ReliableFloodService if reliable else FloodService
        self.flood = service(self, on_deliver=self._deliver)

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Gather phase: flood HELLO over the (2c+2)-hop ball."""
        hello = _Hello(
            node=self.id,
            neighbors=tuple(self.neighbors),
            cover_mask=self.cover_mask,
            weight=self.weight,
        )
        self.flood.originate(hello, ttl=self.gather_rounds)

    def on_round(self, round_no: int, inbox) -> None:
        """Relay floods; after the gather deadline, try to coordinate."""
        for msg in inbox:
            self.flood.handle(msg)
        if self.reliable:
            self.flood.on_round_end()
        if round_no >= self.gather_rounds:
            self._maybe_coordinate()

    def is_idle(self) -> bool:
        """White nodes (and retransmitting reliable floods) keep the run alive."""
        if self.state == WHITE:
            return False
        if self.reliable and not self.flood.idle():
            return False  # keep retransmitting committed announcements
        return True

    # ------------------------------------------------------------------
    def _deliver(self, fm: FloodMessage) -> None:
        body = fm.body
        if isinstance(body, _Hello):
            self.view_neighbors[body.node] = body.neighbors
            self.view_masks[body.node] = body.cover_mask
            self.view_weights[body.node] = body.weight
        elif isinstance(body, _Result):
            self._apply_result(body)
        else:  # pragma: no cover - protocol misuse guard
            raise TypeError(f"unexpected flood body: {body!r}")

    def _apply_result(self, res: _Result) -> None:
        self.view_colored.update(res.removed)
        if self.state == WHITE:
            if self.id in res.gamma:
                self.state = RED
            elif self.id in res.removed:
                self.state = BLACK

    # ------------------------------------------------------------------
    def _white_view(self) -> Set[int]:
        return {
            u
            for u in self.view_neighbors
            if u not in self.view_colored
        }

    def _maybe_coordinate(self) -> None:
        if self.state != WHITE or self.announced:
            return
        white = self._white_view()
        if self.id not in white:
            return
        my_key = (self.weight, -self.id)
        for u in white:
            if u != self.id and (self.view_weights.get(u, 0), -u) > my_key:
                return
        self._run_local_computation(white)

    def _ball(self, white: Set[int], r: int) -> Set[int]:
        """r-hop ball around self in the White-induced view subgraph."""
        dist = {self.id: 0}
        frontier = [self.id]
        for hop in range(r):
            nxt = []
            for u in frontier:
                for v in self.view_neighbors.get(u, ()):
                    if v in white and v not in dist:
                        dist[v] = hop + 1
                        nxt.append(v)
            if not nxt:
                break
            frontier = nxt
        return set(dist)

    def _local_mwfs(self, candidates: Set[int]) -> Tuple[List[int], int]:
        if self.prune_zero:
            candidates = {u for u in candidates if self.view_weights.get(u, 0) > 0}
        masks = {u: self.view_masks[u] for u in candidates}
        oracle = GeneralizedWeightClimber.from_masks(masks, unread_mask=-1)
        neighbor_sets = {
            u: set(self.view_neighbors.get(u, ())) for u in candidates
        }
        best, w, _ex = solve_mwfs_masks(
            sorted(candidates),
            oracle,
            lambda i, j: j in neighbor_sets[i],
            max_nodes=self.ball_node_budget,
        )
        return best, w

    def _run_local_computation(self, white: Set[int]) -> None:
        # Grow Γ_r while w(Γ_{r+1}) >= rho * w(Γ_r), capped at r = c.
        r = 0
        ball = {self.id}
        gamma, w_gamma = self._local_mwfs(ball)
        while r < self.c:
            next_ball = self._ball(white, r + 1)
            if next_ball == ball:
                break
            gamma_next, w_next = self._local_mwfs(next_ball)
            if w_next < self.rho * w_gamma or (w_gamma == 0 and w_next == 0):
                break
            r += 1
            ball = next_ball
            gamma, w_gamma = gamma_next, w_next

        removed = self._ball(white, r + 1)
        result = _Result(
            coordinator=self.id,
            gamma=tuple(sorted(gamma)),
            removed=tuple(sorted(removed)),
            radius=r,
        )
        self.announced = True
        self.coordinator_of = result
        ttl = r + 1 + 2 * self.c + 2
        # originate() delivers to self first, colouring this node too.
        self.flood.originate(result, ttl=ttl)


@dataclass(frozen=True)
class DistributedOutcome:
    """Full protocol outcome (the OneShotResult plus runtime metrics)."""

    result: OneShotResult
    rounds: int
    messages: int
    coordinators: Tuple[int, ...]
    uncolored: Tuple[int, ...]


def run_distributed_protocol(
    system: RFIDSystem,
    unread: Optional[np.ndarray] = None,
    rho: float = 1.5,
    c: int = 2,
    max_rounds: int = 10_000,
    ball_node_budget: int = 100_000,
    loss_rate: float = 0.0,
    reliable: Optional[bool] = None,
    gather_slack: Optional[int] = None,
    seed=None,
    tracer=None,
    context=None,
) -> DistributedOutcome:
    """Execute Algorithm 3 and return the scheduling set plus metrics.

    Parameters
    ----------
    loss_rate:
        Per-message drop probability of the radio links.  The paper assumes
        reliable links; with loss the protocol must use *reliable* flooding
        (per-hop acks + retransmission) and extra gather slack, both of
        which default on automatically when ``loss_rate > 0``.
    reliable / gather_slack:
        Override the loss-driven defaults (e.g. to demonstrate how the
        fire-and-forget protocol degrades on lossy links).
    context:
        Optional :class:`~repro.perf.slotdelta.ScheduleContext`.  Enables
        ``prune_zero`` on every node: retired readers drop out of local
        MWFS pools, shrinking coordinator computations while rounds,
        message counts and the served-tag set stay identical.
    """
    check_in_range("rho", rho, 1.0, float("inf"), low_open=True)
    if c < 0:
        raise ValueError(f"c must be >= 0, got {c}")
    check_in_range("loss_rate", loss_rate, 0.0, 1.0, high_open=True)
    if reliable is None:
        reliable = loss_rate > 0.0
    if gather_slack is None:
        # expected per-hop retransmissions scale as 1/(1-p); pad the whole
        # gather phase accordingly, generously
        gather_slack = (
            0 if loss_rate == 0.0 else int(np.ceil((2 * c + 2) * 3 * loss_rate / (1 - loss_rate))) + 4
        )
    n = system.num_readers
    packed = system.packed_coverage
    unread_mask = packed.full_mask if unread is None else packed.pack_mask(unread)
    adj = adjacency_lists(system)
    nodes = [
        SchedulerNode(
            i,
            cover_mask=packed.masks[i] & unread_mask,
            rho=rho,
            c=c,
            ball_node_budget=ball_node_budget,
            reliable=reliable,
            gather_slack=gather_slack,
            prune_zero=context is not None,
        )
        for i in range(n)
    ]
    engine = SyncEngine(
        [a.tolist() for a in adj],
        nodes,
        loss_rate=loss_rate,
        seed=seed,
        tracer=tracer,
    )
    stats = engine.run(max_rounds=max_rounds)

    red = [node.id for node in nodes if node.state == RED]
    uncolored = tuple(node.id for node in nodes if node.state == WHITE)
    coordinators = tuple(node.id for node in nodes if node.coordinator_of)
    result = make_result(
        system,
        red,
        unread,
        solver="distributed",
        rho=rho,
        c=c,
        rounds=stats.rounds,
        messages=stats.messages,
        coordinators=len(coordinators),
    )
    return DistributedOutcome(
        result=result,
        rounds=stats.rounds,
        messages=stats.messages,
        coordinators=coordinators,
        uncolored=uncolored,
    )


def distributed_mwfs(
    system: RFIDSystem,
    unread: Optional[np.ndarray] = None,
    seed: RngLike = None,  # accepted for interface uniformity; deterministic
    rho: float = 1.5,
    c: int = 2,
    max_rounds: int = 10_000,
    ball_node_budget: int = 100_000,
    context=None,
) -> OneShotResult:
    """Algorithm 3 as a plain one-shot solver (metrics in ``meta``)."""
    outcome = run_distributed_protocol(
        system,
        unread,
        rho=rho,
        c=c,
        max_rounds=max_rounds,
        ball_node_budget=ball_node_budget,
        context=context,
    )
    return outcome.result
