"""Driver-side reaction policy: how the MCS loop degrades under faults.

A :class:`~repro.faults.plan.FaultPlan` says what breaks; a
:class:`FaultPolicy` says how the hardened
:func:`~repro.core.mcs.greedy_covering_schedule` responds:

* **heartbeat suspicion** — a reader that misses ``heartbeat_timeout``
  consecutive slot heartbeats is *suspected* and excluded from candidate
  sets until it answers again (crashed readers stop being proposed, and —
  because the distributed solver runs on the live-reader view — stop
  participating in distributed rounds);
* **solver deadlines** — each one-shot solve gets a wall-clock budget of
  ``solver_deadline_s · backoff_factor^misses`` (exponential backoff); after
  ``deadline_retries`` consecutive misses the driver steps down the
  degradation ladder: primary solver → ``fallback_solver`` (if configured)
  → the greedy singleton policy, which is O(1) per slot and cannot stall;
* **stall guard** — ``max_stall_slots`` consecutive zero-progress slots
  terminate the schedule with ``ScheduleOutcome.stalled`` instead of
  spinning (e.g. when every reader covering the remaining tags is down).

See ``docs/robustness.md`` for the full contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.util.validation import check_nonnegative_int, check_positive


@dataclass(frozen=True)
class FaultPolicy:
    """Degradation knobs for the fault-tolerant covering-schedule driver.

    Parameters
    ----------
    heartbeat_timeout:
        Consecutive failed slots before a reader is suspected and excluded
        from candidate sets (≥ 1; suspicion lifts the first slot the reader
        answers again).
    solver_deadline_s:
        Per-slot wall-clock budget for the one-shot solve; ``None`` disables
        deadline handling.  ``0.0`` is legal and means "always late" (useful
        to force the ladder deterministically in tests).
    deadline_retries:
        Consecutive deadline misses tolerated (each with an exponentially
        larger budget) before stepping down the ladder.
    backoff_factor:
        Budget multiplier per consecutive miss (≥ 1).
    fallback_solver:
        Optional intermediate ladder rung: a registry name (e.g. ``"ghc"``)
        or a solver callable tried after the primary solver is demoted and
        before the greedy singleton endpoint.
    max_stall_slots:
        Consecutive zero-progress slots before the schedule terminates with
        ``ScheduleOutcome.stalled``.
    """

    heartbeat_timeout: int = 2
    solver_deadline_s: Optional[float] = None
    deadline_retries: int = 2
    backoff_factor: float = 2.0
    fallback_solver: Optional[Union[str, Callable]] = None
    max_stall_slots: int = 32

    def __post_init__(self) -> None:
        check_nonnegative_int("heartbeat_timeout", self.heartbeat_timeout, minimum=1)
        if self.solver_deadline_s is not None:
            deadline = float(self.solver_deadline_s)
            if not deadline >= 0.0:
                raise ValueError(
                    f"solver_deadline_s must be >= 0, got {self.solver_deadline_s}"
                )
            object.__setattr__(self, "solver_deadline_s", deadline)
        check_nonnegative_int("deadline_retries", self.deadline_retries)
        check_positive("backoff_factor", self.backoff_factor)
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        check_nonnegative_int("max_stall_slots", self.max_stall_slots, minimum=1)
