"""One-shot solver protocol, result type and registry.

Every algorithm in this library — the three paper algorithms, the exact
solver and the baselines — reduces to the same contract: given a system and
the current unread mask, return a reader set to activate this slot.  The MCS
driver, the experiment harness and the CLI all go through this interface, so
adding a scheduler means implementing one function and registering it.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.model.system import RFIDSystem
from repro.obs.events import SolverCall, get_recorder
from repro.obs.spans import span
from repro.perf.incremental import GeneralizedWeightClimber
from repro.util.rng import RngLike


@dataclass(frozen=True)
class OneShotResult:
    """A solver's answer for one time-slot."""

    active: np.ndarray
    weight: int
    feasible: bool
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "active", np.asarray(self.active, dtype=np.int64)
        )

    @property
    def size(self) -> int:
        """Number of activated readers."""
        return int(len(self.active))


def make_result(
    system: RFIDSystem,
    active,
    unread: Optional[np.ndarray] = None,
    climber: Optional[GeneralizedWeightClimber] = None,
    **meta,
) -> OneShotResult:
    """Assemble an :class:`OneShotResult`, computing weight and feasibility
    from the system so solvers cannot misreport.

    Both come from a :class:`~repro.perf.incremental.GeneralizedWeightClimber`
    over *system* holding *active*: the weight is its generalised weight,
    property-tested bit-identical to the NumPy reference
    :meth:`RFIDSystem.weight` on feasible and infeasible sets alike, and
    the set is feasible when no active reader lies in the silenced set
    (property-tested equal to :meth:`RFIDSystem.is_feasible`).  The weight
    counts the tags of *unread*, the same mask the solver was given.

    A solver that grew its set in a climber over the same *system* and
    *unread* (GHC) passes it finished as *climber*, with *active* its
    active readers; otherwise a fresh climber adds *active* here.
    """
    idx = system._normalize_active(active)
    if climber is None:
        climber = GeneralizedWeightClimber(system, unread)
        for i in idx:
            climber.add(int(i))
    return OneShotResult(
        active=idx,
        weight=climber.current_weight(),
        feasible=climber.feasible,
        meta=dict(meta),
    )


#: Solver signature: (system, unread mask or None, seed) -> OneShotResult.
#: Solvers may additionally accept a ``context`` keyword (a
#: :class:`~repro.perf.slotdelta.ScheduleContext`); the MCS driver passes it
#: only to solvers whose signature declares it.  The unread mask is the one
#: the weights count; a context is advisory pruning state over that same mask.
OneShotSolver = Callable[[RFIDSystem, Optional[np.ndarray], RngLike], OneShotResult]

_REGISTRY: Dict[str, Callable[..., OneShotSolver]] = {}


def register_solver(name: str, factory: Callable[..., OneShotSolver]) -> None:
    """Register a solver factory under *name*.

    The factory takes solver-specific keyword arguments and returns a
    solver callable.  Re-registering a name overwrites it (tests rely on
    this to inject instrumented variants).
    """
    _REGISTRY[name] = factory


def get_solver(name: str, **kwargs) -> OneShotSolver:
    """Instantiate a registered solver by name."""
    _ensure_builtins()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown solver {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def available_solvers() -> List[str]:
    """Sorted names of every registered solver."""
    _ensure_builtins()
    return sorted(_REGISTRY)


_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        _register_builtins()


def _register_builtins() -> None:
    """Deferred registration to dodge circular imports: the solver modules
    import this module for :func:`make_result`."""
    from repro.baselines.hillclimb import greedy_hill_climbing
    from repro.baselines.randomsched import random_feasible_set
    from repro.baselines.colorwave import colorwave_oneshot
    from repro.core.distributed import distributed_mwfs
    from repro.core.exact import exact_mwfs
    from repro.core.neighborhood import centralized_location_free
    from repro.core.ptas import ptas_mwfs

    def wrap(fn):
        # Forward the schedule context only to solvers that implement the
        # pruning hooks; the rest keep their reference signature untouched.
        takes_context = "context" in inspect.signature(fn).parameters

        def factory(**kw):
            def solver(system, unread=None, seed=None, context=None):
                if takes_context:
                    kw_all = dict(kw, context=context)
                else:
                    kw_all = kw
                rec = get_recorder()
                if not rec.enabled:
                    return fn(system, unread=unread, seed=seed, **kw_all)
                # Span + event only on the traced path: the disabled branch
                # above stays exactly one attribute check.
                with span("solver.call", solver=fn.__name__):
                    t0 = time.perf_counter()
                    result = fn(system, unread=unread, seed=seed, **kw_all)
                    rec.emit(
                        SolverCall(
                            solver=result.meta.get("solver", fn.__name__),
                            seconds=time.perf_counter() - t0,
                            weight=int(result.weight),
                            active_readers=result.size,
                            feasible=bool(result.feasible),
                            budget_exhausted=bool(
                                result.meta.get("budget_exhausted", False)
                            ),
                        )
                    )
                return result

            solver.__name__ = fn.__name__
            return solver

        return factory

    register_solver("exact", wrap(exact_mwfs))
    register_solver("ptas", wrap(ptas_mwfs))
    register_solver("centralized", wrap(centralized_location_free))
    register_solver("distributed", wrap(distributed_mwfs))
    register_solver("ghc", wrap(greedy_hill_climbing))
    register_solver(
        "ghc_naive",
        lambda **kw: wrap(greedy_hill_climbing)(gain_mode="coverage", **kw),
    )
    register_solver("colorwave", wrap(colorwave_oneshot))
    register_solver("random", wrap(random_feasible_set))

    from repro.baselines.csma import csma_oneshot
    from repro.core.localsearch import local_search_mwfs

    register_solver("csma", wrap(csma_oneshot))
    register_solver("localsearch", wrap(local_search_mwfs))
