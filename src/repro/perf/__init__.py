"""Performance kernel layer.

Low-level representations and execution helpers shared by the solver stack:

* :mod:`repro.perf.packed` — coverage matrices packed into ``uint64`` words
  with vectorized popcount, built once per :class:`~repro.model.system.RFIDSystem`;
* :mod:`repro.perf.cache` — per-system memo for derived structures
  (conflict/silencer bitmasks, shifted hierarchies), keyed weakly so caches
  die with their system;
* :mod:`repro.perf.incremental` — incremental generalised-weight engine for
  hill-climbing searches (exactly matches
  :meth:`~repro.model.system.RFIDSystem.weight` on infeasible sets);
* :mod:`repro.perf.parallel` — worker-count resolution and the
  nested-parallelism rule;
* :mod:`repro.perf.pool` — the persistent :class:`WorkerPool`, the only
  parallel map: deterministic payload-order merges, forked once per run
  and reused across slots/sweep points/bench jobs so spawn and pickle
  costs amortise (serial in process where ``fork`` is unavailable);
* :mod:`repro.perf.slotdelta` — cross-slot incremental MCS state: the
  unread mask maintained by clearing served-tag bits, per-reader remaining
  covered counts (reader retirement) and warm starts for the next slot.

The layer sits below :mod:`repro.model`: it imports only NumPy,
:mod:`repro.util` and the leaf telemetry modules of :mod:`repro.obs`
(events/spans — the parallel tier reports its dispatches like every other
layer; see ``docs/architecture.md``), so every other subpackage may depend
on it.  The kernel
tier never changes *what* is computed — work counters (``sets_evaluated``,
``sets_by_context``) and returned weights are bit-identical to the
reference paths.  The schedule context (:class:`ScheduleContext`, always
on in the covering schedule) lets solvers skip retired readers, so it
shrinks the work counters of a schedule but not its per-slot weights.
See ``docs/performance.md``.
"""

from repro.perf.cache import conflict_bits, silencer_bits, system_memo
from repro.perf.incremental import GeneralizedWeightClimber
from repro.perf.packed import PackedCoverage, popcount_words
from repro.perf.parallel import env_default_workers, resolve_workers
from repro.perf.pool import WorkerPool
from repro.perf.slotdelta import ScheduleContext

__all__ = [
    "PackedCoverage",
    "popcount_words",
    "system_memo",
    "conflict_bits",
    "silencer_bits",
    "GeneralizedWeightClimber",
    "ScheduleContext",
    "resolve_workers",
    "env_default_workers",
    "WorkerPool",
]
