"""Persistent worker pool: fork once, dispatch per slot.

The repository's only parallel map.  A dense sharded covering schedule
dispatches once per slot, so paying process startup and teardown per
dispatch would dominate it; :class:`WorkerPool` merges results
in payload order (byte-identical to the serial loop) and holds its workers
for the life of a run, so the fork/pickle tax is paid once and every later
dispatch ships only small deltas (per-cell seeds, retired-tag suffixes,
returned activation sets).  A one-shot map is a pool used for one
:meth:`WorkerPool.map` and closed.

How heavy state reaches the workers
-----------------------------------

Workers are created with the ``fork`` start method, so they inherit the
parent's entire heap — partitions, halo subsystems, packed coverage words —
as copy-on-write pages at fork time, for free.  Because the pool outlives
many dispatches, callables that close over the heavy state must be
**registered before the pool starts**
(:meth:`WorkerPool.register`, implicit on the first :meth:`WorkerPool.map`)
so the fork snapshot contains them.  Any callable arriving after the fork
raises :class:`RuntimeError`: the workers cannot run what their snapshot
does not hold.

Mutable cross-slot state stays in the parent; callers broadcast compact
delta arrays through the payloads and workers catch up locally (see
:meth:`repro.shard.runtime.ShardRuntime.pool_scope` for the canonical
pattern).  ``multiprocessing.shared_memory`` views were considered and
rejected: fork inheritance already shares the immutable gigabytes with zero
code, while shared-memory segments would add lifecycle management for the
small mutable part that pickles in microseconds.

A pool runs in one of two modes, ``"fork"`` or ``"serial"``.  A serial
pool maps in-process (no workers, no events): ``workers<=1``, a pool built
inside a pool worker (the nested-parallelism rule of
:mod:`repro.perf.parallel`), and a multi-worker pool on a platform without
``fork``, which reports the lost parallelism with a once-per-process
:class:`RuntimeWarning`.  Both modes merge in payload order, so worker
count and pool mode never change results.

Supervision
-----------

A forked worker that is SIGKILLed (OOM killer, operator error) or wedges
forever would otherwise hang the dispatch: ``multiprocessing.Pool`` quietly
respawns the worker but the in-flight chunk is lost and ``get()`` never
returns.  Fork dispatches are therefore *supervised*: the result wait
polls, reaping worker exitcodes (and pid churn from the pool's own
maintenance thread) and enforcing an optional per-dispatch deadline
(``dispatch_deadline_s``, default from ``REPRO_POOL_DEADLINE`` seconds).
On a detected death or deadline hit the broken workers are torn down and
the whole payload slice is retried on a freshly forked pool — bounded by
``max_respawns`` with exponential backoff — and once the respawn budget is
spent, replayed serially in the parent as a last resort.  Either way the
dispatch returns the same payload-order results (cell solves are
deterministic functions of their payloads), so a crashed worker degrades a
run instead of hanging or failing it.  Serial maps run in the parent and
are not supervised.

Telemetry: every fork dispatch runs under a ``pool.dispatch`` span,
which is its only wall-clock measurement, and emits one
:class:`~repro.obs.events.PoolDispatch` event (``pool_spawns`` /
``pool_tasks`` / ``pool_payload_bytes`` counters).  With telemetry off the
pool reads no timing clock; only supervision's deadline uses
``time.monotonic``.  A persistent pool shows ``pool_spawns == 1`` per run
(plus one per re-fork after a partition refresh or a supervised respawn)
where a pool per map would show one per call — the amortisation is
visible in the BENCH records.  Every supervised recovery additionally emits a
:class:`~repro.obs.events.PoolRecovery` event
(``pool_respawns`` / ``pool_deadline_hits`` counters).  When the parent's
recorder is enabled at dispatch time, the workers additionally run
the cross-process trace relay (:mod:`repro.obs.relay`): their events are
buffered (bounded), shipped back on the result payloads and replayed —
span ids rebased, roots re-parented — under the dispatch's
``pool.dispatch`` span, so ``--workers N`` traces stay one coherent tree.
See ``docs/performance.md`` and ``docs/observability.md``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from typing import Any, Callable, List, Optional, Sequence, Set

from repro.obs.events import PoolDispatch, PoolRecovery, get_recorder
from repro.obs.relay import capture_relay, replay_events
from repro.obs.spans import span
from repro.perf import parallel
from repro.perf.parallel import fork_available, in_pool_worker, resolve_workers

#: Worker-side registry: the owning pool points this at its registered
#: callables immediately before forking, so children inherit the list (and
#: every closure in it) in their copy-on-write heap.  Parent-side mutations
#: after the fork are invisible to the children — which is exactly the
#: register-before-start contract.
_WORKER_TASKS: Optional[List[Callable[[Any], Any]]] = None


def _pool_worker_init() -> None:
    """Runs once in each forked child: mark the process as a pool worker so
    nested parallel dispatches degrade serially (recorded, not crashed —
    daemonic workers cannot fork children), and restore default signal
    dispositions so ``terminate()`` stays lethal
    (:func:`~repro.perf.parallel.reset_inherited_signal_handlers`)."""
    parallel._IN_POOL_WORKER = True
    parallel.reset_inherited_signal_handlers()


def _pool_invoke(task: tuple) -> tuple:
    index, handle, payload, relay = task
    target = _WORKER_TASKS[handle]
    if not relay:
        return index, target(payload), None
    # Cross-process trace relay: buffer the worker's events (bounded) and
    # ship them back on the result; the parent replays them under its
    # pool.dispatch span.  Requested per task, so it is exactly as stale as
    # the parent's recorder state at dispatch time — never the fork time.
    result, relayed = capture_relay(target, payload)
    return index, result, relayed


#: Result-wait poll granularity of the supervised fork dispatch, seconds.
#: Coarse enough to be free (one ``Condition.wait`` wake-up per interval),
#: fine enough that a dead worker is noticed promptly.
_SUPERVISE_POLL_S = 0.1


def _env_dispatch_deadline() -> Optional[float]:
    """Per-dispatch deadline from ``REPRO_POOL_DEADLINE`` (seconds), or
    ``None`` when unset/invalid — the supervisor then watches worker health
    only."""
    raw = os.environ.get("REPRO_POOL_DEADLINE", "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


class _DispatchFailure(Exception):
    """Internal: a supervised dispatch lost its workers or its deadline."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class WorkerPool:
    """A persistent, deterministic worker pool (see module docstring).

    Parameters
    ----------
    workers:
        Worker count, in the :func:`~repro.perf.parallel.resolve_workers`
        convention (``None``/``0`` serial, negative = CPU count).  Resolved
        once at construction; ``<= 1`` makes every :meth:`map` a plain
        in-process loop and never starts anything, as does a platform
        without ``fork`` (warned once per process).
    dispatch_deadline_s:
        Optional per-dispatch wall-clock deadline for supervised fork maps;
        a dispatch exceeding it is treated like a worker failure (torn
        down, retried on a fresh pool, last-resort serial replay).
        ``None`` (the default) reads ``REPRO_POOL_DEADLINE`` (seconds) and
        falls back to health-only supervision when that is unset.
    max_respawns:
        Total fresh pools the supervisor may fork over this pool's life
        before it degrades to serial maps permanently.
    respawn_backoff_s:
        Base of the exponential backoff slept before each respawn.

    Usage::

        with WorkerPool(workers) as pool:
            pool.register(bound_method)        # before the first map
            for slot in range(n_slots):
                results = pool.map(bound_method, payloads)

    The pool is reusable across arbitrarily many :meth:`map` calls until
    :meth:`close` (or context-manager exit); closing terminates and joins
    the workers, so solver exceptions can never leak children.
    """

    def __init__(
        self,
        workers: Optional[int],
        dispatch_deadline_s: Optional[float] = None,
        max_respawns: int = 2,
        respawn_backoff_s: float = 0.05,
    ) -> None:
        self._workers = resolve_workers(workers)
        self._mode = "serial"
        #: True when only the missing ``fork`` keeps this pool serial.
        self._no_fork = False
        if self._workers > 1:
            if in_pool_worker():
                # a pool inside a pool worker cannot fork; map serially
                parallel._note_nested_serial()
            elif fork_available():
                self._mode = "fork"
            else:
                self._no_fork = True
        self._registry: List[Callable[[Any], Any]] = []
        self._procs = None
        self._closed = False
        self._spawn_pending = 0
        if dispatch_deadline_s is not None and dispatch_deadline_s <= 0:
            raise ValueError(
                f"dispatch_deadline_s must be positive, got {dispatch_deadline_s}"
            )
        self._deadline_s = (
            dispatch_deadline_s
            if dispatch_deadline_s is not None
            else _env_dispatch_deadline()
        )
        self._max_respawns = max(0, int(max_respawns))
        self._backoff_s = max(0.0, float(respawn_backoff_s))
        self._worker_pids: Set[int] = set()
        #: Fresh pools forked by the supervisor after a worker death or
        #: deadline hit (bounded by ``max_respawns``).
        self.respawns = 0
        #: Supervised dispatches that exceeded ``dispatch_deadline_s``.
        self.deadline_hits = 0
        #: True once the respawn budget is spent: every later map runs
        #: serially in the parent (deterministic, just no longer parallel).
        self._broken = False

    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """``"fork"`` or ``"serial"`` (fixed per pool)."""
        return self._mode

    @property
    def started(self) -> bool:
        """True once worker processes exist."""
        return self._procs is not None

    def register(self, fn: Callable[[Any], Any]) -> int:
        """Register *fn* for dispatch before the workers fork; returns its
        handle.  Idempotent per callable (bound methods compare by value,
        so re-accessing ``obj.method`` re-registers nothing)."""
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        handle = self._handle_of(fn)
        if handle is not None:
            return handle
        if self.started:
            raise RuntimeError(
                "WorkerPool workers already forked; register callables "
                "before the first map (see docs/performance.md)"
            )
        self._registry.append(fn)
        return len(self._registry) - 1

    def _handle_of(self, fn: Callable) -> Optional[int]:
        for i, registered in enumerate(self._registry):
            if registered == fn:
                return i
        return None

    def start(self) -> None:
        """Bring the workers up now (otherwise the first :meth:`map` does).

        This pins the inheritance snapshot: everything the registered
        callables close over must be in its run-start state when this is
        called.  A serial pool starts nothing; one that is serial only
        because the platform lacks ``fork`` warns once per process."""
        global _WORKER_TASKS
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        if self._no_fork:
            parallel._warn_no_fork()
        if self.started or self._mode == "serial":
            return
        ctx = multiprocessing.get_context("fork")
        _WORKER_TASKS = self._registry
        try:
            self._procs = ctx.Pool(
                processes=self._workers, initializer=_pool_worker_init
            )
        finally:
            _WORKER_TASKS = None
        procs = getattr(self._procs, "_pool", None) or ()
        self._worker_pids = {p.pid for p in procs}
        self._spawn_pending += 1

    # ------------------------------------------------------------------
    def map(
        self, fn: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> List[Any]:
        """Map *fn* over *payloads* on the persistent workers; results come
        back in payload order, exactly as from ``[fn(p) for p in
        payloads]``.

        *fn* must be in the fork snapshot: registered before the workers
        fork, which this map does implicitly when it starts them.  Any
        other callable raises :class:`RuntimeError` once the workers are
        up."""
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        payloads = list(payloads)
        if not payloads:
            return []
        if self._mode == "serial" or self._broken:
            if self._no_fork:
                parallel._warn_no_fork()
            return [fn(p) for p in payloads]
        # into the fork snapshot; raises once the workers have forked
        handle = self.register(fn)
        self.start()
        rec = get_recorder()
        relay = rec.enabled
        tasks = [(i, handle, p, relay) for i, p in enumerate(payloads)]
        payload_bytes = (
            len(pickle.dumps(tasks, protocol=pickle.HIGHEST_PROTOCOL))
            if relay
            else 0
        )
        with span("pool.dispatch", tasks=len(payloads)):
            while True:
                pending = self._procs.map_async(_pool_invoke, tasks)
                try:
                    indexed = self._supervised_get(pending)
                    break
                except _DispatchFailure as failure:
                    if failure.reason == "deadline":
                        self.deadline_hits += 1
                    self._teardown_workers()
                    respawned = self._try_respawn()
                    if rec.enabled:
                        rec.emit(
                            PoolRecovery(
                                reason=failure.reason,
                                respawned=respawned,
                                serial_replay=not respawned,
                                tasks=len(tasks),
                            )
                        )
                    if respawned:
                        continue
                    # Respawn budget spent: deterministic serial replay of
                    # the failed payload slice, and serial maps from now on.
                    self._broken = True
                    return [fn(p) for p in payloads]
            indexed.sort(key=lambda triple: triple[0])
            if relay:
                # cross-process trace relay: replay each worker's shipped
                # events (payload order) under this pool.dispatch span
                for _, _, relayed in indexed:
                    replay_events(relayed, rec)
        spawned, self._spawn_pending = self._spawn_pending, 0
        if rec.enabled:
            rec.emit(
                PoolDispatch(
                    tasks=len(payloads),
                    payload_bytes=payload_bytes,
                    spawned=spawned,
                )
            )
        return [result for _, result, _ in indexed]

    # ------------------------------------------------------------------
    def _supervised_get(self, pending) -> List[tuple]:
        """Wait for *pending* while watching worker health and the
        per-dispatch deadline; raises :class:`_DispatchFailure` instead of
        hanging on a lost chunk.  Exceptions raised by the mapped callable
        itself propagate unchanged (the pre-supervision contract)."""
        started = time.monotonic()
        while True:
            try:
                return pending.get(timeout=_SUPERVISE_POLL_S)
            except multiprocessing.TimeoutError:
                if self._workers_died():
                    raise _DispatchFailure("worker-death") from None
                if (
                    self._deadline_s is not None
                    and time.monotonic() - started > self._deadline_s
                ):
                    raise _DispatchFailure("deadline") from None

    def _workers_died(self) -> bool:
        """True when any forked worker exited (exitcode reaped) or was
        replaced by the pool's maintenance thread (pid churn) — either way
        the in-flight chunk it held is lost and the dispatch would hang."""
        procs = getattr(self._procs, "_pool", None)
        if procs is None:
            return True
        if any(p.exitcode is not None for p in procs):
            return True
        return {p.pid for p in procs} != self._worker_pids

    def _teardown_workers(self) -> None:
        """Terminate and join the (broken) forked workers, leaving the pool
        stopped but reusable by :meth:`start`."""
        procs, self._procs = self._procs, None
        self._worker_pids = set()
        if procs is not None:
            try:
                procs.terminate()
                procs.join()
            except Exception:
                pass

    def _try_respawn(self) -> bool:
        """Fork a fresh worker pool if the respawn budget allows, sleeping
        the exponential backoff first; False once the budget is spent."""
        if self.respawns >= self._max_respawns:
            return False
        if self._backoff_s > 0:
            time.sleep(self._backoff_s * (2 ** self.respawns))
        self.respawns += 1
        self.start()
        return True

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Terminate and join the workers (idempotent and exception-safe).

        ``terminate`` rather than ``close``: every :meth:`map` is
        synchronous, so nothing useful is ever in flight here — and after a
        solver exception it is the only way to guarantee no child outlives
        the pool.  Safe to call any number of times, from any pool state —
        including after a :meth:`start` that raised partway (the worker
        handles are detached before teardown, so a second :meth:`close`
        never touches half-dead state)."""
        if self._closed:
            return
        self._closed = True
        procs, self._procs = self._procs, None
        self._worker_pids = set()
        if procs is not None:
            procs.terminate()
            procs.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
