"""Process-wide state of the parallel tier.

:class:`~repro.perf.pool.WorkerPool` is the repository's only parallel
map; this module holds what it consults: worker-count resolution
(:func:`resolve_workers`, :func:`env_default_workers`), fork availability,
the pool-worker flag behind :func:`in_pool_worker`, the once-per-process
warnings, and the nested-parallelism tally.  See ``docs/performance.md``.

Nested-parallelism contract: a :class:`~repro.perf.pool.WorkerPool` built
inside a pool worker — a worker-bound ``fn`` that itself parallelises —
runs its maps **serially** in that worker.  Forked pool workers are
daemonic and cannot fork children, so serial is the only deterministic
behaviour.  The degradation is *recorded*, never silent:
:data:`nested_serial_calls` counts occurrences in the affected process and
a :class:`RuntimeWarning` fires once per process.

Fork-less platforms (Windows, spawn-only interpreters) take the same
serial path: a multi-worker pool maps in process, exactly as
``workers<=1`` does, and a :class:`RuntimeWarning` reports the lost
parallelism once per process.  See ``docs/performance.md``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import warnings
from typing import Optional

from repro.util.validation import check_workers

#: True inside a forked :class:`~repro.perf.pool.WorkerPool` worker (set by
#: the pool's initializer).  Parent processes never set it.
_IN_POOL_WORKER = False

#: Set after the first fork-unavailable warning; the missing ``fork`` is a
#: property of the platform, so it is reported once per process.
_NO_FORK_WARNED = False

#: Nested parallel dispatches degraded to serial in *this* process (worker
#: processes count their own occurrences; the tallies die with them).
nested_serial_calls = 0

_NESTED_WARNED = False


def reset_inherited_signal_handlers() -> None:
    """Restore default ``SIGTERM``/``SIGINT`` dispositions in a forked
    pool worker.

    Children inherit whatever handlers the parent installed — notably the
    CLI's graceful-shutdown trap, which turns both signals into a Python
    exception.  Inside a pool worker that inheritance is fatal: stdlib
    ``Pool._terminate_pool`` SIGTERMs straggling workers *after*
    permanently seizing the task-queue read lock, and the worker loop's
    broad ``except Exception`` around its result ``put`` can swallow the
    raised interrupt — the worker survives its own termination, loops back
    to ``get()`` and deadlocks against the parent's held lock (the parent
    then hangs forever in ``join``).  Resetting to ``SIG_DFL`` keeps
    ``terminate()`` lethal, which pool teardown depends on.
    """
    if threading.current_thread() is not threading.main_thread():
        return  # pragma: no cover - initializers run on the worker main thread
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            pass


def in_pool_worker() -> bool:
    """True when the calling process is a forked pool worker (either a
    :class:`~repro.perf.pool.WorkerPool` child or any daemonic
    ``multiprocessing`` worker).  Serial maps run in the parent, where this
    stays False."""
    return _IN_POOL_WORKER or multiprocessing.current_process().daemon


def _note_nested_serial() -> None:
    """Record one nested parallel dispatch degraded to serial."""
    global nested_serial_calls, _NESTED_WARNED
    nested_serial_calls += 1
    if not _NESTED_WARNED:
        _NESTED_WARNED = True
        warnings.warn(
            "nested parallel dispatch: fn is already running inside a "
            "worker, so this WorkerPool level runs serially "
            "(counted in repro.perf.parallel.nested_serial_calls; see "
            "docs/performance.md)",
            RuntimeWarning,
            stacklevel=3,
        )


def _warn_no_fork() -> None:
    """Emit the once-per-process fork-unavailable warning."""
    global _NO_FORK_WARNED
    if not _NO_FORK_WARNED:
        _NO_FORK_WARNED = True
        warnings.warn(
            "os.fork unavailable on this platform; WorkerPool maps run "
            "serially in process (results identical, no parallelism)",
            RuntimeWarning,
            stacklevel=3,
        )


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return (
        hasattr(os, "fork")
        and "fork" in multiprocessing.get_all_start_methods()
    )


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` argument: ``None``/``0`` → 1 (serial),
    negative → CPU count.  Anything else must pass
    :func:`~repro.util.validation.check_workers` (an integer, or a string
    holding one); floats and booleans raise :class:`ValueError`."""
    if workers is None:
        return 1
    workers = check_workers("workers", workers)
    if workers == 0:
        return 1
    if workers < 0:
        return os.cpu_count() or 1
    return workers


def env_default_workers(cli_value: Optional[int] = None) -> Optional[int]:
    """The effective worker count under the ``REPRO_WORKERS`` environment
    default: an explicit *cli_value* always wins, else the environment
    variable (validated), else ``None`` (serial).  Precedence CLI > env >
    serial — every ``--workers`` CLI flag routes through here."""
    if cli_value is not None:
        return cli_value
    raw = os.environ.get("REPRO_WORKERS")
    if raw is None or not raw.strip():
        return None
    return check_workers("REPRO_WORKERS", raw)

