"""The solver kernel behind every weight scan.

The hot loop of every solver is per-candidate weight evaluation over the
packed coverage masks.  :class:`~repro.perf.backends.numpy_batched.NumpyKernel`
answers it for a whole candidate frontier at once, bit-identical to the
scalar references named in ``docs/backends.md`` (differential-tested in
``tests/test_backends.py``).  :func:`kernel_for` hands out one kernel per
system.

:func:`resolve_backend` and :func:`use_backend` only validate a kernel
name: ``None`` and ``"numpy"`` are accepted, any other name raises
``ValueError``.  They remain for callers that name the kernel explicitly.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from repro.perf.backends.base import KERNEL_METHODS
from repro.perf.backends.numpy_batched import NumpyKernel
from repro.perf.cache import system_memo


def resolve_backend(choice: Optional[str] = None) -> str:
    """``"numpy"`` — the only kernel — for *choice* ``None`` or
    ``"numpy"``; any other name raises ``ValueError``."""
    if choice is None or choice == "numpy":
        return "numpy"
    raise ValueError(f"unknown backend {choice!r}; the only kernel is 'numpy'")


@contextmanager
def use_backend(name: Optional[str]):
    """Validate *name* like :func:`resolve_backend`, then run the block
    unchanged."""
    resolve_backend(name)
    yield


def kernel_for(system) -> NumpyKernel:
    """The kernel for *system*, memoised on it via
    :func:`~repro.perf.cache.system_memo` so every solver touching the same
    system shares one instance."""
    return system_memo(system, "perf.kernel", lambda: NumpyKernel(system))


__all__ = [
    "KERNEL_METHODS",
    "NumpyKernel",
    "kernel_for",
    "resolve_backend",
    "use_backend",
]
