"""Pluggable solver-kernel backends with certified runtime selection.

The hot loop of every solver is per-candidate weight evaluation over the
packed coverage masks.  This package puts that loop behind the
:class:`~repro.perf.backends.base.WeightKernel` interface and registers two
implementations:

* ``pure`` — the historical scalar big-int path
  (:class:`~repro.perf.backends.pure.PureKernel`);
* ``numpy`` — candidate frontiers evaluated as 2-D ``uint64`` popcount
  matrices (:class:`~repro.perf.backends.numpy_batched.NumpyKernel`).

Every backend is **bit-identical** by contract: same weights, same chosen
sets, same work counters (``docs/backends.md``), enforced by the
property/equivalence tests in ``tests/test_backends.py`` and the
``bench compare --backends`` cross-certification gate.

Selection precedence (first match wins):

1. an explicit ``backend=`` argument to a solver or :func:`kernel_for`;
2. the process default set by :func:`set_default_backend` (the CLI's
   ``--backend`` flag lands here);
3. the ``REPRO_BACKEND`` environment variable;
4. ``auto`` — ``numpy``.

An unknown name raises ``ValueError`` listing :func:`available_backends`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from repro.perf.backends.base import KERNEL_METHODS, WeightKernel
from repro.perf.backends.numpy_batched import NumpyKernel
from repro.perf.backends.pure import PureKernel
from repro.perf.cache import system_memo

#: Environment variable consulted by :func:`resolve_backend` (precedence 3).
BACKEND_ENV_VAR = "REPRO_BACKEND"


_REGISTRY: Dict[str, Callable[..., WeightKernel]] = {}


def register_backend(name: str, factory: Callable[..., WeightKernel]) -> None:
    """Register a kernel *factory* (``factory(system) -> WeightKernel``)
    under *name*.  Re-registering a name overwrites it."""
    _REGISTRY[name] = factory


def available_backends() -> List[str]:
    """Sorted names of every registered backend."""
    return sorted(_REGISTRY)


register_backend("pure", PureKernel)
register_backend("numpy", NumpyKernel)

_DEFAULT_BACKEND: Optional[str] = None


def set_default_backend(name: Optional[str]) -> None:
    """Set the process-wide default backend (selection precedence 2).

    *name* may be a registered backend, ``"auto"``, or ``None`` to clear
    the default (falling through to the environment / auto)."""
    global _DEFAULT_BACKEND
    if name is not None and name != "auto" and name not in _REGISTRY:
        raise ValueError(
            f"unknown backend {name!r}; available: {available_backends()}"
        )
    _DEFAULT_BACKEND = name


def get_default_backend() -> Optional[str]:
    """The process-wide default backend name, or ``None`` if unset."""
    return _DEFAULT_BACKEND


def resolve_backend(choice: Optional[str] = None) -> str:
    """Resolve a backend request to a concrete registered name.

    Follows the module's selection precedence; returns ``"pure"`` or
    ``"numpy"`` (or any later-registered name).  ``auto`` resolves to
    ``numpy``."""
    name = choice
    if name is None:
        name = _DEFAULT_BACKEND
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or None
    if name is None:
        name = "auto"
    name = str(name).strip().lower()
    if name == "auto":
        return "numpy"
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown backend {name!r}; available: {available_backends()}"
        )
    return name


@contextmanager
def use_backend(name: Optional[str]):
    """Context manager pinning the process default backend (and restoring
    the previous default on exit) — what the CLI and bench runners use to
    scope a ``--backend`` request to one run."""
    previous = _DEFAULT_BACKEND
    set_default_backend(name)
    try:
        yield
    finally:
        set_default_backend(previous)


def kernel_for(system, backend: Optional[str] = None) -> WeightKernel:
    """The resolved backend's kernel for *system*, memoised per
    ``(system, backend)`` via :func:`~repro.perf.cache.system_memo` so every
    solver touching the same system shares one instance."""
    name = resolve_backend(backend)
    factory = _REGISTRY[name]
    return system_memo(system, ("perf.backend", name), lambda: factory(system))


def _reset_selection_for_tests() -> None:
    """Clear the process default."""
    global _DEFAULT_BACKEND
    _DEFAULT_BACKEND = None


__all__ = [
    "BACKEND_ENV_VAR",
    "KERNEL_METHODS",
    "NumpyKernel",
    "PureKernel",
    "WeightKernel",
    "available_backends",
    "get_default_backend",
    "kernel_for",
    "register_backend",
    "resolve_backend",
    "set_default_backend",
    "use_backend",
]
