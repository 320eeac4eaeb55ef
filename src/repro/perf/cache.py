"""Per-system memoisation of derived structures.

:class:`~repro.model.system.RFIDSystem` is immutable, so anything derived
purely from its matrices — packed conflict rows, silencer rows, shifted
hierarchies — can be computed once and reused for the system's lifetime.
The memo is keyed *weakly* by system identity: entries die with their
system, and a freshly built system (even one with identical geometry) never
aliases another's cache.

Invalidation rule: there is none, by construction.  Cached values must be
functions of the system's frozen state only and must never be mutated by
consumers (the builders here return read-only or immutable objects).
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Hashable, Tuple

from repro.perf.packed import pack_square_bool

_CACHES: "weakref.WeakKeyDictionary[Any, dict]" = weakref.WeakKeyDictionary()


def system_memo(system: Any, key: Hashable, build: Callable[[], Any]) -> Any:
    """Value of *build()* memoised under *key* for this *system*."""
    cache = _CACHES.get(system)
    if cache is None:
        cache = _CACHES.setdefault(system, {})
    try:
        return cache[key]
    except KeyError:
        value = cache[key] = build()
        return value


def conflict_bits(system: Any) -> Tuple[int, ...]:
    """Per-reader big-int adjacency rows of the interference graph:
    bit ``j`` of entry ``i`` set iff readers *i* and *j* conflict."""
    return system_memo(
        system, "conflict_bits", lambda: pack_square_bool(system.conflict)
    )


def silencer_bits(system: Any) -> Tuple[int, ...]:
    """Per-reader big-int RTc rows: bit ``j`` of entry ``i`` set iff reader
    *i* lies inside reader *j*'s interference disk (activating *j* silences
    *i*).  The diagonal is clear — a reader never silences itself."""
    return system_memo(
        system,
        "silencer_bits",
        lambda: pack_square_bool(system.in_interference_range),
    )


def silencee_bits(system: Any) -> Tuple[int, ...]:
    """Per-reader big-int rows of the readers each one silences: bit ``i``
    of entry ``j`` set iff reader *i* lies inside reader *j*'s
    interference disk — the transpose of :func:`silencer_bits`."""
    return system_memo(
        system,
        "silencee_bits",
        lambda: pack_square_bool(system.in_interference_range.T),
    )
