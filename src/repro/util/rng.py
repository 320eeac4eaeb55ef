"""Random-number-generator plumbing.

Every stochastic entry point in the library accepts a ``seed`` argument that
may be ``None``, an ``int``, or an already-constructed
:class:`numpy.random.Generator`.  Normalising through :func:`as_rng` keeps
experiments reproducible end to end: a scenario seeded with the same integer
always yields the same deployment, the same protocol coin flips, and the same
schedule.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

class LazyRng:
    """An int seed whose :class:`numpy.random.Generator` is built on first
    use.

    :func:`as_rng` and :func:`spawn_rngs` treat it exactly as
    ``np.random.default_rng(seed)``, so a solver that draws sees the same
    stream as if it had been handed that generator, and a solver that never
    draws never pays for building one.  The sharded runtime hands one to
    every cell solve.
    """

    __slots__ = ("seed", "_rng")

    def __init__(self, seed: int):
        self.seed = seed
        self._rng: Optional[np.random.Generator] = None

    def generator(self) -> np.random.Generator:
        """The generator, built from :attr:`seed` on the first call."""
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)
        return self._rng


#: Anything accepted where a random source is required.
RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence, LazyRng]


def as_rng(seed: RngLike = None) -> np.random.Generator:
    """Normalise *seed* into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged, so callers can thread
    a single generator through a pipeline without re-seeding; a
    :class:`LazyRng` returns its generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, LazyRng):
        return seed.generator()
    return np.random.default_rng(seed)


def spawn_rngs(seed: RngLike, n: int) -> Sequence[np.random.Generator]:
    """Derive *n* statistically independent generators from one seed.

    Used by replicated experiments (one generator per trial) and by the
    distributed simulator (one generator per node) so that per-entity streams
    never correlate regardless of call ordering.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of rngs: {n}")
    if isinstance(seed, LazyRng):
        seed = seed.generator()
    if isinstance(seed, np.random.SeedSequence):
        seq = seed
    elif isinstance(seed, np.random.Generator):
        # Derive a child sequence from the generator's own bit stream.
        seq = np.random.SeedSequence(seed.integers(0, 2**63 - 1, size=4).tolist())
    else:
        seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def derive_seed(seed: RngLike, salt: int) -> Optional[int]:
    """Mix *salt* into *seed* to get a new deterministic integer seed.

    ``None`` stays ``None`` (fresh entropy each call), matching the semantics
    of :func:`as_rng`.
    """
    if seed is None:
        return None
    if isinstance(seed, (np.random.Generator, np.random.SeedSequence, LazyRng)):
        raise TypeError("derive_seed requires an int or None seed")
    mixed = np.random.SeedSequence(entropy=seed, spawn_key=(salt,))
    return int(mixed.generate_state(1, dtype=np.uint64)[0])
