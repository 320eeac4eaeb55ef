"""The machine-readable method list of the solver kernel.

:class:`~repro.perf.backends.numpy_batched.NumpyKernel` is the one kernel;
:data:`KERNEL_METHODS` names its public methods.  ``tests/test_obs_docs.py``
diffs the dict against those methods and against the method table of
``docs/backends.md`` (both directions), and timing harnesses patch the
kernel by these names.
"""

from __future__ import annotations

from typing import Dict

#: Every public kernel method, with its meaning.
KERNEL_METHODS: Dict[str, str] = {
    "solo_weights": "per-candidate singleton weight popcount(cover & unread)",
    "climb_weights_with": "batch generalised-rule (operational-reader) weight_with",
    "new_coverage_counts": "batch collision-naive new-coverage gain of each candidate",
    "filter_compatible": "conflict-row AND filter: candidates independent of a blocked set",
}
