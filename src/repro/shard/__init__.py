"""Scale tier: spatial sharding with halo exchange (``docs/scale.md``).

Partitions a deployment into interaction-radius-sized spatial cells, solves
each cell's slot independently on a halo-augmented subsystem, and merges
the per-cell activations with a deterministic boundary-reconciliation pass
— taking the greedy covering schedule to 10⁴-reader / 10⁶-tag deployments
that the dense global matrices cannot reach.

* :mod:`repro.shard.spec` — :class:`ShardSpec` configuration and the
  interaction-radius cell-sizing rule;
* :mod:`repro.shard.partition` — :class:`ShardPartition`: cells, halos and
  ownership maps;
* :mod:`repro.shard.runtime` — :class:`ShardRuntime`: per-slot cell
  solves (concurrent in the dense sharded driver), merge and
  reconciliation, cross-slot cell state;
* :mod:`repro.shard.climb` — the array-first driver's GHC, climbed in
  lockstep over every live cell;
* :mod:`repro.shard.scale` — the array-first sparse driver for
  deployments too large for a global :class:`~repro.model.system.
  RFIDSystem`;
* :mod:`repro.shard.bench` — the ``BENCH_scale.json`` matrix (imported
  explicitly, not re-exported here: it pulls in the bench stack).

The MCS driver integration is
``greedy_covering_schedule(..., shard=ShardSpec(...))``; ``cells == 1``
(or any deployment collapsing to one cell) is certified bit-identical to
the unsharded driver.
"""

from repro.shard.partition import ShardCell, ShardPartition
from repro.shard.runtime import ShardRuntime
from repro.shard.scale import (
    ScaleDeployment,
    ScaleScheduleResult,
    ScaleSlotRecord,
    run_scale_schedule,
)
from repro.shard.spec import ShardSpec, interaction_radius

__all__ = [
    "ShardSpec",
    "interaction_radius",
    "ShardCell",
    "ShardPartition",
    "ShardRuntime",
    "ScaleDeployment",
    "ScaleSlotRecord",
    "ScaleScheduleResult",
    "run_scale_schedule",
]
