"""The sharded keyspace: partial replication with amortized epochs.

Splits a large keyspace over many shards, each replicated on a small
subset of the cluster, with per-shard epochs and **one** shared epoch
service: a single elected initiator sweeps every shard in batched RPCs
(one message per node, not per shard).  Keyed reads and writes run the
single-item stack: :class:`ShardRouter` is a ``core`` ``Coordinator`` over
``(shard, key)`` items, :class:`ShardHost` a ``TwoPhaseParticipant``.
See ``docs/SHARDING.md``.
"""

from repro.shard.host import ShardHost
from repro.shard.map import ShardMap
from repro.shard.messages import ShApplyWrite, ShInstallEpoch, ShMarkStale
from repro.shard.rebalance import (
    hot_shards,
    node_loads,
    placement_fairness,
    plan_moves,
    shard_loads,
)
from repro.shard.router import ShardRouter
from repro.shard.store import ShardedStore
from repro.shard.sweep import (
    ShardSweeper,
    SweepResult,
    check_shard_epoch,
    sweep_epochs,
)

__all__ = [
    "ShardHost",
    "ShardMap",
    "ShardRouter",
    "ShardSweeper",
    "ShardedStore",
    "ShApplyWrite",
    "ShInstallEpoch",
    "ShMarkStale",
    "SweepResult",
    "check_shard_epoch",
    "hot_shards",
    "node_loads",
    "placement_fairness",
    "plan_moves",
    "shard_loads",
    "sweep_epochs",
]
