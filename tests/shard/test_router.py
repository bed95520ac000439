"""The router is the coordinator's hooks, not a second coordinator.

``ShardRouter`` used to carry its own copy of the retry loop, the
quorum plan, both ``_once`` attempts and both ``_try`` decisions -- the
coordinator's with a shard id threaded through, and without what the
coordinator had learnt since (hedged waves, adaptive deadlines, the
release fan-out, honest ``polls`` / ``attempts``).  These assertions
failed on that class; they keep the copies from growing back.
"""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.coordinator import Coordinator
from repro.core.store import ReplicatedStore
from repro.shard.router import ShardRouter
from repro.shard.store import ShardedStore

OPERATION_PATH = ("_operate", "_with_retries", "_plan_quorum", "_write_once",
                  "_try_write", "_read_once", "_try_read", "_poll",
                  "_release", "_degraded_read", "_hedge_spares")


def test_the_operation_path_exists_once():
    assert issubclass(ShardRouter, Coordinator)
    for name in OPERATION_PATH:
        assert name in vars(Coordinator), name
        assert name not in vars(ShardRouter), name


@pytest.mark.parametrize("cls", [Coordinator, ShardRouter])
def test_read_and_write_are_defined_in_the_class_body(cls):
    # bench/spans.py wraps vars(cls)["read"] / ["write"] per class
    assert "read" in vars(cls) and "write" in vars(cls)


def suspecting_one(store, coordinator):
    """*coordinator* after it has come to suspect one other node."""
    victim = next(name for name in store.node_names
                  if name != coordinator.name)
    coordinator.server.liveness.observe(victim, False)
    assert victim in coordinator.server.liveness.suspects()
    return victim


def test_coordinator_heavy_poll_drops_suspects_while_a_quorum_remains():
    store = ReplicatedStore.create(9, seed=1)
    coordinator = store.coordinators["n00"]
    victim = suspecting_one(store, coordinator)
    coterie = coordinator.server.coterie_for(store.node_names)
    targets = coordinator._heavy_targets(coterie, "write", None)
    assert victim not in targets and len(targets) == 8
    blind = ReplicatedStore.create(
        9, seed=1, config=ProtocolConfig(quorum_planner=False))
    suspecting_one(blind, blind.coordinators["n00"])
    assert blind.coordinators["n00"]._heavy_targets(
        coterie, "write", None) == store.node_names


def test_router_heavy_poll_ignores_suspects():
    # The one measured difference between the stores (docs/SHARDING.md):
    # every suspicion in the crash-free contended benchmark is false, and
    # excluding suspects there costs tail latency and messages.
    store = ShardedStore.create(5, n_shards=4, replication=5, seed=1)
    router = store.routers["n00"]
    victim = suspecting_one(store, router)
    item = (0, "k")
    coterie = router.server.coterie_for(router._epoch_list(item))
    assert victim in router._heavy_targets(coterie, "write", item)
    assert router._heavy_targets(coterie, "write", item) == \
        sorted(store.node_names)
