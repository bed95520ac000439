"""Quiesce snapshot/compare unit tests plus a settled-cluster check."""

from __future__ import annotations

from repro.core.propagation import COURIER
from repro.core.replica import REPLICA
from repro.core.store import ReplicatedStore
from repro.shard.store import ShardedStore
from repro.sanitize.quiesce import (
    QUIESCE_GAP,
    Snapshot,
    check_quiesce,
    compare_snapshots,
    take_snapshot,
)


def test_disjoint_snapshots_are_quiet():
    first = Snapshot(time=1.0, locks={("n00", "value-lock", "w1")})
    second = Snapshot(time=5.5, locks={("n00", "value-lock", "w2")})
    assert compare_snapshots(first, second) == []


def test_persistent_lock_is_a_leak():
    held = ("n00", "value-lock", "w1")
    findings = compare_snapshots(Snapshot(time=1.0, locks={held}),
                                 Snapshot(time=5.5, locks={held}))
    [finding] = findings
    assert "leaked lock" in finding and "value-lock" in finding


def test_persistent_handler_call_and_courier_are_flagged():
    handler = ("n01", "n00", 42)
    call = ("n00", 42)
    courier = ("n02", 0xbeef)
    first = Snapshot(time=1.0, inflight={handler}, pending={call},
                     couriers={courier: "propagate-x"})
    second = Snapshot(time=5.5, inflight={handler}, pending={call},
                      couriers={courier: "propagate-x"})
    findings = compare_snapshots(first, second)
    assert len(findings) == 3
    assert any("stuck handler" in f for f in findings)
    assert any("stuck call" in f for f in findings)
    assert any("stranded courier" in f for f in findings)


def test_courier_identity_must_match():
    # a *new* courier process at the second snapshot is normal retry
    # machinery, not a stranded one: identity is (node, id(process))
    first = Snapshot(time=1.0, couriers={("n02", 1): "propagate-x"})
    second = Snapshot(time=5.5, couriers={("n02", 2): "propagate-x"})
    assert compare_snapshots(first, second) == []


def test_settled_cluster_passes_the_full_check():
    store = ReplicatedStore.create(5, seed=3)
    store.write({"k": "v"})
    store.settle()
    assert check_quiesce(store, crash_free=True) == []


def test_snapshot_sees_held_locks():
    store = ReplicatedStore.create(3, seed=0)
    node = store.nodes[store.node_names[0]]
    lock = node.make_lock("probe-lock")
    granted = []

    def holder():
        yield lock.acquire("probe-owner")
        granted.append(True)
        yield node.env.timeout(10.0)

    node.spawn(holder())
    store.advance(0.1)
    assert granted
    snap = take_snapshot(store)
    name = store.node_names[0]
    assert (name, f"{name}.probe-lock", "probe-owner") in snap.locks
    lock.release("probe-owner")


def test_gap_sits_inside_the_lease_window():
    from repro.core.config import ProtocolConfig
    config = ProtocolConfig()
    # longer than every legitimate transient, shorter than the lease
    assert QUIESCE_GAP > config.propagation_lease
    assert QUIESCE_GAP > config.rtt_deadline_max
    assert QUIESCE_GAP < config.lock_lease


# -- every held lock has a live owner or an armed lease ------------------------

def custodied_store():
    """n01 holds its replica lock in poll custody for ``op-x``."""
    store = ReplicatedStore.create(3, seed=4)

    def client():
        yield store.servers["n00"].rpc.call("n01", "write-request", "op-x")

    store.join(store.nodes["n00"].spawn(client()))
    assert list(store.servers["n01"]._op_locks) == ["op-x"]
    return store


def withdraw_lease(store):
    """Forge the leak: the custody stays, its lease is gone."""
    store.nodes["n01"].cancel_timer(store.servers["n01"]._lease_expired,
                                    "op-x")


def test_a_custodied_lock_under_its_lease_is_not_a_finding():
    store = custodied_store()
    assert ("_lease_expired", "op-x") in store.nodes["n01"].armed_timers()
    assert take_snapshot(store).unleased == set()


def test_a_custodied_lock_with_no_lease_armed_is_flagged():
    store = custodied_store()
    withdraw_lease(store)
    snap = take_snapshot(store)
    assert snap.unleased == {("n01", "lock", "op-x")}
    [finding] = [f for f in compare_snapshots(snap, Snapshot(time=9.0))
                 if f.startswith("unleased")]
    assert "unleased lock" in finding and "'op-x'" in finding


def test_a_prepared_lock_needs_no_lease():
    store = custodied_store()
    withdraw_lease(store)
    store.servers["n01"]._prepared_ops.add("op-x")      # 2PC owns it now
    assert take_snapshot(store).unleased == set()


def forge_permit(store, server, resource):
    """A permit in the one permit table with no lease: then the lease."""
    server._recovering[resource] = "recover:ghost"
    assert take_snapshot(store).unleased == {
        ("n02", "permit", "recover:ghost")}
    store.nodes["n02"].timer(4.0, server._permit_expired,
                             (resource, "recover:ghost"))
    assert take_snapshot(store).unleased == set()


def test_a_permit_with_no_lease_armed_is_flagged():
    store = ReplicatedStore.create(3, seed=4)
    forge_permit(store, store.servers["n02"], REPLICA)


def test_a_sharded_permit_with_no_lease_armed_is_flagged():
    """Sharded permits live in the same table and are checked too."""
    store = ShardedStore.create(3, n_shards=2, replication=3, seed=4)
    forge_permit(store, store.hosts["n02"], (1, "k"))


def test_a_sharded_courier_is_seen():
    """The one courier runs under one process name on both stacks."""
    store = ShardedStore.create(3, n_shards=2, replication=3, seed=4)
    host = store.hosts["n00"]
    host._start_propagation((0, "k"), ("n01",))
    assert list(take_snapshot(store).couriers.values()) == [
        "n00:" + COURIER]


def test_the_full_check_reports_an_unleased_lock():
    store = custodied_store()
    withdraw_lease(store)
    findings = check_quiesce(store, crash_free=True)
    assert any("unleased lock" in f for f in findings)
    assert any("leaked lock" in f for f in findings)    # and it persists
