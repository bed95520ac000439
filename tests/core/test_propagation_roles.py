"""Propagation is written once, in ``core/propagation.py``, for both
replica stacks.

The structural tests keep the per-stack copies from growing back (the
sharded host had its own courier, offer and data handlers, permit expiry
and re-seed handler, and had drifted: no dedup, no give-up counter, no
trace).  The behavioural tests run each role on both stacks.
"""

import pytest

from repro.core import epoch, propagation
from repro.core.config import ProtocolConfig
from repro.core.messages import PropagationOffer
from repro.core.propagation import COURIER, MAX_FAILED_ROUNDS, Propagation
from repro.core.replica import REPLICA, ReplicaServer
from repro.core.store import ReplicatedStore
from repro.shard import sweep
from repro.shard.host import ShardHost
from repro.shard.store import ShardedStore
from repro.workloads.generators import KeyedWorkload, run_keyed_workload

ROLES = ("_propagate", "_ship", "_start_propagation", "_on_propagation_offer",
         "_on_propagation_data", "_permit_expired", "_on_reseed_request")
HANDLERS = {"propagation-offer": Propagation._on_propagation_offer,
            "propagation-data": Propagation._on_propagation_data,
            "reseed-request": Propagation._on_reseed_request}


@pytest.mark.parametrize("cls", [ReplicaServer, ShardHost])
def test_no_stack_defines_a_propagation_role(cls):
    for name in ROLES:
        defined = vars(cls).get(name)
        # ShardHost keeps the one courier under the name the benchmark's
        # span tracer wraps -- the same function, not a copy
        assert defined is None or defined is propagation.propagate, \
            f"{cls.__name__}.{name} is a private copy of a propagation role"
    assert cls._permit_expired is Propagation._permit_expired
    assert cls._start_propagation is Propagation._start_propagation


def test_both_stacks_register_the_same_function_per_role():
    single = ReplicatedStore.create(3, seed=0).servers["n00"].rpc
    sharded = ShardedStore.create(3, n_shards=1, replication=3,
                                  seed=0).hosts["n00"].rpc
    for method, role in HANDLERS.items():
        assert single._methods[method][0].__func__ is role
        assert sharded._methods["sh-" + method][0].__func__ is role


def test_the_old_reseed_paths_are_gone():
    assert not hasattr(epoch, "_reseed_propagation")
    assert not hasattr(sweep, "_reseed_stale_keys")


# -- every role on both stacks ----------------------------------------------------

class Stack:
    """A four-node store of either kind: n00 current at v1 for one
    resource, n01 stale wanting v1."""

    def __init__(self, sharded: bool):
        if sharded:
            self.store = ShardedStore.create(4, n_shards=1, replication=4,
                                             seed=3, trace_enabled=True)
            self.servers, self.resource = self.store.hosts, (0, "k")
        else:
            self.store = ReplicatedStore.create(4, seed=3, trace_enabled=True)
            self.servers, self.resource = self.store.servers, REPLICA
        self.update("n00", lambda state: state.applied({"x": 1}, 1, 8))
        self.update("n01", lambda state: state.marked_stale(1))

    def update(self, name, change):
        server = self.servers[name]
        server._write_item(self.resource,
                           change(server._read_item(self.resource)))

    def item(self, name):
        return self.servers[name]._read_item(self.resource)

    def couriers(self, name):
        return [p for p in self.store.nodes[name].live_processes()
                if COURIER in p.name]


@pytest.fixture(params=[False, True], ids=["ReplicatedStore", "ShardedStore"])
def stack(request):
    return Stack(request.param)


def test_a_dead_target_is_given_up_on_counted_and_traced(stack):
    stack.store.crash("n01")
    stack.servers["n00"]._start_propagation(stack.resource, ("n01",))
    stack.store.advance(MAX_FAILED_ROUNDS * 4.0)
    assert not stack.couriers("n00")
    gave_up = stack.store.trace.select(kind="propagation-gave-up")
    assert [(rec.node, rec.detail["target"]) for rec in gave_up] == [
        ("n00", "n01")]
    counters = stack.store.metrics_snapshot()["counters"]
    assert counters["propagation_gave_up"] == 1


def test_two_commits_naming_one_target_start_one_courier(stack):
    source = stack.servers["n00"]
    stack.store.network.partitions.partition(["n01"])
    source._start_propagation(stack.resource, ("n01",))
    stack.store.advance(0.1)                # the first courier's offer waits
    source._start_propagation(stack.resource, ("n01",))
    stack.store.advance(0.1)
    assert len(stack.couriers("n00")) == 1
    stack.store.network.partitions.heal()
    stack.store.advance(10.0)
    assert not stack.couriers("n00")
    assert not stack.item("n01").stale
    assert stack.store.trace.count("propagation-shipped") == 1
    assert not source.node.volatile["propagating"]


def test_a_permit_without_data_is_reclaimed_by_its_lease(stack):
    source, target = stack.servers["n00"], stack.servers["n01"]
    answers = []

    def offer_only():
        answers.append((yield source.rpc.call(
            "n01", source.rpc_prefix + "propagation-offer",
            source._propagation_args(
                stack.resource, PropagationOffer(source="n00", version=1)))))

    stack.store.join(stack.store.nodes["n00"].spawn(offer_only()))
    assert answers[0] == ("propagation-permitted", 0)
    assert target._recovering and target._lock(stack.resource).locked
    stack.store.advance(stack.store.config.propagation_lease + 0.5)
    assert not target._recovering
    assert not target._lock(stack.resource).locked
    assert stack.store.trace.count("propagation-lease-expired") == 1
    assert stack.item("n01").stale


# -- the two defects the fold fixed ---------------------------------------------

def test_a_contended_crash_free_run_times_out_no_offer():
    """The offer handler may wait ``lock_wait`` for the target's lock, so
    the offer's deadline covers it, as a poll's and a prepare's do.  With
    ``rpc_timeout`` alone, the 400 operations below timed out 25 offers
    and each miss made a healthy target suspect."""
    store = ShardedStore.create(6, n_shards=16, replication=3, seed=1,
                                config=ProtocolConfig(op_retries=12),
                                trace_enabled=True)
    misses = []
    for host in store.hosts.values():
        def observe(peer, ok, name=host.name, inner=host.rpc.liveness_observer):
            if not ok:
                misses.append((name, peer))
            inner(peer, ok)
        host.rpc.liveness_observer = observe
    stats = run_keyed_workload(store, KeyedWorkload(
        n_ops=400, n_keys=20, n_clients=12, read_fraction=0.5,
        key_skew=1.1), seed=1)
    assert stats.writes_failed == stats.reads_failed == 0
    counters = store.metrics_snapshot()["counters"]
    assert store.trace.select(                              # offers were made
        kind="rpc-call",
        predicate=lambda r: r.detail["method"] == "sh-propagation-offer")
    assert sum(value for key, value in counters.items()
               if key.startswith("rpc_timeouts")) == 0
    assert misses == []
    assert all(not host.liveness.suspects() for host in store.hosts.values())


def test_an_epoch_check_by_a_lagging_node_reseeds_a_stale_member():
    """A stale member nobody serves (its couriers were told
    ``i-am-current`` before its stale mark landed) is re-seeded by the
    lowest-named good holder, whoever checks -- here a member one version
    behind, which used to re-seed only if it held the newest version."""
    store = ReplicatedStore.create(9, seed=1, trace_enabled=True)
    store.write({"a": 1}, via="n00")
    behind = sorted(name for name, version in store.versions().items()
                    if version == 0)
    target, checker = behind[0], behind[1]
    server = store.servers[target]
    server.state = server.state.marked_stale(1)
    assert not any(COURIER in p.name for node in store.nodes.values()
                   for p in node.live_processes())
    check = store.check_epoch(via=checker)
    assert check.ok and not check.changed
    assert store.replica_state(checker).version == 0
    store.settle()
    state = store.replica_state(target)
    assert not state.stale and state.value == {"a": 1}
    [reseeded] = store.trace.select(kind="propagation-reseeded")
    good = sorted(name for name, version in store.versions().items()
                  if version == 1 and name != target)
    assert reseeded.node == good[0] and reseeded.detail["targets"] == (
        target,)
