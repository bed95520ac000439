"""The one 2PC participant, as the sharded host inherits it.

``ShardHost`` used to carry a private ``_on_op_release`` and the first
version of the participant mixin, without what the single-item replica
had learnt since: the early-release tombstone, duplicate-poll dedup,
stable ``txn_id`` dedup of prepares, and the recovery rebroadcast.
Every test below the first failed on the sharded store before
``ReplicaServer`` and ``ShardHost`` came to share
:class:`~repro.core.participant.TwoPhaseParticipant`.
"""

import pytest

from repro.chaos.nemesis import Nemesis
from repro.core.messages import BUSY, Prepare, StateResponse
from repro.core.participant import TwoPhaseParticipant
from repro.core.store import ReplicatedStore
from repro.shard.messages import ShApplyWrite
from repro.shard.store import ShardedStore

PARTICIPANT_METHODS = {
    "txn-prepare": "_on_prepare",
    "txn-commit": "_on_commit",
    "txn-abort": "_on_abort",
    "txn-status": "_on_txn_status",
    "txn-status-peer": "_on_txn_status_peer",
}


@pytest.mark.parametrize("servers, op_release", [
    (lambda: ReplicatedStore.create(3, seed=1).servers, "op-release"),
    (lambda: ShardedStore.create(3, n_shards=4, seed=1).hosts,
     "sh-op-release"),
], ids=["ReplicatedStore", "ShardedStore"])
def test_both_stacks_serve_the_participants_own_handlers(servers,
                                                         op_release):
    methods = {**PARTICIPANT_METHODS, op_release: "_on_op_release"}
    for server in servers().values():
        assert isinstance(server, TwoPhaseParticipant)
        for method, attribute in methods.items():
            handler, _name = server.rpc._methods[method]
            assert handler.__self__ is server
            assert handler.__func__ is vars(TwoPhaseParticipant)[attribute], \
                (type(server).__name__, method)


def call(store, src, dst, method, payload, answers):
    """Spawn one RPC from *src*; its answer lands in *answers*."""
    def client():
        answers.append((yield store.hosts[src].rpc.call(
            dst, method, payload,
            timeout=store.config.lock_wait + store.config.rpc_timeout)))
    return store.nodes[src].spawn(client())


class TestShardLockCustody:
    """Modelled on ``test_no_stranded_locks_after_early_completed_waves``:
    a lock nobody will use must be gone long before ``lock_lease``."""

    SHARD, KEY = 0, "k"

    def contended(self):
        """``op-a`` holds the key's lock on n01; ``op-b``'s write poll is
        queued behind it."""
        store = ShardedStore.create(3, n_shards=1, replication=3, seed=5)
        host = store.hosts["n01"]
        first, second = [], []
        store.join(call(store, "n00", "n01", "sh-write-request",
                        (self.SHARD, self.KEY, "op-a"), first))
        assert isinstance(first[0], StateResponse)
        queued = call(store, "n02", "n01", "sh-write-request",
                      (self.SHARD, self.KEY, "op-b"), second)
        store.advance(0.05)
        assert not second               # parked on the lock
        return store, host, queued, second

    def assert_nothing_stranded(self, store, host):
        store.advance(store.config.lock_lease / 2)
        assert not host._op_locks, host._op_locks
        assert store.live_locks() == 0

    def test_release_overtaking_a_queued_poll_withdraws_it(self):
        store, host, queued, answer = self.contended()
        released = []
        store.join(call(store, "n02", "n01", "sh-op-release", "op-b",
                        released))
        assert released == ["ok"]
        # the holder goes away: the withdrawn request must not be granted
        store.join(call(store, "n00", "n01", "sh-op-release", "op-a", []))
        assert not host._lock((self.SHARD, self.KEY)).locked
        store.join(queued)
        assert answer == [BUSY]
        self.assert_nothing_stranded(store, host)

    def test_release_overtaking_a_fired_grant_relinquishes_it(self):
        store, host, queued, answer = self.contended()
        # both releases inside one queue entry: op-a's hands the lock to
        # op-b, whose handler has not resumed yet when op-b's own arrives
        host._on_op_release("n00", "op-a")
        assert host._lock((self.SHARD, self.KEY)).holders == ("op-b",)
        host._on_op_release("n02", "op-b")
        store.join(queued)
        assert answer == [BUSY]
        assert "op-b" not in host._op_locks
        self.assert_nothing_stranded(store, host)

    def test_duplicate_poll_while_queued_answers_busy(self):
        store, host, queued, answer = self.contended()
        duplicate = []
        store.join(call(store, "n02", "n01", "sh-write-request",
                        (self.SHARD, self.KEY, "op-b"), duplicate),
                   timeout=0.1)     # at once, not after lock_wait
        assert duplicate == [BUSY]
        assert not answer               # the first poll is still queued ...
        store.join(call(store, "n00", "n01", "sh-op-release", "op-a", []))
        store.join(queued)
        assert isinstance(answer[0], StateResponse)   # ... and is served
        assert host._op_locks == {"op-b": ((self.SHARD, self.KEY),)}


class TestShardTwoPhaseRecovery:
    def test_recovered_coordinator_reannounces_its_decision(self):
        # The coordinator dies between its decision record and the commit
        # wave, and is back before any participant's prepared_wait is up:
        # its recovery rebroadcast, not their polling, resolves them.
        store = ShardedStore.create(5, n_shards=4, seed=11,
                                    trace_enabled=True)
        config = store.config
        nemesis = Nemesis(store.env, store.trace, store.nodes,
                          network=store.network).attach()
        nemesis.crash_on("txn-decided")
        store.start_write("k", {"v": 1}, via="n00")
        store.advance(0.5)
        nemesis.detach()
        assert nemesis.fired and nemesis.fired[0][1:] == ("txn-decided", "n00")
        coordinator = store.nodes["n00"]
        assert len(coordinator.stable["coord_decisions"]) == 1
        in_doubt = [name for name, node in store.nodes.items()
                    if node.up and node.stable["prepared"]]
        assert in_doubt
        assert store.env.now < config.prepared_wait
        store.recover("n00")
        store.advance(3 * 0.01)         # one round trip at the slowest link
        for name in in_doubt:
            stable = store.nodes[name].stable
            assert not stable["prepared"], name
            assert set(stable["txn_outcomes"].values()) == {"committed"}
        assert not coordinator.stable["coord_decisions"]
        read = store.read("k")
        assert read.version == 1 and read.value == {"v": 1}

    def prepare(self, shard):
        return Prepare(
            txn_id="n00:stxn7", coordinator="n00",
            participants=("n00", "n01"), op_id="n00:s0/k:w99",
            command=ShApplyWrite(shard, "k", {"x": 9}, 1, ()),
            expected_snapshot={"shard": shard})

    @pytest.mark.parametrize("outcome, vote", [("committed", "yes"),
                                               ("aborted", "no")])
    def test_redelivered_prepare_revotes_from_the_outcome(self, outcome,
                                                          vote):
        # The RPC layer's at-most-once cache is volatile; a duplicate
        # prepare re-delivered after a crash reaches the handler, and the
        # stable txn_outcomes record has to carry the dedup.
        store = ShardedStore.create(3, n_shards=1, replication=3, seed=12)
        host = store.hosts["n01"]
        host.node.stable["txn_outcomes"]["n00:stxn7"] = outcome
        store.crash("n01")
        store.advance(1.0)
        store.recover("n01")
        store.advance(1.0)
        assert not host.rpc._served     # the cache really was wiped
        answers = []
        store.join(call(store, "n00", "n01", "txn-prepare",
                        self.prepare(0), answers))
        assert answers == [vote]
        assert not host.node.stable["prepared"]     # not re-prepared
        assert store.live_locks() == 0
        assert host.item_state(0, "k").version == 0  # not re-applied
