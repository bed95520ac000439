"""The one replica lock wait, ``acquire_within``, and its two callers.

An uncontended wait is no wait: the lock grants inside ``acquire()``,
nobody has to be told, and the handler carries on in the queue entry it
asked in -- no entry for the grant, and no ``lock_wait`` timer left
behind to fire unheard seconds later.  A request that has to queue still
races the timer, gives up at ``lock_wait`` and withdraws.
"""

import pytest

from repro.core.participant import acquire_within
from repro.core.replica import REPLICA
from repro.core.store import ReplicatedStore
from repro.shard.store import ShardedStore
from repro.sim.engine import Environment
from repro.sim.network import LatencyModel, Network
from repro.sim.node import Node
from repro.sim.rpc import CALL_FAILED, RpcLayer


def wait_for(env, lock, owner, wait, shared=False, results=None):
    """A process body that records what ``acquire_within`` returned."""
    held = yield from acquire_within(env, lock, owner, shared, wait)
    results.append((owner, held, env.now))


class TestAcquireWithin:
    def test_uncontended_wait_is_no_queue_entry_and_no_timer(self):
        env = Environment()
        lock = env.lock()
        results = []
        process = env.process(wait_for(env, lock, "op", 5.0, results=results))
        env.step()                      # the process starts, asks and goes on
        assert lock.holders == ("op",)
        assert results == [("op", True, 0.0)]
        assert process.triggered
        assert env.queue_size == 0      # no grant entry, no timer
        assert env.events_processed == 1
        env.run()
        assert env.now == 0.0           # nothing was left to fire at t=5

    def test_uncontended_shared_wait_beside_readers_is_no_entry_either(self):
        env = Environment()
        lock = env.lock()
        lock.acquire("r0", shared=True)
        results = []
        env.run()
        process = env.process(wait_for(env, lock, "r1", 5.0, shared=True,
                                       results=results))
        before = env.events_processed
        env.step()
        assert process.triggered
        assert env.events_processed - before == 1   # the process's start
        assert env.queue_size == 0
        assert set(lock.holders) == {"r0", "r1"}
        env.run()
        assert env.now == 0.0

    def test_contended_wait_gives_up_at_the_timeout_and_withdraws(self):
        env = Environment()
        lock = env.lock()
        lock.acquire("holder")
        results = []
        env.process(wait_for(env, lock, "late", 2.0, results=results))
        env.run()
        assert results == [("late", False, 2.0)]
        assert lock.holders == ("holder",)
        lock.release("holder")
        assert lock.idle                # the request is gone, not granted

    def test_contended_wait_is_granted_when_the_holder_lets_go_in_time(self):
        env = Environment()
        lock = env.lock()
        lock.acquire("holder")
        results = []
        env.process(wait_for(env, lock, "next", 2.0, results=results))
        env.schedule(lambda: lock.release("holder"), delay=0.5)
        env.run()
        assert results == [("next", True, 0.5)]
        assert lock.holders == ("next",)

    def test_a_reader_queued_behind_a_writer_takes_the_contended_path(self):
        env = Environment()
        lock = env.lock()
        lock.acquire("writer")
        results = []
        for name in ("r1", "r2", "r3"):
            env.process(wait_for(env, lock, name, 2.0, shared=True,
                                 results=results))
        env.schedule(lambda: lock.release("writer"), delay=1.0)
        env.run()
        # the three readers are granted together, at the release
        assert results == [("r1", True, 1.0), ("r2", True, 1.0),
                           ("r3", True, 1.0)]
        assert set(lock.holders) == {"r1", "r2", "r3"}

    def test_a_crash_at_the_instant_of_the_grant_finds_no_half_done_wait(self):
        """There is no gap between a synchronous grant and the code after
        ``yield grant``: the handler runs whole inside the delivery of
        its request, so a crash queued for the same instant comes after
        all of it or before any of it -- never a step on a node that is
        already down, never a holder left behind."""
        for crash_first in (False, True):
            env = Environment()
            network = Network(env, latency=LatencyModel(0.005, 0.005))
            caller, callee = Node(env, network, "a"), Node(env, network, "b")
            lock = callee.make_lock("replica")
            ran_on = []

            def handler(src, args):
                held = yield from acquire_within(env, lock, "op", False, 5.0)
                ran_on.append((held, callee.up))
                return "done"

            RpcLayer(callee).serve("take", handler)
            rpc = RpcLayer(caller)
            if crash_first:
                env.schedule(callee.crash, delay=0.005)
                answer = rpc.call("b", "take", timeout=1.0)
            else:
                answer = rpc.call("b", "take", timeout=1.0)
                env.schedule(callee.crash, delay=0.005)
            env.run()
            assert ran_on == ([] if crash_first else [(True, True)])
            assert lock.idle            # ``Lock.reset``: no holder left
            assert not callee.live_processes()
            # the reply left a node that then crashed, or was never sent
            assert answer.value is CALL_FAILED

    def test_a_crash_while_queued_for_the_lock_still_interrupts_the_wait(self):
        env = Environment()
        node = Node(env, Network(env), "a")
        lock = node.make_lock("replica")
        lock.acquire("holder")
        results = []
        node.spawn(wait_for(env, lock, "late", 5.0, results=results))
        env.step()                      # queued behind the holder
        node.crash()
        env.run(until=1.0)
        assert results == []            # interrupted, never resumed
        assert lock.idle
        assert not node.live_processes()


class TestBothStacksUseIt:
    def test_single_item_replica_server(self):
        store = ReplicatedStore.create(3, seed=1)
        server = store.servers["n00"]
        env = store.env
        got = []

        def body():
            got.append((yield from server._acquire(REPLICA, "op-a")))
            got.append((yield from server._acquire(REPLICA, "op-b",
                                                   wait=0.25)))

        process = env.process(body())
        env.step()
        assert got == [True]            # uncontended: granted in the asking
        assert env.queue_size == 1      # the second request's timer alone
        env.run_until([process])
        assert got == [True, False]
        assert env.now == pytest.approx(0.25)
        assert server.lock.holders == ("op-a",)

    def test_sharded_host(self):
        store = ShardedStore.create(3, n_shards=4, seed=1)
        host = store.hosts["n00"]
        env = store.env
        resource = (0, "k")
        got = []

        def body():
            got.append((yield from host._acquire(resource, "op-a")))
            got.append((yield from host._acquire(resource, "op-b",
                                                 wait=0.25)))

        process = env.process(body())
        env.step()
        assert got == [True]
        assert env.queue_size == 1
        env.run_until([process])
        assert got == [True, False]
        assert host._lock(resource).holders == ("op-a",)
        # a wait that fails on a lock nobody else wants gives the pooled
        # lock back (``_after_release``), as before
        other = (1, "j")
        host._lock(other).acquire("squatter")

        def loser():
            got.append((yield from host._acquire(other, "op-c", wait=0.1)))
            host._lock(other).release("squatter")
            host._after_release(other)

        env.run_until([env.process(loser())])
        assert got[-1] is False
        assert host.live_locks == 1     # only ``resource`` is still held
