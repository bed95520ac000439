"""The one replica lock wait, ``acquire_within``, and its two callers.

An uncontended wait is the grant event alone: one queue entry, and no
``lock_wait`` timer left behind to fire unheard seconds later.  A request
that has to queue still races the timer, gives up at ``lock_wait`` and
withdraws.
"""

import pytest

from repro.core.participant import acquire_within
from repro.core.store import ReplicatedStore
from repro.shard.store import ShardedStore
from repro.sim.engine import Environment
from repro.sim.network import Network
from repro.sim.node import Node


def wait_for(env, lock, owner, wait, shared=False, results=None):
    """A process body that records what ``acquire_within`` returned."""
    held = yield from acquire_within(env, lock, owner, shared, wait)
    results.append((owner, held, env.now))


class TestAcquireWithin:
    def test_uncontended_wait_is_one_queue_entry_and_no_timer(self):
        env = Environment()
        lock = env.lock()
        results = []
        process = env.process(wait_for(env, lock, "op", 5.0, results=results))
        env.step()                      # the process starts and asks
        assert lock.holders == ("op",)
        assert env.queue_size == 1      # the grant; no timer beside it
        before = env.events_processed
        env.run_until([process])
        assert env.events_processed - before == 1
        assert results == [("op", True, 0.0)]
        env.run()
        assert env.now == 0.0           # nothing was left to fire at t=5

    def test_uncontended_shared_wait_beside_readers_is_one_entry_too(self):
        env = Environment()
        lock = env.lock()
        lock.acquire("r0", shared=True)
        results = []
        env.run()
        process = env.process(wait_for(env, lock, "r1", 5.0, shared=True,
                                       results=results))
        env.step()
        before = env.events_processed
        env.run_until([process])
        assert env.events_processed - before == 1
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

    def test_a_crash_between_grant_and_resumption_leaves_no_holder(self):
        env = Environment()
        node = Node(env, Network(env), "a")
        lock = node.make_lock("replica")
        results = []
        node.spawn(wait_for(env, lock, "op", 5.0, results=results))
        env.step()                      # granted, not yet resumed
        assert lock.holders == ("op",)
        node.crash()
        assert lock.idle                # ``Lock.reset``: the grant is void
        env.run()
        assert lock.idle
        assert not node.live_processes()


class TestBothStacksUseIt:
    def test_single_item_replica_server(self):
        store = ReplicatedStore.create(3, seed=1)
        server = store.servers["n00"]
        env = store.env
        got = []

        def body():
            got.append((yield from server._acquire("op-a")))
            got.append((yield from server._acquire("op-b", wait=0.25)))

        process = env.process(body())
        env.step()
        assert env.queue_size == 1      # uncontended: the grant alone
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
