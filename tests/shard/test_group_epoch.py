"""Group epoch management across multiple data items (paper Section 2).

    "If several data items are replicated on the same set of nodes, the
    epoch management can be done per this whole group of data."

A group of items under one epoch is one shard: the store under test is
the one-shard :class:`ShardedStore` whose only shard is replicated on
every node, with the grid coterie.  Items are the shard's keys, the
group epoch is shard 0's, and one ``check_shard(0)`` serves them all.
"""

from repro.coteries.grid import GridCoterie
from repro.shard.store import ShardedStore

GROUP = 0   # the one shard


def group_store(seed: int, **kwargs) -> ShardedStore:
    return ShardedStore.create(9, n_shards=1, replication=9, seed=seed,
                               coterie_rule=GridCoterie, track_history=True,
                               **kwargs)


class TestBasicOperations:
    def test_independent_items(self):
        store = group_store(1)
        store.write("item0", {"a": 1})
        store.write("item1", {"b": 2})
        assert store.read("item0").value == {"a": 1}
        assert store.read("item1").value == {"b": 2}
        assert store.read("item2").value == {}
        store.verify()

    def test_items_version_independently(self):
        store = group_store(2)
        for i in range(3):
            store.write("item0", {"k": i})
        store.write("item1", {"k": 0})
        assert store.read("item0").version == 3
        assert store.read("item1").version == 1
        store.verify()

    def test_partial_writes_per_item(self):
        store = group_store(3)
        store.write("item0", {"a": 1})
        store.write("item0", {"b": 2}, via="n05")
        store.settle()
        assert store.read("item0").value == {"a": 1, "b": 2}
        store.verify()

    def test_concurrent_writes_to_different_items_coexist(self):
        store = group_store(4)
        procs = [store.start_write(f"item{i}", {"v": i}, via=f"n0{i}")
                 for i in range(3)]
        results = store.join(*procs)
        # different items, different locks: no contention at all
        assert all(r.ok for r in results)
        store.verify()


class TestGroupEpoch:
    def test_one_check_serves_all_items(self):
        store = group_store(5)
        for k in range(4):
            store.write(f"item{k}", {"v": k})
        store.crash("n08")
        result = store.check_shard(GROUP)
        assert result.ok and result.changed
        epoch, number = store.current_epoch(GROUP)
        assert number == 1 and "n08" not in epoch
        # every item's subsequent writes use the shared shrunk epoch
        for k in range(4):
            assert store.write(f"item{k}", {"v2": k}).ok
        store.verify()

    def test_rejoiner_marked_stale_per_item(self):
        store = group_store(6)
        store.write("item0", {"a": 1})
        store.write("item1", {"b": 1})
        store.crash("n05")
        assert store.check_shard(GROUP).changed
        store.write("item0", {"a": 2})      # n05 misses item0's update
        # item1 not written since: n05 is still current for it
        store.recover("n05")
        result = store.check_shard(GROUP)
        assert result.changed
        host = store.hosts["n05"]
        assert host.item_state(GROUP, "item0").stale
        assert not host.item_state(GROUP, "item1").stale
        store.settle()
        state0 = host.item_state(GROUP, "item0")
        assert state0.value == {"a": 2} and not state0.stale
        store.verify()

    def test_epoch_numbers_shared_across_items(self):
        store = group_store(7)
        store.crash("n08")
        store.check_shard(GROUP)
        store.recover("n08")
        store.check_shard(GROUP)
        # a single epoch sequence for the whole group
        epoch, number = store.current_epoch(GROUP)
        assert number == 2
        for host in store.hosts.values():
            assert host.epoch_of(GROUP)[1] in (0, 1, 2)

    def test_check_message_cost_independent_of_item_count(self):
        # E14's claim: the epoch-check poll is one request per NODE, not
        # per item.
        for n_items in (1, 4, 64):
            store = group_store(8, trace_enabled=True)
            for k in range(n_items):
                store.write(f"item{k}", {"v": k})
            store.trace.clear()
            store.check_shard(GROUP)
            polls = sum(1 for rec in store.trace.select(kind="send")
                        if rec.detail.get("msg_kind") == "rpc-req")
            assert polls == 9, (n_items, polls)

    def test_install_atomic_across_items(self):
        store = group_store(9)
        for k in range(3):
            store.write(f"item{k}", {"v": k})
        store.crash("n07", "n08")
        result = store.check_shard(GROUP)
        assert result.ok and result.changed
        # all members hold the same epoch; no item left behind
        epoch, number = store.current_epoch(GROUP)
        for name in epoch:
            assert store.hosts[name].epoch_of(GROUP) == (epoch, number)
        store.verify()


class TestFaults:
    def test_crash_during_multi_item_activity(self):
        store = group_store(10)
        store.write("item0", {"a": 1})
        write = store.start_write("item1", {"b": 2}, via="n00")
        schedule = store.schedule()
        schedule.crash_at(store.env.now + 0.02, "n03")
        schedule.start()
        store.join(write, timeout=300)
        store.recover("n03")
        store.advance(20)
        store.settle()
        store.verify()

    def test_no_write_quorum_fails_cleanly(self):
        store = group_store(11)
        store.crash("n02", "n05", "n08")  # full grid column
        assert not store.write("item0", {"x": 1}).ok
        assert not store.check_shard(GROUP).ok
        store.verify()
