"""Randomized fault soaks for every protocol variant in the repository.

The dynamic store already has its own soak; these drive the baselines and
the group-epoch (one-shard) store through random crash/recover/operation interleavings
and verify one-copy serializability of everything observed.
"""

import random

import pytest

from repro.baselines.dynamic_voting import DynamicVotingStore
from repro.baselines.static_protocol import StaticQuorumStore
from repro.baselines.witnesses import WitnessVotingStore
from repro.coteries.grid import GridCoterie
from repro.shard.store import ShardedStore
from repro.shard.sweep import check_shard_epoch


def drive(store, rng, steps, min_up, write_fn, read_fn):
    names = list(store.node_names)
    counter = 0
    for _step in range(steps):
        action = rng.random()
        up = [n for n in names if store.nodes[n].up]
        if not up:
            store.recover(rng.choice(names))
            continue
        via = rng.choice(up)
        if action < 0.4:
            counter += 1
            write_fn(counter, via)
        elif action < 0.7:
            read_fn(via)
        elif action < 0.85 and len(up) > min_up:
            store.crash(rng.choice(up))
        else:
            down = [n for n in names if not store.nodes[n].up]
            if down:
                store.recover(rng.choice(down))
        store.advance(rng.uniform(0.1, 1.5))
    store.recover(*[n for n in names if not store.nodes[n].up])
    store.advance(20)


class TestStaticSoak:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_static_grid_soak(self, seed):
        store = StaticQuorumStore.create(9, seed=seed)
        rng = random.Random(seed)
        drive(store, rng, steps=25, min_up=5,
              write_fn=lambda c, via: store.start_write({"k": c}, via=via),
              read_fn=lambda via: store.start_read(via=via))
        stats = store.verify()
        assert stats["writes"] + stats["failed"] > 0


class TestDynamicVotingSoak:
    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_dlv_soak(self, seed):
        store = DynamicVotingStore.create(5, seed=seed)
        rng = random.Random(seed)
        drive(store, rng, steps=25, min_up=2,
              write_fn=lambda c, via: store.start_write({"k": c}, via=via),
              read_fn=lambda via: store.start_read(via=via))
        store.verify()

    def test_dlv_deep_sequential_failures_consistent(self):
        store = DynamicVotingStore.create(7, seed=9)
        store.write({"v": 0})
        for i, victim in enumerate(store.node_names[:-1]):
            store.crash(victim)
            result = store.write({"v": i + 1})
            assert result.ok
        store.recover(*store.node_names[:-1])
        store.advance(10)
        assert store.write({"v": 99}).ok
        read = store.read()
        assert read.value == {"v": 99}
        store.verify()


class TestWitnessSoak:
    @pytest.mark.parametrize("seed", [7, 8])
    def test_witness_soak(self, seed):
        data = [f"d{i}" for i in range(3)]
        store = WitnessVotingStore(data + ["w0", "w1"], ["w0", "w1"],
                                   seed=seed)
        rng = random.Random(seed)
        drive(store, rng, steps=25, min_up=3,
              write_fn=lambda c, via: store.start_write({"k": c}, via=via),
              read_fn=lambda via: store.start_read(via=via))
        store.verify()
        # witnesses never accumulated data
        for witness in ("w0", "w1"):
            assert store.replica_state(witness).value == {}


class TestMultiItemSoak:
    @pytest.mark.parametrize("seed", [10, 11])
    def test_group_store_soak(self, seed):
        # a group of items under one epoch is the one-shard store
        store = ShardedStore.create(9, n_shards=1, replication=9, seed=seed,
                                    coterie_rule=GridCoterie,
                                    track_history=True)
        rng = random.Random(seed)
        names = list(store.node_names)
        counter = 0
        for _step in range(25):
            action = rng.random()
            up = [n for n in names if store.nodes[n].up]
            if not up:
                store.recover(rng.choice(names))
                continue
            via = rng.choice(up)
            item = f"item{rng.randrange(3)}"
            if action < 0.4:
                counter += 1
                store.start_write(item, {"k": counter}, via=via)
            elif action < 0.6:
                store.start_read(item, via=via)
            elif action < 0.75 and len(up) > 5:
                store.crash(rng.choice(up))
            elif action < 0.9:
                down = [n for n in names if not store.nodes[n].up]
                if down:
                    store.recover(rng.choice(down))
            else:
                store.nodes[via].spawn(
                    check_shard_epoch(store.hosts[via], 0))
            store.advance(rng.uniform(0.1, 1.5))
        store.recover(*[n for n in names if not store.nodes[n].up])
        store.advance(20)
        store.check_shard(0)
        store.settle()
        store.verify()
