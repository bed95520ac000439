"""Workload generator tests."""

import random

import pytest

from repro.baselines.static_protocol import StaticQuorumStore
from repro.core.store import ReplicatedStore
from repro.shard import ShardedStore
from repro.workloads.generators import (
    ClientWorkload,
    KeyedWorkload,
    ZipfKeyChooser,
    run_keyed_workload,
    run_workload,
)


class TestZipf:
    def test_skew_concentrates_on_first_keys(self):
        chooser = ZipfKeyChooser(10, skew=1.5)
        rng = random.Random(0)
        picks = [chooser.pick(rng) for _ in range(2000)]
        assert picks.count("key0") > picks.count("key5") > 0

    def test_zero_skew_is_uniform(self):
        chooser = ZipfKeyChooser(4, skew=0.0)
        rng = random.Random(1)
        picks = [chooser.pick(rng) for _ in range(4000)]
        counts = [picks.count(f"key{i}") for i in range(4)]
        assert max(counts) - min(counts) < 300

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfKeyChooser(0)
        with pytest.raises(ValueError):
            ZipfKeyChooser(3, skew=-1)

    def test_bisect_matches_linear_scan(self):
        # the binary search must pick exactly the index the replaced
        # linear scan stopped at, for any seed: first cumulative >= point
        chooser = ZipfKeyChooser(50, skew=1.2)
        rng_fast, rng_slow = random.Random(11), random.Random(11)
        for _ in range(2000):
            fast = chooser.pick_index(rng_fast)
            point = rng_slow.random()
            slow = chooser.n_keys - 1
            for i, cumulative in enumerate(chooser._cumulative):
                if point <= cumulative:
                    slow = i
                    break
            assert fast == slow

    def test_pick_index_scales_to_large_keyspaces(self):
        chooser = ZipfKeyChooser(10 ** 6, skew=1.0)
        rng = random.Random(0)
        picks = [chooser.pick_index(rng) for _ in range(100)]
        assert all(0 <= p < 10 ** 6 for p in picks)
        assert chooser.pick(rng).startswith("key")


class TestWorkloadValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            ClientWorkload(n_clients=0).validate()
        with pytest.raises(ValueError):
            ClientWorkload(read_fraction=1.5).validate()
        with pytest.raises(ValueError):
            ClientWorkload(think_time=0).validate()


class TestRunWorkload:
    def test_runs_against_dynamic_store(self):
        store = ReplicatedStore.create(9, seed=1)
        stats = run_workload(store, ClientWorkload(n_clients=3,
                                                   duration=30.0), seed=1)
        assert stats.operations > 10
        assert stats.success_rate > 0.9
        assert stats.mean_latency("read") > 0
        store.verify()

    def test_runs_against_static_store(self):
        store = StaticQuorumStore.create(9, seed=2)
        stats = run_workload(store, ClientWorkload(n_clients=3,
                                                   duration=30.0,
                                                   total_writes=True,
                                                   n_keys=3), seed=2)
        assert stats.writes_ok > 0 and stats.reads_ok > 0
        store.verify()

    def test_workload_with_failures_still_consistent(self):
        store = ReplicatedStore.create(9, seed=3)
        schedule = store.schedule()
        schedule.crash_at(5.0, "n02").recover_at(15.0, "n02")
        schedule.crash_at(10.0, "n07")
        schedule.start()
        stats = run_workload(store, ClientWorkload(n_clients=4,
                                                   duration=40.0), seed=3)
        assert stats.writes_ok > 0
        store.recover("n07")
        store.advance(20)
        store.settle()
        store.verify()

    def test_stats_summary_readable(self):
        store = ReplicatedStore.create(4, seed=4)
        stats = run_workload(store, ClientWorkload(n_clients=2,
                                                   duration=10.0), seed=4)
        text = stats.summary()
        assert "ops" in text and "success" in text

    def test_rehoming_clients_survive_home_crash(self):
        store = ReplicatedStore.create(9, seed=6)
        schedule = store.schedule()
        schedule.crash_at(5.0, "n00")  # client 0's home
        schedule.start()
        workload = ClientWorkload(n_clients=2, duration=40.0,
                                  think_time=1.0, rehome=True)
        stats = run_workload(store, workload, seed=6)
        assert stats.rehomes >= 1
        # the rehomed client kept issuing operations after the crash
        late_ops = [op for op in store.history.operations if op.start > 10]
        assert late_ops
        store.recover("n00")
        store.advance(10)
        store.settle()
        store.verify()

    def test_without_rehoming_client_goes_silent(self):
        store = ReplicatedStore.create(9, seed=7)
        schedule = store.schedule()
        schedule.crash_at(5.0, "n00")
        schedule.start()
        workload = ClientWorkload(n_clients=1, duration=40.0,
                                  think_time=1.0, rehome=False)
        stats = run_workload(store, workload, seed=7)
        assert stats.rehomes == 0
        assert all(op.start < 8 for op in store.history.operations)

    def test_deterministic_given_seed(self):
        def once():
            store = ReplicatedStore.create(5, seed=5)
            stats = run_workload(store, ClientWorkload(n_clients=2,
                                                       duration=15.0),
                                 seed=9)
            return (stats.reads_ok, stats.writes_ok, stats.operations)

        assert once() == once()


class TestKeyedWorkload:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            KeyedWorkload(n_ops=0).validate()
        with pytest.raises(ValueError):
            KeyedWorkload(n_keys=0).validate()
        with pytest.raises(ValueError):
            KeyedWorkload(read_fraction=-0.1).validate()

    def test_issues_exactly_n_ops(self):
        store = ShardedStore.create(5, n_shards=16, seed=8,
                                    track_history=True)
        workload = KeyedWorkload(n_ops=150, n_keys=2000, n_clients=7,
                                 read_fraction=0.8)
        stats = run_keyed_workload(store, workload, seed=8)
        assert stats.operations == 150
        assert stats.success_rate == 1.0
        store.verify()

    def test_deterministic_given_seed(self):
        def once():
            store = ShardedStore.create(5, n_shards=16, seed=9)
            stats = run_keyed_workload(
                store, KeyedWorkload(n_ops=80, n_keys=500), seed=3)
            return (stats.reads_ok, stats.writes_ok,
                    store.env.events_processed)

        assert once() == once()

    def test_stops_at_the_entry_that_finishes_the_last_client(self):
        """The driver used to step in blind chunks of 64, so a phase
        ended up to 63 queue entries late -- on whatever time the dead
        timers it popped happened to carry."""
        store = ShardedStore.create(5, n_shards=16, seed=9)
        env = store.env
        clients, steps, finished_at = [], [0], []
        spawn, step = env.process, env.step

        def watching_process(generator, name=""):
            process = spawn(generator, name=name)
            if name.startswith("kclient"):
                clients.append(process)
            return process

        def counting_step():
            step()
            steps[0] += 1
            if not finished_at and all(c.triggered for c in clients):
                finished_at.append((steps[0], env.now))

        env.process, env.step = watching_process, counting_step
        stats = run_keyed_workload(
            store, KeyedWorkload(n_ops=80, n_keys=500), seed=3)
        assert stats.operations == 80 and len(clients) == 4
        assert finished_at == [(steps[0], env.now)]
        assert stats.duration == env.now

    def test_rehomes_when_home_crashes(self):
        store = ShardedStore.create(5, n_shards=16, seed=10,
                                    track_history=True)
        schedule = store.schedule()
        schedule.crash_at(0.2, "n00")
        schedule.start()
        workload = KeyedWorkload(n_ops=120, n_keys=200, n_clients=5,
                                 read_fraction=0.5)
        stats = run_keyed_workload(store, workload, seed=4)
        assert stats.rehomes >= 1
        assert stats.operations == 120
        store.recover("n00")
        store.settle()
        store.verify()
