"""The sharded store: keyed operations, bounded state, fault tolerance."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.messages import Busy
from repro.shard import ShardedStore


class TestBasicOperations:
    def test_write_then_read(self):
        store = ShardedStore.create(5, n_shards=16, seed=1,
                                    track_history=True)
        result = store.write("alpha", {"a": 1})
        assert result.ok and result.version == 1
        read = store.read("alpha")
        assert read.ok and read.value == {"a": 1}
        store.verify()

    def test_keys_version_independently(self):
        store = ShardedStore.create(5, n_shards=16, seed=2,
                                    track_history=True)
        for i in range(3):
            store.write("hot", {"k": i})
        store.write("cold", {"k": 0})
        assert store.read("hot").version == 3
        assert store.read("cold").version == 1
        store.verify()

    def test_partial_writes_merge(self):
        store = ShardedStore.create(5, n_shards=16, seed=3,
                                    track_history=True)
        store.write("alpha", {"a": 1}, via="n00")
        store.write("alpha", {"b": 2}, via="n04")
        store.settle()
        assert store.read("alpha").value == {"a": 1, "b": 2}
        store.verify()

    def test_read_unwritten_key_is_empty(self):
        store = ShardedStore.create(5, n_shards=16, seed=4)
        read = store.read("never-written")
        assert read.ok and read.value == {}

    def test_reads_route_via_any_node(self):
        store = ShardedStore.create(6, n_shards=32, seed=5,
                                    track_history=True)
        store.write("alpha", {"a": 1})
        store.settle()
        for name in store.node_names:
            read = store.read("alpha", via=name)
            assert read.ok and read.value == {"a": 1}, name
        store.verify()


class TestRejectedKnobs:
    """Features only ``ReplicaServer`` / ``EpochChecker`` implement are
    refused by name (they used to be accepted and silently ignored)."""

    @pytest.mark.parametrize("knob, value", [
        ("quorum_strategy", "optimized"),
        ("safety_threshold", 2),
        ("busy_queue_limit", 4),
        ("suspicion_triggers_check", True),
    ])
    def test_unsupported_knob_is_named(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            ShardedStore.create(5, config=ProtocolConfig(**{knob: value}))

    def test_gray_failure_knobs_are_accepted(self):
        store = ShardedStore.create(5, config=ProtocolConfig(
            adaptive_timeouts=True, hedge_requests=True,
            degraded_reads=True, op_deadline=0.5))
        assert store.write("alpha", {"a": 1}).ok
        assert store.read("alpha").value == {"a": 1}


class TestBoundedState:
    def test_reads_never_materialize_state(self):
        store = ShardedStore.create(5, n_shards=16, seed=6)
        for i in range(50):
            assert store.read(f"ghost{i}").ok
        assert store.resident_items() == 0

    def test_resident_state_bounded_by_written_keys(self):
        store = ShardedStore.create(8, n_shards=64, replication=3, seed=7)
        n_keys = 40
        for i in range(n_keys):
            store.write(f"k{i}", {"v": i})
        # each written key exists on at most `replication` nodes
        assert 0 < store.resident_items() <= 3 * n_keys

    def test_update_log_capacity_is_a_config_knob(self):
        config = ProtocolConfig(update_log_capacity=4)
        store = ShardedStore.create(5, n_shards=16, seed=8, config=config)
        for i in range(20):
            store.write("hot", {f"f{i}": i})
        assert store.max_update_log() <= 4
        # ...and the default keeps more history
        assert ProtocolConfig().update_log_capacity > 4

    def test_update_log_capacity_validated(self):
        with pytest.raises(ValueError):
            ProtocolConfig(update_log_capacity=-1).validate()

    def test_locks_are_pooled_and_released(self):
        store = ShardedStore.create(5, n_shards=16, seed=9)
        for i in range(20):
            store.write(f"k{i}", {"v": i})
            store.read(f"k{i}")
        store.advance(30)
        assert store.live_locks() == 0

    def test_coterie_cache_counters_exported(self):
        store = ShardedStore.create(5, n_shards=16, seed=10)
        for i in range(10):
            store.write(f"k{i}", {"v": i})
        counters = store.metrics_snapshot()["counters"]
        hits = counters.get("coterie_cache{outcome=hit}", 0)
        misses = counters.get("coterie_cache{outcome=miss}", 0)
        assert misses >= 1
        assert hits > misses  # repeated ops reuse compiled coteries

    def test_coterie_cache_capacity_validated(self):
        with pytest.raises(ValueError):
            ProtocolConfig(coterie_cache_capacity=0).validate()


class TestFaults:
    def test_write_survives_one_crash(self):
        store = ShardedStore.create(5, n_shards=16, seed=11,
                                    track_history=True)
        store.write("alpha", {"a": 1})
        store.crash("n04")
        result = store.write("alpha", {"b": 2})
        assert result.ok
        assert store.read("alpha").value == {"a": 1, "b": 2}
        store.verify()

    def test_crash_recover_heals_via_sweep(self):
        store = ShardedStore.create(5, n_shards=16, seed=12,
                                    track_history=True)
        for i in range(8):
            store.write(f"k{i}", {"v": i})
        store.crash("n04")
        sweep = store.sweep()
        assert sweep.ok
        for i in range(8):
            store.write(f"k{i}", {"w": i})
        store.recover("n04")
        store.sweep()
        store.settle()
        for i in range(8):
            read = store.read(f"k{i}", via="n04")
            assert read.ok and read.value == {"v": i, "w": i}, i
        store.verify()

    def test_no_quorum_fails_cleanly(self):
        store = ShardedStore.create(3, n_shards=4, replication=3, seed=13,
                                    track_history=True)
        store.write("alpha", {"a": 1})
        store.crash("n01", "n02")
        result = store.write("alpha", {"b": 2})
        assert not result.ok
        store.recover("n01", "n02")
        store.settle()
        assert store.read("alpha").value == {"a": 1}
        store.verify()


class TestResultAccounting:
    """``polls`` / ``attempts`` of a keyed result are what the operation
    cost (the router used to report 1 / 1 whatever happened)."""

    def test_heavy_rescue_reports_two_polls(self):
        store = ShardedStore.create(5, n_shards=16, replication=3, seed=14,
                                    track_history=True)
        replicas = store.map.replicas(store.shard_of("alpha"))
        via = replicas[0]
        coterie = store.hosts[via].coterie_for(replicas)
        # the router's first draw for this key: crash a member of it
        quorum = coterie.write_quorum(salt=f"{via}:alpha", attempt=1)
        store.crash(next(name for name in sorted(quorum) if name != via))
        result = store.write("alpha", {"a": 1}, via=via)
        assert result.ok and result.case == "heavy"
        assert (result.polls, result.attempts) == (2, 1)
        store.verify()

    def test_contended_key_sums_polls_over_attempts(self):
        store = ShardedStore.create(5, n_shards=16, replication=3, seed=23,
                                    track_history=True)
        results = store.join(*(
            store.start_write("hot", {"v": i}, via=name)
            for i, name in enumerate(store.node_names)))
        assert all(result.ok for result in results)
        assert any(result.attempts > 1 for result in results)
        for result in results:
            # every lost attempt burned its fast poll and its heavy one
            lost = result.attempts - 1
            final = 2 if result.case == "heavy" else 1
            assert result.polls == 2 * lost + final, result
        store.settle()
        store.verify()

    def test_no_quorum_write_carries_the_busy_hint(self):
        store = ShardedStore.create(3, n_shards=4, replication=3, seed=15,
                                    config=ProtocolConfig(op_retries=0))
        for host in store.hosts.values():
            # every replica sheds (the shard host itself never does)
            _handler, label = host.rpc._methods["sh-write-request"]
            host.rpc._methods["sh-write-request"] = (
                lambda src, args: Busy(retry_after=0.3), label)
        result = store.write("alpha", {"a": 1})
        assert not result.ok and result.case == "no-quorum"
        assert result.retry_after == 0.3
        assert (result.polls, result.attempts) == (2, 1)
