"""The gray-failure knobs reach the sharded store.

Modelled on ``tests/core/test_gray_failure.py::TestHedgedOperationHygiene``:
a 9-node grid with one replica ten times slower than the rest.  The
router used to pass neither ``hedge=`` nor ``enough=`` to its poll waves
and its store built no ``AdaptiveTimeouts``: the last three tests failed
before ``ShardRouter`` became the ``Coordinator``'s hooks (and the two
before them held only because nothing adaptive ever happened).
"""

from statistics import median

import pytest

from repro.chaos.faults import LinkFaults
from repro.core.config import ProtocolConfig
from repro.coteries import GridCoterie
from repro.shard.store import ShardedStore

GRAY = dict(adaptive_timeouts=True, hedge_requests=True)
PAIRS = 40


def grid_store(**knobs):
    return ShardedStore.create(9, n_shards=4, replication=9, seed=7,
                               coterie_rule=GridCoterie,
                               config=ProtocolConfig(**knobs),
                               track_history=True)


def slow_down(store, victim):
    faults = LinkFaults()
    store.network.faults = faults
    faults.slow_node(victim, 10.0, list(store.node_names))


def gray_store(**knobs):
    store = grid_store(**knobs)
    slow_down(store, store.node_names[-1])
    return store


def run_pairs(store):
    """PAIRS write/read pairs over eight keys; every result with the
    simulated instant it completed at, and the write latencies."""
    records, write_latency = [], []
    for i in range(PAIRS):
        key = f"k{i % 8}"
        started = store.env.now
        results = [store.write(key, {"v": i}, via="n00")]
        write_latency.append(store.env.now - started)
        results.append(store.read(key, via="n01"))
        records.extend((r.ok, r.version, r.case, round(store.env.now, 9))
                       for r in results)
    return records, write_latency


def test_gray_run_commits_and_verifies():
    store = gray_store(**GRAY)
    records, _latency = run_pairs(store)
    assert all(ok for ok, _version, _case, _now in records)
    stats = store.verify()
    assert stats["writes"] == stats["reads"] == PAIRS


def test_no_stranded_locks_after_early_completed_waves():
    # the success-path ``sh-op-release`` fan-out frees the stragglers an
    # early-completed wave left behind, well before the lock lease would
    store = gray_store(**GRAY)
    run_pairs(store)
    store.advance(store.config.lock_lease / 2)
    for name, host in store.hosts.items():
        assert not host._op_locks, (name, host._op_locks)


def test_same_seed_gray_runs_are_identical():
    first, second = (run_pairs(gray_store(**GRAY))[0] for _ in range(2))
    assert first == second


def test_adaptive_hedged_writes_are_at_least_twice_as_fast():
    gray = median(run_pairs(gray_store(**GRAY))[1])
    fixed = median(run_pairs(gray_store())[1])
    assert gray <= fixed / 2, (gray, fixed)


def test_degraded_read_asks_a_replica_of_the_shard():
    # The cheap tier's candidates are the nodes that may hold the item:
    # a coordinator outside the shard's placement is not its own fastest
    # replica (it would answer the never-written default state).
    store = ShardedStore.create(
        5, n_shards=16, replication=3, seed=5, track_history=True,
        config=ProtocolConfig(adaptive_timeouts=True, degraded_reads=True,
                              op_deadline=0.5))
    replicas = store.map.replicas(store.shard_of("alpha"))
    via = next(name for name in store.node_names if name not in replicas)
    assert store.write("alpha", {"x": 1}, via=via).ok
    store.settle()
    for peer in store.node_names:
        if peer != via:
            store.hosts[via].liveness.observe_latency(peer, 5.0)
    result = store.read("alpha", via=via)
    assert result.ok and result.case == "degraded"
    assert (result.version, result.value) == (1, {"x": 1})
    assert store.verify()["reads"] == 0     # judged as a degraded read


@pytest.mark.parametrize("bug, stranded", [("", []), ("stranded-lock", ["n06"])],
                         ids=["fan-out", "canary"])
def test_release_fan_out_frees_a_hedged_waves_straggler(bug, stranded):
    # A node that turns slow *after* its links were measured healthy is
    # overdue at the hedge threshold: a spare answers, the wave completes
    # early, and the straggler then grants a lock nobody will use.  The
    # success path's ``sh-op-release`` fan-out frees it; the canary
    # (chaos_bug="stranded-lock" drops the fan-out) shows it would stay.
    store = grid_store(chaos_bug=bug, **GRAY)
    for i in range(20):
        assert store.write(f"k{i % 8}", {"v": i}, via="n00").ok
    slow_down(store, "n06")
    for i in range(20):
        assert store.write(f"k{i % 8}", {"w": i}, via="n00").ok
    counters = store.metrics_snapshot()["counters"]
    assert counters["rpc_hedges{outcome=fired,src=n00}"] >= 1
    store.advance(store.config.lock_lease / 2)
    assert sorted(name for name, host in store.hosts.items()
                  if host._op_locks) == stranded
