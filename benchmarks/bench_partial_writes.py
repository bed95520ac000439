"""Experiment E7 -- the partial-write design goal, measured.

Section 1's argument: with partial writes, the naive approach makes every
coordinator write to *all* accessible replicas (or synchronously reconcile
laggards); the paper's stale-marking lets coordinators use small,
different quorums and reconcile asynchronously.  We measure message
traffic and per-node write load for

* the dynamic protocol (quorum writes + stale marking + async deltas),
* dynamic-linear voting (contacts every replica, the Section 2 critique),
* static ROWA (write-all: the other extreme).
"""

import pytest

from repro.analysis.traffic import message_traffic
from repro.baselines.dynamic_voting import DynamicVotingStore
from repro.baselines.static_protocol import StaticQuorumStore
from repro.core.store import ReplicatedStore
from repro.coteries.rowa import ReadOneWriteAllCoterie
from repro.workloads.generators import ClientWorkload, run_workload

from _report import report

N_NODES = 16
WORKLOAD = dict(n_clients=4, read_fraction=0.5, think_time=1.0,
                n_keys=6, duration=60.0)


def run_store(factory, seed=3, total_writes=False):
    store = factory()
    workload = ClientWorkload(total_writes=total_writes, **WORKLOAD)
    stats = run_workload(store, workload, seed=seed)
    traffic = message_traffic(store.trace, store.history)
    return store, stats, traffic


def build_all():
    rows = {}
    rows["dynamic grid"] = run_store(
        lambda: ReplicatedStore.create(N_NODES, seed=1, trace_enabled=True))
    rows["dynamic voting"] = run_store(
        lambda: DynamicVotingStore.create(N_NODES, seed=1,
                                          trace_enabled=True),
        total_writes=True)
    rows["static ROWA"] = run_store(
        lambda: StaticQuorumStore.create(
            N_NODES, seed=1, coterie_rule=ReadOneWriteAllCoterie,
            trace_enabled=True),
        total_writes=True)
    return rows


def render(rows) -> str:
    lines = [
        f"Message traffic, {N_NODES} replicas, failure-free, "
        "50/50 read-write mix",
        f"{'protocol':<16}  {'msgs/op':>8}  {'bytes/op':>8}  {'ops':>5}  "
        f"{'success':>8}  {'writes touch':>12}",
    ]
    for name, (store, stats, traffic) in rows.items():
        touched = _avg_write_set(store)
        lines.append(f"{name:<16}  {traffic.messages_per_operation:>8.1f}  "
                     f"{traffic.bytes_per_operation:>8.0f}  "
                     f"{traffic.operations:>5}  "
                     f"{stats.success_rate:>8.1%}  {touched:>12.1f}")
    lines.append("")
    lines.append("shape check: the dynamic grid touches ~2*sqrt(N)-1 "
                 "replicas per write and ships deltas, so it wins on "
                 "both message and byte counts")
    return "\n".join(lines)


def _avg_write_set(store) -> float:
    """Mean 2PC participants per committed write, from the run's trace
    (failure-free and without epoch checks, every transaction here is a
    write's)."""
    committed = {rec.detail["txn_id"]
                 for rec in store.trace.iter_select(kind="txn-decided")}
    sizes = [len(rec.detail["participants"])
             for rec in store.trace.iter_select(kind="txn-begin")
             if rec.detail["txn_id"] in committed]
    return sum(sizes) / len(sizes) if sizes else 0.0


def test_partial_write_traffic(benchmark, capsys):
    rows = benchmark.pedantic(build_all, rounds=1, iterations=1)
    report("partial_write_traffic", render(rows), capsys)
    grid_traffic = rows["dynamic grid"][2]
    voting_traffic = rows["dynamic voting"][2]
    rowa_traffic = rows["static ROWA"][2]
    # who wins: the quorum-based dynamic grid moves fewer messages per op
    assert grid_traffic.messages_per_operation < \
        voting_traffic.messages_per_operation
    assert grid_traffic.messages_per_operation < \
        rowa_traffic.messages_per_operation
    # ... and fewer bytes (partial writes ship deltas; the total-write
    # baselines resend the whole value to every replica)
    assert grid_traffic.bytes_per_operation < \
        voting_traffic.bytes_per_operation
    assert grid_traffic.bytes_per_operation < \
        rowa_traffic.bytes_per_operation


def test_dynamic_grid_workload(benchmark):
    def run():
        store = ReplicatedStore.create(9, seed=2)
        stats = run_workload(store, ClientWorkload(
            n_clients=2, duration=20.0), seed=2)
        return stats

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    assert stats.operations > 0


def test_dynamic_voting_workload(benchmark):
    def run():
        store = DynamicVotingStore.create(9, seed=2)
        return run_workload(store, ClientWorkload(
            n_clients=2, duration=20.0, total_writes=True, n_keys=4),
            seed=2)

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    assert stats.operations > 0
