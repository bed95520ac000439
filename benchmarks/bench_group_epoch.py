"""Experiment E14 -- amortized epoch management (paper Section 2).

    "If several data items are replicated on the same set of nodes, the
    epoch management can be done per this whole group of data.  Thus, the
    overhead is amortized over several data items."

Measures epoch-checking messages per item for a K-item group store versus
K independent single-item stores, over the same failure/recovery episode.
A group of items under one epoch is one shard, so the group store is the
one-shard ``ShardedStore`` replicated on every node.
"""

from repro.core.store import ReplicatedStore
from repro.coteries.grid import GridCoterie
from repro.shard.store import ShardedStore

from _report import report

N_NODES = 9


def _rpc_sends(trace) -> int:
    """Epoch-management calls only: polls and the install transaction.

    Data healing (propagation offers/transfers) is inherently per item
    under any scheme, so it is excluded from the amortization claim.
    """
    return sum(1 for rec in trace.select(kind="rpc-call")
               if "propagation" not in rec.detail["method"])


def group_store(seed: int, **kwargs) -> ShardedStore:
    return ShardedStore.create(N_NODES, n_shards=1, replication=N_NODES,
                               seed=seed, coterie_rule=GridCoterie, **kwargs)


def grouped_cost(n_items: int) -> int:
    store = group_store(5, trace_enabled=True)
    for k in range(n_items):
        store.write(f"item{k}", {"v": k})
    store.crash("n08")
    store.trace.clear()
    assert store.check_shard(0).changed
    return _rpc_sends(store.trace)


def separate_cost(n_items: int) -> int:
    total = 0
    for k in range(n_items):
        store = ReplicatedStore.create(N_NODES, seed=5, trace_enabled=True)
        store.write({"v": k})
        store.crash("n08")
        store.trace.clear()
        assert store.check_epoch().changed
        total += _rpc_sends(store.trace)
    return total


def build_rows():
    return [(k, grouped_cost(k), separate_cost(k)) for k in (1, 2, 4, 8)]


def render(rows) -> str:
    lines = [
        f"Epoch-change message cost, {N_NODES} nodes, one failure episode",
        f"{'items':>5}  {'group epoch':>11}  {'per-item epochs':>15}  "
        f"{'amortization':>12}",
    ]
    for k, grouped, separate in rows:
        lines.append(f"{k:>5}  {grouped:>11}  {separate:>15}  "
                     f"{separate / grouped:>11.1f}x")
    lines.append("")
    lines.append("shape check: the group store's cost is flat in the item "
                 "count; per-item management scales linearly")
    return "\n".join(lines)


def test_group_epoch_amortization(benchmark, capsys):
    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    report("group_epoch_amortization", render(rows), capsys)
    base_group = rows[0][1]
    for k, grouped, separate in rows:
        assert grouped <= base_group * 1.5   # flat in K
        assert separate >= k * rows[0][2]    # linear in K
    assert rows[-1][2] > rows[-1][1] * 4     # >= 4x amortization at K=8


def test_multi_item_write(benchmark):
    store = group_store(6)

    def one_write():
        counter = getattr(one_write, "counter", 0) + 1
        one_write.counter = counter
        return store.write(f"item{counter % 4}", {"k": counter})

    result = benchmark.pedantic(one_write, rounds=20, iterations=1)
    assert result.ok
