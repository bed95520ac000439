#!/usr/bin/env python3
"""Group epoch management: many data items, one epoch (paper Section 2).

A directory server replicates 6 independent records on 9 nodes.  With the
paper's group epoch, one CheckEpoch per failure episode covers all six
records -- the amortization argument of Section 2 -- while reads, writes,
and delta propagation stay per record.  A group of items under one
epoch is one shard: the store is a one-shard ``ShardedStore`` whose
shard lives on every node.

Run:  python examples/grouped_items.py
"""

from repro.coteries.grid import GridCoterie
from repro.shard.store import ShardedStore


RECORDS = [f"user{i}" for i in range(6)]
GROUP = 0   # the one shard


def main() -> None:
    store = ShardedStore.create(
        9, n_shards=1, replication=9, seed=21, coterie_rule=GridCoterie,
        trace_enabled=True, track_history=True)

    print("=== populate six records ===")
    for i, record in enumerate(RECORDS):
        store.write(record, {"name": record, "quota": 100 + i})
    print("versions:",
          {r: store.read(r).version for r in RECORDS})

    print("\n=== one failure episode, ONE epoch check for the group ===")
    store.crash("n08")
    store.trace.clear()
    result = store.check_shard(GROUP)
    checks = sum(1 for rec in store.trace.select(kind="rpc-call")
                 if rec.detail["method"] == "sh-epoch-check-request")
    print(f"epoch check: ok={result.ok} -> epoch "
          f"#{result.epoch_number} with {len(result.epoch_list)} members")
    print(f"epoch-check polls sent: {checks} (one per NODE, "
          f"not per record -- {len(RECORDS)}x amortization)")

    print("\n=== records keep independent versions and updates ===")
    store.write("user0", {"quota": 42})
    store.write("user3", {"suspended": True})
    print("user0:", store.read("user0").value)
    print("user3:", store.read("user3").value)
    print("user5:", store.read("user5").value, "(untouched)")

    print("\n=== rejoin: per-record staleness, per-record healing ===")
    store.recover("n08")
    result = store.check_shard(GROUP)
    n08 = store.hosts["n08"]
    stale_records = [r for r in RECORDS if n08.item_state(GROUP, r).stale]
    print(f"records stale on n08 after rejoin: {stale_records}")
    store.settle()
    print("after propagation:",
          {r: n08.item_state(GROUP, r).version for r in RECORDS})

    print("\nverified:", store.verify())


if __name__ == "__main__":
    main()
