"""Closed-loop client workloads over a replicated store.

A :class:`ClientWorkload` describes a population of clients, each attached
to a home replica, issuing a read/write mix with exponential think times
and Zipf-skewed key choice (the classic OLTP-ish access pattern).
:func:`run_workload` executes it against any store with the
``start_read`` / ``start_write`` interface (the dynamic store and both
baselines) and returns latency/outcome statistics.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field

class ZipfKeyChooser:
    """Zipf(s)-distributed choice over ``key0 .. key{n-1}``.

    Selection is a binary search over the precomputed cumulative
    distribution, so a pick costs O(log n) -- the linear scan this
    replaces made million-key workload generation O(n) per operation.
    ``bisect_left(cum, point)`` returns the first index whose cumulative
    weight is >= ``point``, exactly the index the old scan stopped at,
    so pick sequences are bit-identical for any seed.
    """

    def __init__(self, n_keys: int, skew: float = 1.0):
        if n_keys < 1:
            raise ValueError("need at least one key")
        if skew < 0:
            raise ValueError("skew must be non-negative")
        self.n_keys = n_keys
        self.skew = skew
        weights = [1.0 / (rank ** skew) for rank in range(1, n_keys + 1)]
        total = sum(weights)
        cumulative = []
        running = 0.0
        for weight in weights:
            running += weight / total
            cumulative.append(running)
        self._cumulative = cumulative

    def pick_index(self, rng: random.Random) -> int:
        """One Zipf-distributed index choice in ``[0, n_keys)``."""
        point = rng.random()
        index = bisect_left(self._cumulative, point)
        return index if index < self.n_keys else self.n_keys - 1

    def pick(self, rng: random.Random) -> str:
        """One Zipf-distributed key choice."""
        return f"key{self.pick_index(rng)}"


@dataclass
class ClientWorkload:
    """Parameters of a closed-loop client population."""

    n_clients: int = 4
    read_fraction: float = 0.7
    think_time: float = 1.0          # mean of the exponential think time
    n_keys: int = 16
    key_skew: float = 1.0
    duration: float = 100.0
    total_writes: bool = False       # baselines replace the whole value
    # when a client's home replica crashes, reattach to a live one after
    # a reconnect delay instead of going silent (realistic failover)
    rehome: bool = False
    reconnect_delay: float = 2.0

    def validate(self) -> "ClientWorkload":
        """Check parameter sanity; returns self for chaining."""
        if self.n_clients < 1:
            raise ValueError("need at least one client")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.think_time <= 0 or self.duration <= 0:
            raise ValueError("think_time and duration must be positive")
        return self


@dataclass
class WorkloadStats:
    """Outcome of a workload run."""

    reads_ok: int = 0
    reads_failed: int = 0
    writes_ok: int = 0
    writes_failed: int = 0
    read_latencies: list = field(default_factory=list)
    write_latencies: list = field(default_factory=list)
    duration: float = 0.0
    rehomes: int = 0

    @property
    def operations(self) -> int:
        """Total number of operations."""
        return (self.reads_ok + self.reads_failed
                + self.writes_ok + self.writes_failed)

    @property
    def throughput(self) -> float:
        """Operations per unit of simulated time."""
        return self.operations / self.duration if self.duration else 0.0

    @property
    def success_rate(self) -> float:
        """Fraction of operations that completed successfully."""
        done = self.reads_ok + self.writes_ok
        return done / self.operations if self.operations else 0.0

    def mean_latency(self, kind: str = "write") -> float:
        """Mean latency of the given operation kind."""
        data = (self.write_latencies if kind == "write"
                else self.read_latencies)
        return sum(data) / len(data) if data else 0.0

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (f"{self.operations} ops in {self.duration:g} "
                f"({self.throughput:.2f}/s), "
                f"success {self.success_rate:.1%}, "
                f"read lat {self.mean_latency('read'):.4f}, "
                f"write lat {self.mean_latency('write'):.4f}")


def run_workload(store, workload: ClientWorkload,
                 seed: int = 0) -> WorkloadStats:
    """Run the client population against *store* and gather statistics."""
    workload.validate()
    stats = WorkloadStats()
    keys = ZipfKeyChooser(workload.n_keys, workload.key_skew)
    counter = [0]

    def client_body(client_id: int, home: str, rng: random.Random):
        env = store.env
        end_time = env.now + workload.duration
        while env.now < end_time:
            if not store.nodes[home].up:
                if not workload.rehome:
                    return
                yield env.timeout(workload.reconnect_delay)
                live = [n for n in store.node_names if store.nodes[n].up]
                if not live:
                    continue
                home = rng.choice(live)
                stats.rehomes += 1
                continue
            yield env.timeout(rng.expovariate(1.0 / workload.think_time))
            if not store.nodes[home].up or env.now >= end_time:
                continue
            started = env.now
            if rng.random() < workload.read_fraction:
                result = yield store.start_read(via=home)
                if result is not None and result.ok:
                    stats.reads_ok += 1
                    stats.read_latencies.append(env.now - started)
                else:
                    stats.reads_failed += 1
            else:
                counter[0] += 1
                if workload.total_writes:
                    payload = {f"key{k}": counter[0]
                               for k in range(workload.n_keys)}
                else:
                    payload = {keys.pick(rng): counter[0]}
                result = yield store.start_write(payload, via=home)
                if result is not None and result.ok:
                    stats.writes_ok += 1
                    stats.write_latencies.append(env.now - started)
                else:
                    stats.writes_failed += 1

    names = list(store.node_names)
    processes = []
    for client_id in range(workload.n_clients):
        home = names[client_id % len(names)]
        rng = random.Random((seed << 16) + client_id)
        processes.append(store.env.process(
            client_body(client_id, home, rng), name=f"client{client_id}"))
    start = store.env.now
    store.env.run(until=start + workload.duration + 30.0)
    stats.duration = store.env.now - start
    return stats


@dataclass
class KeyedWorkload:
    """An operation-count-driven workload over a large keyspace.

    Built for the sharded store's scale benchmarks: instead of a
    duration-bounded closed loop, each client issues a fixed share of
    ``n_ops`` operations back to back (no think time), drawing keys
    Zipf-skewed from a keyspace of ``n_keys``.  Issue-side work per
    operation is O(log n_keys) (the chooser's binary search) and no
    per-key Python state is kept here, so the generator itself stays
    out of the way when the keyspace hits 10^6.
    """

    n_ops: int = 1000
    n_keys: int = 1000
    n_clients: int = 4
    read_fraction: float = 0.9
    key_skew: float = 1.0
    key_prefix: str = "k"

    def validate(self) -> "KeyedWorkload":
        """Check parameter sanity; returns self for chaining."""
        if self.n_ops < 1 or self.n_keys < 1 or self.n_clients < 1:
            raise ValueError("n_ops, n_keys, n_clients must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        return self


def run_keyed_workload(store, workload: KeyedWorkload,
                       seed: int = 0) -> WorkloadStats:
    """Run a :class:`KeyedWorkload` against a keyed store.

    *store* needs the sharded store's keyed interface
    (``start_read(key, via=...)`` / ``start_write(key, updates,
    via=...)``).  Clients are spread round-robin over the cluster's
    nodes; each runs its operations strictly back to back, so total
    simulated work is exactly ``n_ops`` operations.
    """
    workload.validate()
    stats = WorkloadStats()
    keys = ZipfKeyChooser(workload.n_keys, workload.key_skew)
    prefix = workload.key_prefix
    counter = [0]

    def client_body(client_id: int, home: str, share: int,
                    rng: random.Random):
        env = store.env
        for _ in range(share):
            if not store.nodes[home].up:
                live = [n for n in store.node_names if store.nodes[n].up]
                if not live:
                    return
                home = rng.choice(live)
                stats.rehomes += 1
            key = f"{prefix}{keys.pick_index(rng)}"
            started = env.now
            if rng.random() < workload.read_fraction:
                result = yield store.start_read(key, via=home)
                if result is not None and result.ok:
                    stats.reads_ok += 1
                    stats.read_latencies.append(env.now - started)
                else:
                    stats.reads_failed += 1
            else:
                counter[0] += 1
                result = yield store.start_write(key, {"v": counter[0]},
                                                 via=home)
                if result is not None and result.ok:
                    stats.writes_ok += 1
                    stats.write_latencies.append(env.now - started)
                else:
                    stats.writes_failed += 1

    names = list(store.node_names)
    base, extra = divmod(workload.n_ops, workload.n_clients)
    processes = []
    for client_id in range(workload.n_clients):
        home = names[client_id % len(names)]
        share = base + (1 if client_id < extra else 0)
        rng = random.Random((seed << 16) + client_id)
        processes.append(store.env.process(
            client_body(client_id, home, share, rng),
            name=f"kclient{client_id}"))
    start = store.env.now
    # stop at the entry that finishes the last client: the clock a phase
    # ends on must not depend on what else happens to be queued
    store.env.run_until(processes)
    stats.duration = store.env.now - start
    return stats
