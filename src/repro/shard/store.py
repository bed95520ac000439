"""Facade: a sharded, partially-replicated keyspace on one cluster.

``ShardedStore`` wires the whole subsystem together: one
:class:`~repro.shard.map.ShardMap`, one node + RPC + host + router
stack per cluster member, and (optionally) one
:class:`~repro.shard.sweep.ShardSweeper` per node so a single elected
initiator amortizes epoch checking over every shard.

``write(key, updates)`` / ``read(key)`` run one operation to
completion; ``start_write`` / ``start_read`` return the spawned process
so benchmarks can keep many operations in flight.  A shard is the
paper's Section 2 group of data items under one epoch, so group epoch
management is the one-shard store: ``ShardedStore.create(n, n_shards=1,
replication=n, coterie_rule=GridCoterie)`` and ``check_shard(0)`` -- one
poll per node however many keys the group holds.  History recording is
off by default (a million-operation run must not retain a million
histories); tests that want the one-copy-serializability verdict pass
``track_history=True`` and call :meth:`verify`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.config import ProtocolConfig
from repro.core.history import History, check_one_copy_serializability
from repro.core.messages import EpochCheckResult, ReadResult, WriteResult
from repro.coteries.base import CoterieRule
from repro.coteries.majority import MajorityCoterie
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, NullRegistry
from repro.shard.host import ShardHost
from repro.shard.map import ShardMap
from repro.shard.rebalance import plan_moves, shard_loads
from repro.shard.router import ShardRouter
from repro.shard.sweep import ShardSweeper, SweepResult, check_shard_epoch, \
    sweep_epochs
from repro.sim.engine import Environment, Process
from repro.sim.failures import FailureSchedule
from repro.sim.network import LatencyModel, Network
from repro.sim.node import Node
from repro.sim.rpc import AdaptiveTimeouts, RpcLayer
from repro.sim.seeding import derive_rng
from repro.sim.trace import TraceLog


class ShardedStore:
    """A million-key store: keys -> shards -> per-shard replica sets."""

    def __init__(self, node_names: Sequence[str], n_shards: int = 64,
                 replication: int = 3, seed: int = 0,
                 coterie_rule: CoterieRule = MajorityCoterie,
                 config: Optional[ProtocolConfig] = None,
                 latency: tuple[float, float] = (0.001, 0.01),
                 trace_enabled: bool = False,
                 metrics: bool | MetricsRegistry = True,
                 track_history: bool = False,
                 auto_sweep: bool = False):
        names = tuple(sorted(node_names))
        self.env = Environment()
        if isinstance(metrics, (MetricsRegistry, NullRegistry)):
            self.metrics = metrics
        elif metrics:
            self.metrics = MetricsRegistry(clock=lambda: self.env.now)
        else:
            self.metrics = NULL_REGISTRY
        self.trace = TraceLog(enabled=trace_enabled)
        self.network = Network(
            self.env,
            latency=LatencyModel(latency[0], latency[1],
                                 rng=derive_rng(seed,
                                                "shard.network.latency")),
            trace=self.trace)
        self.config = (config or ProtocolConfig()).validate()
        # ReplicaServer / EpochChecker features the shard host does not
        # have: refused, rather than accepted and run without
        for knob in ("quorum_strategy", "safety_threshold",
                     "busy_queue_limit", "suspicion_triggers_check"):
            if getattr(self.config, knob):
                raise ValueError(
                    f"ProtocolConfig.{knob} is not supported by the "
                    f"sharded store (docs/SHARDING.md)")
        self.map = ShardMap(names, n_shards, replication, seed=seed)
        self.histories: Optional[dict[str, History]] = \
            {} if track_history else None
        self.nodes: dict[str, Node] = {}
        self.hosts: dict[str, ShardHost] = {}
        self.routers: dict[str, ShardRouter] = {}
        self.sweepers: dict[str, ShardSweeper] = {}
        adaptive = AdaptiveTimeouts.from_config(self.config)
        for name in names:
            node = Node(self.env, self.network, name)
            rpc = RpcLayer(node, default_timeout=self.config.rpc_timeout,
                           metrics=self.metrics, adaptive=adaptive)
            host = ShardHost(node, rpc, self.map, names,
                             coterie_rule=coterie_rule, config=self.config,
                             metrics=self.metrics)
            self.nodes[name] = node
            self.hosts[name] = host
            self.routers[name] = ShardRouter(host, self.histories)
        if auto_sweep:
            for name in names:
                sweeper = ShardSweeper(self.hosts[name])
                sweeper.start()
                self.sweepers[name] = sweeper

    @classmethod
    def create(cls, n_replicas: int, n_shards: int = 64,
               **kwargs) -> "ShardedStore":
        """Build a store over nodes named ``n00 .. n<N-1>``."""
        return cls([f"n{i:02d}" for i in range(n_replicas)],
                   n_shards=n_shards, **kwargs)

    # -- plumbing --------------------------------------------------------------
    @property
    def node_names(self) -> tuple[str, ...]:
        """All node names, sorted."""
        return tuple(sorted(self.nodes))

    def _via(self, via: Optional[str]) -> str:
        if via is not None:
            return via
        up = sorted(name for name, node in self.nodes.items() if node.up)
        if not up:
            raise RuntimeError("no node up")
        return up[0]

    def join(self, *processes: Process, timeout: float = 120.0) -> list:
        """Run the simulation until the given processes complete (and
        not a queue entry further); ``SimulationStalled`` if they
        cannot, or have not *timeout* simulated seconds from now."""
        self.env.run_until(processes, deadline=self.env.now + timeout)
        return [p.value for p in processes]

    # -- keyed operations ------------------------------------------------------
    def start_write(self, key: str, updates: dict,
                    via: Optional[str] = None) -> Process:
        """Spawn one write; returns the process (pipelined benchmarks)."""
        name = self._via(via)
        return self.nodes[name].spawn(
            self.routers[name].write(key, updates))

    def start_read(self, key: str, via: Optional[str] = None) -> Process:
        """Spawn one read; returns the process."""
        name = self._via(via)
        return self.nodes[name].spawn(self.routers[name].read(key))

    def write(self, key: str, updates: dict,
              via: Optional[str] = None) -> WriteResult:
        """Synchronous facade: run one keyed write to completion."""
        return self.join(self.start_write(key, updates, via=via))[0]

    def read(self, key: str, via: Optional[str] = None) -> ReadResult:
        """Synchronous facade: run one keyed read to completion."""
        return self.join(self.start_read(key, via=via))[0]

    def shard_of(self, key: str) -> int:
        """The shard a key routes to."""
        return self.map.shard_of(key)

    # -- epoch service ---------------------------------------------------------
    def _check(self, via: Optional[str], retries: int, check):
        """Run ``check(host)`` on one node to completion, again (after
        letting the conflicting operation drain) while its install
        transaction aborts and *retries* remain."""
        name = self._via(via)
        while True:
            result = self.join(self.nodes[name].spawn(
                check(self.hosts[name])))[0]
            if result.ok or result.reason != "install-aborted" \
                    or not retries:
                return result
            retries -= 1
            self.advance(2 * self.config.rpc_timeout)

    def sweep(self, via: Optional[str] = None,
              retries: int = 3) -> SweepResult:
        """Run one batched epoch sweep over every shard (with install
        retries)."""
        return self._check(via, retries, sweep_epochs)

    def check_shard(self, shard: int, via: Optional[str] = None,
                    retries: int = 3) -> EpochCheckResult:
        """Run one epoch check scoped to a single shard (with install
        retries)."""
        return self._check(via, retries,
                           lambda host: check_shard_epoch(host, shard))

    # -- rebalancing -----------------------------------------------------------
    def migrate(self, shard: int, new_replicas: Sequence[str],
                via: Optional[str] = None,
                retries: int = 3) -> EpochCheckResult:
        """Move one shard to a new replica set, as an epoch transition.

        Records the new placement in the shard map, then drives the
        epoch check that installs the transition (the install op_id is
        tagged ``-shmove`` so chaos traces can target migrations).  The
        first install may retain departing sources that still hold the
        only current copy of some key; the next sweep completes the
        move once propagation has healed the newcomers.
        """
        hint = self.current_epoch(shard)[0]
        self.map.move(shard, tuple(sorted(new_replicas)))
        return self._check(via, retries, lambda host: check_shard_epoch(
            host, shard, tag="-shmove", hint=hint))

    def rebalance(self, factor: float = 4.0, min_ops: int = 100,
                  limit: int = 4) -> list[tuple[int, tuple[str, ...]]]:
        """Detect hot shards from the obs counters and migrate them."""
        moves = plan_moves(self.map, shard_loads(self.metrics.snapshot()),
                           factor=factor, min_ops=min_ops, limit=limit)
        for shard, new_replicas in moves:
            self.migrate(shard, new_replicas)
        return moves

    # -- fault control ---------------------------------------------------------
    def crash(self, *names: str) -> None:
        """Fail-stop the named nodes."""
        for name in names:
            self.nodes[name].crash()

    def recover(self, *names: str) -> None:
        """Bring the named nodes back up (stable storage intact)."""
        for name in names:
            self.nodes[name].recover()

    def schedule(self) -> FailureSchedule:
        """A scripted fault timeline bound to this cluster."""
        return FailureSchedule(self.env, self.network, self.nodes.values())

    def advance(self, duration: float) -> None:
        """Let simulated time pass (propagation, leases, elections)."""
        self.env.run(until=self.env.now + duration)

    def settle(self, duration: float = 10.0, rounds: int = 30) -> None:
        """Sweep and advance until no up node holds stale keys."""
        for _ in range(rounds):
            unhealed = sorted(
                name for name, node in self.nodes.items()
                if node.up and node.stable["sh_stale"])
            if not unhealed:
                return
            self.sweep()
            self.advance(duration)

    # -- inspection ------------------------------------------------------------
    def current_epoch(self, shard: int) -> tuple[tuple[str, ...], int]:
        """The newest (elist, enumber) any node holds for one shard."""
        newest = max((host.epoch_of(shard) for host in
                      self.hosts.values()), key=lambda pair: pair[1])
        return tuple(newest[0]), newest[1]

    def resident_items(self) -> int:
        """Materialized per-key states across the cluster -- the number
        the scale benchmark bounds by O(written keys x replication)."""
        return sum(len(items)
                   for host in self.hosts.values()
                   for items in host.node.stable["sh_items"].values())

    def max_update_log(self) -> int:
        """The longest update log held by any materialized key state."""
        longest = 0
        for host in self.hosts.values():
            for items in host.node.stable["sh_items"].values():
                for state in items.values():
                    if len(state.update_log) > longest:
                        longest = len(state.update_log)
        return longest

    def live_locks(self) -> int:
        """Pooled locks currently resident across the cluster."""
        return sum(host.live_locks for host in self.hosts.values())

    def metrics_snapshot(self) -> dict:
        """Export the cluster's metrics (see :mod:`repro.obs`)."""
        return self.metrics.snapshot()

    def verify(self) -> dict:
        """Assert per-key one-copy serializability (requires
        ``track_history=True``) plus per-shard epoch uniqueness."""
        totals = {"writes": 0, "reads": 0, "failed": 0}
        if self.histories is not None:
            for key in sorted(self.histories):
                stats = check_one_copy_serializability(self.histories[key])
                for field in totals:
                    totals[field] += stats[field]
        # epoch uniqueness: one list per (shard, number) across the cluster
        seen: dict[tuple[int, int], tuple[str, ...]] = {}
        for name in sorted(self.hosts):
            epochs = self.hosts[name].node.stable["sh_epochs"]
            for shard in sorted(epochs):
                elist, enumber = epochs[shard]
                recorded = seen.get((shard, enumber))
                if recorded is not None and recorded != tuple(elist):
                    raise AssertionError(
                        f"shard {shard} epoch {enumber} has two lists: "
                        f"{recorded} vs {tuple(elist)}")
                seen[(shard, enumber)] = tuple(elist)
        return totals
