"""The public facade: a replicated object on a simulated cluster.

:class:`ReplicatedStore` wires together everything below it -- simulation
environment, network, nodes, RPC, replica servers, coordinators, epoch
checking, failure injection, history recording -- and exposes a small
synchronous-looking API for tests, examples, and benchmarks::

    store = ReplicatedStore.create(n_replicas=9, seed=7)
    store.write({"x": 1})                  # partial write via some replica
    store.crash("n03"); store.advance(5)   # kill a node, let time pass
    store.check_epoch()                    # run CheckEpoch explicitly
    value = store.read().value
    store.verify()                         # one-copy serializability

Concurrency is available through the ``start_*`` variants, which return
simulation processes that run in parallel until :meth:`join` collects
them.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from repro.core.config import ProtocolConfig
from repro.core.coordinator import Coordinator
from repro.core.epoch import EpochChecker, check_epoch
from repro.core.history import (
    History,
    check_epoch_lineage,
    check_epoch_uniqueness,
    check_one_copy_serializability,
)
from repro.core.messages import EpochCheckResult, ReadResult, WriteResult
from repro.core.replica import ReplicaServer
from repro.coteries.base import CoterieRule
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, NullRegistry
from repro.coteries.grid import GridCoterie
from repro.sim.engine import Environment, Process, SimulationStalled
from repro.sim.failures import FailureInjector, FailureSchedule
from repro.sim.network import LatencyModel, Network
from repro.sim.node import Node
from repro.sim.rpc import AdaptiveTimeouts, RpcLayer
from repro.sim.trace import TraceLog


class StoreError(Exception):
    """Raised for misuse of the store facade."""


class ReplicatedStore:
    """A replicated dictionary managed by the dynamic coterie protocol."""

    #: The per-node operation coordinator; a baseline store names its own.
    coordinator_class = Coordinator

    def __init__(self, node_names: Sequence[str], seed: int = 0,
                 coterie_rule: CoterieRule = GridCoterie,
                 config: Optional[ProtocolConfig] = None,
                 latency: tuple[float, float] = (0.001, 0.01),
                 initial_value: Optional[dict] = None,
                 auto_epoch_check: bool = False,
                 trace_enabled: bool = False,
                 metrics: bool | MetricsRegistry = True):
        names = tuple(sorted(node_names))
        if len(set(names)) != len(names):
            raise StoreError("duplicate node names")
        self.env = Environment()
        self.trace = TraceLog(enabled=trace_enabled)
        self.rng = random.Random(seed)
        # one registry per cluster, shared by every layer below; pass an
        # existing MetricsRegistry to aggregate several stores, or False
        # to swap in the shared no-op registry
        if isinstance(metrics, (MetricsRegistry, NullRegistry)):
            self.metrics = metrics
        elif metrics:
            self.metrics = MetricsRegistry(clock=lambda: self.env.now)
        else:
            self.metrics = NULL_REGISTRY
        self.network = Network(
            self.env,
            latency=LatencyModel(latency[0], latency[1],
                                 rng=random.Random(seed + 1)),
            trace=self.trace)
        self.config = (config or ProtocolConfig()).validate()
        self.history = History()
        self.nodes: dict[str, Node] = {}
        self.servers: dict[str, ReplicaServer] = {}
        self.coordinators: dict[str, Coordinator] = {}
        self.checkers: dict[str, EpochChecker] = {}
        adaptive = AdaptiveTimeouts.from_config(self.config)
        for name in names:
            node = Node(self.env, self.network, name)
            rpc = RpcLayer(node, default_timeout=self.config.rpc_timeout,
                           metrics=self.metrics, adaptive=adaptive)
            server = ReplicaServer(node, rpc, coterie_rule, names,
                                   config=self.config,
                                   initial_value=initial_value,
                                   metrics=self.metrics, seed=seed)
            self.nodes[name] = node
            self.servers[name] = server
            self.coordinators[name] = self.coordinator_class(
                server, history=self.history)
            if auto_epoch_check:
                checker = EpochChecker(server, history=self.history)
                checker.start()
                self.checkers[name] = checker
        self.initial_value = dict(initial_value or {})
        self.injector: Optional[FailureInjector] = None

    @classmethod
    def create(cls, n_replicas: int, **kwargs) -> "ReplicatedStore":
        """A store over nodes named ``n00 .. n<N-1>``."""
        return cls([f"n{i:02d}" for i in range(n_replicas)], **kwargs)

    # -- topology helpers ------------------------------------------------------
    @property
    def node_names(self) -> tuple[str, ...]:
        """All node names, sorted."""
        return tuple(sorted(self.nodes))

    def up_nodes(self) -> list[str]:
        """Names of the nodes currently up."""
        return [name for name, node in self.nodes.items() if node.up]

    def _pick_via(self, via: Optional[str]) -> str:
        if via is not None:
            if via not in self.nodes:
                raise StoreError(f"unknown node {via!r}")
            return via
        up = sorted(self.up_nodes())
        if not up:
            raise StoreError("no node is up to coordinate the operation")
        return up[0]

    # -- asynchronous operation API ---------------------------------------------
    def start_write(self, updates: dict, via: Optional[str] = None) -> Process:
        """Spawn a write operation; returns its simulation process."""
        name = self._pick_via(via)
        return self.nodes[name].spawn(
            self.coordinators[name].write(updates), name="write")

    def start_read(self, via: Optional[str] = None) -> Process:
        """Spawn a read operation; returns its simulation process."""
        name = self._pick_via(via)
        return self.nodes[name].spawn(
            self.coordinators[name].read(), name="read")

    def start_epoch_check(self, via: Optional[str] = None) -> Process:
        """Spawn an epoch-checking operation (where supported)."""
        name = self._pick_via(via)
        return self.nodes[name].spawn(
            check_epoch(self.servers[name], history=self.history),
            name="epoch-check")

    def join(self, *processes: Process, timeout: float = 120.0) -> list:
        """Run the simulation until the given processes complete (and
        not a queue entry further); :class:`StoreError` if they cannot,
        or have not *timeout* simulated seconds from now."""
        try:
            self.env.run_until(processes, deadline=self.env.now + timeout)
        except SimulationStalled as stalled:
            raise StoreError(
                f"operations did not complete: {stalled}") from stalled
        return [p.value for p in processes]

    # -- synchronous convenience API ------------------------------------------------
    def write(self, updates: dict, via: Optional[str] = None) -> WriteResult:
        """Synchronous facade: run one partial write to completion."""
        return self.join(self.start_write(updates, via))[0]

    def read(self, via: Optional[str] = None) -> ReadResult:
        """Synchronous facade: run one read to completion."""
        return self.join(self.start_read(via))[0]

    def check_epoch(self, via: Optional[str] = None,
                    retries: int = 3) -> EpochCheckResult:
        """Run one epoch-checking operation (with a few retries when the
        install transaction aborts because a concurrent write or
        propagation changed a validated state -- the periodic checker would
        simply try again next round).  None, like :meth:`write`'s result,
        when the checking node crashed under the check."""
        result = self.join(self.start_epoch_check(via))[0]
        while result is not None and not result.ok \
                and result.reason == "install-aborted" and retries:
            retries -= 1
            self.advance(2 * self.config.rpc_timeout)
            result = self.join(self.start_epoch_check(via))[0]
        return result

    def advance(self, duration: float) -> None:
        """Let simulated time pass (propagation, leases, elections run)."""
        self.env.run(until=self.env.now + duration)

    # -- faults ---------------------------------------------------------------------
    def crash(self, *names: str) -> None:
        """Fail-stop the named nodes."""
        for name in names:
            self.nodes[name].crash()

    def recover(self, *names: str) -> None:
        """Bring the named nodes back up (stable storage intact)."""
        for name in names:
            self.nodes[name].recover()

    def partition(self, *groups: Iterable[str]) -> None:
        """Split the network into the given groups."""
        self.network.partitions.partition(*groups)

    def heal(self) -> None:
        """Restore full network connectivity."""
        self.network.partitions.heal()

    def schedule(self) -> FailureSchedule:
        """A scripted fault timeline bound to this cluster."""
        return FailureSchedule(self.env, self.network, self.nodes.values())

    def inject_failures(self, lam: float, mu: float,
                        seed: Optional[int] = None) -> FailureInjector:
        """Start Poisson site-model failure injection."""
        if self.injector is not None:
            raise StoreError("failure injector already running")
        self.injector = FailureInjector(
            self.env, list(self.nodes.values()), lam, mu,
            rng=random.Random(self.rng.random() if seed is None else seed))
        self.injector.start()
        return self.injector

    # -- inspection -------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """A JSON-able snapshot of every protocol metric (see
        :mod:`repro.obs`); merge several with
        :func:`repro.obs.merge_snapshots`."""
        return self.metrics.snapshot()

    def replica_state(self, name: str):
        """The durable replica state of one node."""
        return self.servers[name].state

    def current_epoch(self) -> tuple[tuple[str, ...], int]:
        """The newest (epoch_list, epoch_number) held by any replica."""
        newest = max((s.state for s in self.servers.values()),
                     key=lambda state: state.epoch_number)
        return tuple(newest.epoch_list), newest.epoch_number

    def stale_replicas(self) -> list[str]:
        """Names of replicas currently marked stale."""
        return sorted(name for name, server in self.servers.items()
                      if server.state.stale)

    def versions(self) -> dict[str, int]:
        """Per-node version numbers."""
        return {name: server.state.version
                for name, server in self.servers.items()}

    # -- verification --------------------------------------------------------------------
    def verify(self) -> dict:
        """Check one-copy serializability of the recorded history, the
        epoch-uniqueness invariant over current replica states, and the
        durable epoch lineage (each epoch holds a write quorum of its
        predecessor -- Lemma 1's inductive step)."""
        stats = check_one_copy_serializability(self.history,
                                               self.initial_value)
        check_epoch_uniqueness(self.servers.values())
        any_server = next(iter(self.servers.values()))
        check_epoch_lineage(self.servers.values(),
                            any_server.coterie_rule, self.node_names)
        return stats

    def settle(self, duration: float = 10.0, rounds: int = 30) -> None:
        """Advance until propagation quiesces (no stale replicas among the
        current epoch's up members) or the round budget is exhausted."""
        for _ in range(rounds):
            epoch, _number = self.current_epoch()
            unhealed = [name for name in epoch
                        if self.nodes[name].up and self.servers[name].state.stale]
            if not unhealed:
                return
            self.advance(duration)
