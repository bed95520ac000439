"""Group epoch management for multiple data items (paper Section 2).

    "If several data items are replicated on the same set of nodes, the
    epoch management can be done per this whole group of data.  Thus, the
    overhead is amortized over several data items, whereas if epoch
    management is bundled with writes it must be done separately for each
    data item."

A :class:`MultiItemStore` replicates K independent data items on one node
group.  Each item keeps its own value, version number, desired version,
stale flag, update log, and lock -- but there is a *single* epoch (list +
number) per node, shared by every item.  One epoch-checking operation
serves the whole group: it polls each node once, and its install
transaction atomically updates the group epoch and the per-item stale
markings on every member.

Reads and writes are the Section 4 protocol run per item (quorums drawn
from the shared group epoch).  Write/propagation traffic is unchanged;
only the epoch-checking overhead is divided by K -- which experiment E14
measures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.core.config import ProtocolConfig
from repro.core.coordinator import _decide, _state_responses
from repro.core.history import History, check_one_copy_serializability
from repro.core.messages import (
    BUSY,
    EpochCheckResult,
    PropagationData,
    PropagationOffer,
    ReadResult,
    StateResponse,
    WriteResult,
)
from repro.core.participant import TwoPhaseParticipant
from repro.core.twophase import gather, run_transaction
from repro.core.liveness import LivenessView
from repro.coteries.base import CoterieRule, _stable_hash
from repro.coteries.grid import GridCoterie
from repro.coteries.planner import CompiledCoterieCache, plan_quorum
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, NullRegistry
from repro.sim.engine import Environment, Process
from repro.sim.failures import FailureSchedule
from repro.sim.network import LatencyModel, Network
from repro.sim.node import Node
from repro.sim.rpc import RpcLayer
from repro.sim.trace import TraceLog


@dataclass(frozen=True)
class ItemState:
    """Durable per-item state (the per-item part of Section 4's replica
    state; the epoch part lives once per node)."""

    value: dict = field(default_factory=dict)
    version: int = 0
    dversion: int = 0
    stale: bool = False
    update_log: tuple[tuple[int, dict], ...] = ()

    def applied(self, updates: dict, new_version: int,
                capacity: int) -> "ItemState":
        """State after applying a partial write at ``new_version``."""
        if new_version != self.version + 1:
            raise ValueError(f"non-contiguous write: {self.version} -> "
                             f"{new_version}")
        value = dict(self.value)
        value.update(updates)
        log = self.update_log + ((new_version, dict(updates)),)
        if capacity and len(log) > capacity:
            log = log[len(log) - capacity:]
        return ItemState(value=value, version=new_version,
                         dversion=self.dversion, stale=False,
                         update_log=log)

    def marked_stale(self, dversion: int) -> "ItemState":
        """State after a mark-stale with the given desired version."""
        return replace(self, stale=True,
                       dversion=max(dversion, self.dversion))

    def caught_up(self, value: dict, version: int,
                  update_log: tuple) -> "ItemState":
        """State after propagation brought this replica up to date."""
        if version < self.dversion:
            raise ValueError(f"catch-up to v{version} below desired "
                             f"v{self.dversion}")
        return ItemState(value=dict(value), version=version,
                         dversion=self.dversion, stale=False,
                         update_log=update_log)

    def log_slice(self, after_version: int) -> Optional[tuple]:
        """Log entries covering ``(after_version, version]``, or None."""
        needed = [entry for entry in self.update_log
                  if entry[0] > after_version]
        if len(needed) != self.version - after_version:
            return None
        if [v for v, _u in needed] != list(range(after_version + 1,
                                                 self.version + 1)):
            return None
        return tuple(needed)


# -- multi-item 2PC commands ---------------------------------------------------

@dataclass(frozen=True)
class MiApplyWrite:
    """Commit action: apply a partial write to one item."""
    item: str
    updates: dict
    new_version: int
    stale_nodes: tuple[str, ...]


@dataclass(frozen=True)
class MiMarkStale:
    """Commit action: mark one item stale with a desired version."""
    item: str
    dversion: int


@dataclass(frozen=True)
class MiInstallEpoch:
    """Install the group epoch and every item's stale marking atomically."""

    epoch_list: tuple[str, ...]
    epoch_number: int
    # item -> (good nodes, stale nodes, max_version)
    items: Mapping[str, tuple[tuple[str, ...], tuple[str, ...], int]]


class MultiReplicaServer(TwoPhaseParticipant):
    """Replica endpoint for a whole item group with a shared epoch.

    Locking and the presumed-abort 2PC participant come from
    :class:`~repro.core.participant.TwoPhaseParticipant`; this class
    supplies the item-group state, the poll handlers, and propagation.
    """

    def __init__(self, node: Node, rpc: RpcLayer, coterie_rule: CoterieRule,
                 all_nodes: Sequence[str], items: Sequence[str],
                 config: Optional[ProtocolConfig] = None, metrics=None):
        self.node = node
        self.rpc = rpc
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.env: Environment = node.env
        self.coterie_rule = coterie_rule
        self.all_nodes = tuple(sorted(all_nodes))
        self.items = tuple(sorted(items))
        self.config = (config or ProtocolConfig()).validate()
        node.stable["group_epoch"] = (self.all_nodes, 0)
        node.stable["mi_items"] = {item: ItemState() for item in self.items}
        self.init_participant_state()
        self._txn_ids = itertools.count(1)
        self._coteries = CompiledCoterieCache(
            coterie_rule, capacity=self.config.coterie_cache_capacity,
            metrics=self.metrics if self.metrics.enabled else None)
        # Suspicion is volatile state: wiped with the rest on crash.
        self.liveness = LivenessView(node.env, self.config.suspect_ttl)
        rpc.liveness_observer = self.liveness.observe
        node.add_crash_hook(self.liveness.clear)
        self.locks = {item: node.make_lock(f"item-{item}")
                      for item in self.items}
        node.add_recover_hook(self._on_recover)

        serve = rpc.serve
        serve("mi-write-request", self._on_write_request)
        serve("mi-read-request", self._on_read_request)
        serve("mi-epoch-check-request", self._on_epoch_check_request)
        serve("mi-op-release", self._on_op_release)
        self.serve_txn_endpoints()
        serve("mi-propagation-offer", self._on_propagation_offer)
        serve("mi-propagation-data", self._on_propagation_data)

    # -- state ----------------------------------------------------------------
    @property
    def name(self) -> str:
        """The owning node's name."""
        return self.node.name

    @property
    def epoch(self) -> tuple[tuple[str, ...], int]:
        """The node's (epoch_list, epoch_number) pair."""
        return self.node.stable["group_epoch"]

    def item_state(self, item: str) -> ItemState:
        """The durable state of one item on this node."""
        return self.node.stable["mi_items"][item]

    def set_item_state(self, item: str, state: ItemState) -> None:
        # replace the mapping wholesale: models one atomic stable write
        """Atomically replace one item's durable state."""
        states = dict(self.node.stable["mi_items"])
        states[item] = state
        self.node.stable["mi_items"] = states

    def new_txn_id(self) -> str:
        """A fresh transaction identifier for this coordinator."""
        return f"{self.name}:mtxn{next(self._txn_ids)}"

    def coterie_for(self, epoch_list):
        """The coterie over one epoch list, memoized with LRU eviction
        (the compiled evaluator is cached alongside; see planner docs)."""
        return self._coteries.coterie(epoch_list)

    def evaluator_for(self, epoch_list):
        """The compiled ``QuorumEvaluator`` for one epoch list."""
        return self._coteries.evaluator(epoch_list)

    def _trace(self, kind: str, **detail: Any) -> None:
        self.node.trace.record(self.env.now, kind, self.name, **detail)

    def _response(self, item: str, include_value: bool = False
                  ) -> StateResponse:
        elist, enumber = self.epoch
        state = self.item_state(item)
        return StateResponse(
            node=self.name, version=state.version, dversion=state.dversion,
            stale=state.stale, elist=tuple(elist), enumber=enumber,
            value=dict(state.value) if include_value else None)

    # -- participant hooks (locking and 2PC live in TwoPhaseParticipant) ------
    def _lock(self, resource):
        return self.locks[resource]

    def _resources_of(self, command) -> tuple[str, ...]:
        if isinstance(command, MiInstallEpoch):
            return tuple(sorted(command.items))
        return (command.item,)

    # -- poll handlers ---------------------------------------------------------
    def _on_write_request(self, src: str, args):
        item, op_id = args

        def handle():
            if op_id in self._op_locks:
                return self._response(item)
            ok = yield from self._acquire(item, op_id)
            if not ok:
                return BUSY
            self._op_locks[op_id] = (item,)
            self.node.spawn(self._lease_watchdog(op_id),
                            name=f"lease-{op_id}")
            return self._response(item)

        return handle()

    def _on_read_request(self, src: str, args):
        item, op_id = args

        def handle():
            ok = yield from self._acquire(item, op_id, shared=True)
            if not ok:
                return BUSY
            response = self._response(item, include_value=True)
            self.locks[item].release(op_id)
            return response

        return handle()

    def _on_epoch_check_request(self, src: str, args) -> dict:
        """One poll covers the whole group: the shared epoch plus every
        item's (version, dversion, stale)."""
        self.node.volatile["last_epoch_check_seen"] = self.env.now
        elist, enumber = self.epoch
        return {
            "node": self.name,
            "elist": tuple(elist),
            "enumber": enumber,
            "items": {item: (state.version, state.dversion, state.stale)
                      for item, state in
                      self.node.stable["mi_items"].items()},
        }

    def _on_op_release(self, src: str, op_id: str) -> str:
        if op_id in self._op_locks and op_id not in self._prepared_ops:
            self._release_op(op_id)
        return "ok"

    # -- 2PC command semantics (the participant protocol is the mixin's) ------
    def _snapshot_matches(self, expected: Optional[dict]) -> bool:
        if expected is None:
            return True
        _elist, enumber = self.epoch
        if expected.get("enumber", enumber) != enumber:
            return False
        for item, (version, dversion, stale) in expected.get("items",
                                                             {}).items():
            state = self.item_state(item)
            if (state.version, state.dversion, state.stale) != \
                    (version, dversion, stale):
                return False
        return True

    def _apply(self, command) -> None:
        capacity = self.config.update_log_capacity
        if isinstance(command, MiApplyWrite):
            self.set_item_state(command.item,
                                self.item_state(command.item).applied(
                                    command.updates, command.new_version,
                                    capacity))
        elif isinstance(command, MiMarkStale):
            self.set_item_state(command.item,
                                self.item_state(command.item).marked_stale(
                                    command.dversion))
        elif isinstance(command, MiInstallEpoch):
            self.node.stable["group_epoch"] = (command.epoch_list,
                                               command.epoch_number)
            for item, (good, stale, max_version) in command.items.items():
                if self.name in stale:
                    self.set_item_state(
                        item,
                        self.item_state(item).marked_stale(max_version))
        else:
            raise TypeError(f"unknown command {command!r}")

    def _post_commit(self, command) -> None:
        if isinstance(command, MiApplyWrite) and command.stale_nodes:
            self.node.spawn(
                self._propagate(command.item, command.stale_nodes),
                name=f"mi-prop-{command.item}")
        elif isinstance(command, MiInstallEpoch):
            for item, (good, stale, _mv) in command.items.items():
                if self.name in good and stale:
                    self.node.spawn(self._propagate(item, stale),
                                    name=f"mi-prop-{item}")

    # -- propagation -----------------------------------------------------------
    def _propagate(self, item: str, stale_nodes: Iterable[str]):
        from repro.sim.rpc import CALL_FAILED
        pending = {name: 0 for name in stale_nodes if name != self.name}
        while pending:
            state = self.item_state(item)
            if state.stale or not self.node.up:
                return
            for target in sorted(pending):
                offer = PropagationOffer(source=self.name,
                                         version=state.version)
                response = yield self.rpc.call(
                    target, "mi-propagation-offer", (item, offer),
                    timeout=self.config.rpc_timeout)
                if response is CALL_FAILED:
                    pending[target] += 1
                    if pending[target] >= 5:
                        del pending[target]
                    continue
                if response == "i-am-current":
                    del pending[target]
                    continue
                if (isinstance(response, tuple)
                        and response[0] == "propagation-permitted"):
                    done = yield from self._ship(item, target, response[1])
                    if done:
                        del pending[target]
            if pending:
                yield self.env.timeout(self.config.propagation_retry)

    def _ship(self, item: str, target: str, target_version: int):
        state = self.item_state(item)
        if state.stale:
            return False
        log = state.log_slice(target_version)
        if log is not None:
            data = PropagationData(source_version=state.version, log=log)
        else:
            data = PropagationData(source_version=state.version,
                                   snapshot=dict(state.value))
        result = yield self.rpc.call(target, "mi-propagation-data",
                                     (item, data),
                                     timeout=self.config.rpc_timeout)
        return result == "done"

    def _on_propagation_offer(self, src: str, args):
        item, offer = args

        def handle():
            recovering = self.node.volatile.setdefault("mi_recovering", {})
            if item in recovering:
                return "already-recovering"
            state = self.item_state(item)
            if not (state.stale and state.dversion <= offer.version):
                return "i-am-current"
            # unique per offer: see ReplicaServer._on_propagation_offer
            owner = f"mi-recover:{item}:{offer.source}@{self.env.now:.9f}"
            ok = yield from self._acquire(item, owner)
            if not ok:
                return "already-recovering"
            state = self.item_state(item)
            if not (state.stale and state.dversion <= offer.version):
                self.locks[item].release(owner)
                return "i-am-current"
            recovering[item] = owner
            self.node.spawn(self._permit_lease(item, owner),
                            name="mi-prop-lease")
            return ("propagation-permitted", state.version)

        return handle()

    def _permit_lease(self, item: str, owner: str):
        yield self.env.timeout(self.config.propagation_lease)
        recovering = self.node.volatile.setdefault("mi_recovering", {})
        if recovering.get(item) == owner:
            recovering.pop(item, None)
            self.locks[item].release(owner)

    def _on_propagation_data(self, src: str, args) -> str:
        item, data = args
        recovering = self.node.volatile.setdefault("mi_recovering", {})
        owner = recovering.get(item)
        if not owner:
            return "no-permit"
        state = self.item_state(item)
        try:
            if data.log is not None:
                value = dict(state.value)
                version = state.version
                for entry_version, updates in data.log:
                    if entry_version != version + 1:
                        return "gap"
                    value.update(updates)
                    version = entry_version
                log = state.update_log + tuple(
                    (v, dict(u)) for v, u in data.log)
                capacity = self.config.update_log_capacity
                if capacity and len(log) > capacity:
                    log = log[len(log) - capacity:]
                self.set_item_state(item, state.caught_up(value, version,
                                                          log))
            elif data.snapshot is not None:
                self.set_item_state(item, state.caught_up(
                    dict(data.snapshot), data.source_version, ()))
            else:
                return "empty"
        except ValueError:
            return "rejected"
        finally:
            recovering.pop(item, None)
            self.locks[item].release(owner)
        return "done"


class MultiItemCoordinator:
    """Per-item write/read coordinator over the shared group epoch."""

    def __init__(self, server: MultiReplicaServer,
                 histories: Mapping[str, History]):
        self.server = server
        self.histories = histories
        self._op_ids = itertools.count(1)

    def write(self, item: str, updates: dict):
        """Generator (node process): perform one write operation."""
        result = yield from self._with_retries(
            item, "write", lambda: self._write_once(item, updates),
            updates)
        return result

    def read(self, item: str):
        """Generator (node process): perform one read operation."""
        result = yield from self._with_retries(
            item, "read", lambda: self._read_once(item), None)
        return result

    def _with_retries(self, item: str, kind: str, factory, updates):
        server = self.server
        history = self.histories.get(item)
        record = None
        if history is not None:
            record = history.start(kind, f"{server.name}:{kind[0]}?",
                                   server.name, server.env.now,
                                   updates=updates)
        config = server.config
        result = yield from factory()
        for attempt in range(config.op_retries):
            if result.ok or result.case != "no-quorum":
                break
            jitter = 0.5 + (_stable_hash(f"{result.op_id}|{attempt}")
                            % 1000) / 1000.0
            yield server.env.timeout(
                config.retry_backoff * (2 ** attempt) * jitter)
            result = yield from factory()
        if record is not None:
            record.op_id = result.op_id or record.op_id
            history.finish(record, server.env.now, result)
        return result

    def _plan_quorum(self, coterie, kind: str, item: str, seq: int) -> list:
        """Liveness-aware quorum pick, salted per (coordinator, item) so
        different items spread load over different quorums (the blind
        draw when the planner is disabled or nothing is suspected)."""
        server = self.server
        salt = f"{server.name}:{item}"
        if not server.config.quorum_planner:
            return (coterie.write_quorum(salt=salt, attempt=seq)
                    if kind == "write"
                    else coterie.read_quorum(salt=salt, attempt=seq))
        return plan_quorum(coterie, kind, avoid=server.liveness.suspects(),
                           salt=salt, attempt=seq)

    def _write_once(self, item: str, updates: dict):
        server = self.server
        seq = next(self._op_ids)
        op_id = f"{server.name}:{item}:w{seq}"
        elist, _enumber = server.epoch
        coterie = server.coterie_for(elist)
        quorum = self._plan_quorum(coterie, "write", item, seq)
        poll_timeout = server.config.lock_wait + server.config.rpc_timeout
        responses = yield gather(
            server.rpc,
            {dst: ("mi-write-request", (item, op_id)) for dst in quorum},
            timeout=poll_timeout)
        polled = set(quorum)
        result = yield from self._try_write(item, responses, updates,
                                            op_id, "fast")
        if result is None:
            responses = yield gather(
                server.rpc,
                {dst: ("mi-write-request", (item, op_id))
                 for dst in server.all_nodes},
                timeout=poll_timeout)
            polled |= set(server.all_nodes)
            result = yield from self._try_write(item, responses, updates,
                                                op_id, "heavy")
        if result is None:
            # sorted: `polled` is a set, and message *send order* must not
            # depend on the process hash seed (see coordinator._release)
            yield gather(server.rpc,
                         {dst: ("mi-op-release", op_id)
                          for dst in sorted(polled)},
                         timeout=server.config.rpc_timeout)
            result = WriteResult(False, case="no-quorum", op_id=op_id)
        return result

    def _try_write(self, item, responses, updates, op_id, case):
        server = self.server
        states = _state_responses(responses)
        decision = _decide(server.coterie_for, states, kind="write")
        if decision is None:
            return None
        max_version, good, stale = decision
        good_nodes, stale_nodes = tuple(sorted(good)), tuple(sorted(stale))
        commands: dict = {}
        for node in good_nodes:
            commands[node] = MiApplyWrite(item, dict(updates),
                                          max_version + 1, stale_nodes)
        for node in stale_nodes:
            commands[node] = MiMarkStale(item, max_version + 1)
        committed = yield from run_transaction(server, commands, op_id)
        if not committed:
            return None
        return WriteResult(True, version=max_version + 1, good=good_nodes,
                           stale=stale_nodes, case=case, op_id=op_id)

    def _read_once(self, item: str):
        server = self.server
        seq = next(self._op_ids)
        op_id = f"{server.name}:{item}:r{seq}"
        elist, _enumber = server.epoch
        coterie = server.coterie_for(elist)
        quorum = self._plan_quorum(coterie, "read", item, seq)
        poll_timeout = server.config.lock_wait + server.config.rpc_timeout
        responses = yield gather(
            server.rpc,
            {dst: ("mi-read-request", (item, op_id)) for dst in quorum},
            timeout=poll_timeout)
        result = self._try_read(responses, op_id, "fast")
        if result is None:
            responses = yield gather(
                server.rpc,
                {dst: ("mi-read-request", (item, op_id))
                 for dst in server.all_nodes},
                timeout=poll_timeout)
            result = self._try_read(responses, op_id, "heavy")
        return result if result is not None else \
            ReadResult(False, case="no-quorum", op_id=op_id)

    def _try_read(self, responses, op_id, case):
        states = _state_responses(responses)
        decision = _decide(self.server.coterie_for, states, kind="read")
        if decision is None:
            return None
        max_version, good, _stale = decision
        winner = states[sorted(good)[0]]
        return ReadResult(True, value=winner.value, version=max_version,
                          case=case, op_id=op_id)


def check_group_epoch(server: MultiReplicaServer):
    """Generator: one group epoch check covering every item (one poll per
    node, one install transaction for the whole group)."""
    responses = yield gather(
        server.rpc,
        {dst: ("mi-epoch-check-request", None) for dst in server.all_nodes},
        timeout=server.config.rpc_timeout)
    states = {name: resp for name, resp in responses.items()
              if isinstance(resp, dict)}
    if not states:
        return EpochCheckResult(False, reason="no-quorum")
    newest = max(states.values(), key=lambda r: r["enumber"])
    coterie = server.coterie_for(newest["elist"])
    if not coterie.is_write_quorum(set(states)):
        return EpochCheckResult(False, reason="no-quorum")
    new_epoch = tuple(sorted(states))
    if set(new_epoch) == set(newest["elist"]):
        return EpochCheckResult(True, changed=False,
                                epoch_list=tuple(newest["elist"]),
                                epoch_number=newest["enumber"])
    per_item: dict[str, tuple] = {}
    for item in server.items:
        non_stale = [(name, resp["items"][item]) for name, resp in
                     states.items() if not resp["items"][item][2]]
        stale = [(name, resp["items"][item]) for name, resp in
                 states.items() if resp["items"][item][2]]
        if not non_stale:
            return EpochCheckResult(False, reason="no-current-replica")
        max_version = max(entry[1][0] for entry in non_stale)
        max_dversion = max((entry[1][1] for entry in stale), default=-1)
        if max_dversion > max_version:
            return EpochCheckResult(False, reason="no-current-replica")
        good = tuple(sorted(name for name, (v, _d, _s) in non_stale
                            if v == max_version))
        stale_members = tuple(sorted(set(new_epoch) - set(good)))
        per_item[item] = (good, stale_members, max_version)

    command = MiInstallEpoch(new_epoch, newest["enumber"] + 1, per_item)
    op_id = f"{server.name}:mi-epoch{newest['enumber'] + 1}@" \
            f"{server.env.now:.6f}"
    expected = {name: {"enumber": states[name]["enumber"],
                       "items": states[name]["items"]}
                for name in new_epoch}
    committed = yield from run_transaction(
        server, {name: command for name in new_epoch}, op_id,
        expected=expected)
    if not committed:
        return EpochCheckResult(False, reason="install-aborted")
    all_stale = tuple(sorted({name for good, stale, _mv in per_item.values()
                              for name in stale}))
    return EpochCheckResult(True, changed=True, epoch_list=new_epoch,
                            epoch_number=newest["enumber"] + 1,
                            stale=all_stale)


class MultiItemStore:
    """Facade: K data items on one node group with a shared epoch."""

    def __init__(self, node_names: Sequence[str], items: Sequence[str],
                 seed: int = 0, coterie_rule: CoterieRule = GridCoterie,
                 config: Optional[ProtocolConfig] = None,
                 latency: tuple[float, float] = (0.001, 0.01),
                 trace_enabled: bool = False,
                 metrics: bool | MetricsRegistry = True):
        import random
        names = tuple(sorted(node_names))
        self.items = tuple(sorted(items))
        self.env = Environment()
        if isinstance(metrics, (MetricsRegistry, NullRegistry)):
            self.metrics = metrics
        elif metrics:
            self.metrics = MetricsRegistry(clock=lambda: self.env.now)
        else:
            self.metrics = NULL_REGISTRY
        self.trace = TraceLog(enabled=trace_enabled)
        self.network = Network(
            self.env, latency=LatencyModel(latency[0], latency[1],
                                           rng=random.Random(seed + 1)),
            trace=self.trace)
        self.config = (config or ProtocolConfig()).validate()
        self.histories = {item: History() for item in self.items}
        self.nodes: dict[str, Node] = {}
        self.servers: dict[str, MultiReplicaServer] = {}
        self.coordinators: dict[str, MultiItemCoordinator] = {}
        for name in names:
            node = Node(self.env, self.network, name)
            rpc = RpcLayer(node, default_timeout=self.config.rpc_timeout,
                           metrics=self.metrics)
            server = MultiReplicaServer(node, rpc, coterie_rule, names,
                                        self.items, config=self.config,
                                        metrics=self.metrics)
            self.nodes[name] = node
            self.servers[name] = server
            self.coordinators[name] = MultiItemCoordinator(server,
                                                           self.histories)

    @classmethod
    def create(cls, n_replicas: int, n_items: int,
               **kwargs) -> "MultiItemStore":
        """Build a store over nodes named ``n00 .. n<N-1>``."""
        return cls([f"n{i:02d}" for i in range(n_replicas)],
                   [f"item{k}" for k in range(n_items)], **kwargs)

    @property
    def node_names(self) -> tuple[str, ...]:
        """All node names, sorted."""
        return tuple(sorted(self.nodes))

    def _via(self, via: Optional[str]) -> str:
        if via is not None:
            return via
        up = sorted(n for n, node in self.nodes.items() if node.up)
        if not up:
            raise RuntimeError("no node up")
        return up[0]

    def join(self, *processes: Process, timeout: float = 120.0) -> list:
        """Run the simulation until the given processes complete (and
        not a queue entry further); ``SimulationStalled`` if they
        cannot, or have not *timeout* simulated seconds from now."""
        self.env.run_until(processes, deadline=self.env.now + timeout)
        return [p.value for p in processes]

    def write(self, item: str, updates: dict,
              via: Optional[str] = None) -> WriteResult:
        """Synchronous facade: run one write on *item* to completion."""
        name = self._via(via)
        return self.join(self.nodes[name].spawn(
            self.coordinators[name].write(item, updates)))[0]

    def read(self, item: str, via: Optional[str] = None) -> ReadResult:
        """Synchronous facade: run one read of *item* to completion."""
        name = self._via(via)
        return self.join(self.nodes[name].spawn(
            self.coordinators[name].read(item)))[0]

    def check_epoch(self, via: Optional[str] = None,
                    retries: int = 3) -> EpochCheckResult:
        """Run one epoch-checking operation (with install retries)."""
        name = self._via(via)
        result = self.join(self.nodes[name].spawn(
            check_group_epoch(self.servers[name])))[0]
        while not result.ok and result.reason == "install-aborted" \
                and retries:
            retries -= 1
            self.advance(2 * self.config.rpc_timeout)
            result = self.join(self.nodes[name].spawn(
                check_group_epoch(self.servers[name])))[0]
        return result

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
        """Advance until propagation quiesces or the round budget ends."""
        for _ in range(rounds):
            epoch, _number = self.current_epoch()
            unhealed = [
                (name, item) for name in epoch for item in self.items
                if self.nodes[name].up
                and self.servers[name].item_state(item).stale]
            if not unhealed:
                return
            self.advance(duration)

    def current_epoch(self) -> tuple[tuple[str, ...], int]:
        """The newest (epoch_list, epoch_number) held by any replica."""
        newest = max((server.epoch for server in self.servers.values()),
                     key=lambda pair: pair[1])
        return tuple(newest[0]), newest[1]

    def metrics_snapshot(self) -> dict:
        """Export the cluster's metrics (see :mod:`repro.obs`)."""
        return self.metrics.snapshot()

    def verify(self) -> dict:
        """Assert one-copy serializability of the recorded history."""
        totals = {"writes": 0, "reads": 0, "failed": 0}
        for item, history in self.histories.items():
            stats = check_one_copy_serializability(history)
            for key in totals:
                totals[key] += stats[key]
        # epoch uniqueness across the group
        seen: dict[int, tuple] = {}
        for server in self.servers.values():
            elist, enumber = server.epoch
            if enumber in seen and seen[enumber] != tuple(elist):
                raise AssertionError(
                    f"group epoch {enumber} has two lists")
            seen[enumber] = tuple(elist)
        return totals
