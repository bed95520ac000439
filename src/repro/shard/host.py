"""Shard-local replica logic: one server hosting many shards.

A :class:`ShardHost` is the keyed counterpart of the single-item
:class:`~repro.core.replica.ReplicaServer`: the Section 4 replica run
per key, with one epoch per *shard* -- the paper's Section 2 group of
data items "replicated on the same set of nodes", whose "epoch
management can be done per this whole group".  A one-shard store is
exactly that group epoch.  The rest is all about scale:

* **per-shard epochs** -- ``node.stable["sh_epochs"]`` maps shard ->
  (elist, enumber).  A shard with no entry is implicitly at epoch 0,
  whose list every node derives from the shard map
  (:meth:`~repro.shard.map.ShardMap.base_replicas`), so hosting a shard
  costs nothing until something actually changes.
* **lazy item state** -- ``node.stable["sh_items"]`` maps shard ->
  {key -> ItemState}, materialized only on the first *write* (or stale
  marking).  Reads of untouched keys answer the default state without
  allocating, so resident state is O(hosted shards + written keys), not
  O(keyspace).
* **in-place stable writes** -- one key's state update is a single dict
  assignment (one atomic stable write), not a wholesale copy of the
  node's item table; per-operation cost stays flat as the keyspace
  grows.
* **pooled locks** -- locks are created per touched ``(shard, key)``
  and garbage-collected the moment they go idle (the
  ``_after_release`` hook of the 2PC mixin), so a million-key node
  holds locks proportional to *concurrent* operations only.

Lock custody and the presumed-abort 2PC participant come from
:class:`~repro.core.participant.TwoPhaseParticipant`, and every
propagation role -- courier, permit target, re-seed -- from
:class:`~repro.core.propagation.Propagation`, the same code the
single-item replica runs over its one resource; the compiled
coterie cache is shared across every shard the node hosts and bounded
by ``config.coterie_cache_capacity``.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, Sequence

from repro.core.config import ProtocolConfig
from repro.core.liveness import LivenessView
from repro.core.messages import BUSY, StateResponse
from repro.core.participant import TwoPhaseParticipant
from repro.core.propagation import Propagation, propagate
from repro.core.state import ItemState
from repro.coteries.base import CoterieRule
from repro.coteries.majority import MajorityCoterie
from repro.coteries.planner import CompiledCoterieCache
from repro.obs.metrics import NULL_REGISTRY
from repro.shard.map import ShardMap
from repro.shard.messages import ShApplyWrite, ShInstallEpoch, ShMarkStale
from repro.sim.engine import Environment
from repro.sim.node import Node
from repro.sim.rpc import RpcLayer

#: The state of a key nobody has written: version 0, current.  ItemState
#: is frozen, so one shared instance serves every unmaterialized key.
DEFAULT_ITEM = ItemState()


class ShardHost(TwoPhaseParticipant, Propagation):
    """Replica endpoint for every shard placed on one node."""

    def __init__(self, node: Node, rpc: RpcLayer, shard_map: ShardMap,
                 all_nodes: Sequence[str],
                 coterie_rule: CoterieRule = MajorityCoterie,
                 config: Optional[ProtocolConfig] = None, metrics=None):
        self.node = node
        self.rpc = rpc
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.env: Environment = node.env
        self.map = shard_map
        self.all_nodes = tuple(sorted(all_nodes))
        self.coterie_rule = coterie_rule
        self.config = (config or ProtocolConfig()).validate()
        node.stable["sh_epochs"] = {}
        node.stable["sh_items"] = {}
        # shard -> count of stale keys; the "dirty" bit sweep triage uses
        node.stable["sh_stale"] = {}
        self._txn_ids = itertools.count(1)
        self._coteries = CompiledCoterieCache(
            coterie_rule, capacity=self.config.coterie_cache_capacity,
            metrics=self.metrics if self.metrics.enabled else None)
        self.liveness = LivenessView(node.env, self.config.suspect_ttl)
        rpc.liveness_observer = self.liveness.observe
        if self.config.adaptive_timeouts or self.config.degraded_reads:
            # graded suspicion, as in ReplicaServer: measured round trips
            # feed the latency scores the planner ranks candidates by
            rpc.latency_observer = self.liveness.observe_latency
        node.add_crash_hook(self.liveness.clear)
        self._lock_table: dict[tuple[int, str], Any] = {}
        node.add_crash_hook(self._reset_locks)
        self.init_participant()

        serve = rpc.serve
        serve("sh-write-request", self._on_write_request)
        serve("sh-read-request", self._on_read_request)
        serve("sh-epoch-check-request", self._on_epoch_check_request)
        serve("sh-sweep-request", self._on_sweep_request)
        serve("sh-op-release", self._on_op_release)
        self.init_propagation()

    # -- state ----------------------------------------------------------------
    def epoch_of(self, shard: int) -> tuple[tuple[str, ...], int]:
        """This node's (elist, enumber) for one shard; shards that never
        transitioned stay at the map-derived epoch 0 without storage."""
        entry = self.node.stable["sh_epochs"].get(shard)
        if entry is None:
            return (self.map.base_replicas(shard), 0)
        return entry

    def item_state(self, shard: int, key: str) -> ItemState:
        """One key's durable state; never materializes an entry."""
        items = self.node.stable["sh_items"].get(shard)
        if items is None:
            return DEFAULT_ITEM
        return items.get(key, DEFAULT_ITEM)

    def set_item_state(self, shard: int, key: str, state: ItemState) -> None:
        """One atomic stable write of one key's state (in place -- the
        per-key granularity is what keeps write cost flat at scale)."""
        items = self.node.stable["sh_items"].setdefault(shard, {})
        old = items.get(key, DEFAULT_ITEM)
        if old.stale != state.stale:
            counts = self.node.stable["sh_stale"]
            if state.stale:
                counts[shard] = counts.get(shard, 0) + 1
            else:
                remaining = counts.get(shard, 0) - 1
                if remaining > 0:
                    counts[shard] = remaining
                else:
                    counts.pop(shard, None)
        items[key] = state

    def new_txn_id(self) -> str:
        """A fresh transaction identifier for this coordinator."""
        return f"{self.name}:stxn{next(self._txn_ids)}"

    def coterie_for(self, epoch_list):
        """The coterie over one epoch list (shared bounded LRU cache)."""
        return self._coteries.coterie(epoch_list)

    def evaluator_for(self, epoch_list):
        """The compiled ``QuorumEvaluator`` for one epoch list."""
        return self._coteries.evaluator(epoch_list)

    def _response(self, shard: int, key: str,
                  include_value: bool = False) -> StateResponse:
        elist, enumber = self.epoch_of(shard)
        state = self.item_state(shard, key)
        return StateResponse(
            node=self.name, version=state.version, dversion=state.dversion,
            stale=state.stale, elist=tuple(elist), enumber=enumber,
            value=dict(state.value) if include_value else None)

    # -- participant hooks (locking and 2PC live in TwoPhaseParticipant) ------
    def _lock(self, resource):
        lock = self._lock_table.get(resource)
        if lock is None:
            shard, key = resource
            lock = self.env.lock(f"{self.name}.sh{shard}/{key}")
            self._lock_table[resource] = lock
        return lock

    def _after_release(self, resource) -> None:
        lock = self._lock_table.get(resource)
        if lock is not None and lock.idle:
            del self._lock_table[resource]

    def _reset_locks(self) -> None:
        # crash hook: pooled locks are volatile, like node.make_lock ones
        table, self._lock_table = self._lock_table, {}
        for lock in table.values():
            lock.reset()

    @property
    def live_locks(self) -> int:
        """Resident pooled-lock count (bounded-memory assertions)."""
        return len(self._lock_table)

    def _resources_of(self, command) -> tuple[tuple[int, str], ...]:
        if isinstance(command, ShInstallEpoch):
            return tuple((command.shard, key)
                         for key in sorted(command.keys))
        return ((command.shard, command.key),)

    # -- poll handlers ---------------------------------------------------------
    def _on_write_request(self, src: str, args):
        shard, key, op_id = args

        def handle():
            held = yield from self._take_custody((shard, key), op_id)
            return self._response(shard, key) if held else BUSY

        return handle()

    def _on_read_request(self, src: str, args):
        shard, key, op_id = args

        def handle():
            ok = yield from self._acquire((shard, key), op_id, shared=True)
            if not ok:
                return BUSY
            response = self._response(shard, key, include_value=True)
            self._release((shard, key), op_id)
            return response

        return handle()

    def _on_epoch_check_request(self, src: str, shard: int) -> dict:
        """The per-shard detailed poll: epoch plus every materialized
        key's (version, dversion, stale).  Only the repair path pays
        this; healthy shards are triaged from the batched sweep alone."""
        elist, enumber = self.epoch_of(shard)
        items = self.node.stable["sh_items"].get(shard) or {}
        return {
            "node": self.name,
            "shard": shard,
            "elist": tuple(elist),
            "enumber": enumber,
            "keys": {key: (state.version, state.dversion, state.stale)
                     for key, state in items.items()},
        }

    def _on_sweep_request(self, src: str, args) -> dict:
        """One batched answer covering every shard this node hosts (or
        still stores state for): shard -> (elist, enumber, dirty).  This
        is the message that makes epoch checking scale with *nodes*:
        the sweep costs one round trip per node however many thousand
        shards each answer describes."""
        self.node.volatile["last_epoch_check_seen"] = self.env.now
        stale_counts = self.node.stable["sh_stale"]
        epochs = self.node.stable["sh_epochs"]
        report: dict[int, tuple] = {}
        for shard in self.map.hosted(self.name):
            elist, enumber = self.epoch_of(shard)
            report[shard] = (tuple(elist), enumber, shard in stale_counts)
        for shard in sorted(epochs):
            if shard not in report:
                elist, enumber = epochs[shard]
                report[shard] = (tuple(elist), enumber,
                                 shard in stale_counts)
        return report

    # -- 2PC command semantics (the participant protocol is the mixin's) ------
    def _snapshot_matches(self, expected: Optional[dict]) -> bool:
        if expected is None:
            return True
        shard = expected["shard"]
        _elist, enumber = self.epoch_of(shard)
        if expected.get("enumber", enumber) != enumber:
            return False
        for key, (version, dversion, stale) in expected.get("keys",
                                                            {}).items():
            state = self.item_state(shard, key)
            if (state.version, state.dversion, state.stale) != \
                    (version, dversion, stale):
                return False
        return True

    def _apply(self, prepare) -> None:
        command = prepare.command
        capacity = self.config.update_log_capacity
        if isinstance(command, ShApplyWrite):
            self.set_item_state(
                command.shard, command.key,
                self.item_state(command.shard, command.key).applied(
                    command.updates, command.new_version, capacity))
        elif isinstance(command, ShMarkStale):
            self.set_item_state(
                command.shard, command.key,
                self.item_state(command.shard,
                                command.key).marked_stale(command.dversion))
        elif isinstance(command, ShInstallEpoch):
            self.node.stable["sh_epochs"][command.shard] = (
                command.epoch_list, command.epoch_number)
            for key in sorted(command.keys):
                _good, stale, max_version = command.keys[key]
                if self.name in stale:
                    self.set_item_state(
                        command.shard, key,
                        self.item_state(command.shard,
                                        key).marked_stale(max_version))
        else:
            raise TypeError(f"unknown command {command!r}")

    def _post_commit(self, command) -> None:
        if isinstance(command, ShApplyWrite):
            self._start_propagation((command.shard, command.key),
                                    command.stale_nodes)
        elif isinstance(command, ShInstallEpoch):
            for key in sorted(command.keys):
                good, stale, _mv = command.keys[key]
                if self.name in good:
                    self._start_propagation((command.shard, key), stale)

    # -- propagation hooks (the protocol lives in core/propagation.py) -------
    rpc_prefix = "sh-"

    #: The one courier, under the name ``bench/spans.py`` wraps.
    _propagate = propagate

    def _read_item(self, resource) -> ItemState:
        return self.item_state(*resource)

    def _write_item(self, resource, state: ItemState) -> None:
        self.set_item_state(*resource, state)

    def _propagation_args(self, resource, payload) -> tuple:
        return (*resource, payload)

    def _propagation_item(self, args) -> tuple:
        shard, key, payload = args
        return (shard, key), payload
