"""The replica server: every RPC handler a replica node runs.

One :class:`ReplicaServer` is attached to each :class:`~repro.sim.node.Node`
that stores a copy of the data item.  It owns:

* the durable :class:`~repro.core.state.ReplicaState` (in stable storage);
* the replica lock (shared for reads and propagation sources, exclusive
  for writes, stale-marking, epoch installation, and propagation targets);
* the participant side of the presumed-abort two-phase commit, including
  crash recovery of prepared transactions and cooperative termination;
* the propagation roles (``Propagate`` / ``PropagateResponse`` in the
  appendix), through :mod:`repro.core.propagation`'s hooks.

Deadlock handling (the paper defers to Bernstein et al.): a replica that
cannot acquire its lock within ``config.lock_wait`` answers ``BUSY``; the
coordinator treats BUSY like a failed call, so conflicting coordinators
time out and retry rather than deadlock.  A lock granted to a poll that
never progresses to 2PC (coordinator crashed) is reclaimed after
``config.lock_lease``.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Optional

from repro.coteries.base import CoterieRule
from repro.coteries.optimizer import Strategy, StrategyCache
from repro.coteries.planner import CompiledCoterieCache
from repro.core.config import ProtocolConfig
from repro.core.liveness import LivenessView
from repro.core.messages import (
    BUSY,
    ApplyWrite,
    Busy,
    InstallEpoch,
    MarkStale,
    Prepare,
    ReplaceValue,
    StateResponse,
)
from repro.core.participant import TwoPhaseParticipant
from repro.core.propagation import Propagation
from repro.core.state import ReplicaState, initial_state
from repro.obs.metrics import NULL_REGISTRY
from repro.sim.node import Node
from repro.sim.rpc import RpcLayer


#: The single-item replica's one lock resource (its one lock).
REPLICA = "replica"


class ReplicaServer(TwoPhaseParticipant, Propagation):
    """Protocol endpoint for one replica of the data item.

    Lock custody and the presumed-abort 2PC participant come from
    :class:`~repro.core.participant.TwoPhaseParticipant`, every
    propagation role from :class:`~repro.core.propagation.Propagation`;
    this class supplies the replica state, the poll handlers and the
    command semantics.
    """

    def __init__(self, node: Node, rpc: RpcLayer,
                 coterie_rule: CoterieRule,
                 all_nodes: tuple[str, ...],
                 config: Optional[ProtocolConfig] = None,
                 initial_value: Optional[dict] = None,
                 metrics=None, seed: int = 0):
        self.node = node
        self.rpc = rpc
        self.env = node.env
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.coterie_rule = coterie_rule
        self.all_nodes = tuple(sorted(all_nodes))
        self.config = (config or ProtocolConfig()).validate()
        # The cluster root seed: strategy sampling derives its streams
        # from it (sim/seeding), so planning replays bit-identically.
        self.seed = seed
        self._strategies: Optional[StrategyCache] = None
        if self.config.quorum_strategy:
            self._strategies = StrategyCache(seed=seed,
                                             metrics=self.metrics)
        self.lock = node.make_lock(REPLICA)
        node.stable["replica"] = initial_state(self.all_nodes, initial_value)
        node.stable.setdefault("last_good", None)    # (version, good tuple)
        self._txn_ids = itertools.count(1)
        self._coteries = CompiledCoterieCache(coterie_rule)
        # Suspicion is volatile state: wiped with the rest on crash.
        self.liveness = LivenessView(node.env, self.config.suspect_ttl)
        rpc.liveness_observer = self.liveness.observe
        if self.config.adaptive_timeouts or self.config.degraded_reads:
            # graded suspicion: measured round trips feed the per-peer
            # latency scores the planner ranks candidates by
            rpc.latency_observer = self.liveness.observe_latency
        node.add_crash_hook(self.liveness.clear)
        self.init_participant()
        # Observability (docs/OBSERVABILITY.md): staleness accounting and
        # the epoch-checker health watchdog, pre-bound for the hot paths.
        # _stale_since lives on the server (not volatile) on purpose: a
        # crash does not end the staleness episode, so the heal lag keeps
        # accruing across it.
        self._stale_since: Optional[float] = None
        self._m_stale_marks = self.metrics.counter("stale_marks",
                                                   node=self.name)
        self._m_heal_lag = self.metrics.histogram("stale_heal_lag")
        self._m_last_check = self.metrics.gauge("epoch_last_check_seen",
                                                node=self.name)
        self._m_load_shed = self.metrics.counter("load_shed", node=self.name)
        self._m_queue_depth = self.metrics.gauge("replica_queue_depth",
                                                 node=self.name)

        serve = rpc.serve
        serve("write-request", self._on_write_request)
        serve("read-request", self._on_read_request)
        serve("epoch-check-request", self._on_epoch_check_request)
        serve("op-release", self._on_op_release)
        self.init_propagation()

    # -- state access ----------------------------------------------------------
    @property
    def state(self) -> ReplicaState:
        """The durable replica state (stable storage)."""
        return self.node.stable["replica"]

    @state.setter
    def state(self, new_state: ReplicaState) -> None:
        # Replacing the whole object models an atomic stable-storage write.
        """The durable replica state (stable storage)."""
        self.node.stable["replica"] = new_state

    def _response(self, include_value: bool = False) -> StateResponse:
        response = self.state.response(self.name, include_value=include_value)
        return dataclasses.replace(
            response,
            last_good=self.node.stable["last_good"],
            meta=self.node.stable.get("proto_meta"))

    def new_txn_id(self) -> str:
        """A fresh transaction identifier for this coordinator."""
        return f"{self.name}:txn{next(self._txn_ids)}"

    def strategy_for(self, coterie, read_fraction: float,
                     allow_read_one: bool = True,
                     force_read_one: bool = False) -> Optional[Strategy]:
        """The optimized quorum strategy for one coterie and read mix,
        or None when ``config.quorum_strategy`` is off.  Cached per
        (epoch list, mix bucket); see
        :class:`repro.coteries.optimizer.StrategyCache`."""
        if self._strategies is None:
            return None
        return self._strategies.strategy_for(
            coterie, read_fraction,
            scores=self.liveness.latency_scores() or None,
            allow_read_one=allow_read_one,
            force_read_one=force_read_one)

    def coterie_for(self, epoch_list) -> Any:
        """The coterie over one epoch list, memoized with LRU eviction.

        Coterie rules are deterministic functions of the ordered list, so
        caching is safe; it saves rebuilding the grid on every operation.
        The cache keeps each coterie's compiled evaluator alongside it
        (``evaluator_for``), so the quorum planner never recompiles
        per op either.
        """
        return self._coteries.coterie(epoch_list)

    def evaluator_for(self, epoch_list) -> Any:
        """The compiled ``QuorumEvaluator`` for one epoch list (cached
        next to the coterie; its tracked state is scratch space)."""
        return self._coteries.evaluator(epoch_list)

    # -- participant hooks (locking and 2PC live in TwoPhaseParticipant) --------
    def _lock(self, resource):
        return self.lock

    def _resources_of(self, command) -> tuple[str, ...]:
        return (REPLICA,)

    # -- overload shedding ------------------------------------------------------
    def _shed(self):
        """The ``Busy(retry_after)`` answer when the poll queue is over
        the shed limit, else None.  Checked *before* a poll joins the
        lock queue, so an overloaded replica answers in one network hop
        instead of making every coordinator wait out lock_wait.  The
        retry_after hint grows with the overload (queue depth relative
        to the limit), clamped to the configured bounds -- deterministic,
        so seeded replays are unaffected."""
        limit = self.config.busy_queue_limit
        if not limit:
            return None
        depth = self.node.volatile.get("inflight_polls", 0)
        if depth < limit:
            return None
        retry = self.config.clamp_retry_after(
            self.config.lock_wait * depth / limit)
        self._m_load_shed.inc()
        self._trace("load-shed", depth=depth, retry_after=retry)
        return Busy(retry_after=retry)

    def _poll_started(self) -> None:
        depth = self.node.volatile.get("inflight_polls", 0) + 1
        self.node.volatile["inflight_polls"] = depth
        self._m_queue_depth.set(depth)

    def _poll_finished(self) -> None:
        depth = max(0, self.node.volatile.get("inflight_polls", 0) - 1)
        self.node.volatile["inflight_polls"] = depth
        self._m_queue_depth.set(depth)

    # -- poll handlers ------------------------------------------------------------
    def _on_write_request(self, src: str, args):
        op_id = args
        shed = self._shed()
        if shed is not None:
            return shed
        def handle():
            # a re-poll or duplicate is answered at once: only a poll that
            # queues for the lock counts toward the shed limit's depth
            held = self._custody_settled(op_id)
            if held is None:
                self._poll_started()
                try:
                    held = yield from self._take_custody(REPLICA, op_id)
                finally:
                    self._poll_finished()
            return self._response() if held else BUSY
        return handle()

    def _on_read_request(self, src: str, args):
        op_id = args
        shed = self._shed()
        if shed is not None:
            return shed
        def handle():
            self._poll_started()
            try:
                ok = yield from self._acquire(REPLICA, op_id, shared=True)
            finally:
                self._poll_finished()
            if not ok:
                return BUSY
            response = self._response(include_value=True)
            self.lock.release(op_id)
            return response
        return handle()

    def _on_epoch_check_request(self, src: str, args) -> StateResponse:
        # No lock: epoch checking must not interfere with reads and writes
        # in the absence of failures (paper Section 4.3).  The subsequent
        # install transaction locks and re-validates this snapshot.
        self.node.volatile["last_epoch_check_seen"] = self.env.now
        self._m_last_check.set(self.env.now)
        return self._response()

    # -- 2PC command semantics (the participant protocol is the mixin's) ------
    def _snapshot_matches(self, expected: Optional[dict]) -> bool:
        if expected is None:
            return True
        state = self.state
        actual = {"version": state.version, "dversion": state.dversion,
                  "stale": state.stale, "enumber": state.epoch_number}
        return all(actual.get(key) == value for key, value in expected.items())

    def _mark_stale_metrics(self) -> None:
        """Open a staleness episode (first mark only; re-marks that bump
        the desired version extend the same episode)."""
        self._m_stale_marks.inc()
        if self._stale_since is None:
            self._stale_since = self.env.now

    def _apply(self, prepare: Prepare) -> None:
        command = prepare.command
        if isinstance(command, ApplyWrite):
            self.state = self.state.applied(command.updates,
                                            command.new_version,
                                            self.config.update_log_capacity)
            if command.good_nodes:
                self.node.stable["last_good"] = (command.new_version,
                                                 command.good_nodes)
        elif isinstance(command, MarkStale):
            self.state = self.state.marked_stale(command.dversion)
            self._mark_stale_metrics()
            if command.good_nodes:
                self.node.stable["last_good"] = (command.dversion,
                                                 command.good_nodes)
        elif isinstance(command, ReplaceValue):
            self.state = self.state.replaced(command.value,
                                             command.new_version)
            # replaced() resets the update log (old partial updates are
            # meaningless after a total overwrite), so total-write
            # protocols keep a capped (version, value) journal of their
            # own -- the durable evidence adopt_durable_outcomes uses to
            # resolve writes whose coordinator died before reporting
            journal = self.node.stable.get("replace_journal", ())
            journal += ((command.new_version, dict(command.value)),)
            capacity = self.config.update_log_capacity
            if capacity and len(journal) > capacity:
                journal = journal[-capacity:]
            self.node.stable["replace_journal"] = journal
            if command.meta is not None:
                self.node.stable["proto_meta"] = command.meta
        elif isinstance(command, InstallEpoch):
            state = self.state.with_epoch(command.epoch_list,
                                          command.epoch_number)
            if self.name in command.stale:
                state = state.marked_stale(command.max_version)
                self._mark_stale_metrics()
            self.state = state
            # durable epoch lineage: lets verification re-check Lemma 1's
            # precondition (each epoch contains a write quorum of its
            # predecessor) after the fact
            history = dict(self.node.stable.get("epoch_history", {}))
            history[command.epoch_number] = tuple(command.epoch_list)
            self.node.stable["epoch_history"] = history
        else:
            raise TypeError(f"unknown command {command!r}")
        if isinstance(command, (ApplyWrite, ReplaceValue)):
            # value-changing applies get their own record: the sanitizer's
            # happens-before tracker keys on (keys, version) to detect
            # conflicting applies no message chain orders
            keys = (tuple(sorted(command.updates))
                    if isinstance(command, ApplyWrite)
                    else tuple(sorted(command.value)))
            self._trace("state-apply", txn_id=prepare.txn_id,
                        op_id=prepare.op_id, keys=keys,
                        version=command.new_version)

    def _post_commit(self, command) -> None:
        if isinstance(command, ApplyWrite):
            self._start_propagation(REPLICA, command.stale_nodes)
        elif isinstance(command, InstallEpoch) and self.name in command.good:
            self._start_propagation(REPLICA, command.stale)

    # -- propagation hooks (the protocol lives in core/propagation.py) ---------
    def _read_item(self, resource) -> ReplicaState:
        return self.state

    def _write_item(self, resource, state: ReplicaState) -> None:
        self.state = state

    def _propagation_args(self, resource, payload):
        return payload

    def _propagation_item(self, args) -> tuple:
        return REPLICA, args

    def _caught_up(self, resource) -> None:
        if self._stale_since is not None and not self.state.stale:
            # stale -> healed propagation lag: episode opened at the first
            # stale-mark, closed by the catch-up that cleared the flag
            self._m_heal_lag.observe(self.env.now - self._stale_since)
            self._stale_since = None
