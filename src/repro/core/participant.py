"""The shared 2PC participant: locking, prepare/commit, termination.

Both the multi-item replica server (:mod:`repro.core.multistore`) and the
sharded replica host (:mod:`repro.shard.host`) participate in exactly the
same presumed-abort two-phase commit: acquire per-resource locks on
behalf of an operation, force-write the prepare, vote, apply or discard
on the decision, and run cooperative termination when the coordinator
goes silent.  This mixin is that participant, extracted from
``MultiReplicaServer`` and generalized over *resources* -- opaque
hashable lock keys.  The multi-item store's resources are item names;
the sharded store's are ``(shard, key)`` pairs.

A host class mixes this in and provides:

``node`` / ``rpc`` / ``env`` / ``config`` / ``name``
    The usual server plumbing (:class:`~repro.sim.node.Node`, the RPC
    layer, the simulation environment, a validated
    :class:`~repro.core.config.ProtocolConfig`, the node name).
``_resources_of(command) -> tuple``
    The lock resources a 2PC command touches, in canonical order
    (canonical ordering across all coordinators is the deadlock-freedom
    argument for multi-resource prepares).
``_lock(resource) -> Lock``
    The lock guarding one resource.  May create lazily (the sharded
    host pools locks so a million-key node does not hold a million
    Lock objects).
``_apply(command)`` / ``_post_commit(command)``
    Apply a committed command to stable state; start any follow-up work
    (propagation) after the commit is durable.
``_snapshot_matches(expected) -> bool``
    Validate a prepare's expected-state snapshot (epoch installs re-check
    the state they polled; see paper Section 4.3).
``_trace(kind, **detail)``
    Trace-record helper.
``_after_release(resource)``
    Optional hook, called after a resource's lock is released on behalf
    of an operation -- the shard host garbage-collects idle pooled locks
    here.  Default: no-op.

Durable state layout (all on ``node.stable``): ``prepared`` maps txn_id
-> Prepare, ``txn_outcomes`` maps txn_id -> "committed"/"aborted",
``coord_committed`` is the coordinator-side presumed-abort decision
record (written by :func:`repro.core.twophase.run_transaction`).
"""

from __future__ import annotations

from typing import Optional

from repro.core.messages import Prepare
from repro.sim.engine import Environment, Lock
from repro.sim.rpc import CALL_FAILED


def acquire_within(env: Environment, lock: Lock, owner: str, shared: bool,
                   wait: float):
    """Generator: acquire *lock* for *owner*, giving up after *wait*
    simulated seconds; returns whether the lock is held.

    The one lock wait of every replica stack.  A lock nobody holds in a
    conflicting mode grants inside ``acquire()``; the grant is then
    already dispatched and ``yield grant`` hands it over at once -- no
    queue entry, no timer that would outlive it unheard.  Only a request
    that has to queue races a ``wait`` timer and, losing, withdraws.
    """
    grant = lock.acquire(owner, shared=shared)
    if grant.triggered:
        yield grant
    else:
        yield env.any_of([grant, env.timeout(wait)])
        if not grant.triggered:
            lock.cancel(owner)
            return False
    # repro: allow[lock-discipline] True transfers custody to the caller by contract
    return True


class TwoPhaseParticipant:
    """Presumed-abort 2PC participant over opaque lock resources."""

    # -- hooks the host class must provide ----------------------------------
    def _resources_of(self, command) -> tuple:
        raise NotImplementedError

    def _lock(self, resource):
        raise NotImplementedError

    def _apply(self, command) -> None:
        raise NotImplementedError

    def _post_commit(self, command) -> None:
        raise NotImplementedError

    def _snapshot_matches(self, expected: Optional[dict]) -> bool:
        raise NotImplementedError

    def _after_release(self, resource) -> None:
        pass

    # -- wiring ---------------------------------------------------------------
    def init_participant_state(self) -> None:
        """Create the durable 2PC tables (idempotent; call at boot)."""
        self.node.stable.setdefault("prepared", {})
        self.node.stable.setdefault("txn_outcomes", {})
        self.node.stable.setdefault("coord_committed", set())

    def serve_txn_endpoints(self) -> None:
        """Register the five 2PC RPC methods on this host's RPC layer."""
        serve = self.rpc.serve
        serve("txn-prepare", self._on_prepare)
        serve("txn-commit", self._on_commit)
        serve("txn-abort", self._on_abort)
        serve("txn-status", self._on_txn_status)
        serve("txn-status-peer", self._on_txn_status_peer)

    # -- locking --------------------------------------------------------------
    @property
    def _op_locks(self) -> dict:
        return self.node.volatile.setdefault("op_locks", {})

    @property
    def _prepared_ops(self) -> set:
        return self.node.volatile.setdefault("prepared_ops", set())

    def _acquire(self, resource, owner: str, shared: bool = False,
                 wait: Optional[float] = None):
        granted = yield from acquire_within(
            self.env, self._lock(resource), owner, shared,
            self.config.lock_wait if wait is None else wait)
        if not granted:
            self._after_release(resource)
        return granted

    def _release_op(self, op_id: str) -> None:
        resources = self._op_locks.pop(op_id, ())
        for resource in resources:
            self._lock(resource).release(op_id)
            self._after_release(resource)
        self._prepared_ops.discard(op_id)

    def _lease_watchdog(self, op_id: str):
        yield self.env.timeout(self.config.lock_lease)
        if op_id in self._op_locks and op_id not in self._prepared_ops:
            self._trace("lock-lease-expired", op_id=op_id)
            self._release_op(op_id)

    # -- prepare / decision ----------------------------------------------------
    def _on_prepare(self, src: str, prepare: Prepare):
        def handle():
            if prepare.op_id not in self._op_locks:
                if prepare.expected_snapshot is None:
                    return "no"
                # epoch install: lock every resource in canonical order
                wanted = self._resources_of(prepare.command)
                granted = []
                for resource in wanted:
                    ok = yield from self._acquire(resource, prepare.op_id)
                    if not ok:
                        for held in granted:
                            self._lock(held).release(prepare.op_id)
                            self._after_release(held)
                        return "no"
                    granted.append(resource)
                self._op_locks[prepare.op_id] = tuple(granted)
                if not self._snapshot_matches(prepare.expected_snapshot):
                    self._release_op(prepare.op_id)
                    return "no"
            self.node.stable["prepared"][prepare.txn_id] = prepare
            self._prepared_ops.add(prepare.op_id)
            self.node.spawn(self._await_decision(prepare.txn_id),
                            name=f"await-{prepare.txn_id}")
            return "yes"

        return handle()

    def _on_commit(self, src: str, txn_id: str) -> str:
        self._commit_txn(txn_id)
        return "ack"

    def _on_abort(self, src: str, txn_id: str) -> str:
        prepare = self.node.stable["prepared"].pop(txn_id, None)
        if prepare is not None:
            self.node.stable["txn_outcomes"][txn_id] = "aborted"
            self._release_op(prepare.op_id)
        return "ack"

    def _commit_txn(self, txn_id: str) -> None:
        prepare = self.node.stable["prepared"].pop(txn_id, None)
        if prepare is None:
            return
        self._apply(prepare.command)
        self.node.stable["txn_outcomes"][txn_id] = "committed"
        self._release_op(prepare.op_id)
        self._post_commit(prepare.command)

    # -- termination (cooperative, presumed abort) ----------------------------
    def _await_decision(self, txn_id: str):
        yield self.env.timeout(self.config.prepared_wait)
        yield from self._terminate(txn_id)

    def _terminate(self, txn_id: str):
        while txn_id in self.node.stable["prepared"]:
            prepare: Prepare = self.node.stable["prepared"][txn_id]
            status = yield self.rpc.call(prepare.coordinator, "txn-status",
                                         txn_id,
                                         timeout=self.config.rpc_timeout)
            if status == "committed":
                self._commit_txn(txn_id)
                return
            if status == "aborted":
                self._on_abort(prepare.coordinator, txn_id)
                return
            if status is CALL_FAILED:
                for peer in prepare.participants:
                    if peer == self.name:
                        continue
                    view = yield self.rpc.call(peer, "txn-status-peer",
                                               txn_id,
                                               timeout=self.config.rpc_timeout)
                    if view == "committed":
                        self._commit_txn(txn_id)
                        return
                    if view == "aborted":
                        self._on_abort(peer, txn_id)
                        return
            yield self.env.timeout(self.config.termination_retry)

    def _on_txn_status(self, src: str, txn_id: str) -> str:
        if txn_id in self.node.volatile.get("coord_active", set()):
            return "pending"
        if txn_id in self.node.stable["coord_committed"]:
            return "committed"
        return "aborted"

    def _on_txn_status_peer(self, src: str, txn_id: str) -> str:
        outcome = self.node.stable["txn_outcomes"].get(txn_id)
        if outcome:
            return outcome
        return "prepared" if txn_id in self.node.stable["prepared"] \
            else "unknown"

    def _on_recover(self) -> None:
        for txn_id, prepare in self.node.stable["prepared"].items():
            resources = self._resources_of(prepare.command)
            for resource in resources:
                self._lock(resource).acquire(prepare.op_id)
            self._op_locks[prepare.op_id] = resources
            self._prepared_ops.add(prepare.op_id)
            self.node.spawn(self._terminate(txn_id),
                            name=f"recover-{txn_id}")
