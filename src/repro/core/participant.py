"""The 2PC participant: lock custody, prepare/commit, termination.

The paper has one ``try-atomically`` (Section 4, "the two-phase commit
protocol"); this mixin is its one participant.  Both replica stacks --
the single-item :class:`~repro.core.replica.ReplicaServer` and the
sharded :class:`~repro.shard.host.ShardHost` -- mix it in and run
exactly the same presumed-abort two-phase commit: take custody of
per-resource locks on behalf of an operation's write poll, force-write
the prepare, vote, apply or discard on the decision, run cooperative
termination when the coordinator goes silent, and re-announce unfinished
commit decisions after a crash.  Its deadlines -- ``lock_lease`` on a
poll custody, ``prepared_wait`` for a decision, the hosts' permit leases
-- are node timers: armed with the lock, withdrawn where it is released,
none left armed by a crash.  It is generalized over *resources* --
opaque hashable lock keys.  The single-item replica has one resource
(its one lock); the sharded host's are ``(shard, key)`` pairs.

A host class mixes this in, calls :meth:`init_participant` at boot, and
provides:

``node`` / ``rpc`` / ``env`` / ``config``
    The usual server plumbing (:class:`~repro.sim.node.Node`, the RPC
    layer, the simulation environment, a validated
    :class:`~repro.core.config.ProtocolConfig`).
``_resources_of(command) -> tuple``
    The lock resources a 2PC command touches, in canonical order
    (canonical ordering across all coordinators is the deadlock-freedom
    argument for multi-resource prepares).
``_lock(resource) -> Lock``
    The lock guarding one resource.  May create lazily (the sharded
    host pools locks so a million-key node does not hold a million
    Lock objects).
``_apply(prepare)`` / ``_post_commit(command)``
    Apply a committed prepare's command to stable state; start any
    follow-up work (propagation) after the commit is durable.
``_snapshot_matches(expected) -> bool``
    Validate a prepare's expected-state snapshot (epoch installs re-check
    the state they polled; see paper Section 4.3).
``_after_release(resource)``
    Optional hook, called after a resource's lock is released on behalf
    of an operation -- the shard host garbage-collects idle pooled locks
    here.  Default: no-op.

Durable state layout (all on ``node.stable``): ``prepared`` maps txn_id
-> Prepare, ``txn_outcomes`` maps txn_id -> "committed"/"aborted",
``coord_committed`` is the coordinator-side presumed-abort decision
record and ``coord_decisions`` the participants of each decision whose
commit wave is not fully acked (both written by
:func:`repro.core.twophase.run_transaction`).
"""

from __future__ import annotations

from typing import Optional

from repro.core.messages import Prepare
from repro.core.twophase import rebroadcast_decisions
from repro.sim.engine import Environment, Lock, advance
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

    def _apply(self, prepare: Prepare) -> None:
        raise NotImplementedError

    def _post_commit(self, command) -> None:
        raise NotImplementedError

    def _snapshot_matches(self, expected: Optional[dict]) -> bool:
        raise NotImplementedError

    def _after_release(self, resource) -> None:
        pass

    @property
    def name(self) -> str:
        """The owning node's name."""
        return self.node.name

    def _trace(self, kind: str, **detail) -> None:
        self.node.trace.record(self.env.now, kind, self.name, **detail)

    # -- wiring ---------------------------------------------------------------
    def init_participant(self) -> None:
        """Create the durable 2PC tables (idempotent), hook recovery, and
        register the five 2PC RPC methods on the host's RPC layer.  Call
        once at boot; the host serves ``_on_op_release`` itself, under
        the method name its coordinator sends."""
        stable = self.node.stable
        stable.setdefault("prepared", {})
        stable.setdefault("txn_outcomes", {})
        stable.setdefault("coord_committed", set())
        stable.setdefault("coord_decisions", {})
        self.node.add_recover_hook(self._on_recover)
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
        """Generator: try to acquire one resource's lock; returns bool."""
        granted = yield from acquire_within(
            self.env, self._lock(resource), owner, shared,
            self.config.lock_wait if wait is None else wait)
        if not granted:
            self._after_release(resource)
        return granted

    def _release(self, resource, owner: str) -> None:
        self._lock(resource).release(owner)
        self._after_release(resource)

    def _release_op(self, op_id: str) -> None:
        for resource in self._op_locks.pop(op_id, ()):
            self._release(resource, op_id)
        self._prepared_ops.discard(op_id)
        self.node.cancel_timer(self._lease_expired, op_id)

    def _lease_expired(self, op_id: str) -> None:
        """Reclaim a poll-granted lock whose coordinator went silent."""
        if op_id in self._op_locks and op_id not in self._prepared_ops:
            self._trace("lock-lease-expired", op_id=op_id)
            self._release_op(op_id)

    # -- write-poll custody -----------------------------------------------------
    def _custody_settled(self, op_id: str) -> Optional[bool]:
        """The answer to a write poll of *op_id* that needs no lock wait,
        or None when the poll has to queue for the lock."""
        if op_id in self._op_locks:
            return True   # heavy-procedure re-poll from the same operation
        if op_id in self.node.volatile.get("op_acquiring", ()):
            # a duplicate poll while the first is still queued for the
            # lock (possible when lock_wait exceeds the poll window in
            # custom configs): answer BUSY instead of double-queueing
            return False
        return None

    def _take_custody(self, resource, op_id: str):
        """Generator: lock *resource* for a write poll of operation
        *op_id* and keep it past the handler, under a ``lock_lease``,
        until the operation's 2PC or its ``op-release`` discharges it.
        Returns False (answer ``BUSY``) when the lock is not held."""
        settled = self._custody_settled(op_id)
        if settled is not None:
            return settled
        acquiring = self.node.volatile.setdefault("op_acquiring", {})
        acquiring[op_id] = resource
        try:
            ok = yield from self._acquire(resource, op_id)
        finally:
            # setdefault: a crash in between wiped volatile state
            self.node.volatile.setdefault("op_acquiring", {}).pop(op_id, None)
        released = self.node.volatile.setdefault("op_released_early", set())
        if not ok:
            released.discard(op_id)
            return False
        if op_id in released:
            # the coordinator's op-release overtook this handler while
            # it was queued for the lock; honor it now instead of
            # custodying a grant nobody will ever use
            released.discard(op_id)
            self._release(resource, op_id)
            return False
        self._op_locks[op_id] = (resource,)
        self.node.timer(self.config.lock_lease, self._lease_expired, op_id)
        return True

    def _on_op_release(self, src: str, op_id: str) -> str:
        if op_id in self._op_locks and op_id not in self._prepared_ops:
            self._release_op(op_id)
        else:
            resource = self.node.volatile.get("op_acquiring", {}).get(op_id)
            if resource is not None:
                # the release raced ahead of a write poll still queued on
                # the lock: withdraw the queued request and leave a
                # tombstone so an already-fired grant is relinquished,
                # not custodied
                self.node.volatile.setdefault("op_released_early",
                                              set()).add(op_id)
                self._lock(resource).cancel(op_id)
        return "ok"

    # -- prepare / decision ----------------------------------------------------
    def _on_prepare(self, src: str, prepare: Prepare):
        def handle():
            # Protocol-level dedup by txn_id (stable, so it also covers
            # duplicates re-delivered after this node crashed and lost the
            # RPC layer's volatile at-most-once cache): a transaction that
            # was already decided here must not be re-prepared -- re-vote
            # consistently with the recorded outcome instead.
            outcome = self.node.stable["txn_outcomes"].get(prepare.txn_id)
            if outcome is not None:
                return "yes" if outcome == "committed" else "no"
            if prepare.txn_id in self.node.stable["prepared"]:
                return "yes"   # already prepared: repeat the yes vote
            if prepare.op_id in self._op_locks:
                if not self._snapshot_matches(prepare.expected_snapshot):
                    return "no"
            else:
                # Not pre-locked (epoch install, or a safety-threshold
                # extra): lock every resource in canonical order now and
                # validate the expected snapshot.
                if prepare.expected_snapshot is None:
                    return "no"   # poll lock lease expired
                granted = []
                for resource in self._resources_of(prepare.command):
                    ok = yield from self._acquire(resource, prepare.op_id)
                    if not ok:
                        for held in granted:
                            self._release(held, prepare.op_id)
                        return "no"
                    granted.append(resource)
                self._op_locks[prepare.op_id] = tuple(granted)
                if not self._snapshot_matches(prepare.expected_snapshot):
                    self._release_op(prepare.op_id)
                    return "no"
            self.node.stable["prepared"][prepare.txn_id] = prepare
            self._prepared_ops.add(prepare.op_id)
            self._trace("txn-prepared", txn_id=prepare.txn_id,
                        op_id=prepare.op_id,
                        coordinator=prepare.coordinator)
            self.node.timer(self.config.prepared_wait,
                            self._decision_overdue, prepare.txn_id)
            return "yes"

        return handle()

    def _on_commit(self, src: str, txn_id: str) -> str:
        self._commit_txn(txn_id)
        return "ack"

    def _on_abort(self, src: str, txn_id: str) -> str:
        prepare = self.node.stable["prepared"].pop(txn_id, None)
        if prepare is not None:
            self.node.cancel_timer(self._decision_overdue, txn_id)
            self.node.stable["txn_outcomes"][txn_id] = "aborted"
            self._release_op(prepare.op_id)
            self._trace("txn-abort", txn_id=txn_id)
        return "ack"

    def _commit_txn(self, txn_id: str) -> None:
        prepare = self.node.stable["prepared"].pop(txn_id, None)
        if prepare is None:
            return  # duplicate decision; idempotent
        self.node.cancel_timer(self._decision_overdue, txn_id)
        self._apply(prepare)
        self.node.stable["txn_outcomes"][txn_id] = "committed"
        self._release_op(prepare.op_id)
        self._trace("txn-commit", txn_id=txn_id,
                    command=type(prepare.command).__name__)
        self._post_commit(prepare.command)

    # -- termination (cooperative, presumed abort) ----------------------------
    def _decision_overdue(self, txn_id: str) -> None:
        """No decision within ``prepared_wait`` of the yes vote: run
        :meth:`_terminate` as a node process that starts inside this
        (the timer's) queue entry.  Armed means still prepared, so its
        first step is a real wait, the status call."""
        body = self._terminate(txn_id)
        self.node.spawn_parked(body, f"{self.name}:await-{txn_id}",
                               advance(body))

    def _terminate(self, txn_id: str):
        """Cooperative termination for an undecided prepared transaction."""
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
                # coordinator unreachable: ask the other participants
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
            # "pending" or no information: classic 2PC blocking; retry.
            yield self.env.timeout(self.config.termination_retry)

    def _on_txn_status(self, src: str, txn_id: str) -> str:
        """Coordinator-side status (presumed abort)."""
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
        # Re-acquire locks for prepared transactions *before* any new
        # request can sneak in, then resolve them via termination.
        for txn_id, prepare in self.node.stable["prepared"].items():
            resources = self._resources_of(prepare.command)
            for resource in resources:
                self._lock(resource).acquire(prepare.op_id)  # empty: granted
            self._op_locks[prepare.op_id] = resources
            self._prepared_ops.add(prepare.op_id)
            self.node.spawn(self._terminate(txn_id),
                            name=f"recover-{txn_id}")
        # Coordinator side: re-announce commit decisions whose commit wave
        # was never fully acknowledged, so participants blocked on this
        # coordinator resolve without waiting for their next status poll.
        if self.node.stable["coord_decisions"]:
            self.node.spawn(rebroadcast_decisions(self),
                            name="rebroadcast-decisions")
