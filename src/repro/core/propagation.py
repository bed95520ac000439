"""Asynchronous update propagation (the appendix's ``Propagate`` /
``PropagateResponse``), written once for both replica stacks.

A node that learns of stale replicas -- via a ``do-update`` it executed,
an epoch installation in which it is GOOD, or an epoch check's re-seed
request -- runs the courier :func:`propagate`: offer its version to each
stale node and, on ``propagation-permitted``, ship the missing updates as
a slice of its update log (the partial-write payoff: only the deltas
move) or as a snapshot when the log has been truncated.

:class:`Propagation` holds every role over opaque lock *resources*, as
:class:`~repro.core.participant.TwoPhaseParticipant` (whose ``_acquire``
/ ``_release`` it uses) holds 2PC: one resource on the single-item
replica, ``(shard, key)`` pairs on the sharded host.  The host provides
``rpc_prefix`` (its RPC method prefix), ``_read_item(resource)`` /
``_write_item(resource, state)`` (one resource's durable state),
``_propagation_args(resource, payload)`` / ``_propagation_item(args)``
(the wire form of an offer or data payload, and its inverse) and,
optionally, ``_caught_up(resource)``.  Volatile state: ``propagating``,
the ``(resource, target)`` pairs this source's couriers serve, and
``recovering``, the one permit table (resource -> permit owner).
"""

from __future__ import annotations

from repro.core.messages import PropagationData, PropagationOffer
from repro.sim.rpc import CALL_FAILED

# Give up on a target after this many consecutive failed contact attempts;
# the next epoch check re-seeds it if it is still stale.
MAX_FAILED_ROUNDS = 5

#: Process name of every courier (the sanitizer looks couriers up by it).
COURIER = "propagate"


def propagate(host, resource, stale_nodes):
    """Generator (node process): bring ``stale_nodes``' copies of
    *resource* up to date.

    Couriers on one source dedup per ``(resource, target)`` through the
    volatile ``propagating`` set, so a re-mark or a re-seed never stacks
    a second courier onto a target; a pair leaves the set the moment
    this courier stops serving it (healed, refused, given up on).
    """
    config = host.config
    inflight = host.node.volatile.setdefault("propagating", set())
    pending = {name: 0 for name in stale_nodes
               if name != host.name and (resource, name) not in inflight}
    inflight.update((resource, name) for name in pending)
    gave_up = host.metrics.counter("propagation_gave_up")

    def done(target: str) -> None:
        del pending[target]
        inflight.discard((resource, target))

    try:
        while pending:
            if host._read_item(resource).stale or not host.node.up:
                return  # no longer a valid source
            for target in sorted(pending):
                offer = PropagationOffer(
                    source=host.name,
                    version=host._read_item(resource).version)
                # the handler may wait lock_wait for the target's lock,
                # as a poll or a prepare may: a shorter deadline leaves an
                # orphan permit and a healthy target suspected
                response = yield host.rpc.call(
                    target, host.rpc_prefix + "propagation-offer",
                    host._propagation_args(resource, offer),
                    timeout=config.lock_wait + config.rpc_timeout)
                if response is CALL_FAILED:
                    pending[target] += 1
                    if pending[target] >= MAX_FAILED_ROUNDS:
                        host._trace("propagation-gave-up", target=target)
                        gave_up.inc()
                        done(target)
                elif response == "i-am-current":
                    done(target)
                elif (isinstance(response, tuple)
                      and response[0] == "propagation-permitted"):
                    shipped = yield from _ship(host, resource, target,
                                               response[1])
                    if shipped:
                        done(target)
                    else:
                        pending[target] = 0
                elif response == "already-recovering":
                    pending[target] = 0  # the appendix's pause-and-reoffer
            if pending:
                yield host.env.timeout(config.propagation_retry)
    finally:
        # early exits (stale source, crash) release the rest of the claims
        inflight = host.node.volatile.get("propagating")
        if inflight is not None:
            inflight.difference_update((resource, name) for name in pending)


def _ship(host, resource, target: str, target_version: int):
    """Generator: send the catch-up payload.

    The appendix locks the source replica here and notes that "various
    logging techniques can be employed to avoid using the same lock for
    propagation and write operations".  Replica states are immutable
    snapshots, so the payload is built from a consistent version without
    the lock: propagation never blocks writes at the source, and never
    holds the target's permit while queueing behind a writer.
    """
    state = host._read_item(resource)
    if state.stale:
        return False  # lost currency since the offer
    log = state.log_slice(target_version)
    data = PropagationData(
        source_version=state.version, log=log,
        snapshot=None if log is not None else dict(state.value))
    result = yield host.rpc.call(target, host.rpc_prefix + "propagation-data",
                                 host._propagation_args(resource, data),
                                 timeout=host.config.rpc_timeout)
    host._trace("propagation-shipped", target=target, result=repr(result),
                payload="log" if log is not None else "snapshot")
    return result == "done"


def reseed_requests(host, plan: dict) -> dict:
    """The epoch checks' one re-seed path, as ``gather`` requests.

    *plan* maps resources to ``(good holders, stale members)``.  A stale
    copy nobody serves (its courier gave up, or was told
    ``i-am-current`` before the stale mark landed) is re-seeded by its
    lowest-named good holder, whoever runs the check.
    """
    assignments: dict = {}
    for resource in sorted(plan):
        good, stale = plan[resource]
        if good and stale:
            assignments.setdefault(min(good), {})[resource] = \
                tuple(sorted(stale))
    method = host.rpc_prefix + "reseed-request"
    return {source: (method, assignments[source])
            for source in sorted(assignments)}


class Propagation:
    """The propagation roles of a replica stack, over opaque resources."""

    rpc_prefix = ""

    def _caught_up(self, resource) -> None:
        pass

    def init_propagation(self) -> None:
        """Register the three target-side RPC methods.  Call once at boot."""
        serve = self.rpc.serve
        serve(self.rpc_prefix + "propagation-offer",
              self._on_propagation_offer)
        serve(self.rpc_prefix + "propagation-data", self._on_propagation_data)
        serve(self.rpc_prefix + "reseed-request", self._on_reseed_request)

    @property
    def _recovering(self) -> dict:
        return self.node.volatile.setdefault("recovering", {})

    def _start_propagation(self, resource, stale_nodes) -> None:
        """Start a courier toward *stale_nodes*, unless this copy is
        stale itself."""
        if stale_nodes and not self._read_item(resource).stale:
            self.node.spawn(propagate(self, resource, stale_nodes),
                            name=COURIER)

    def _on_reseed_request(self, src: str, assignments: dict) -> str:
        """Serve :func:`reseed_requests`' ``resource -> stale members``:
        a courier toward every member no courier here is serving."""
        inflight = self.node.volatile.get("propagating", ())
        for resource in sorted(assignments):
            if self._read_item(resource).stale:
                continue
            targets = tuple(name for name in assignments[resource]
                            if name != self.name
                            and (resource, name) not in inflight)
            if targets:
                self.metrics.counter("propagation_reseeded").inc(len(targets))
                self._trace("propagation-reseeded", targets=targets)
                self._start_propagation(resource, targets)
        return "ok"

    def _on_propagation_offer(self, src: str, args):
        resource, offer = self._propagation_item(args)

        def handle():
            if resource in self._recovering:
                return "already-recovering"
            state = self._read_item(resource)
            if not (state.stale and state.dversion <= offer.version):
                return "i-am-current"
            # unique per offer: two offers landing in the same tick both
            # pass the check above, and a shared owner would make the
            # second acquire a duplicate (an error); this way it queues
            # and re-checks staleness once it gets the lock
            owner = f"recover:{offer.source}@{self.env.now:.9f}"
            ok = yield from self._acquire(resource, owner)
            if not ok:
                return "already-recovering"
            state = self._read_item(resource)  # re-check under the lock
            if not (state.stale and state.dversion <= offer.version):
                self._release(resource, owner)
                return "i-am-current"
            self._recovering[resource] = owner
            self.node.timer(self.config.propagation_lease,
                            self._permit_expired, (resource, owner))
            return ("propagation-permitted", state.version)

        return handle()

    def _permit_expired(self, permit: tuple) -> None:
        resource, owner = permit
        if self._recovering.get(resource) == owner:
            del self._recovering[resource]
            self._release(resource, owner)
            self._trace("propagation-lease-expired")

    def _on_propagation_data(self, src: str, args) -> str:
        resource, data = self._propagation_item(args)
        owner = self._recovering.get(resource)
        if not owner:
            return "no-permit"
        try:
            self._write_item(resource, self._read_item(resource).propagated(
                data, self.config.update_log_capacity))
        except ValueError as refusal:
            return str(refusal)
        finally:
            del self._recovering[resource]
            self._release(resource, owner)
            self.node.cancel_timer(self._permit_expired, (resource, owner))
        self._caught_up(resource)
        self._trace("caught-up", version=self._read_item(resource).version,
                    source=src)
        return "done"
