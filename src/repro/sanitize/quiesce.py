"""Quiesce assertions: what must be true of a cluster at rest.

After a run's faults lift and the settle phase drains, the cluster is
supposed to be *quiet*: no lock held, no RPC handler parked, no courier
still walking.  Each violation is a leak the consistency checker cannot
see -- a stranded lock stalls future writers without corrupting any
value, which is exactly why PR 8's bug survived the 1SR checker.

One instantaneous snapshot would false-positive: the periodic epoch
checker keeps firing (every ``epoch_check_interval``), and each pulse
transiently acquires locks and parks handlers.  So the check takes *two*
snapshots separated by a gap chosen to outlive every legitimate
transient (longer than a poll round, an RPC deadline, and the
propagation lease; shorter than the lock lease, so a leak the lease
would eventually reap is still caught in the window) and flags only
what persists across both with the same identity:

* a lock held by the *same owner* at both instants;
* the *same* server-side RPC handler still in progress;
* the *same* client-side call still pending;
* the *same* propagation courier process still alive.

Independently, on a crash-free run any ``lock-lease-expired`` trace
event is a finding: the lease is the last-resort reaper for coordinator
crashes, so on a run with no crashes it coming due at all means an
operation abandoned its locks -- the stranded-lock bug class, caught by
counter rather than by snapshot timing.

One invariant needs no gap, the leases being node timers that can be
read (``Node.armed_timers``): *every lock held past its handler has a
live owner or an armed lease*.  Each snapshot flags a lock in poll
custody (in ``_op_locks``, not yet prepared) with no ``lock_lease``
armed, and a propagation permit (any resource in the one permit table,
``volatile["recovering"]``) with no permit lease -- on either store.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.propagation import COURIER

#: Snapshot gap (simulated time).  Must exceed the propagation lease
#: (4.0) and the widest RPC deadline (rtt_deadline_max, 2.0) and stay
#: below the lock lease (8.0); see the module docstring.
QUIESCE_GAP = 4.5


@dataclass
class Snapshot:
    """One instant's leak-relevant cluster state."""

    time: float
    locks: set = field(default_factory=set)      # (node, lock, owner)
    inflight: set = field(default_factory=set)   # (node, reply_to, req_id)
    pending: set = field(default_factory=set)    # (node, req_id)
    couriers: dict = field(default_factory=dict)  # (node, id(p)) -> name
    unleased: set = field(default_factory=set)   # (node, "lock"|"permit", owner)


def take_snapshot(store) -> Snapshot:
    """Capture the held locks, parked RPCs, and live couriers, and the
    custodied locks and permits whose lease is not armed."""
    snap = Snapshot(time=store.env.now)
    for name in store.node_names:
        node = store.nodes[name]
        for lock in node.locks:
            for owner in lock.holders:
                snap.locks.add((name, lock.name, owner))
        for process in node.live_processes():
            # couriers (both stacks run the one) are the only spawned
            # processes with no built-in expiry: they loop on retry
            if COURIER in process.name:
                snap.couriers[(name, id(process))] = process.name
    servers = store.servers if hasattr(store, "servers") else store.hosts
    for name, server in servers.items():
        node = store.nodes[name]
        armed = set(node.armed_timers())
        for op_id in server._op_locks:
            if (op_id not in server._prepared_ops
                    and ("_lease_expired", op_id) not in armed):
                snap.unleased.add((name, "lock", op_id))
        for permit in node.volatile.get("recovering", {}).items():
            if ("_permit_expired", permit) not in armed:
                snap.unleased.add((name, "permit", permit[1]))
        rpc = getattr(server, "rpc", None)
        if rpc is None:
            continue
        for key in rpc.inflight_handlers():
            snap.inflight.add((name,) + tuple(key))
        for req_id in rpc.pending_calls():
            snap.pending.add((name, req_id))
    return snap


def compare_snapshots(first: Snapshot, second: Snapshot) -> list[str]:
    """Findings for what either snapshot found unleased, and for state
    that persisted across both."""
    findings = []
    for node, what, owner in sorted(first.unleased | second.unleased):
        findings.append(
            f"unleased {what}: {node} keeps its replica locked for "
            f"{owner!r} past the handler with no lease armed -- nothing "
            f"is left that would ever release it")
    for node, lock, owner in sorted(first.locks & second.locks):
        findings.append(
            f"leaked lock: {lock} on {node} held by {owner!r} at both "
            f"t={first.time:.2f} and t={second.time:.2f} "
            f"(every transient hold is far shorter than the gap)")
    for node, reply_to, req_id in sorted(first.inflight & second.inflight):
        findings.append(
            f"stuck handler: {node} has the request ({reply_to!r}, "
            f"{req_id}) in progress across the whole "
            f"{second.time - first.time:.1f} gap -- a generator parked "
            f"on a lock or a call that will never answer")
    for node, req_id in sorted(first.pending & second.pending):
        findings.append(
            f"stuck call: {node}'s req {req_id} still pending after "
            f"{second.time - first.time:.1f} -- longer than any deadline, "
            f"so its timeout machinery is lost")
    stranded = set(first.couriers) & set(second.couriers)
    for key in sorted(stranded):
        node, _ = key
        findings.append(
            f"stranded courier: {first.couriers[key]!r} on {node} alive "
            f"at both snapshots -- propagation that neither finishes nor "
            f"gives up")
    return findings


def check_quiesce(store, crash_free: bool = True,
                  gap: float = QUIESCE_GAP) -> list[str]:
    """Run the full quiesce check; advances the store by *gap*.

    Call only after the run's settle phase -- this is a post-mortem,
    not a probe that can run mid-workload.
    """
    findings = []
    if crash_free:
        expired = store.trace.count("lock-lease-expired")
        if expired:
            findings.append(
                f"lease reaper fired {expired}x on a crash-free run: an "
                f"operation abandoned granted locks (stranded-lock bug "
                f"class; the lease exists for coordinator *crashes*)")
    first = take_snapshot(store)
    store.advance(gap)
    second = take_snapshot(store)
    findings.extend(compare_snapshots(first, second))
    return findings
