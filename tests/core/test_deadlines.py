"""The replica stacks' deadlines are node timers, and stay timers.

A poll-granted lock's lease, the wait for a 2PC decision and the lease
on a propagation permit mostly never come due.  They used to be four
generator processes (``_lease_watchdog``, ``_await_decision``,
``ReplicaServer._propagation_lease``, ``ShardHost._permit_lease``) that
each slept their deadline out: two queue entries and a heap slot per
deadline, ~1,200 dead sleepers under a sequential workload.  They are
``Node.timer`` handles now, withdrawn where the lock is released
(docs/API.md, rule R4).  The structural tests below keep the generators
from growing back; the healthy-run tests pin what their absence buys;
the last class pins the one behaviour that changed on purpose.
"""

import ast
import random
from pathlib import Path

import pytest

import repro
from repro.core.messages import StateResponse
from repro.core.store import ReplicatedStore
from repro.shard.store import ShardedStore

SRC = Path(repro.__file__).resolve().parent
STACK_FILES = ("core/participant.py", "core/propagation.py", "core/replica.py",
               "shard/host.py")
#: Where the deadlines are armed: the 2PC participant and the one
#: propagation target, which both replica stacks mix in.
ARMING_FILES = ("core/participant.py", "core/propagation.py")
OLD_BODIES = ("_lease_watchdog", "_await_decision", "_propagation_lease",
              "_permit_lease")


def _sleeps_out_a_config_deadline(function: ast.FunctionDef) -> bool:
    """True iff the body's first statement (after any docstring) is
    ``yield self.env.timeout(self.config.<field>)``."""
    body = list(function.body)
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)):
        body = body[1:]
    if not body or not isinstance(body[0], ast.Expr):
        return False
    wait = body[0].value
    if not isinstance(wait, ast.Yield) or not isinstance(wait.value, ast.Call):
        return False
    call = wait.value
    return (isinstance(call.func, ast.Attribute)
            and call.func.attr == "timeout" and len(call.args) == 1
            and "self.config." in ast.unparse(call.args[0]))


def _spawned_bodies(tree: ast.AST) -> set:
    """Names of the generator functions handed to a ``spawn*(`` call."""
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr.startswith("spawn") and node.args
                and isinstance(node.args[0], ast.Call)):
            body = node.args[0].func
            names.add(body.attr if isinstance(body, ast.Attribute)
                      else getattr(body, "id", ""))
    return names


@pytest.mark.parametrize("relpath", STACK_FILES)
def test_no_deadline_is_a_sleeping_process(relpath):
    source = (SRC / relpath).read_text()
    for name in OLD_BODIES:
        assert name not in source, f"{relpath} mentions {name}"
    tree = ast.parse(source)
    sleepers = {node.name for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and _sleeps_out_a_config_deadline(node)}
    assert not sleepers & _spawned_bodies(tree), (
        f"{relpath} spawns {sorted(sleepers & _spawned_bodies(tree))}: a "
        f"process that sleeps out a config deadline; arm a Node.timer")


def test_the_structural_check_sees_the_old_shape():
    """The check means something only if it fires on what was deleted."""
    old = ast.parse(
        "class P:\n"
        "    def _take_custody(self, op_id):\n"
        "        self.node.spawn(self._lease_watchdog(op_id), name='x')\n"
        "    def _lease_watchdog(self, op_id):\n"
        "        '''Reclaim.'''\n"
        "        yield self.env.timeout(self.config.lock_lease)\n"
        "        self._release_op(op_id)\n"
        "    def _terminate(self, txn_id):\n"
        "        while True:\n"
        "            yield self.env.timeout(self.config.termination_retry)\n")
    sleepers = {node.name for node in ast.walk(old)
                if isinstance(node, ast.FunctionDef)
                and _sleeps_out_a_config_deadline(node)}
    assert sleepers == {"_lease_watchdog"}
    assert _spawned_bodies(old) == {"_lease_watchdog"}


def test_every_stack_arms_its_deadlines_on_the_node():
    """Both replica servers (and with ``ReplicaServer`` the three
    baselines) arm through ``Node.timer``, in the mixins they share, so
    a crash withdraws what they armed -- and nothing in them sleeps on
    ``env.timer`` instead."""
    for relpath in STACK_FILES:
        source = (SRC / relpath).read_text()
        assert ("self.node.timer(" in source) == (relpath in ARMING_FILES)
        assert "env.timer(" not in source


# -- what a healthy run leaves behind ------------------------------------------

WATCHDOG_MARKS = ("lease-", "await-", "prop-lease")


def healthy_replicated_run(ops: int) -> ReplicatedStore:
    store = ReplicatedStore.create(9, seed=5)
    rng = random.Random(5)
    for i in range(ops):
        via = store.node_names[i % 9]
        if rng.random() < 0.5:
            store.write({f"k{rng.randrange(6)}": i}, via=via)
        else:
            store.read(via=via)
    return store


def healthy_sharded_run(ops: int) -> ShardedStore:
    store = ShardedStore.create(5, n_shards=8, replication=3, seed=5)
    rng = random.Random(5)
    for i in range(ops):
        via, key = store.node_names[i % 5], f"k{rng.randrange(12)}"
        if rng.random() < 0.5:
            store.write(key, {"v": i}, via=via)
        else:
            store.read(key, via=via)
    return store


@pytest.mark.parametrize("run", [healthy_replicated_run, healthy_sharded_run],
                         ids=["ReplicatedStore", "ShardedStore"])
def test_a_healthy_run_leaves_no_watchdog_and_a_short_queue(run):
    """200 operations take ~6 simulated seconds, less than one
    ``lock_lease``: with sleeping watchdogs every one of them was still
    in the queue at the end (862 entries single-item, 338 sharded)."""
    short, full = run(20), run(200)
    assert full.env.now < full.config.lock_lease
    for node in full.nodes.values():
        for process in node.live_processes():
            assert not any(mark in process.name for mark in WATCHDOG_MARKS), \
                process.name
        # met deadlines are withdrawn, and forgotten by the node as well
        assert node.armed_timers() == ()
        assert len(node._timers) <= 64
    # O(in flight) -- the propagation still under way -- not O(ops)
    assert full.env.queue_size <= 64
    assert full.env.queue_size <= short.env.queue_size + 32
    assert len(full.env._queue) <= 2 * 64


def test_a_met_deadline_costs_no_queue_entry():
    """A write's leases and decision waits are armed and withdrawn
    inside message deliveries: nothing runs for them."""
    store = ReplicatedStore.create(9, seed=3, trace_enabled=True)
    store.write({"k": 1}, via="n00")
    store.advance(store.config.lock_lease + store.config.prepared_wait)
    kinds = store.trace.counts()
    assert kinds["txn-commit"] >= 1
    assert "lock-lease-expired" not in kinds
    assert not any(rec.kind == "rpc-call"
                   and rec.detail.get("method") == "txn-status"
                   for rec in store.trace)
    for node in store.nodes.values():
        assert node.armed_timers() == ()


# -- the one intended difference -------------------------------------------------

def poll(store, src, dst, op_id, answers):
    def client():
        answers.append((yield store.servers[src].rpc.call(
            dst, "write-request", op_id)))
    return store.nodes[src].spawn(client())


def release(store, src, dst, op_id):
    def client():
        yield store.servers[src].rpc.call(dst, "op-release", op_id)
    return store.nodes[src].spawn(client())


class TestALeaseBelongsToTheCustodyThatArmedIt:
    """An operation whose fast-path transaction aborts polls again under
    the same ``op_id`` (the heavy procedure), and takes custody a second
    time.  The first custody's watchdog used to sleep on and reap the
    *second* custody, ``lock_lease`` after the first poll.  Released
    with its custody, the first lease is gone; the second custody gets a
    whole lease of its own."""

    def test_a_second_custody_is_not_reaped_by_the_first_lease(self):
        store = ReplicatedStore.create(3, seed=2, trace_enabled=True)
        lease = store.config.lock_lease
        server, answers = store.servers["n01"], []
        store.join(poll(store, "n00", "n01", "op-x", answers))
        first = store.env.now
        store.advance(1.0)
        store.join(release(store, "n00", "n01", "op-x"))
        assert not server.lock.locked
        store.advance(1.0)
        store.join(poll(store, "n00", "n01", "op-x", answers))
        second = store.env.now
        assert all(isinstance(a, StateResponse) for a in answers)
        assert store.nodes["n01"].armed_timers() == (
            ("_lease_expired", "op-x"),)
        store.advance(first + lease + 0.5 - store.env.now)
        assert server.lock.locked           # the first lease did not fire
        assert store.trace.count("lock-lease-expired") == 0
        store.advance(second + lease + 0.5 - store.env.now)
        assert not server.lock.locked and not server._op_locks
        assert store.trace.count("lock-lease-expired") == 1
        assert store.nodes["n01"].armed_timers() == ()
