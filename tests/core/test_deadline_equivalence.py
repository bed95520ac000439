"""Deadlines as node timers against deadlines as sleeping processes.

The replica stacks arm three deadlines -- the lease on a poll-granted
lock, the wait for a 2PC decision, and the lease on a propagation permit
(one body for both stacks since propagation is written once) -- on
``Node.timer`` and withdraw them where the lock is released.  They used
to be generator processes that slept the deadline out.  The *reference
participant* below exists only in this file: under it ``Node.timer``
spawns the old generator body, kept here, and ``Node.cancel_timer``
withdraws nothing.  Small faulty runs execute
under both and must write the same ordered trace-record log, draw every
message delay from the one random stream at the same instant, and cost
the production participant strictly fewer queue entries.

What the runs keep to: one fault per operation.  Each step arms one
fault, starts one write and lets it play out -- past the fault's lifting
and a whole ``lock_lease`` -- before the next step begins, so a crash
aimed at one operation cannot also silence the coordinator of another.
An operation hit twice can take custody of the same lock *twice* under
one ``op_id`` (its fast-path transaction aborted, the heavy procedure
polled again) and then be abandoned; that is the one place the two
participants differ, on purpose, and ``tests/core/test_deadlines.py``
pins that side of the line.
"""

from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.nemesis import Nemesis
from repro.core.store import ReplicatedStore
from repro.shard.store import ShardedStore
from repro.sim.node import Node


# -- the reference participant: the three bodies as sleepers -----------------

def _lease_watchdog(self, op_id):
    """Reclaim a poll-granted lock whose coordinator went silent."""
    yield self.env.timeout(self.config.lock_lease)
    if op_id in self._op_locks and op_id not in self._prepared_ops:
        self._trace("lock-lease-expired", op_id=op_id)
        self._release_op(op_id)


def _await_decision(self, txn_id):
    yield self.env.timeout(self.config.prepared_wait)
    yield from self._terminate(txn_id)


def _permit_lease(self, resource, owner):       # both stacks' one permit
    yield self.env.timeout(self.config.propagation_lease)
    recovering = self.node.volatile.setdefault("recovering", {})
    if recovering.get(resource) == owner:
        del recovering[resource]
        self._release(resource, owner)
        self._trace("propagation-lease-expired")


def _spawn_a_sleeper(node, delay, call, arg=None):
    """``Node.timer`` that spawns the old process, under its old name,
    from an entry of its own."""
    server, deadline = call.__self__, call.__name__
    if deadline == "_lease_expired":
        node.spawn(_lease_watchdog(server, arg), name=f"lease-{arg}")
    elif deadline == "_decision_overdue":
        node.spawn(_await_decision(server, arg), name=f"await-{arg}")
    else:
        node.spawn(_permit_lease(server, *arg), name="prop-lease")


def _never_withdraw(node, call, arg=None):
    pass


@contextmanager
def reference_participant():
    with ExitStack() as stack:
        for name, value in (("timer", _spawn_a_sleeper),
                            ("cancel_timer", _never_withdraw)):
            stack.enter_context(mock.patch.object(Node, name, value))
        yield


# -- small faulty runs ----------------------------------------------------------

FAULTS = ("none", "coordinator-before-prepare", "coordinator-before-commit",
          "cut-commit", "participant", "lose-data")
DATA_METHODS = ("propagation-data", "sh-propagation-data")


class Run:
    """One store, one nemesis, and the log of everything observable."""

    def __init__(self, sharded, n_nodes, seed):
        if sharded:
            self.store = ShardedStore.create(
                n_nodes, n_shards=2, replication=3, seed=seed,
                trace_enabled=True)
        else:
            self.store = ReplicatedStore.create(n_nodes, seed=seed,
                                                trace_enabled=True)
        store, self.sharded = self.store, sharded
        self.draws = draws = []
        rng, env = store.network.latency.rng, store.env
        uniform = rng.uniform

        def logged_uniform(a, b):
            value = uniform(a, b)
            draws.append((env.now, value))
            return value
        rng.uniform = logged_uniform
        self.nemesis = Nemesis(env, store.trace, store.nodes,
                               network=store.network).attach()
        self.lose_data_for = None
        store.trace.subscribe(self._lose_data)

    def _lose_data(self, rec):
        """Cut the link under the next propagation-data the moment it is
        called (the record precedes the send), for a while."""
        if (self.lose_data_for is not None and rec.kind == "rpc-call"
                and rec.detail.get("method") in DATA_METHODS):
            src, dst = rec.node, rec.detail["dst"]
            network = self.store.network
            network.cut_link(src, dst)
            self.store.env.schedule(lambda: network.restore_link(src, dst),
                                    delay=self.lose_data_for)
            self.lose_data_for = None

    def step(self, index, fault, via, back_after, gap):
        store, nemesis = self.store, self.nemesis
        nemesis.disarm_all()
        self.lose_data_for = None
        if not store.nodes[via].up:
            store.recover(via)
        if fault == "coordinator-before-prepare":
            nemesis.crash_on("txn-begin", recover_after=back_after)
        elif fault == "coordinator-before-commit":
            nemesis.crash_on("txn-decided", recover_after=back_after)
        elif fault == "cut-commit":
            nemesis.crash_on("txn-prepared", fault="cut",
                             recover_after=back_after)
        elif fault == "participant":
            nemesis.crash_on("txn-prepared", recover_after=back_after)
        elif fault == "lose-data":
            self.lose_data_for = back_after
        if self.sharded:
            store.start_write(f"k{index % 2}", {"v": index}, via=via)
        else:
            store.start_write({f"k{index % 2}": index}, via=via)
        store.advance(gap)

    def finish(self):
        """Long enough for every deadline armed so far to come due."""
        self.nemesis.disarm_all()
        self.lose_data_for = None
        store = self.store
        store.advance(1.0)
        store.recover(*(name for name, node in store.nodes.items()
                        if not node.up))
        store.advance(store.config.lock_lease + 1.0)
        log = [(rec.time, rec.kind, rec.node, sorted(rec.detail.items()))
               for rec in store.trace]
        return log, self.draws, store.env.now, store.env.events_processed


def run_scenario(sharded, n_nodes, seed, steps):
    run = Run(sharded, n_nodes, seed)
    names = run.store.node_names
    for index, (fault, back_after, gap) in enumerate(steps):
        run.step(index, fault, names[index % n_nodes], back_after, gap)
    return run.finish()


def both(sharded, n_nodes, seed, steps):
    new = run_scenario(sharded, n_nodes, seed, steps)
    with reference_participant():
        old = run_scenario(sharded, n_nodes, seed, steps)
    return new, old


def kinds(log):
    return {kind for _time, kind, _node, _detail in log}


def calls(log, method):
    return [time for time, kind, _node, detail in log
            if kind == "rpc-call" and ("method", method) in detail]


steps = st.lists(
    st.tuples(st.sampled_from(FAULTS),
              st.sampled_from([0.3, 3.0, 12.0]),       # fault lifted after
              st.sampled_from([13.0, 16.5])),          # then the next step
    min_size=1, max_size=5)


class TestSameRunUnderBothParticipants:
    @given(st.booleans(), st.integers(3, 5), st.integers(0, 2 ** 16), steps)
    @settings(max_examples=120, deadline=None)
    def test_faulty_runs_log_the_same_run(self, sharded, n_nodes, seed,
                                          steps):
        (log, draws, now, entries), (old_log, old_draws, old_now,
                                     old_entries) = both(
            sharded, n_nodes, seed, steps)
        assert log == old_log
        assert draws == old_draws
        assert now == old_now
        assert entries < old_entries


class TestEveryDeadlineComesDue:
    """The comparison means something only where a deadline fires: each
    of the three does, at the same instant under both, in a run below."""

    def test_lock_lease(self):
        """The coordinator dies between its poll and its prepare and
        stays down: only the lease frees the polled replicas."""
        steps = [("coordinator-before-prepare", 12.0, 9.0)]
        for sharded in (False, True):
            new, old = both(sharded, 5, 3, steps)
            assert new[:3] == old[:3] and new[3] < old[3]
            expired = [time for time, kind, *_ in new[0]
                       if kind == "lock-lease-expired"]
            assert len(expired) >= 2
            assert all(8.0 < time < 8.2 for time in expired)

    def test_decision_wait_after_a_coordinator_crash(self):
        """The coordinator dies with its decision on disk and no commit
        sent: ``prepared_wait`` later every participant asks around."""
        steps = [("coordinator-before-commit", 3.0, 9.0)]
        for sharded in (False, True):
            new, old = both(sharded, 5, 4, steps)
            assert new[:3] == old[:3] and new[3] < old[3]
            asked = calls(new[0], "txn-status")
            assert asked and all(2.0 < time for time in asked)
            assert min(asked) < 2.2
            assert calls(new[0], "txn-status-peer")     # coordinator is down

    def test_decision_wait_after_a_lost_commit(self):
        steps = [("cut-commit", 3.0, 9.0)]
        new, old = both(False, 5, 5, steps)
        assert new[:3] == old[:3] and new[3] < old[3]
        assert len(calls(new[0], "txn-status")) >= 1

    def test_a_crashed_participant_has_nothing_armed_when_it_is_back(self):
        """Recovery, not a surviving deadline, resolves its prepare: the
        only ``txn-status`` it sends is the one ``_on_recover`` starts."""
        steps = [("participant", 0.3, 9.0)]
        new, old = both(False, 5, 6, steps)
        assert new[:3] == old[:3] and new[3] < old[3]
        assert {"node-crash", "node-recover"} <= kinds(new[0])

    @pytest.mark.parametrize("sharded", [False, True],
                             ids=["ReplicaServer", "ShardHost"])
    def test_permit_lease(self, sharded):
        """A replica marked stale grants a permit, the data is lost on
        the wire: only the permit's lease unlocks the replica again."""
        steps = [("none", 0.3, 0.6), ("participant", 3.0, 0.6),
                 ("lose-data", 3.0, 9.0), ("none", 0.3, 0.6)]
        new, old = both(sharded, 4, 1, steps)
        assert new[:3] == old[:3] and new[3] < old[3]
        method = "sh-propagation-data" if sharded else "propagation-data"
        assert len(calls(new[0], method)) >= 2          # lost, then resent
        assert "propagation-lease-expired" in kinds(new[0])
