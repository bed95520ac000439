"""``Node.timer``: a deadline that dies with its node.

``Environment.timer`` with the bookkeeping a host needs: a deadline is
named by what it would do (``call``, ``arg``) and withdrawn under that
name, and the node withdraws every one it still has armed when it
crashes, where it interrupts its processes -- so the replica stacks can
keep their lock leases, decision waits and propagation permits as
timers instead of sleeping processes (docs/API.md, rule R4).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.engine import Environment, SimulationError
from repro.sim.network import LatencyModel, Network
from repro.sim.node import Node

SRC = Path(__file__).resolve().parents[2] / "src"


def make_node(name="n0"):
    env = Environment()
    return env, Node(env, Network(env, LatencyModel(0.001, 0.001)), name)


class TestNodeTimer:
    def test_a_timer_that_comes_due_calls_once_and_is_forgotten(self):
        env, node = make_node()
        got = []
        node.timer(2.0, got.append, "due")
        assert node.armed_timers() == (("append", "due"),)
        env.run()
        assert got == ["due"] and env.now == 2.0
        assert env.events_processed == 1
        assert node.armed_timers() == ()
        node.cancel_timer(got.append, "due")        # too late: a no-op

    def test_a_cancelled_timer_costs_no_entry_and_is_forgotten(self):
        env, node = make_node()
        got = []
        node.timer(2.0, got.append, "never")
        node.cancel_timer(got.append, "never")
        node.cancel_timer(got.append, "never")      # idempotent
        assert node.armed_timers() == ()
        assert env.run() == 0.0             # the clock is not dragged to 2.0
        assert got == [] and env.events_processed == 0

    def test_arming_the_same_deadline_again_replaces_it(self):
        env, node = make_node()
        got = []
        node.timer(2.0, got.append, "x")
        node.timer(5.0, got.append, "x")
        assert node.armed_timers() == (("append", "x"),)
        env.run()
        assert got == ["x"] and env.now == 5.0 and env.events_processed == 1

    def test_a_crash_withdraws_every_armed_timer(self):
        env, node = make_node()
        got = []
        for delay in (1.0, 2.0, 3.0):
            node.timer(delay, got.append, delay)
        env.run(until=1.5)
        assert got == [1.0]
        node.crash()
        assert node.armed_timers() == () and env.queue_size == 0
        node.recover()
        env.run(until=10.0)
        assert got == [1.0]                 # none fires after recovery

    def test_a_timer_armed_after_recovery_is_live(self):
        env, node = make_node()
        got = []
        node.timer(1.0, got.append, "before")
        node.crash()
        node.recover()
        node.timer(1.0, got.append, "after")
        env.run()
        assert got == ["after"]

    def test_a_crash_queues_nothing_for_its_timers(self):
        """A sleeping process costs a crash one interrupt entry; a timer
        costs it none."""
        env, node = make_node()
        for i in range(50):
            node.timer(8.0, print, i)
        node.crash()
        assert env.queue_size == 0
        env.run()
        assert env.events_processed == 0

    def test_only_the_crashed_nodes_timers_go(self):
        env = Environment()
        network = Network(env, LatencyModel(0.001, 0.001))
        a, b = Node(env, network, "a"), Node(env, network, "b")
        got = []
        a.timer(1.0, got.append, "a")
        b.timer(1.0, got.append, "b")
        a.crash()
        env.run()
        assert got == ["b"]

    def test_armed_timers_read_in_arming_order(self):
        _env, node = make_node()
        got = []
        # armed out of due order, and some withdrawn in between
        for delay in (5.0, 1.0, 4.0, 2.0, 3.0):
            node.timer(delay, got.append, delay)
        node.cancel_timer(got.append, 1.0)
        node.cancel_timer(got.append, 2.0)
        assert node.armed_timers() == (
            ("append", 5.0), ("append", 4.0), ("append", 3.0))

    def test_ten_thousand_arm_cancel_cycles_leave_nothing_behind(self):
        env, node = make_node()
        for i in range(10_000):
            node.timer(8.0, print, i)
            node.cancel_timer(print, i)
        assert node.armed_timers() == () and not node._timers
        assert len(env._queue) <= 2 and env.queue_size == 0
        assert env.run() == 0.0 and env.events_processed == 0

    def test_the_bookkeeping_is_exactly_the_armed_ones(self):
        env, node = make_node()
        for i in range(500):
            node.timer(8.0, print, i)
        for i in range(10_000):
            node.timer(8.0, print, -1 - i)
            node.cancel_timer(print, -1 - i)
        assert len(node._timers) == len(node.armed_timers()) == 500
        env.run(until=9.0)                  # they all come due
        assert not node._timers and env.events_processed == 500

    def test_a_negative_delay_is_refused_and_nothing_is_kept(self):
        env, node = make_node()
        with pytest.raises(SimulationError, match="negative timeout delay"):
            node.timer(-1, print)
        assert node.armed_timers() == () and env.queue_size == 0


PROGRAM = """
import random
from repro.sim.engine import Environment
from repro.sim.network import LatencyModel, Network
from repro.sim.node import Node

env = Environment()
network = Network(env, LatencyModel(0.001, 0.001))
nodes = [Node(env, network, f"n{i}") for i in range(3)]
rng = random.Random(7)
log = []
armed = []
for i in range(300):
    node = rng.choice(nodes)
    node.timer(rng.choice((1.0, 2.0, 3.0)), log.append, f"{node.name}/{i}")
    armed.append((node, f"{node.name}/{i}"))
for node, label in rng.sample(armed, 120):
    node.cancel_timer(log.append, label)
env.run(until=1.5)
nodes[1].crash()
print([node.armed_timers() for node in nodes])
env.run()
print(log, env.events_processed)
"""


def test_order_is_independent_of_the_hash_seed():
    """The armed set is keyed by (bound method, argument): identities
    and strings, whose hashes change from run to run.  Neither may reach
    the order timers fire or are listed in."""
    outputs = set()
    for hash_seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-c", PROGRAM], env=env,
                              capture_output=True, text=True, check=True)
        outputs.add(done.stdout)
    assert len(outputs) == 1
    assert "n0/" in outputs.pop()
