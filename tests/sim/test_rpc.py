"""Tests for the RPC layer and its CALL_FAILED semantics."""

import random

import pytest

from repro.sim.engine import Environment, SimulationError
from repro.sim.network import LatencyModel, Network
from repro.sim.node import Node
from repro.sim.rpc import CALL_FAILED, CallFailed, RpcLayer
from repro.sim.trace import TraceLog


def make_cluster(n=3, timeout=0.5, min_delay=0.01, max_delay=0.01, seed=0):
    env = Environment()
    trace = TraceLog()
    net = Network(env, LatencyModel(min_delay, max_delay,
                                    rng=random.Random(seed)), trace=trace)
    nodes = [Node(env, net, f"n{i}") for i in range(n)]
    rpcs = [RpcLayer(node, default_timeout=timeout) for node in nodes]
    return env, net, nodes, rpcs, trace


class TestCallFailedSentinel:
    def test_singleton(self):
        assert CallFailed() is CALL_FAILED

    def test_falsy_and_repr(self):
        assert not CALL_FAILED
        assert repr(CALL_FAILED) == "CALL_FAILED"


class TestBasicCalls:
    def test_roundtrip(self):
        env, net, nodes, rpcs, trace = make_cluster()
        rpcs[1].serve("echo", lambda src, args: ("from", src, args))
        results = []

        def client(env):
            response = yield rpcs[0].call("n1", "echo", {"k": 1})
            results.append((env.now, response))

        env.process(client(env))
        env.run()
        assert results == [(0.02, ("from", "n0", {"k": 1}))]

    def test_call_to_down_node_fails_at_timeout(self):
        env, net, nodes, rpcs, trace = make_cluster(timeout=0.5)
        rpcs[1].serve("echo", lambda src, args: args)
        nodes[1].crash()
        results = []

        def client(env):
            response = yield rpcs[0].call("n1", "echo", 1)
            results.append((env.now, response))

        env.process(client(env))
        env.run()
        assert results == [(0.5, CALL_FAILED)]

    def test_call_across_partition_fails(self):
        env, net, nodes, rpcs, trace = make_cluster()
        rpcs[1].serve("echo", lambda src, args: args)
        net.partitions.partition(["n0"], ["n1", "n2"])
        results = []

        def client(env):
            results.append((yield rpcs[0].call("n1", "echo", 1)))

        env.process(client(env))
        env.run()
        assert results == [CALL_FAILED]

    def test_unknown_method_fails_at_timeout(self):
        env, net, nodes, rpcs, trace = make_cluster()
        results = []

        def client(env):
            results.append((yield rpcs[0].call("n1", "nope", 1)))

        env.process(client(env))
        env.run()
        assert results == [CALL_FAILED]

    def test_per_call_timeout_override(self):
        env, net, nodes, rpcs, trace = make_cluster(timeout=10.0)
        nodes[1].crash()
        results = []

        def client(env):
            response = yield rpcs[0].call("n1", "echo", 1, timeout=0.1)
            results.append((env.now, response))

        env.process(client(env))
        env.run()
        assert results == [(0.1, CALL_FAILED)]

    def test_generator_handler_can_wait(self):
        env, net, nodes, rpcs, trace = make_cluster(timeout=5.0)

        def handler(src, args):
            yield env.timeout(1.0)
            return args * 2

        rpcs[1].serve("double", handler)
        results = []

        def client(env):
            response = yield rpcs[0].call("n1", "double", 21)
            results.append((env.now, response))

        env.process(client(env))
        env.run()
        assert results == [(1.02, 42)]

    def test_late_response_after_timeout_ignored(self):
        env, net, nodes, rpcs, trace = make_cluster(timeout=0.5)

        def handler(src, args):
            yield env.timeout(1.0)  # slower than the caller's timeout
            return "late"

        rpcs[1].serve("slow", handler)
        results = []

        def client(env):
            results.append((yield rpcs[0].call("n1", "slow", None)))
            yield env.timeout(5.0)  # let the late response arrive

        env.process(client(env))
        env.run()
        assert results == [CALL_FAILED]

    def test_callee_crash_mid_handler_means_call_failed(self):
        env, net, nodes, rpcs, trace = make_cluster(timeout=2.0)

        def handler(src, args):
            yield env.timeout(1.0)
            return "done"

        rpcs[1].serve("work", handler)
        results = []

        def client(env):
            results.append((yield rpcs[0].call("n1", "work", None)))

        def crasher(env):
            yield env.timeout(0.5)
            nodes[1].crash()

        env.process(client(env))
        env.process(crasher(env))
        env.run()
        assert results == [CALL_FAILED]

    def test_concurrent_calls_keep_ids_apart(self):
        env, net, nodes, rpcs, trace = make_cluster(timeout=5.0)
        rpcs[1].serve("id", lambda src, args: args)
        rpcs[2].serve("id", lambda src, args: args)
        results = {}

        def client(env, dst, tag):
            results[tag] = yield rpcs[0].call(dst, "id", tag)

        env.process(client(env, "n1", "a"))
        env.process(client(env, "n2", "b"))
        env.run()
        assert results == {"a": "a", "b": "b"}


class TestMulticast:
    def test_gathers_all(self):
        env, net, nodes, rpcs, trace = make_cluster(n=4, timeout=1.0)
        for i in (1, 2, 3):
            rpcs[i].serve("state", lambda src, args, i=i: f"state{i}")
        results = []

        def client(env):
            responses = yield rpcs[0].multicast(["n1", "n2", "n3"], "state")
            results.append(responses)

        env.process(client(env))
        env.run()
        assert results == [{"n1": "state1", "n2": "state2", "n3": "state3"}]

    def test_mixed_responses_and_failures(self):
        env, net, nodes, rpcs, trace = make_cluster(n=4, timeout=0.3)
        for i in (1, 2, 3):
            rpcs[i].serve("state", lambda src, args, i=i: i)
        nodes[2].crash()
        results = []

        def client(env):
            responses = yield rpcs[0].multicast(["n1", "n2", "n3"], "state")
            results.append(responses)

        env.process(client(env))
        env.run()
        assert results == [{"n1": 1, "n2": CALL_FAILED, "n3": 3}]

    def test_empty_multicast_completes(self):
        env, net, nodes, rpcs, trace = make_cluster()
        results = []

        def client(env):
            results.append((yield rpcs[0].multicast([], "state")))

        env.process(client(env))
        env.run()
        assert results == [{}]

    def test_self_call_in_multicast(self):
        env, net, nodes, rpcs, trace = make_cluster(timeout=1.0)
        rpcs[0].serve("state", lambda src, args: "me")
        results = []

        def client(env):
            results.append((yield rpcs[0].multicast(["n0"], "state")))

        env.process(client(env))
        env.run()
        assert results == [{"n0": "me"}]


class TestCallerCrash:
    def test_pending_calls_resolve_when_caller_crashes(self):
        env, net, nodes, rpcs, trace = make_cluster(timeout=10.0)

        def handler(src, args):
            yield env.timeout(5.0)
            return "slow"

        rpcs[1].serve("slow", handler)
        observed = []

        def client(env):
            observed.append((yield rpcs[0].call("n1", "slow", None)))

        def crasher(env):
            yield env.timeout(1.0)
            nodes[0].crash()

        nodes[0].spawn(client(env))  # the client runs on (and dies with) n0
        env.process(crasher(env))
        env.run()
        # The client process died with its node; nothing observed, and the
        # simulation drains without deadlock.
        assert observed == []
        assert rpcs[0].pending_calls() == ()
        assert env.now == 5.02      # the handler's reply; no timer at t=10

    def test_a_crashed_callers_timers_are_withdrawn(self):
        env, net, nodes, rpcs, trace = make_cluster(timeout=10.0)
        rpcs[0].call("n1", "nope")
        rpcs[0].call_wave({"n1": ("nope", None), "n2": ("nope", None)})
        assert env.queue_size == 5          # three deliveries, two timers
        nodes[0].crash()
        assert env.queue_size == 3
        env.run()
        assert env.now == 0.01              # nothing left to fire at t=10


class TestHandlersRunInTheDelivery:
    """A generator handler runs inside the delivery of its request up to
    its first real wait; only one that parks becomes a node process."""

    def test_a_handler_that_never_parks_creates_no_process(self):
        env, net, nodes, rpcs, trace = make_cluster(timeout=5.0)
        lock = nodes[1].make_lock("replica")
        ran = []

        def handler(src, args):
            yield lock.acquire(args)        # uncontended: grants at once
            ran.append((env.now, args))
            lock.release(args)
            return "held"

        rpcs[1].serve("take", handler)
        answer = rpcs[0].call("n1", "take", "op")
        env.step()                          # the delivery of the request
        assert ran == [(0.01, "op")]
        assert nodes[1].live_processes() == [] and nodes[1]._processes == []
        assert rpcs[1].inflight_handlers() == ()
        assert rpcs[1]._served[("n0", 1)] == "held"   # remembered answered
        env.step()                          # the delivery of the answer
        assert answer.value == "held"
        assert env.events_processed == 2    # a call is its two deliveries
        assert env.queue_size == 0          # and its timer is withdrawn

    def test_its_duplicate_is_answered_from_the_cache(self):
        env, net, nodes, rpcs, trace = make_cluster(timeout=5.0)
        runs = []

        def handler(src, args):
            runs.append(args)
            return "once"
            yield                           # a generator that never waits

        rpcs[1].serve("work", handler)
        rpcs[0].call("n1", "work", 1)
        request = next(iter(env._queue))[3]
        env.step()
        nodes[1]._on_message(request)       # the same datagram again
        assert runs == [1]
        (duplicate,) = trace.select(kind="rpc-duplicate")
        assert duplicate.detail["state"] == "answered"

    def test_a_handler_that_parks_is_a_named_interruptible_process(self):
        env, net, nodes, rpcs, trace = make_cluster(timeout=5.0)
        caught = []

        def handler(src, args):
            try:
                yield env.timeout(1.0)
            except Exception as exc:
                caught.append(exc)
                raise
            return "late"

        rpcs[1].serve("slow", handler)
        answer = rpcs[0].call("n1", "slow")
        request = next(iter(env._queue))[3]
        env.step()
        (process,) = nodes[1].live_processes()
        assert process.name == "n1:rpc-slow"
        assert rpcs[1].inflight_handlers() == (("n0", 1),)
        nodes[1]._on_message(request)       # a duplicate finds it running
        (duplicate,) = trace.select(kind="rpc-duplicate")
        assert duplicate.detail["state"] == "in-progress"
        nodes[1].crash()
        env.run()
        assert [type(exc).__name__ for exc in caught] == ["Interrupt"]
        assert not process.is_alive and answer.value is CALL_FAILED
        assert rpcs[1].inflight_handlers() == ()

    def test_a_parked_handler_answers_when_it_returns(self):
        env, net, nodes, rpcs, trace = make_cluster(timeout=5.0)
        lock = nodes[1].make_lock("replica")
        lock.acquire("holder")

        def handler(src, args):
            yield lock.acquire("op")        # queues behind the holder
            yield env.timeout(0.5)
            return env.now

        rpcs[1].serve("take", handler)
        answer = rpcs[0].call("n1", "take")
        env.schedule(lambda: lock.release("holder"), delay=1.0)
        env.run()
        assert answer.value == 1.5
        assert rpcs[1]._served[("n0", 1)] == 1.5
        assert nodes[1].live_processes() == []

    def test_a_parked_handler_whose_wait_fails_gets_the_exception(self):
        env, net, nodes, rpcs, trace = make_cluster(timeout=5.0)
        gate = env.event()

        def handler(src, args):
            try:
                yield gate
            except KeyError:
                return "recovered"

        rpcs[1].serve("wait", handler)
        answer = rpcs[0].call("n1", "wait")
        env.schedule(lambda: gate.fail(KeyError("x")), delay=1.0)
        env.run()
        assert answer.value == "recovered"

    def test_a_handler_that_raises_at_once_surfaces_from_step(self):
        env, net, nodes, rpcs, trace = make_cluster()

        def handler(src, args):
            raise ValueError("bad request")
            yield

        rpcs[1].serve("boom", handler)
        rpcs[0].call("n1", "boom")
        with pytest.raises(SimulationError,
                           match=r"process 'n1:rpc-boom' died: "
                                 r"ValueError\('bad request'\)"):
            env.run()

    def test_a_handler_that_yields_no_event_surfaces_too(self):
        env, net, nodes, rpcs, trace = make_cluster()

        def handler(src, args):
            yield None

        rpcs[1].serve("odd", handler)
        rpcs[0].call("n1", "odd")
        with pytest.raises(SimulationError, match="'n1:rpc-odd' yielded None"):
            env.run()

    def test_a_handler_that_raises_after_parking_surfaces_too(self):
        env, net, nodes, rpcs, trace = make_cluster()

        def handler(src, args):
            yield env.timeout(0.1)
            raise ValueError("bad request")

        rpcs[1].serve("boom", handler)
        rpcs[0].call("n1", "boom")
        with pytest.raises(SimulationError, match="'n1:rpc-boom' died"):
            env.run()


class TestCompletionInPlace:
    """The delivery of the answer that completes a call or a plain wave
    resumes the caller inside that delivery; the deadline is withdrawn."""

    def test_a_call_resumes_its_caller_inside_the_answers_delivery(self):
        env, net, nodes, rpcs, trace = make_cluster(timeout=5.0)
        rpcs[1].serve("echo", lambda src, args: args)
        got = []

        def client(env):
            got.append((yield rpcs[0].call("n1", "echo", "x")))

        env.process(client(env))
        env.step()                          # the client starts and calls
        env.step()                          # the request is delivered
        assert got == []
        env.step()                          # the answer is delivered
        assert got == ["x"]
        assert env.queue_size == 0 and env.now == 0.02

    def test_a_plain_wave_resumes_its_caller_inside_the_last_delivery(self):
        env, net, nodes, rpcs, trace = make_cluster(timeout=5.0)
        for rpc in rpcs[1:]:
            rpc.serve("echo", lambda src, args: args)
        got = []

        def client(env):
            got.append((yield rpcs[0].multicast(["n1", "n2"], "echo", 7)))

        env.process(client(env))
        for _ in range(4):                  # start, two requests, an answer
            env.step()
        assert got == []
        env.step()                          # the last answer
        assert got == [{"n1": 7, "n2": 7}]
        assert env.queue_size == 0
        assert rpcs[0].pending_calls() == ()

    def test_a_deadline_still_fires_at_its_time(self):
        env, net, nodes, rpcs, trace = make_cluster(timeout=0.5)
        rpcs[1].serve("echo", lambda src, args: args)
        nodes[2].crash()
        got = []

        def client(env):
            answer = yield rpcs[0].call("n2", "echo")
            got.append((env.now, answer))
            answers = yield rpcs[0].multicast(["n1", "n2"], "echo", 1,
                                              timeout=0.25)
            got.append((env.now, answers))

        env.process(client(env))
        env.run()
        assert got == [(0.5, CALL_FAILED),
                       (0.75, {"n1": 1, "n2": CALL_FAILED})]
