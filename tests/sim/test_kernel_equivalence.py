"""The kernel's queue-entry rules against a kernel without them.

The production kernel queues no entry for a trigger nobody hears,
carries a process through a wait that has already been dispatched, runs
an RPC handler inside the delivery of its request, and resumes a caller
inside the delivery of the answer that completes its call or plain wave.
The *reference kernel* below exists only in this file: it queues every
trigger, resumes every wait from an entry of its own and starts every
generator handler as a process.  Random small programs run under both
and must produce the same ordered ``(time, label)`` log, drawing from one
shared random stream in the same order -- every message delay and every
pause is a draw, so a reordered draw shows as a changed time.

What the rules rely on, and the programs therefore keep to: a removed
entry would have been the next to pop, because nothing else is queued for
its instant.  Something else *is* queued when the running segment itself
put it there -- it woke a waiter, released a lock somebody queues for, or
interrupted a process -- so a script step that does one of those goes on
to a real wait (a drawn, positive pause) and meets already-dispatched
waits only at its start.  ``TestWhereTheKernelsDiffer`` pins the other
side of that line.
"""

import random
from contextlib import ExitStack, contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.participant import acquire_within
from repro.sim import engine
from repro.sim.engine import Environment, Event, Interrupt, SimulationError
from repro.sim.network import LatencyModel, Network
from repro.sim.node import Node
from repro.sim.rpc import RpcLayer

NODES = ("n0", "n1", "n2")


# -- the reference kernel -----------------------------------------------------

def _queued_succeed(self, value=None):
    """``Event.succeed`` that queues a dispatch whoever listens."""
    if self._ok is not None:
        raise SimulationError("event already triggered")
    self._ok = True
    self._value = value
    self.env._schedule(Event._dispatch, self)
    return self


def _one_step(generator, value=None, exception=None):
    """``advance`` that stops at every yield; a process then resumes from
    a dispatched wait at the next tick, in an entry of its own."""
    if exception is None:
        return generator.send(value)
    return generator.throw(exception)


def _spawn_every_handler(self, msg):
    """``RpcLayer._on_request`` that runs a generator handler as a node
    process from its first line."""
    request = msg.payload
    key = (request.reply_to, request.req_id)
    cached = self._served.get(key, self._ABSENT)
    if cached is not self._ABSENT:
        if cached is not self._IN_PROGRESS:
            self._reply(request, cached)
        return
    served = self._methods.get(request.method)
    if served is None:
        return
    handler, process_name = served
    result = handler(msg.src, request.args)
    if result is not None and hasattr(result, "send"):
        def respond_later():
            value = yield from result
            self._remember(key, value)
            self._reply(request, value)
        self._remember(key, self._IN_PROGRESS)
        self.node.spawn_as(respond_later(), process_name)
    else:
        self._remember(key, result)
        self._reply(request, result)


@contextmanager
def reference_kernel():
    with ExitStack() as stack:
        for owner, name, value in (
                (Event, "succeed", _queued_succeed),
                (Event, "succeed_in_place", _queued_succeed),
                (engine, "advance", _one_step),
                (RpcLayer, "_on_request", _spawn_every_handler)):
            stack.enter_context(mock.patch.object(owner, name, value))
        yield


# -- random small programs ------------------------------------------------------

class _LoggedRandom(random.Random):
    """The one random stream of a run; every draw goes into the log."""

    def __init__(self, seed, world):
        super().__init__(seed)
        self._world = world

    def uniform(self, a, b):
        value = super().uniform(a, b)
        self._world.note("draw", value)
        return value


class World:
    """Three nodes with a replica lock and an RPC endpoint each, two
    flags, an event dispatched long ago, and the scripts' interpreter."""

    def __init__(self, seed):
        self.log = []
        self.env = env = Environment()
        self.rng = _LoggedRandom(seed, self)
        network = Network(env, LatencyModel(0.001, 0.01, rng=self.rng))
        self.nodes = {name: Node(env, network, name) for name in NODES}
        self.rpcs = {name: RpcLayer(node, default_timeout=0.5)
                     for name, node in self.nodes.items()}
        self.locks = {name: node.make_lock("replica")
                      for name, node in self.nodes.items()}
        self.flags = [env.event(), env.event()]
        self.done = env.event().succeed("done")
        self.owners = 0
        self.processes = []
        for name in NODES:
            self._serve(name)

    def note(self, label, *values):
        self.log.append((self.env.now, label, *values))

    def pause(self, most=0.2):
        """A real wait: positive, drawn, so no two chains share an instant."""
        return self.env.timeout(self.rng.uniform(0.001, most))

    def owner(self, who):
        self.owners += 1
        return f"{who}#{self.owners}"

    # -- what the nodes serve ---------------------------------------------------
    def _serve(self, name):
        env, rpc, lock = self.env, self.rpcs[name], self.locks[name]
        other = NODES[(NODES.index(name) + 1) % len(NODES)]

        def plain(src, args):
            self.note(f"{name}:plain", src)
            return ("plain", name)

        def quick(src, args):           # a generator that never parks
            value = yield self.done
            self.note(f"{name}:quick", src, value)
            return ("quick", name)

        def locked(src, args):          # parks only behind a holder
            shared, hold = args
            owner = self.owner(f"{name}<-{src}")
            held = yield from acquire_within(env, lock, owner, shared, 0.05)
            self.note(f"{name}:locked", src, held)
            if held:
                if hold:
                    yield self.pause(0.1)
                lock.release(owner)
            return ("locked", name, held)

        def slow(src, args):            # always parks
            yield self.pause(0.3)
            self.note(f"{name}:slow", src)
            return ("slow", name)

        def nested(src, args):          # parks on a call of its own
            answer = yield rpc.call(other, "plain")
            self.note(f"{name}:nested", src, repr(answer))
            return ("nested", name, answer)

        for method, handler in (("plain", plain), ("quick", quick),
                                ("locked", locked), ("slow", slow),
                                ("nested", nested)):
            rpc.serve(method, handler)

    # -- what a script step does ---------------------------------------------------
    def run_script(self, who, start, steps):
        note, env = self.note, self.env
        held = {}                       # lock -> owner, while held or asked for
        try:
            yield env.timeout(start)
            for index, step in enumerate(steps):
                kind, here = step[0], f"{who}.{index}"
                if kind == "lock":
                    _, node, shared, hold = step
                    lock, owner = self.locks[NODES[node]], self.owner(who)
                    held[lock] = owner
                    got = yield from acquire_within(env, lock, owner,
                                                    shared, 0.05)
                    note(f"{here}:lock", got)
                    if got and hold:
                        yield self.pause(0.1)
                    lock.release(owner)
                    del held[lock]
                elif kind == "done":
                    note(f"{here}:done", (yield self.done))
                elif kind == "anyof":
                    members = [env.timeout(0.05), self.flags[step[1]]]
                    if step[2]:
                        members.append(self.done)
                    fired = yield env.any_of(members)
                    note(f"{here}:anyof", sorted(members.index(e)
                                                 for e in fired))
                elif kind == "signal":
                    flag = self.flags[step[1]]
                    if not flag.triggered:
                        flag.succeed(who)
                    note(f"{here}:signal")
                elif kind == "wait":
                    note(f"{here}:wait", (yield self.flags[step[1]]))
                elif kind == "call":
                    _, via, dst, method, shared, hold = step
                    answer = yield self.rpcs[NODES[via]].call(
                        NODES[dst], method, (shared, hold))
                    note(f"{here}:call", repr(answer))
                elif kind == "wave":
                    _, via, method, shared = step
                    answers = yield self.rpcs[NODES[via]].multicast(
                        NODES, method, (shared, False))
                    note(f"{here}:wave", repr(sorted(answers.items())))
                elif kind == "interrupt":
                    self.processes[step[1] % len(self.processes)].interrupt(
                        who)
                    note(f"{here}:interrupt")
                elif kind == "crash":
                    self.nodes[NODES[step[1]]].crash()
                    note(f"{here}:crash")
                elif kind == "recover":
                    self.nodes[NODES[step[1]]].recover()
                    note(f"{here}:recover")
                yield self.pause()
        except Interrupt as interrupt:
            for lock, owner in held.items():
                lock.cancel(owner)
                lock.release(owner)
            note(f"{who}:interrupted", interrupt.cause)
        return who


def run_program(seed, scripts):
    """One run: the log, where the clock stopped, entries processed."""
    world = World(seed)
    starts = random.Random(seed).sample(range(1, 1000), len(scripts))
    for index, steps in enumerate(scripts):
        who = f"p{index}"
        world.processes.append(world.env.process(
            world.run_script(who, starts[index] / 7919.0, steps), name=who))
    world.env.run()
    return world.log, world.env.now, world.env.events_processed


node = st.integers(0, len(NODES) - 1)
flag = st.integers(0, 1)
method = st.sampled_from(["plain", "quick", "locked", "slow", "nested"])
step = st.one_of(
    st.tuples(st.just("lock"), node, st.booleans(), st.booleans()),
    st.tuples(st.just("done")),
    st.tuples(st.just("anyof"), flag, st.booleans()),
    st.tuples(st.just("signal"), flag),
    st.tuples(st.just("wait"), flag),
    st.tuples(st.just("call"), node, node, method, st.booleans(),
              st.booleans()),
    st.tuples(st.just("wave"), node, method, st.booleans()),
    st.tuples(st.just("interrupt"), st.integers(0, 4)),
    st.tuples(st.just("crash"), node),
    st.tuples(st.just("recover"), node),
)
programs = st.lists(st.lists(step, min_size=1, max_size=6),
                    min_size=1, max_size=5)


class TestSameRunUnderBothKernels:
    @given(st.integers(0, 2 ** 32), programs)
    @settings(max_examples=200, deadline=None)
    def test_random_programs_log_the_same_run(self, seed, scripts):
        log, now, entries = run_program(seed, scripts)
        with reference_kernel():
            reference_log, reference_now, reference_entries = run_program(
                seed, scripts)
        assert log == reference_log
        assert now == reference_now
        assert entries <= reference_entries

    def test_the_reference_kernel_is_the_costlier_one(self):
        """The comparison means something only if the patches take: the
        same contended, crashing program costs the reference kernel well
        over the production kernel's entries."""
        scripts = [
            [("call", 0, 1, "locked", False, True), ("done",),
             ("wave", 0, "locked", True), ("call", 0, 2, "nested", 0, 0)],
            [("lock", 1, False, True), ("wave", 1, "quick", False),
             ("signal", 0), ("call", 1, 2, "slow", False, False)],
            [("wait", 0), ("lock", 1, True, False), ("crash", 2),
             ("call", 2, 0, "plain", False, False), ("recover", 2)],
            [("anyof", 1, True), ("interrupt", 0), ("lock", 1, True, True)],
        ]
        log, _now, entries = run_program(11, scripts)
        with reference_kernel():
            reference_log, _now, reference_entries = run_program(11, scripts)
        assert log == reference_log and len(log) > 40
        assert reference_entries > 1.5 * entries


class TestWhereTheKernelsDiffer:
    def test_a_segment_that_wakes_a_waiter_and_runs_on_overtakes_it(self):
        """The limit of the equivalence.  A segment that wakes a waiter
        and then passes a wait already dispatched runs on ahead of the
        waiter -- the same instant, the other order.  The protocol stacks
        send or return right after a release; the digests of
        ``test_order_equivalence.py`` hold them to it."""
        def run():
            env = Environment()
            lock = env.lock()
            done = env.event().succeed()
            order = []

            def waiter():
                yield lock.acquire("waiter")
                order.append("waiter")

            def holder():
                yield lock.acquire("holder")
                yield env.timeout(1.0)
                lock.release("holder")      # wakes the waiter ...
                yield done                  # ... and does not stop here
                order.append("holder")

            env.process(holder())
            env.process(waiter())
            env.run()
            return order

        assert run() == ["holder", "waiter"]
        with reference_kernel():
            assert run() == ["waiter", "holder"]
