"""Unit tests for the discrete-event simulation kernel."""

import random

import pytest

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    Process,
    SimulationError,
    SimulationStalled,
    Timeout,
    advance,
)


class TestClockAndTimeouts:
    def test_clock_starts_at_zero(self):
        env = Environment()
        assert env.now == 0.0

    def test_timeout_advances_clock(self):
        env = Environment()
        fired = []

        def proc(env):
            yield env.timeout(3.5)
            fired.append(env.now)

        env.process(proc(env))
        env.run()
        assert fired == [3.5]

    def test_timeouts_fire_in_time_order(self):
        env = Environment()
        order = []

        def proc(env, name, delay):
            yield env.timeout(delay)
            order.append(name)

        env.process(proc(env, "late", 5.0))
        env.process(proc(env, "early", 1.0))
        env.process(proc(env, "mid", 3.0))
        env.run()
        assert order == ["early", "mid", "late"]

    def test_equal_times_fire_in_schedule_order(self):
        env = Environment()
        order = []

        def proc(env, name):
            yield env.timeout(1.0)
            order.append(name)

        for name in "abcd":
            env.process(proc(env, name))
        env.run()
        assert order == list("abcd")

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Timeout(env, -1.0)

    def test_run_until_stops_early(self):
        env = Environment()
        fired = []

        def proc(env):
            yield env.timeout(10.0)
            fired.append(True)

        env.process(proc(env))
        stopped_at = env.run(until=4.0)
        assert stopped_at == 4.0
        assert env.now == 4.0
        assert not fired
        env.run()
        assert fired == [True]

    def test_run_until_beyond_queue_advances_clock(self):
        env = Environment()
        assert env.run(until=7.0) == 7.0
        assert env.now == 7.0

    def test_timeout_carries_value(self):
        env = Environment()
        got = []

        def proc(env):
            value = yield env.timeout(1.0, value="payload")
            got.append(value)

        env.process(proc(env))
        env.run()
        assert got == ["payload"]

    def test_zero_delay_timeout_runs_same_time(self):
        env = Environment()
        times = []

        def proc(env):
            yield env.timeout(0.0)
            times.append(env.now)

        env.process(proc(env))
        env.run()
        assert times == [0.0]


class TestEvents:
    def test_succeed_delivers_value(self):
        env = Environment()
        event = env.event()
        got = []

        def waiter(env, event):
            got.append((yield event))

        env.process(waiter(env, event))

        def trigger(env, event):
            yield env.timeout(1.0)
            event.succeed(42)

        env.process(trigger(env, event))
        env.run()
        assert got == [42]

    def test_fail_raises_in_waiter(self):
        env = Environment()
        event = env.event()
        caught = []

        def waiter(env, event):
            try:
                yield event
            except ValueError as exc:
                caught.append(str(exc))

        env.process(waiter(env, event))

        def trigger(env, event):
            yield env.timeout(1.0)
            event.fail(ValueError("boom"))

        env.process(trigger(env, event))
        env.run()
        assert caught == ["boom"]

    def test_double_trigger_rejected(self):
        env = Environment()
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)
        with pytest.raises(SimulationError):
            event.fail(ValueError())

    def test_value_before_trigger_rejected(self):
        env = Environment()
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_waiting_on_already_fired_event(self):
        env = Environment()
        event = env.event()
        event.succeed("early")
        got = []

        def waiter(env, event):
            got.append((yield event))

        env.process(waiter(env, event))
        env.run()
        assert got == ["early"]

    def test_multiple_waiters_all_resumed(self):
        env = Environment()
        event = env.event()
        got = []

        def waiter(env, event, name):
            value = yield event
            got.append((name, value))

        for name in ("a", "b", "c"):
            env.process(waiter(env, event, name))

        def trigger(env, event):
            yield env.timeout(2.0)
            event.succeed("x")

        env.process(trigger(env, event))
        env.run()
        assert sorted(got) == [("a", "x"), ("b", "x"), ("c", "x")]


class TestConditions:
    def test_all_of_waits_for_all(self):
        env = Environment()
        done = []

        def proc(env):
            t1 = env.timeout(1.0, value="one")
            t2 = env.timeout(3.0, value="three")
            results = yield env.all_of([t1, t2])
            done.append((env.now, sorted(results.values())))

        env.process(proc(env))
        env.run()
        assert done == [(3.0, ["one", "three"])]

    def test_any_of_fires_on_first(self):
        env = Environment()
        done = []

        def proc(env):
            t1 = env.timeout(1.0, value="fast")
            t2 = env.timeout(9.0, value="slow")
            results = yield env.any_of([t1, t2])
            done.append((env.now, list(results.values())))

        env.process(proc(env))
        env.run()
        assert done == [(1.0, ["fast"])]

    def test_all_of_empty_fires_immediately(self):
        env = Environment()
        done = []

        def proc(env):
            results = yield env.all_of([])
            done.append(results)

        env.process(proc(env))
        env.run()
        assert done == [{}]

    def test_all_of_with_pretriggered_events(self):
        env = Environment()
        event = env.event()
        event.succeed(7)
        done = []

        def proc(env, event):
            results = yield env.all_of([event, env.timeout(1.0, value=8)])
            done.append(sorted(results.values()))

        env.process(proc(env, event))
        env.run()
        assert done == [[7, 8]]

    def test_all_of_propagates_failure(self):
        env = Environment()
        event = env.event()
        caught = []

        def proc(env, event):
            try:
                yield env.all_of([event, env.timeout(5.0)])
            except RuntimeError as exc:
                caught.append(str(exc))

        env.process(proc(env, event))

        def trigger(env, event):
            yield env.timeout(1.0)
            event.fail(RuntimeError("part failed"))

        env.process(trigger(env, event))
        env.run()
        assert caught == ["part failed"]


class TestProcesses:
    def test_process_return_value(self):
        env = Environment()

        def child(env):
            yield env.timeout(1.0)
            return "result"

        def parent(env):
            value = yield env.process(child(env))
            return value

        parent_proc = env.process(parent(env))
        env.run()
        assert parent_proc.value == "result"

    def test_process_exception_propagates_to_run(self):
        env = Environment()

        def broken(env):
            yield env.timeout(1.0)
            raise KeyError("bug")

        env.process(broken(env))
        with pytest.raises(SimulationError):
            env.run()

    def test_interrupt_raises_in_process(self):
        env = Environment()
        caught = []

        def victim(env):
            try:
                yield env.timeout(100.0)
            except Interrupt as interrupt:
                caught.append((env.now, interrupt.cause))

        process = env.process(victim(env))

        def killer(env, process):
            yield env.timeout(2.0)
            process.interrupt("die")

        env.process(killer(env, process))
        env.run()
        assert caught == [(2.0, "die")]

    def test_interrupt_finished_process_is_noop(self):
        env = Environment()

        def quick(env):
            yield env.timeout(1.0)

        process = env.process(quick(env))
        env.run()
        process.interrupt("too late")
        env.run()
        assert process.triggered

    def test_unhandled_interrupt_terminates_quietly(self):
        env = Environment()

        def victim(env):
            yield env.timeout(100.0)

        process = env.process(victim(env))

        def killer(env, process):
            yield env.timeout(1.0)
            process.interrupt()

        env.process(killer(env, process))
        env.run()
        assert process.triggered and process.ok

    def test_interrupted_process_does_not_resume_on_old_event(self):
        env = Environment()
        resumed = []

        def victim(env):
            try:
                yield env.timeout(5.0)
                resumed.append("timeout")
            except Interrupt:
                yield env.timeout(100.0)
                resumed.append("after-interrupt")

        process = env.process(victim(env))

        def killer(env, process):
            yield env.timeout(1.0)
            process.interrupt()

        env.process(killer(env, process))
        env.run()
        assert resumed == ["after-interrupt"]
        assert env.now == 101.0

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_yielding_non_event_fails_process(self):
        env = Environment()

        def bad(env):
            yield 42

        env.process(bad(env))
        with pytest.raises(SimulationError):
            env.run()


class TestLock:
    def test_exclusive_mutual_exclusion(self):
        env = Environment()
        lock = env.lock()
        order = []

        def worker(env, lock, name, hold):
            yield lock.acquire(name)
            order.append(("acq", name, env.now))
            yield env.timeout(hold)
            lock.release(name)
            order.append(("rel", name, env.now))

        env.process(worker(env, lock, "a", 2.0))
        env.process(worker(env, lock, "b", 1.0))
        env.run()
        assert order == [
            ("acq", "a", 0.0), ("rel", "a", 2.0),
            ("acq", "b", 2.0), ("rel", "b", 3.0),
        ]

    def test_shared_holders_coexist(self):
        env = Environment()
        lock = env.lock()
        concurrent = []

        def reader(env, lock, name):
            yield lock.acquire(name, shared=True)
            concurrent.append(len(lock.holders))
            yield env.timeout(1.0)
            lock.release(name)

        env.process(reader(env, lock, "r1"))
        env.process(reader(env, lock, "r2"))
        env.run()
        assert max(concurrent) == 2

    def test_exclusive_waits_for_shared(self):
        env = Environment()
        lock = env.lock()
        times = {}

        def reader(env, lock):
            yield lock.acquire("reader", shared=True)
            yield env.timeout(2.0)
            lock.release("reader")

        def writer(env, lock):
            yield env.timeout(0.5)
            yield lock.acquire("writer")
            times["writer"] = env.now
            lock.release("writer")

        env.process(reader(env, lock))
        env.process(writer(env, lock))
        env.run()
        assert times["writer"] == 2.0

    def test_fifo_no_starvation_for_writer(self):
        env = Environment()
        lock = env.lock()
        times = {}

        def reader(env, lock, name, start):
            yield env.timeout(start)
            yield lock.acquire(name, shared=True)
            yield env.timeout(2.0)
            lock.release(name)

        def writer(env, lock):
            yield env.timeout(0.5)
            yield lock.acquire("writer")
            times["writer"] = env.now
            lock.release("writer")

        env.process(reader(env, lock, "r1", 0.0))
        env.process(reader(env, lock, "r2", 1.0))  # arrives after the writer
        env.process(writer(env, lock))
        env.run()
        # r2 queued behind the writer, so the writer runs at r1's release.
        assert times["writer"] == 2.0

    def test_release_unheld_is_noop(self):
        env = Environment()
        lock = env.lock()
        lock.release("ghost")
        assert not lock.locked

    def test_reacquire_while_holding_rejected(self):
        env = Environment()
        lock = env.lock()

        def proc(env, lock):
            yield lock.acquire("me")
            with pytest.raises(SimulationError):
                lock.acquire("me")
            lock.release("me")

        env.process(proc(env, lock))
        env.run()

    def test_reset_evicts_and_fails_waiters(self):
        env = Environment()
        lock = env.lock()
        outcomes = []

        def holder(env, lock):
            yield lock.acquire("holder")
            yield env.timeout(10.0)

        def waiter(env, lock):
            try:
                yield lock.acquire("waiter")
                outcomes.append("granted")
            except Interrupt:
                outcomes.append("interrupted")

        def resetter(env, lock):
            yield env.timeout(1.0)
            lock.reset()

        env.process(holder(env, lock))
        env.process(waiter(env, lock))
        env.process(resetter(env, lock))
        env.run()
        assert outcomes == ["interrupted"]
        assert not lock.locked

    def test_cancel_withdraws_waiter(self):
        env = Environment()
        lock = env.lock()
        got = []

        def holder(env, lock):
            yield lock.acquire("holder")
            yield env.timeout(2.0)
            lock.release("holder")

        def impatient(env, lock):
            request = lock.acquire("impatient")
            yield env.timeout(1.0)
            if not request.triggered:
                lock.cancel("impatient")
                got.append("gave-up")

        def other(env, lock):
            yield env.timeout(0.5)
            yield lock.acquire("other")
            got.append(("other", env.now))
            lock.release("other")

        env.process(holder(env, lock))
        env.process(impatient(env, lock))
        env.process(other(env, lock))
        env.run()
        assert "gave-up" in got
        assert ("other", 2.0) in got


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            import random
            env = Environment()
            rng = random.Random(1234)
            log = []

            def proc(env, rng, name):
                for _ in range(20):
                    yield env.timeout(rng.expovariate(1.0))
                    log.append((round(env.now, 9), name))

            for name in ("a", "b", "c"):
                env.process(proc(env, rng, name))
            env.run()
            return log

        assert run_once() == run_once()


class TestPublicScheduling:
    """Environment.schedule: the public face of the callback queue."""

    def test_schedule_runs_callback_after_delay(self):
        env = Environment()
        fired = []
        env.schedule(lambda: fired.append(env.now), delay=2.5)
        env.run(until=2.0)
        assert fired == []
        env.run(until=3.0)
        assert fired == [2.5]

    def test_schedule_default_delay_is_immediate(self):
        env = Environment()
        fired = []
        env.schedule(lambda: fired.append(env.now))
        env.run(until=1.0)
        assert fired == [0.0]


class TestStepAndRunUntil:
    def test_step_on_an_empty_queue_is_a_simulation_error(self):
        env = Environment()
        with pytest.raises(SimulationError, match="empty queue"):
            env.step()

    def test_run_until_stops_at_the_entry_that_triggers_the_last_event(self):
        env = Environment()
        env.timeout(9.0)        # a timer nobody waits for, seconds ahead

        def worker(env, delay):
            yield env.timeout(delay)
            return delay

        slow = env.process(worker(env, 2.0))
        fast = env.process(worker(env, 1.0))
        env.run_until([slow, fast])
        assert (fast.value, slow.value) == (1.0, 2.0)
        assert env.now == 2.0
        # two process starts and two timeouts; a finished process nobody
        # waits for queues nothing, so only the stray timer is left
        assert env.events_processed == 4
        assert env.queue_size == 1

    def test_run_until_returns_at_once_when_everything_has_triggered(self):
        env = Environment()
        done = env.event().succeed(1)
        env.run_until([done])
        assert env.events_processed == 0

    def test_run_until_counts_every_awaited_event_once(self):
        env = Environment()

        def worker(env, delay):
            yield env.timeout(delay)

        # whichever order completions come in, the last one ends the run
        for delays in ([1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [2.0, 3.0, 1.0]):
            workers = [env.process(worker(env, d)) for d in delays]
            start = env.now
            env.run_until(workers)
            assert env.now == start + 3.0
            assert all(w.triggered for w in workers)

    def test_run_until_raises_when_the_queue_drains(self):
        env = Environment()
        never = env.event()
        env.timeout(1.0)
        with pytest.raises(SimulationStalled, match="drained"):
            env.run_until([never])
        assert env.now == 1.0

    def test_run_until_raises_at_the_deadline(self):
        env = Environment()

        def ticker(env):
            while True:
                yield env.timeout(1.0)

        env.process(ticker(env))
        never = env.event()
        with pytest.raises(SimulationStalled, match="pending"):
            env.run_until([never], deadline=3.0)
        assert env.now == 3.0

    def test_run_until_goes_through_step(self):
        """A wrapped ``step`` (the benchmark's tracer wraps it) sees
        every entry ``run_until`` processes."""
        class Counting(Environment):
            steps = 0

            def step(self):
                self.steps += 1
                super().step()

        env = Counting()

        def worker(env):
            yield env.timeout(1.0)

        env.run_until([env.process(worker(env))])
        assert env.steps == env.events_processed == 2

    def test_run_until_propagates_a_process_crash(self):
        env = Environment()

        def bad(env):
            yield env.timeout(1.0)
            raise ValueError("boom")

        with pytest.raises(SimulationError, match="died") as died:
            env.run_until([env.process(bad(env)), env.event()])
        assert not isinstance(died.value, SimulationStalled)


class TestLockGrantBatches:
    def test_shared_readers_behind_a_writer_are_granted_together(self):
        env = Environment()
        lock = env.lock()
        lock.acquire("writer")
        readers = [lock.acquire(f"r{i}", shared=True) for i in range(5)]
        behind = lock.acquire("next-writer")
        assert not any(r.triggered for r in readers)
        lock.release("writer")
        assert all(r.triggered for r in readers)
        assert set(lock.holders) == {f"r{i}" for i in range(5)}
        assert not behind.triggered
        for i in range(5):
            assert not behind.triggered
            lock.release(f"r{i}")
        assert behind.triggered and lock.holders == ("next-writer",)

    def test_a_reader_does_not_join_while_a_writer_holds(self):
        env = Environment()
        lock = env.lock()
        lock.acquire("r0", shared=True)
        lock.release("r0")
        lock.acquire("writer")          # after a shared spell
        assert not lock.acquire("r1", shared=True).triggered
        lock.release("writer")
        assert lock.holders == ("r1",)
        assert lock.acquire("r2", shared=True).triggered

    def test_a_batch_of_readers_is_granted_in_linear_time(self):
        """Granting used to rescan every holder per waiter and shift the
        waiter list per grant: 20 000 readers took minutes."""
        env = Environment()
        lock = env.lock()
        lock.acquire("writer")
        readers = [lock.acquire(i, shared=True) for i in range(20_000)]
        lock.release("writer")
        assert all(r.triggered for r in readers)
        assert len(lock.holders) == 20_000

    def test_cancel_in_the_middle_keeps_the_queue_order(self):
        env = Environment()
        lock = env.lock()
        lock.acquire("holder")
        first = lock.acquire("first")
        lock.acquire("second")
        third = lock.acquire("third")
        lock.cancel("second")
        lock.release("holder")
        assert first.triggered and not third.triggered
        lock.release("first")
        assert third.triggered

    def test_cancel_of_an_owner_that_is_not_queued_changes_nothing(self):
        env = Environment()
        lock = env.lock()
        lock.acquire("holder")
        lock.acquire("next")
        waiters = lock._waiters
        lock.cancel("stranger")
        assert lock._waiters is waiters     # not rebuilt, nothing granted
        assert lock.holders == ("holder",)


class TestUnheardTriggers:
    """An event that succeeds with nobody waiting queues nothing; it is
    dispatched there and then (``callbacks`` is ``None``)."""

    def test_unheard_success_leaves_the_queue_untouched(self):
        env = Environment()
        event = env.event()
        assert event.callbacks == []        # a list while pending
        event.succeed("v")
        assert event.callbacks is None
        assert env.queue_size == 0
        assert (event.triggered, event.ok, event.value) == (True, True, "v")

    def test_a_late_callback_still_runs_on_the_next_tick(self):
        env = Environment()
        event = env.event().succeed("v")
        seen = []
        event._add_callback(lambda e: seen.append((env.now, e.value)))
        assert seen == [] and env.queue_size == 1
        env.step()
        assert seen == [(0.0, "v")]

    def test_a_heard_success_is_told_from_its_own_entry(self):
        env = Environment()
        event = env.event()
        seen = []
        event._add_callback(seen.append)
        event.succeed()
        assert event.callbacks is not None and seen == []
        assert env.queue_size == 1
        env.step()
        assert seen == [event] and event.callbacks is None

    def test_an_unheard_failure_is_still_queued(self):
        env = Environment()
        event = env.event()
        event.fail(RuntimeError("x"))
        assert env.queue_size == 1

    def test_a_finished_process_nobody_waits_for_queues_nothing(self):
        env = Environment()

        def body(env):
            yield env.timeout(1.0)
            return 7

        process = env.process(body(env))
        env.run()
        assert process.value == 7
        assert env.events_processed == 2    # the start and the timeout


class TestDispatchedWaits:
    """A process that yields an event dispatched successfully is sent its
    value at once, inside the running queue entry."""

    def test_a_yielded_dispatched_event_continues_in_place(self):
        env = Environment()
        done = env.event().succeed("early")
        fired = env.timeout(0.0, "t")
        env.run()
        got = []

        def body(env):
            got.append((yield done))
            got.append((yield fired))
            got.append((yield env.any_of([done])))
            yield env.timeout(1.0)
            got.append("parked")

        env.process(body(env))
        before = env.events_processed
        env.step()
        assert got == ["early", "t", {done: "early"}]
        assert env.events_processed - before == 1
        env.run()
        assert got[-1] == "parked"

    def test_a_yielded_failed_event_still_throws(self):
        env = Environment()
        failed = env.event()
        failed.fail(KeyError("gone"))
        env.run()
        assert failed.callbacks is None and not failed.ok
        caught = []

        def body(env):
            try:
                yield failed
            except KeyError as exc:
                caught.append((env.now, exc.args))

        env.process(body(env))
        env.step()
        assert caught == []                 # thrown in from the next tick
        env.step()
        assert caught == [(0.0, ("gone",))]

    def test_a_triggered_event_whose_waiters_are_not_told_yet_is_a_wait(self):
        env = Environment()
        event = env.event()
        order = []
        event._add_callback(lambda e: order.append("first waiter"))

        def body(env):
            event.succeed()
            yield event                     # behind the first waiter
            order.append("process")

        env.process(body(env))
        env.run()
        assert order == ["first waiter", "process"]

    def test_a_process_can_be_created_parked_on_a_wait(self):
        env = Environment()
        gate = env.event()
        log = []

        def body():
            log.append("first segment")
            value = yield gate
            log.append(value)
            return "end"

        generator = body()
        target = advance(generator)
        assert target is gate and log == ["first segment"]
        process = Process(env, generator, "parked", parked_on=target)
        assert env.queue_size == 0          # no entry to start it
        gate.succeed("open")
        env.run()
        assert log == ["first segment", "open"] and process.value == "end"

    def test_a_parked_process_is_interruptible(self):
        env = Environment()
        gate = env.event()
        caught = []

        def body():
            try:
                yield gate
            except Interrupt as interrupt:
                caught.append(interrupt.cause)

        generator = body()
        process = Process(env, generator, "parked",
                          parked_on=advance(generator))
        process.interrupt("crash")
        env.run()
        assert caught == ["crash"] and gate.callbacks == []


class TestInPlaceSuccess:
    def test_waiters_run_inside_the_triggering_entry(self):
        env = Environment()
        event = env.event()
        got = []

        def waiter(env):
            got.append((yield event))

        env.process(waiter(env))
        env.run()
        env.schedule(lambda: event.succeed_in_place("now"))
        before = env.events_processed
        env.step()
        assert got == ["now"] and event.callbacks is None
        assert env.events_processed - before == 1
        assert env.queue_size == 0

    def test_twice_is_an_error(self):
        env = Environment()
        event = env.event()
        event.succeed_in_place()
        with pytest.raises(SimulationError, match="already triggered"):
            event.succeed_in_place()


class TestCancellableTimers:
    def test_a_timer_runs_its_call_once(self):
        env = Environment()
        got = []
        timer = env.timer(2.0, got.append, "x")
        env.run()
        assert got == ["x"] and env.now == 2.0
        timer.cancel()                      # too late: a no-op
        assert env.queue_size == 0

    def test_a_cancelled_timer_never_runs_counts_or_moves_the_clock(self):
        env = Environment()
        got = []
        env.timer(1.0, got.append, "live")
        dead = env.timer(5.0, got.append, "dead")
        env.timer(9.0, got.append, "far").cancel()
        dead.cancel()
        dead.cancel()                       # idempotent
        assert env.queue_size == 1
        assert env.run() == 1.0
        assert got == ["live"] and env.events_processed == 1

    def test_run_until_a_time_stops_before_a_cancelled_head(self):
        env = Environment()
        got = []
        first = env.timer(1.0, got.append, "a")
        env.timer(3.0, got.append, "b")
        env.timer(4.0, got.append, "c")
        first.cancel()                      # was the head
        assert env.run(until=2.0) == 2.0
        assert got == []
        env.run()
        assert got == ["b", "c"]

    def test_a_cancelled_entry_under_the_head_is_skipped_when_reached(self):
        env = Environment()
        got = []
        for delay in (1.0, 3.0, 4.0, 5.0, 6.0):
            env.timer(delay, got.append, delay)
        second = env.timer(2.0, got.append, 2.0)
        second.cancel()                     # 1 of 6: stays queued, not head
        assert len(env._queue) == 6 and env.queue_size == 5
        env.step()                          # t=1; the next head is dropped
        assert env.now == 1.0 and len(env._queue) == 4
        assert env.run(until=2.5) == 2.5 and got == [1.0]

    def test_compaction_preserves_pop_order(self):
        rng = random.Random(5)
        env = Environment()
        got = []
        timers = [env.timer(rng.choice((1.0, 2.0, 3.0)), got.append, i)
                  for i in range(200)]
        expected = [i for _t, i in sorted(
            (entry[0], entry[3]._arg) for entry in env._queue)]
        rng.shuffle(timers)
        cancelled = set()
        for timer in timers[:150]:
            cancelled.add(timer._arg)
            timer.cancel()
            # cancelled entries never exceed half of what is queued
            assert 2 * env._cancelled <= len(env._queue)
        assert env.queue_size == 50
        env.run()
        assert got == [i for i in expected if i not in cancelled]
        assert env.events_processed == 50

    def test_step_on_a_queue_of_cancelled_timers_is_an_empty_queue(self):
        env = Environment()
        env.timer(1.0, print).cancel()
        assert env.queue_size == 0
        with pytest.raises(SimulationError, match="empty queue"):
            env.step()
        assert env.run() == 0.0


class TestNegativeDelays:
    """A delay into the past is refused where it is asked for -- with
    the message ``Timeout`` uses -- not pops later, from ``step()``, as
    "time went backwards"."""

    @pytest.mark.parametrize("ask", [
        lambda env: env.timeout(-1),
        lambda env: env.timer(-1, print),
        lambda env: env.schedule(print, -1),
        lambda env: env.schedule(print, delay=-1e-9),
    ], ids=["timeout", "timer", "schedule", "schedule-tiny"])
    def test_refused_at_the_call_site(self, ask):
        env = Environment()
        with pytest.raises(SimulationError, match="negative timeout delay"):
            ask(env)
        assert env.queue_size == 0
        assert env.run() == 0.0             # nothing was queued to blow up

    def test_zero_is_not_negative(self):
        env = Environment()
        got = []
        env.timer(0, got.append, "timer")
        env.schedule(lambda: got.append("callback"), 0.0)
        env.run()
        assert got == ["timer", "callback"] and env.now == 0.0
