"""A deterministic, generator-based discrete-event simulation kernel.

The kernel is deliberately small and dependency-free.  It follows the
familiar process-interaction style (as popularised by SimPy): a *process* is
a Python generator that yields :class:`Event` objects and is resumed when the
event fires.  Determinism is guaranteed by a strict (time, sequence-number)
ordering of scheduled events; two runs with the same seed and the same
program produce identical traces.

A queue entry is spent only where somebody can tell the difference: an
event that succeeds unheard queues nothing, a process that yields an
event already dispatched carries on at once (:func:`advance`), a
deadline that is met is withdrawn (:meth:`Environment.timer`), and the
last act of an entry may wake its waiters in place
(:meth:`Event.succeed_in_place`).  docs/API.md, "Simulation kernel",
has the rules and why each keeps the order of everything that remains.

Example
-------
>>> env = Environment()
>>> log = []
>>> def worker(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(worker(env, "a", 2.0))
>>> _ = env.process(worker(env, "b", 1.0))
>>> env.run()
2.0
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class SimulationStalled(SimulationError):
    """Raised by :meth:`Environment.run_until` when the events it waits
    for cannot trigger (the queue drained) or have not by its deadline."""


class Interrupt(Exception):
    """Raised inside a process generator when it is interrupted.

    The :attr:`cause` attribute carries the value passed to
    :meth:`Process.interrupt`.  The paper's fail-stop model is implemented by
    interrupting every process hosted on a crashing node.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait for.

    An event starts *pending*, and is later either *succeeded* with a value
    or *failed* with an exception.  Processes waiting on the event are
    resumed with the value (or have the exception thrown into them).
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._ok: Optional[bool] = None

    # -- state inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self._ok is not None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value; raises if read before it triggered."""
        if not self.triggered:
            raise SimulationError("event value read before it triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering *value* to waiters.

        Waiters are told from a queue entry of their own.  With nobody
        waiting there is nobody to tell: the event counts as dispatched
        at once and nothing is queued.
        """
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        if self.callbacks:
            env = self.env
            env._sequence = sequence = env._sequence + 1
            heappush(env._queue, (env.now, sequence, Event._dispatch, self))
        else:
            self.callbacks = None
        return self

    def succeed_in_place(self, value: Any = None) -> None:
        """Trigger the event and tell its waiters inside the running
        queue entry, instead of from an entry of their own.

        Legal only as the **last act** of a queue entry.  The entry
        :meth:`succeed` would queue is then the next one popped -- unless
        the running entry queued something else for this instant -- and
        the waiters run exactly where they would have; anything the
        caller did after this call would wrongly run behind them.
        """
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self._dispatch()

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be raised in waiters."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail() requires an exception")
        self._ok = False
        self._exception = exception
        self.env._schedule(Event._dispatch, self)
        return self

    # -- plumbing -----------------------------------------------------------
    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already fired and dispatched: run at the next tick so that the
            # caller still observes asynchronous semantics.
            self.env._schedule(callback, self)
        else:
            self.callbacks.append(callback)

    def _dispatch(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self._timeout_value = value
        env._schedule(Timeout._fire, self, delay)

    def _fire(self) -> None:
        if self._ok is None:
            self._ok = True
            self._value = self._timeout_value
            self._dispatch()


class _Condition(Event):
    """Base for AnyOf/AllOf composition of events."""

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        for event in self._events:
            if not isinstance(event, Event):
                raise SimulationError(f"not an Event: {event!r}")
        self._remaining = sum(1 for e in self._events if not e.triggered)
        already_failed = next(
            (e for e in self._events if e.triggered and not e.ok), None)
        if already_failed is not None:
            self.fail(already_failed._exception)
            return
        for event in self._events:
            if not event.triggered:
                event._add_callback(self._observe)
        self._check(initial=True)

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._exception)  # propagate the first failure
            return
        self._remaining -= 1
        self._check(initial=False)

    def _check(self, initial: bool) -> None:
        raise NotImplementedError

    def _results(self) -> dict[Event, Any]:
        return {e: e._value for e in self._events if e.triggered and e.ok}


class AllOf(_Condition):
    """Fires once *all* component events have succeeded.

    The value is a dict mapping each event to its value.
    """

    def _check(self, initial: bool) -> None:
        if not self.triggered and self._remaining <= 0:
            self.succeed(self._results())


class AnyOf(_Condition):
    """Fires as soon as *any* component event has succeeded.

    The value is a dict of the events that had succeeded by dispatch time.
    """

    def _check(self, initial: bool) -> None:
        if self.triggered:
            return
        done = len(self._events) - self._remaining
        if done > 0 or not self._events:
            self.succeed(self._results())


def advance(generator: Generator, value: Any = None,
            exception: Optional[BaseException] = None) -> Any:
    """Run a process body to its next real wait and return what it
    yielded there.

    Sends *value* in (or throws *exception*), and keeps going through
    every yielded event that has already been dispatched successfully:
    its value is known and nobody has to be woken, so the body is sent
    it at once, inside the running queue entry.  An event still pending,
    one whose waiters are yet to be told, or one that failed is a real
    wait.  ``StopIteration`` (the body returned) and whatever the body
    raises propagate.
    """
    if exception is None:
        target = generator.send(value)
    else:
        target = generator.throw(exception)
    while (isinstance(target, Event) and target.callbacks is None
           and target._ok):
        target = generator.send(target._value)
    return target


_FROM_START = object()      # Process(parked_on=...): not parked anywhere


class Process(Event):
    """A running process.  Also an event that fires when the process ends.

    The wrapped generator yields :class:`Event` instances.  When a yielded
    event succeeds, the generator resumes with the event's value; when it
    fails, the exception is thrown into the generator.

    A process normally starts from a queue entry of its own.  Given
    *parked_on* -- what :func:`advance` returned for a body the caller
    has already run to its first real wait -- it starts out waiting
    there and costs no entry.
    """

    def __init__(self, env: "Environment", generator: Generator,
                 name: str = "", parked_on: Any = _FROM_START):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError(f"process body must be a generator: {generator!r}")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        self._interrupts: list[Interrupt] = []
        if parked_on is _FROM_START:
            env._schedule(self._resume_with, None)
        else:
            self._wait_for(parked_on)

    @property
    def is_alive(self) -> bool:
        """True while the process has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the next tick.

        Interrupting a finished process is a silent no-op (the paper's crash
        handling interrupts every handler on a node; some may have finished).
        """
        if self.triggered:
            return
        self._interrupts.append(Interrupt(cause))
        self.env._schedule(Process._deliver_interrupt, self)

    # -- stepping -----------------------------------------------------------
    def _deliver_interrupt(self) -> None:
        if self.triggered or not self._interrupts:
            return
        interrupt = self._interrupts.pop(0)
        # Detach from the event we were waiting on: when it fires we must
        # not be resumed a second time.
        target, self._target = self._target, None
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume_with)
            except ValueError:
                pass
        self._resume_with(None, interrupt)

    def _resume_with(self, event: Optional[Event] = None,
                     interrupt: Optional[Interrupt] = None) -> None:
        """Advance the generator to its next wait: with the value (or
        exception) of the *event* it waited on, with an *interrupt*
        thrown in, or -- given neither -- from its start."""
        if self._ok is not None:
            return
        try:
            if event is None:
                target = advance(self._generator, None, interrupt)
            elif event._ok:
                target = advance(self._generator, event._value)
            else:
                target = advance(self._generator, None, event._exception)
        except StopIteration as stop:
            self.succeed(stop.value)
        except Interrupt:
            # An unhandled interrupt terminates the process quietly; this is
            # the normal fate of handlers on a crashing node.
            self.succeed(None)
        except BaseException as exc:  # propagate real bugs to env.run()
            self._die(exc)
        else:
            self._wait_for(target)

    def _wait_for(self, target: Any) -> None:
        """Park on what the generator yielded."""
        if not isinstance(target, Event):
            self._die(SimulationError(
                f"process {self.name!r} yielded {target!r}"))
        elif target is self:
            self._die(SimulationError(
                f"process {self.name!r} waits on itself"))
        else:
            self._target = target
            callbacks = target.callbacks
            if callbacks is None:   # dispatched failure: thrown in next tick
                self.env._schedule(self._resume_with, target)
            else:
                callbacks.append(self._resume_with)

    def _die(self, exc: BaseException) -> None:
        self.fail(exc)
        self.env._record_crash(self.name, exc)


class Lock:
    """A FIFO mutual-exclusion lock with optional shared (read) mode.

    Replica locks in the paper protect a replica during reads, writes, and
    propagation.  We support shared acquisition so that read operations do
    not serialize against each other, which matches the paper's consistency
    argument (only read/write and write/write conflicts matter).

    Usage from a process::

        yield lock.acquire(owner)          # exclusive
        ...
        lock.release(owner)

    ``acquire`` returns an event that succeeds when the lock is granted.
    """

    def __init__(self, env: "Environment", name: str = "lock"):
        self.env = env
        self.name = name
        self._holders: dict[Any, str] = {}  # owner -> "shared" | "exclusive"
        # mode of the current holders; meaningful only while there are any
        self._exclusive = False
        self._waiters: deque[tuple[Any, str, Event]] = deque()

    @property
    def locked(self) -> bool:
        """True while any owner holds the lock."""
        return bool(self._holders)

    @property
    def idle(self) -> bool:
        """True when nobody holds or waits for the lock.

        Lock *pools* (a sharded node lazily creates one lock per touched
        key) use this to garbage-collect entries the moment they go
        quiet, keeping resident lock count proportional to concurrent
        operations rather than keyspace size.
        """
        return not self._holders and not self._waiters

    @property
    def holders(self) -> tuple:
        """Current lock owners."""
        return tuple(self._holders)

    def acquire(self, owner: Any, shared: bool = False) -> Event:
        """Request the lock; the returned event fires when granted."""
        if owner in self._holders:
            raise SimulationError(f"{owner!r} already holds {self.name}")
        mode = "shared" if shared else "exclusive"
        event = Event(self.env)
        self._waiters.append((owner, mode, event))
        self._grant()
        return event

    def release(self, owner: Any) -> None:
        """Release the lock.  Releasing a lock not held is a no-op.

        Crash handling clears locks wholesale via :meth:`reset`, so a handler
        that resumed after its node recovered may release an already-cleared
        lock; tolerating that keeps crash code simple.
        """
        self._holders.pop(owner, None)
        self._grant()

    def cancel(self, owner: Any) -> None:
        """Withdraw a pending (ungranted) acquire request of *owner*."""
        kept = [w for w in self._waiters if w[0] != owner]
        if len(kept) != len(self._waiters):
            self._waiters = deque(kept)
            self._grant()

    def reset(self) -> None:
        """Forget all holders and waiters (used when a node crashes)."""
        self._holders.clear()
        waiters, self._waiters = self._waiters, deque()
        for _owner, _mode, event in waiters:
            if not event.triggered:
                event.fail(Interrupt("lock reset"))

    def _grant(self) -> None:
        # FIFO: grant the head while compatible.  A batch of shared
        # requests at the head is granted together.
        waiters = self._waiters
        holders = self._holders
        while waiters:
            owner, mode, event = waiters[0]
            if holders and (self._exclusive or mode == "exclusive"):
                break
            waiters.popleft()
            holders[owner] = mode
            self._exclusive = mode == "exclusive"
            if event._ok is None:
                event.succeed(self)


def _call(callback: Callable[[], None]) -> None:
    """Queue entry of a callback that takes no argument."""
    callback()


class Timer:
    """Handle of a queue entry that can be withdrawn
    (:meth:`Environment.timer`)."""

    __slots__ = ("_env", "_call", "_arg")

    def __init__(self, env: "Environment", call: Callable[[Any], None],
                 arg: Any):
        self._env = env
        self._call: Optional[Callable[[Any], None]] = call
        self._arg = arg

    def cancel(self) -> None:
        """Withdraw the entry: it is never run, never moves the clock and
        is not counted.  A no-op once it has run or been cancelled."""
        if self._call is not None:
            self._call = self._arg = None
            env = self._env
            env._cancelled += 1
            queue = env._queue
            if queue[0][3] is self or 2 * env._cancelled > len(queue):
                env._purge_cancelled()

    def _fire(self) -> None:
        call, arg = self._call, self._arg
        self._call = self._arg = None
        call(arg)


_FIRE = Timer._fire


class Environment:
    """The simulation clock and event queue."""

    def __init__(self, start: float = 0.0):
        self.now = float(start)
        self._queue: list[tuple[float, int, Callable[[Any], None], Any]] = []
        self._sequence = 0
        #: Cancelled timers still in the queue.  None of them is ever at
        #: its head, so the head's time is that of the next entry to run.
        self._cancelled = 0
        self._crashed: list[tuple[str, BaseException]] = []
        #: Total queue entries processed.  Deterministic for a given
        #: seed and program, so benchmarks can report simulation cost
        #: per operation without wall-clock noise.
        self.events_processed = 0

    # -- public factory helpers ---------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing after the given simulated delay."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Run a generator as a process; returns it (also an event)."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event firing once every component event has succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event firing when the first component event succeeds."""
        return AnyOf(self, events)

    def lock(self, name: str = "lock") -> Lock:
        """A fresh FIFO lock (shared/exclusive)."""
        return Lock(self, name)

    def schedule(self, callback: Callable[[], None],
                 delay: float = 0.0) -> None:
        """Run *callback* after *delay* simulated time units.

        The public face of the internal queue: harness code (the chaos
        runner arming fault events, the nemesis scheduling delayed
        recoveries) uses this instead of reaching into
        ``_schedule``, keeping the transport internals swappable
        (ROADMAP item 4(a)) -- the ``transport-boundary`` lint rule
        enforces exactly that.
        """
        if delay < 0:   # here, not pops later as "time went backwards"
            raise SimulationError(f"negative timeout delay: {delay!r}")
        self._schedule(_call, callback, delay)

    def timer(self, delay: float, call: Callable[[Any], None],
              arg: Any = None) -> Timer:
        """Queue ``call(arg)`` after *delay* and return the handle that
        withdraws it -- for deadlines, which mostly never come due."""
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        handle = Timer(self, call, arg)
        self._schedule(_FIRE, handle, delay)
        return handle

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, call: Callable[[Any], None], arg: Any,
                  delay: float = 0.0) -> None:
        """Queue ``call(arg)``: every entry is a function and its one
        argument, so no scheduling site allocates a closure."""
        self._sequence = sequence = self._sequence + 1
        heappush(self._queue, (self.now + delay, sequence, call, arg))

    def _purge_cancelled(self) -> None:
        """Drop cancelled timers: those at the head of the queue, or --
        once they are more than half of it -- all of them, and rebuild
        the heap.  ``(time, seq)`` is unique, so live entries pop in the
        order they would have; and when this happens depends on the
        queue alone, so entry counts stay a function of the seed."""
        queue = self._queue
        if 2 * self._cancelled > len(queue):
            queue[:] = [entry for entry in queue
                        if entry[2] is not _FIRE or entry[3]._call is not None]
            heapify(queue)
            self._cancelled = 0
            return
        while self._cancelled:
            head = queue[0]
            if head[2] is not _FIRE or head[3]._call is not None:
                break
            heappop(queue)
            self._cancelled -= 1

    def _record_crash(self, name: str, exc: BaseException) -> None:
        """A process body (or an RPC handler run inline) called *name*
        raised: the running :meth:`step` re-raises it."""
        self._crashed.append((name, exc))

    # -- execution ----------------------------------------------------------
    def step(self) -> None:
        """Process a single queue entry."""
        try:
            time, _seq, call, arg = heappop(self._queue)
        except IndexError:
            raise SimulationError("step on an empty queue") from None
        if time < self.now:
            raise SimulationError("time went backwards")
        self.now = time
        self.events_processed += 1
        if self._cancelled:     # then the queue is not empty
            head = self._queue[0]
            if head[2] is _FIRE and head[3]._call is None:
                self._purge_cancelled()
        call(arg)
        if self._crashed:
            name, exc = self._crashed[0]
            raise SimulationError(f"process {name!r} died: {exc!r}") from exc

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock passes *until*.

        Returns the simulation time at which execution stopped.
        """
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                self.now = until
                return self.now
            self.step()
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_until(self, events: Iterable[Event],
                  deadline: Optional[float] = None) -> None:
        """Step until every one of *events* has triggered, and not one
        queue entry further.

        Stopping at the exact entry matters for reproducibility: timers
        nobody waits for any more sit in the queue seconds ahead, and a
        driver that overruns completion drags the clock across however
        many of them it happens to pop.  Raises :class:`SimulationStalled`
        if the queue drains, or the clock reaches *deadline*, while an
        event is still pending.
        """
        # Only the last pending event is looked at after a step; once it
        # has triggered the one before it is, so a step costs one check
        # however many events are waited for.
        pending = [event for event in events if event._ok is None]
        while pending:
            if not self._queue:
                raise SimulationStalled(
                    f"queue drained with {len(pending)} awaited events "
                    f"pending at t={self.now:.3f}")
            if deadline is not None and self.now >= deadline:
                raise SimulationStalled(
                    f"{len(pending)} awaited events still pending at "
                    f"t={self.now:.3f} (queue={len(self._queue)})")
            self.step()
            while pending and pending[-1]._ok is not None:
                pending.pop()

    @property
    def queue_size(self) -> int:
        """Number of scheduled-but-unprocessed queue entries (cancelled
        timers not counted)."""
        return len(self._queue) - self._cancelled
