"""The node abstraction: crash-stop hosts with stable storage.

A :class:`Node` owns:

* a *stable storage* dict that survives crashes (replica protocol state --
  value, version numbers, stale flag, epoch list/number -- lives here, as
  the paper's recovery story requires);
* *volatile* state that is wiped by a crash (locks, in-flight handlers);
* a registry of RPC handlers, a set of live processes that are
  interrupted when the node crashes, and the deadlines it has armed
  (:meth:`Node.timer`), which a crash withdraws.

Crash/recover are synchronous state flips; the surrounding machinery
(network drops, handler interrupts, lock resets) makes the fail-stop
semantics observable to the rest of the system.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.sim.engine import Environment, Lock, Process, Timer
from repro.sim.network import Message, Network
from repro.sim.trace import TraceLog


class Node:
    """A crash-stop host participating in the simulated system."""

    def __init__(self, env: Environment, network: Network, name: str,
                 trace: Optional[TraceLog] = None):
        self.env = env
        self.network = network
        self.name = name
        self.trace = trace if trace is not None else network.trace
        self.up = True
        self.stable: dict[str, Any] = {}
        self.volatile: dict[str, Any] = {}
        self._locks: list[Lock] = []
        self._processes: list[Process] = []
        self._prune_floor = 0
        self._timers: dict[tuple[Callable[[Any], None], Any], Timer] = {}
        self._handlers: dict[str, Callable[[Message], Any]] = {}
        self._crash_hooks: list[Callable[[], None]] = []
        self._recover_hooks: list[Callable[[], None]] = []
        network.register(name, self._on_message, lambda: self.up)

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return f"<Node {self.name} {state}>"

    # -- state management ------------------------------------------------------
    def make_lock(self, name: str) -> Lock:
        """Create a lock that is reset (holders evicted) on crash."""
        lock = self.env.lock(f"{self.name}.{name}")
        self._locks.append(lock)
        return lock

    @property
    def locks(self) -> tuple[Lock, ...]:
        """Every lock this node ever created (read-only view).

        The sanitizer's quiesce check walks these after a run settles:
        a non-idle lock on a quiet cluster is a stranded grant."""
        return tuple(self._locks)

    def live_processes(self) -> list[Process]:
        """The node's currently-alive processes (read-only snapshot)."""
        return [p for p in self._processes if p.is_alive]

    def armed_timers(self) -> tuple[tuple[str, Any], ...]:
        """``(callback name, argument)`` of every :meth:`timer` still
        armed, in arming order -- the sanitizer checks held locks
        against it."""
        return tuple((call.__name__, arg) for call, arg in self._timers)

    def add_crash_hook(self, hook: Callable[[], None]) -> None:
        """Run *hook* whenever this node crashes."""
        self._crash_hooks.append(hook)

    def add_recover_hook(self, hook: Callable[[], None]) -> None:
        """Run *hook* whenever this node recovers."""
        self._recover_hooks.append(hook)

    def crash(self) -> None:
        """Fail-stop: drop volatile state, kill handlers, go silent."""
        if not self.up:
            return
        self.up = False
        self.trace.record(self.env.now, "node-crash", self.name)
        self.volatile.clear()
        for lock in self._locks:
            lock.reset()
        processes, self._processes = self._processes, []
        for process in processes:
            process.interrupt("node crash")
        timers, self._timers = self._timers, {}
        for timer in timers.values():
            timer.cancel()
        for hook in self._crash_hooks:
            hook()

    def recover(self) -> None:
        """Come back up with stable storage intact and volatile state fresh."""
        if self.up:
            return
        self.up = True
        self.trace.record(self.env.now, "node-recover", self.name)
        for hook in self._recover_hooks:
            hook()

    # -- processes --------------------------------------------------------------
    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Run a process on this node; it dies if the node crashes."""
        return self.spawn_as(generator, f"{self.name}:{name}")

    def spawn_as(self, generator: Generator, full_name: str) -> Process:
        """:meth:`spawn` with the process name given whole, for callers
        that spawn per message and format ``"<node>:<label>"`` once."""
        return self._adopt(self.env.process(generator, name=full_name))

    def spawn_parked(self, generator: Generator, full_name: str,
                     target: Any) -> Process:
        """:meth:`spawn_as` for a body already run to its first real
        wait, *target* (:func:`~repro.sim.engine.advance`): the process
        starts out waiting there, without a queue entry to start it."""
        return self._adopt(Process(self.env, generator, full_name, target))

    def _adopt(self, process: Process) -> Process:
        self._processes.append(process)
        self._prune_processes()
        return process

    def _prune_processes(self) -> None:
        # Geometric pruning: only scan once the list has doubled since
        # the last compaction.  A fixed threshold re-scanned the whole
        # list on *every* spawn while more than 64 processes were live,
        # which is quadratic under workloads with thousands of
        # concurrently parked handlers (the sharded-store benchmark).
        if len(self._processes) > max(64, 2 * self._prune_floor):
            self._processes = [p for p in self._processes if p.is_alive]
            self._prune_floor = len(self._processes)

    # -- deadlines --------------------------------------------------------------
    def timer(self, delay: float, call: Callable[[Any], None],
              arg: Any = None) -> None:
        """Arm a deadline that dies with the node: ``call(arg)`` after
        *delay* unless :meth:`cancel_timer` -- or a crash, which
        withdraws every timer still armed where it interrupts the node's
        processes -- comes first.  Met, it costs no queue entry
        (:meth:`Environment.timer`).  Arming ``(call, arg)`` again
        replaces the earlier deadline; *arg* must be hashable."""
        key = (call, arg)
        earlier = self._timers.pop(key, None)
        if earlier is not None:
            earlier.cancel()
        self._timers[key] = self.env.timer(delay, self._timer_due, key)

    def cancel_timer(self, call: Callable[[Any], None],
                     arg: Any = None) -> None:
        """Withdraw the deadline ``call(arg)``; a no-op if none is armed."""
        timer = self._timers.pop((call, arg), None)
        if timer is not None:
            timer.cancel()

    def _timer_due(self, deadline: tuple) -> None:
        del self._timers[deadline]
        call, arg = deadline
        call(arg)

    # -- messaging ----------------------------------------------------------------
    def register_handler(self, kind: str,
                         handler: Callable[[Message], Any]) -> None:
        """Register the handler for messages of the given kind.

        A handler may be a plain function (runs synchronously at delivery)
        or return a generator, which is spawned as a node process so it can
        wait on locks or perform further communication.
        """
        if kind in self._handlers:
            raise ValueError(f"{self.name}: handler for {kind!r} already set")
        self._handlers[kind] = handler

    def send(self, dst: str, kind: str, payload: Any) -> int:
        """Send one message from this node."""
        return self.network.send(self.name, dst, kind, payload)

    def _on_message(self, msg: Message) -> None:
        handler = self._handlers.get(msg.kind)
        if handler is None:
            self.trace.record(self.env.now, "unhandled", self.name,
                              msg_kind=msg.kind, src=msg.src)
            return
        result = handler(msg)
        if result is not None and hasattr(result, "send"):
            self.spawn(result, name=f"handle-{msg.kind}")
