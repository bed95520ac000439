"""RPC layer with the paper's ``RPC.CallFailed`` semantics.

The paper assumes "RPC-style communication in which the notification
RPC.CallFailed is returned to the sender if the message cannot be delivered"
(Section 3).  We realise that with a timeout: a call that receives no
response within its deadline completes with the :data:`CALL_FAILED`
sentinel.  This covers every loss mode uniformly -- dead callee, dead
caller-side link, network partition, or callee crash mid-handler.

Coordinators therefore gather *mixed* response sets, exactly like the
pseudo-code in the paper's appendix: some entries are state tuples, some are
``CALL_FAILED``, and the quorum logic only counts the former.

Gray-failure extensions (all opt-in, default behaviour unchanged):

* **Adaptive per-link deadlines** -- construct the layer with an
  :class:`AdaptiveTimeouts` and every response updates a Jacobson-style
  srtt/rttvar estimate for its link; :meth:`RpcLayer.deadline_for` turns
  that into a clamped per-destination deadline.  Timeouts never update
  the estimate (Karn's rule), late responses do.
* **Managed waves** -- :meth:`RpcLayer.call_wave` accepts per-destination
  ``deadlines``, a :class:`HedgePolicy` (backup requests to spare nodes
  once a straggler exceeds its p99-style estimate -- safe because the
  server side is at-most-once), and an ``enough`` predicate for early
  completion once the quorum logic is already satisfied.
* **Late-response harvesting** -- a reply that arrives after its deadline
  is still a liveness and latency signal; it is fed to the observers
  (and counted) instead of being silently dropped.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional

from repro.obs.metrics import NULL_REGISTRY
from repro.sim.engine import Environment, Event, Timer, advance
from repro.sim.node import Node


class CallFailed:
    """Singleton sentinel for failed RPCs (the paper's ``RPC.CallFailed``)."""

    _instance: Optional["CallFailed"] = None

    def __new__(cls) -> "CallFailed":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "CALL_FAILED"

    def __bool__(self) -> bool:
        return False


CALL_FAILED = CallFailed()


@dataclass(frozen=True, slots=True)
class _Request:
    req_id: int
    method: str
    args: Any
    reply_to: str


@dataclass(frozen=True, slots=True)
class _Response:
    req_id: int
    value: Any


@dataclass(frozen=True, slots=True)
class AdaptiveTimeouts:
    """Jacobson-style per-link deadline knobs (mirrors ProtocolConfig).

    Deadlines are ``srtt + deadline_mult * rttvar`` clamped to
    ``[floor, ceil]``; the hedge threshold uses ``hedge_mult`` instead of
    ``deadline_mult`` (a looser, p99-style overdue estimate).
    """

    alpha: float = 0.125
    beta: float = 0.25
    deadline_mult: float = 4.0
    floor: float = 0.05
    ceil: float = 2.0
    hedge_mult: float = 6.0

    @classmethod
    def from_config(cls, config) -> Optional["AdaptiveTimeouts"]:
        """The knobs a ``ProtocolConfig`` asks for (every store hands
        this to its ``RpcLayer``s); None with ``adaptive_timeouts`` off."""
        if not config.adaptive_timeouts:
            return None
        return cls(alpha=config.rtt_alpha, beta=config.rtt_beta,
                   deadline_mult=config.rtt_deadline_mult,
                   floor=config.rtt_deadline_min,
                   ceil=config.rtt_deadline_max,
                   hedge_mult=config.hedge_threshold_mult)


class _LinkRtt:
    """srtt/rttvar EWMA for one outgoing link (RFC 6298 recurrences)."""

    __slots__ = ("srtt", "rttvar")

    def __init__(self) -> None:
        self.srtt: Optional[float] = None
        self.rttvar = 0.0

    def observe(self, rtt: float, alpha: float, beta: float) -> None:
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = (1.0 - beta) * self.rttvar + beta * abs(
                self.srtt - rtt)
            self.srtt = (1.0 - alpha) * self.srtt + alpha * rtt


@dataclass(slots=True)
class HedgePolicy:
    """Backup-request policy for one managed wave.

    ``spares`` are candidate destinations ranked fastest-first (the
    planner's latency ranking), disjoint from the wave's own targets.
    ``request`` is the ``(method, args)`` a backup call carries --
    quorum polls send the same op to every member, so one request shape
    covers all spares.  ``delays`` maps each *original* destination to
    its overdue threshold (hedge fires when the straggler has been
    silent that long); a destination with no entry is never hedged.
    ``deadlines`` maps each spare to the deadline its backup call gets.
    At most ``limit`` backups fire per wave, one per straggler.
    """

    spares: tuple[str, ...]
    request: tuple[str, Any]
    delays: Mapping[str, float] = field(default_factory=dict)
    deadlines: Mapping[str, float] = field(default_factory=dict)
    limit: int = 2


class _Call:
    """One single call: its result event and its deadline timer."""

    __slots__ = ("event", "timer")

    def __init__(self, event: Event, timer: Timer):
        self.event = event
        self.timer = timer


class _Wave:
    """One batched fan-out: N calls sharing a single deadline timer and a
    single completion event (vs. N per-call timers plus an AllOf).

    A *managed* wave (``expiries is not None``) instead re-arms one
    walking timer over per-destination deadlines and hedge thresholds,
    withdrawn like the plain one once every request is accounted for;
    the plain path stays a single timer because quorum polling is the
    simulation's hottest loop.
    """

    __slots__ = ("event", "total", "timer", "results", "req_ids", "enough",
                 "hedge", "expiries", "hedge_at", "hedges", "accounted")

    def __init__(self, event: Event, total: int):
        self.event = event
        self.total = total
        # a plain wave's one deadline, a managed wave's walking tick
        self.timer: Optional[Timer] = None
        self.results: dict[str, Any] = {}
        self.req_ids: dict[int, str] = {}  # outstanding req_id -> dst
        self.enough: Optional[Callable[[dict], bool]] = None
        self.hedge: Optional[HedgePolicy] = None
        self.expiries: Optional[dict[int, float]] = None
        self.hedge_at: Optional[dict[int, float]] = None
        self.hedges: Optional[dict[str, str]] = None  # spare -> straggler
        self.accounted = False


class RpcLayer:
    """Per-node RPC endpoint.

    Client side::

        response = yield rpc.call("n3", "write-request", args)
        if response is CALL_FAILED: ...

    Server side::

        rpc.serve("write-request", handler)

    where ``handler(src, args)`` either returns a value directly or returns
    a generator whose return value becomes the response.  The generator
    runs inside the delivery of the request up to its first real wait; if
    it has one, it goes on as a node process.  If the handler's node
    crashes before it finishes, no response is sent and the caller times
    out.

    The server side is **at-most-once** per caller request: a duplicate
    delivery of a request (a faulty network may duplicate datagrams) is
    answered from a bounded response cache keyed on ``(caller, req_id)``
    instead of re-running the handler, and a duplicate arriving while the
    original handler is still running is ignored (the caller gets the one
    reply the original produces).  The cache is volatile -- a crash clears
    it -- so handlers re-executed after recovery must still be idempotent
    at the protocol level (the 2PC participant dedups by ``txn_id`` in
    stable storage for exactly this reason).
    """

    REQUEST_KIND = "rpc-req"
    RESPONSE_KIND = "rpc-rsp"

    # How many answered requests the duplicate-suppression cache remembers
    # per node.  Duplicates older than this window re-execute the handler,
    # which protocol-level dedup must (and does) tolerate.
    DEDUP_CAPACITY = 1024

    # How many expired requests stay eligible for late-response credit.
    LATE_CAPACITY = 256

    _IN_PROGRESS = object()   # sentinel: handler started, no response yet
    _ABSENT = object()        # sentinel: request not in the cache

    def __init__(self, node: Node, default_timeout: float = 0.5,
                 metrics=None, adaptive: Optional[AdaptiveTimeouts] = None):
        self.node = node
        self.env: Environment = node.env
        self.default_timeout = default_timeout
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.adaptive = adaptive
        # dst -> (attempts counter, timeouts counter), bound lazily so the
        # per-call cost is one dict lookup (the wave fan-out is the
        # simulation's hottest loop)
        self._link_stats: dict[str, tuple] = {}
        # dst -> (srtt gauge, deadline gauge), bound lazily (adaptive only)
        self._link_gauges: dict[str, tuple] = {}
        # dst -> Jacobson estimator; volatile (crash clears it)
        self._rtt: dict[str, _LinkRtt] = {}
        self._req_ids = itertools.count(1)
        # (caller, req_id) -> response value or _IN_PROGRESS (bounded LRU)
        self._served: OrderedDict[tuple[str, int], Any] = OrderedDict()
        # req_id -> (sink, dst, sent); sink is the request's _Call or _Wave.
        self._pending: dict[int, tuple[Any, str, float]] = {}
        # expired req_id -> (dst, sent): a reply arriving for one of these
        # is late but still a liveness/latency signal (bounded LRU)
        self._late: OrderedDict[int, tuple[str, float]] = OrderedDict()
        # method -> (handler, name of the process a generator handler runs as)
        self._methods: dict[str, tuple[Callable[[str, Any], Any], str]] = {}
        # Optional hook fed every observed outcome of an *outgoing* call:
        # ``observer(dst, ok)`` with ok=False on timeout, True on response.
        # The replica servers plug their LivenessView in here; caller-side
        # crashes never feed it (the destinations did nothing wrong).
        self.liveness_observer: Optional[Callable[[str, bool], None]] = None
        # Optional hook fed every measured round trip: ``observer(dst,
        # rtt)``.  Feeds the graded-suspicion latency scores.
        self.latency_observer: Optional[Callable[[str, float], None]] = None
        name = node.name
        self._m_hedge_fired = self.metrics.counter(
            "rpc_hedges", src=name, outcome="fired")
        self._m_hedge_won = self.metrics.counter(
            "rpc_hedges", src=name, outcome="won")
        self._m_hedge_wasted = self.metrics.counter(
            "rpc_hedges", src=name, outcome="wasted")
        self._m_late = self.metrics.counter("rpc_late_responses", src=name)
        node.register_handler(self.REQUEST_KIND, self._on_request)
        node.register_handler(self.RESPONSE_KIND, self._on_response)
        node.add_crash_hook(self._on_crash)

    # -- client side -------------------------------------------------------
    def _link(self, dst: str) -> tuple:
        """The (attempts, timeouts) counters for one outgoing link."""
        entry = self._link_stats.get(dst)
        if entry is None:
            entry = (self.metrics.counter("rpc_attempts",
                                          src=self.node.name, dst=dst),
                     self.metrics.counter("rpc_timeouts",
                                         src=self.node.name, dst=dst))
            self._link_stats[dst] = entry
        return entry

    def call(self, dst: str, method: str, args: Any = None,
             timeout: Optional[float] = None) -> Event:
        """Start a call; the returned event yields the response value or
        :data:`CALL_FAILED`.  It never fails with an exception."""
        deadline = self.default_timeout if timeout is None else timeout
        req_id = next(self._req_ids)
        env = self.env
        now = env.now
        node = self.node
        name = node.name
        result = env.event()
        node.trace.record(now, "rpc-call", name,
                          method=method, dst=dst, req_id=req_id)
        (self._link_stats.get(dst) or self._link(dst))[0].inc()
        node.network.send(name, dst, self.REQUEST_KIND,
                          _Request(req_id, method, args, name))
        self._pending[req_id] = (
            _Call(result, env.timer(deadline, self._expire, req_id)),
            dst, now)
        return result

    def call_wave(self, requests: dict, timeout: Optional[float] = None,
                  deadlines: Optional[Mapping[str, float]] = None,
                  hedge: Optional[HedgePolicy] = None,
                  enough: Optional[Callable[[dict], bool]] = None) -> Event:
        """Fan out one call per destination as a single batched *wave*.

        *requests* maps ``dst -> (method, args)``; the returned event
        succeeds with ``{dst: value_or_CALL_FAILED}`` once every
        destination has answered or the shared deadline has passed.
        Semantically this equals one :meth:`call` per destination plus an
        ``AllOf`` with a common timeout, but the whole wave costs one
        expiry timer -- withdrawn when the last answer arrives, which
        also resumes the waiting caller -- instead of a timer and a
        completion event per call.

        Passing any of the gray-failure options turns the wave into a
        *managed* wave:

        * ``deadlines`` -- per-destination deadline overrides (missing
          destinations keep *timeout*); requests expire individually.
        * ``hedge`` -- a :class:`HedgePolicy`; stragglers that exceed
          their overdue threshold trigger backup requests to spare nodes.
        * ``enough`` -- a predicate over the partial ``{dst: value}``
          result map; once it returns True the wave completes early with
          outstanding destinations reported as CALL_FAILED.  Their
          requests stay pending so answers that do arrive still feed the
          liveness/latency observers (and, until the deadline, the
          at-most-once server cache keeps duplicates harmless).
        """
        deadline = self.default_timeout if timeout is None else timeout
        gathered = self.env.event()
        if not requests:
            gathered.succeed({})
            return gathered
        wave = _Wave(gathered, len(requests))
        pending = self._pending
        wave_req_ids = wave.req_ids
        req_ids = self._req_ids
        link_stats = self._link_stats
        node = self.node
        record = node.trace.record
        send = node.network.send
        kind = self.REQUEST_KIND
        now = self.env.now
        name = node.name
        for dst, (method, args) in requests.items():
            req_id = next(req_ids)
            pending[req_id] = (wave, dst, now)
            wave_req_ids[req_id] = dst
            record(now, "rpc-call", name,
                   method=method, dst=dst, req_id=req_id)
            (link_stats.get(dst) or self._link(dst))[0].inc()
            send(name, dst, kind, _Request(req_id, method, args, name))
        if deadlines is None and hedge is None and enough is None:
            wave.timer = self.env.timer(deadline, self._expire_wave, wave)
            return gathered
        wave.enough = enough
        wave.expiries = {
            req_id: now + (deadline if deadlines is None
                           else deadlines.get(dst, deadline))
            for req_id, dst in wave.req_ids.items()}
        if hedge is not None and hedge.spares and hedge.limit > 0:
            wave.hedge = hedge
            wave.hedge_at = {
                req_id: now + hedge.delays[dst]
                for req_id, dst in wave.req_ids.items()
                if dst in hedge.delays}
        self._arm_wave_tick(wave)
        return gathered

    def multicast(self, dsts: Iterable[str], method: str, args: Any = None,
                  timeout: Optional[float] = None) -> Event:
        """Call every destination in parallel.

        The returned event succeeds with ``{dst: value_or_CALL_FAILED}``
        once every call has completed or timed out.  The paper does not
        assume hardware multicast; this is a loop of unicasts, batched
        into one :meth:`call_wave`.
        """
        return self.call_wave({dst: (method, args) for dst in dsts},
                              timeout=timeout)

    def _observe(self, dst: str, ok: bool) -> None:
        observer = self.liveness_observer
        if observer is not None:
            observer(dst, ok)

    # -- adaptive RTT estimation -------------------------------------------
    def _record_rtt(self, dst: str, rtt: float) -> None:
        observer = self.latency_observer
        if observer is not None:
            observer(dst, rtt)
        a = self.adaptive
        if a is None:
            return
        est = self._rtt.get(dst)
        if est is None:
            est = self._rtt[dst] = _LinkRtt()
        est.observe(rtt, a.alpha, a.beta)
        gauges = self._link_gauges.get(dst)
        if gauges is None:
            gauges = (self.metrics.gauge("rpc_link_srtt",
                                         src=self.node.name, dst=dst),
                      self.metrics.gauge("rpc_link_deadline",
                                         src=self.node.name, dst=dst))
            self._link_gauges[dst] = gauges
        gauges[0].set(est.srtt)
        gauges[1].set(self._deadline_from(est))

    def _deadline_from(self, est: _LinkRtt) -> float:
        a = self.adaptive
        return min(max(est.srtt + a.deadline_mult * est.rttvar, a.floor),
                   a.ceil)

    def deadline_for(self, dst: str) -> float:
        """The adaptive deadline for one destination (default until the
        link has at least one RTT sample, or when adaptation is off)."""
        a = self.adaptive
        if a is not None:
            est = self._rtt.get(dst)
            if est is not None and est.srtt is not None:
                return self._deadline_from(est)
        return self.default_timeout

    def hedge_delay_for(self, dst: str) -> float:
        """How long a destination may stay silent before a backup request
        is justified (the p99-style overdue threshold)."""
        a = self.adaptive
        if a is not None:
            est = self._rtt.get(dst)
            if est is not None and est.srtt is not None:
                return min(max(est.srtt + a.hedge_mult * est.rttvar,
                               a.floor), a.ceil)
        return self.default_timeout

    def _remember_late(self, req_id: int, dst: str, sent: float) -> None:
        late = self._late
        late[req_id] = (dst, sent)
        while len(late) > self.LATE_CAPACITY:
            late.popitem(last=False)

    def _expire(self, req_id: int) -> None:
        # an answered call's timer is cancelled: this one is still pending
        call, dst, sent = self._pending.pop(req_id)
        self.node.trace.record(self.env.now, "rpc-timeout", self.node.name,
                               req_id=req_id)
        self._link(dst)[1].inc()
        self._observe(dst, ok=False)
        self._remember_late(req_id, dst, sent)
        call.event.succeed(CALL_FAILED)

    def _expire_wave(self, wave: _Wave) -> None:
        # a plain wave: answered in full, its timer would have been cancelled
        pending = self._pending
        trace = self.node.trace
        now = self.env.now
        for req_id, dst in wave.req_ids.items():
            _wave, _dst, sent = pending.pop(req_id)
            trace.record(now, "rpc-timeout", self.node.name, req_id=req_id)
            wave.results[dst] = CALL_FAILED
            self._link(dst)[1].inc()
            self._observe(dst, ok=False)
            self._remember_late(req_id, dst, sent)
        wave.req_ids.clear()
        wave.event.succeed(wave.results)

    # -- managed waves (per-dst deadlines / hedging / early completion) ----
    def _arm_wave_tick(self, wave: _Wave) -> None:
        times = [t for req_id, t in wave.expiries.items()
                 if req_id in wave.req_ids]
        if wave.hedge_at and not wave.event.triggered:
            times.extend(t for req_id, t in wave.hedge_at.items()
                         if req_id in wave.req_ids)
        if not times:
            return
        delay = max(0.0, min(times) - self.env.now)
        wave.timer = self.env.timer(delay, self._wave_tick, wave)

    def _wave_tick(self, wave: _Wave) -> None:
        now = self.env.now
        pending = self._pending
        trace = self.node.trace
        due = [req_id for req_id in wave.req_ids
               if wave.expiries.get(req_id, 0.0) <= now]
        for req_id in due:
            dst = wave.req_ids.pop(req_id)
            wave.expiries.pop(req_id, None)
            if wave.hedge_at:
                wave.hedge_at.pop(req_id, None)
            entry = pending.pop(req_id, None)
            if entry is None:
                continue
            trace.record(now, "rpc-timeout", self.node.name, req_id=req_id)
            if dst not in wave.results:
                wave.results[dst] = CALL_FAILED
            self._link(dst)[1].inc()
            self._observe(dst, ok=False)
            self._remember_late(req_id, dst, entry[2])
        if (wave.hedge is not None and wave.hedge_at
                and not wave.event.triggered):
            self._fire_hedges(wave, now)
        self._settle_wave(wave)
        if wave.req_ids:
            self._arm_wave_tick(wave)

    def _fire_hedges(self, wave: _Wave, now: float) -> None:
        policy = wave.hedge
        overdue = [req_id for req_id, t in wave.hedge_at.items()
                   if t <= now and req_id in wave.req_ids]
        if not overdue:
            return
        contacted = set(wave.req_ids.values()) | set(wave.results)
        if wave.hedges:
            contacted.update(wave.hedges)
        fired = len(wave.hedges) if wave.hedges else 0
        method, args = policy.request
        name = self.node.name
        for req_id in overdue:
            # one backup per straggler, ever
            del wave.hedge_at[req_id]
            if fired >= policy.limit:
                continue
            straggler = wave.req_ids.get(req_id)
            if straggler is None:
                continue
            spare = next((s for s in policy.spares if s not in contacted),
                         None)
            if spare is None:
                continue
            contacted.add(spare)
            if wave.hedges is None:
                wave.hedges = {}
            wave.hedges[spare] = straggler
            fired += 1
            backup_id = next(self._req_ids)
            self._pending[backup_id] = (wave, spare, now)
            wave.req_ids[backup_id] = spare
            wave.expiries[backup_id] = now + policy.deadlines.get(
                spare, self.default_timeout)
            self.node.trace.record(now, "rpc-hedge", name, method=method,
                                   dst=spare, straggler=straggler,
                                   req_id=backup_id)
            self._link(spare)[0].inc()
            self._m_hedge_fired.inc()
            self.node.send(spare, self.REQUEST_KIND,
                           _Request(backup_id, method, args, name))

    def _settle_wave(self, wave: _Wave) -> None:
        if not wave.req_ids:
            wave.timer.cancel()     # nothing is left for the tick to do
            self._account_hedges(wave)
            if not wave.event.triggered:
                wave.event.succeed(wave.results)
            return
        if (not wave.event.triggered and wave.enough is not None
                and wave.enough(wave.results)):
            # Early completion: the quorum logic is already satisfied.
            # Report the stragglers as CALL_FAILED in a *copy*; their
            # requests stay pending so late answers still feed the
            # liveness and latency observers at (or before) expiry.
            early = dict(wave.results)
            for dst in wave.req_ids.values():
                if dst not in early:
                    early[dst] = CALL_FAILED
            wave.hedge_at = None  # no point hedging a satisfied wave
            wave.event.succeed(early)

    def _account_hedges(self, wave: _Wave) -> None:
        if wave.accounted:
            return
        wave.accounted = True
        if not wave.hedges:
            return
        for spare, straggler in wave.hedges.items():
            spare_answered = (
                wave.results.get(spare, CALL_FAILED) is not CALL_FAILED)
            straggler_answered = (
                wave.results.get(straggler, CALL_FAILED) is not CALL_FAILED)
            if spare_answered and not straggler_answered:
                self._m_hedge_won.inc()
            else:
                self._m_hedge_wasted.inc()

    def _on_crash(self) -> None:
        # Server side: the duplicate-suppression cache is volatile state.
        self._served.clear()
        # Client side: RTT estimates and late-response credit are volatile.
        self._rtt.clear()
        self._link_gauges.clear()
        self._late.clear()
        # The caller crashed: its pending calls are moot.  Complete them so
        # the event queue drains; any interested process was interrupted.
        # No liveness observation here -- the *caller* failed, not the
        # destinations.
        pending, self._pending = self._pending, {}
        waves = []
        for sink, dst, _sent in pending.values():
            if isinstance(sink, _Wave):
                sink.results[dst] = CALL_FAILED
                waves.append(sink)
            else:
                sink.timer.cancel()
                sink.event.succeed(CALL_FAILED)
        for wave in waves:
            # settling withdraws the wave's timer and books its hedges
            wave.req_ids.clear()
            self._settle_wave(wave)

    # -- quiesce introspection --------------------------------------------
    def pending_calls(self) -> tuple:
        """Req-ids of client-side calls still awaiting answer or timeout."""
        return tuple(sorted(self._pending))

    def inflight_handlers(self) -> tuple:
        """Keys of server-side requests accepted but not yet answered.

        These are the ``_served`` entries still at the in-progress
        sentinel -- generator handlers parked on a lock or a nested
        call.  On a quiesced cluster this must drain to empty; an entry
        that persists is a stuck handler the sanitizer flags."""
        return tuple(sorted(key for key, value in self._served.items()
                            if value is self._IN_PROGRESS))

    # -- server side -------------------------------------------------------
    def serve(self, method: str, handler: Callable[[str, Any], Any]) -> None:
        """Register the handler for an RPC method."""
        if method in self._methods:
            raise ValueError(f"{self.node.name}: method {method!r} already served")
        self._methods[method] = (handler, f"{self.node.name}:rpc-{method}")

    def _on_request(self, msg) -> None:
        request: _Request = msg.payload
        key = (request.reply_to, request.req_id)
        cached = self._served.get(key, self._ABSENT)
        if cached is not self._ABSENT:
            self.node.trace.record(self.env.now, "rpc-duplicate",
                                   self.node.name, method=request.method,
                                   src=msg.src, req_id=request.req_id,
                                   state=("in-progress"
                                          if cached is self._IN_PROGRESS
                                          else "answered"))
            if cached is not self._IN_PROGRESS:
                # replay the recorded answer without re-running the handler
                self._reply(request, cached)
            return
        served = self._methods.get(request.method)
        if served is None:
            self.node.trace.record(self.env.now, "rpc-no-method",
                                   self.node.name, method=request.method)
            return
        handler, process_name = served
        result = handler(msg.src, request.args)
        if result is not None and hasattr(result, "send"):
            # A generator handler runs inside this delivery up to its
            # first real wait.  Most never have one (an uncontended lock
            # grants synchronously) and are answered like a plain handler.
            try:
                target = advance(result)
            except StopIteration as stop:
                result = stop.value
            except BaseException as exc:  # a real bug: step() re-raises it
                self.env._record_crash(process_name, exc)
                return
            else:
                # parked: a duplicate delivered meanwhile must find it
                self._remember(key, self._IN_PROGRESS)
                body = self._respond_later(request, result, target)
                next(body)      # to its ``yield target``: no handler code runs
                self.node.spawn_parked(body, process_name, target)
                return
        # nothing can be delivered while a handler runs, so its request
        # goes into the cache answered
        self._remember(key, result)
        self._reply(request, result)

    def _remember(self, key: tuple[str, int], value: Any) -> None:
        self._served[key] = value
        self._served.move_to_end(key)
        while len(self._served) > self.DEDUP_CAPACITY:
            self._served.popitem(last=False)

    def _respond_later(self, request: _Request, generator, target: Any):
        """Body of the node process of a handler that parked on *target*:
        waits wherever the handler waits, and answers when it returns.
        (``yield from`` would restart the wait the handler is already in.)
        """
        try:
            while True:
                try:
                    value = yield target
                except GeneratorExit:   # dropped unfinished: so is the handler
                    generator.close()
                    raise
                except BaseException as exc:    # an interrupt, a failed wait
                    target = advance(generator, None, exc)
                else:
                    target = advance(generator, value)
        except StopIteration as stop:
            value = stop.value
        self._remember((request.reply_to, request.req_id), value)
        self._reply(request, value)

    def _reply(self, request: _Request, value: Any) -> None:
        node = self.node
        if not node.up:
            return
        node.network.send(node.name, request.reply_to, self.RESPONSE_KIND,
                          _Response(request.req_id, value))

    def _on_response(self, msg) -> None:
        response: _Response = msg.payload
        entry = self._pending.pop(response.req_id, None)
        if entry is None:
            late = self._late.pop(response.req_id, None)
            if late is not None:
                # A reply after the deadline: the call already failed, but
                # the destination is demonstrably alive -- feed the
                # liveness/latency observers instead of dropping it.
                dst, sent = late
                self._observe(dst, ok=True)
                self._record_rtt(dst, self.env.now - sent)
                self._m_late.inc()
                self.node.trace.record(self.env.now, "rpc-late-response",
                                       self.node.name, dst=dst,
                                       req_id=response.req_id)
            return
        sink, dst, sent = entry
        observer = self.liveness_observer
        if observer is not None:
            observer(dst, True)
        self._record_rtt(dst, self.env.now - sent)
        if isinstance(sink, _Wave):
            del sink.req_ids[response.req_id]
            sink.results[dst] = response.value
            if sink.expiries is None:
                if len(sink.results) == sink.total:
                    # The last answer of a plain wave.  Nothing follows in
                    # this delivery, so the coordinator resumes inside it.
                    sink.timer.cancel()
                    sink.event.succeed_in_place(sink.results)
                return
            sink.expiries.pop(response.req_id, None)
            if sink.hedge_at:
                sink.hedge_at.pop(response.req_id, None)
            self._settle_wave(sink)
        else:
            sink.timer.cancel()
            sink.event.succeed_in_place(response.value)
