"""Write and read coordinators (the appendix's ``Write`` and
``HeavyProcedure``, plus the analogous read).

The coordinator is a replica node.  A **write**:

1. picks a write quorum over *its* epoch list with the quorum function and
   polls it (``write-request``; each replica locks and answers its state);
2. takes the answered state with the maximum epoch number ``m``; if the
   responders include a write quorum over ``elist_m`` and the responses
   contain an up-to-date replica (``max_version >= max_dversion``), it
   commits atomically: apply the partial update on the GOOD replicas
   (non-stale, version = max_version) and mark the rest stale with desired
   version ``max_version + 1``;
3. otherwise falls back to ``HeavyProcedure``: poll *all* replicas and
   retry the same decision once; abort if it still fails.

A **read** is the same shape without updates: it needs a read quorum and a
non-stale response at least as new as every desired version seen, and
returns that replica's value.

The Section 4.1 **safety-threshold extension** is implemented behind
``config.safety_threshold``: when fewer than that many GOOD replicas were
found, the coordinator adds additional known-good replicas (from the
``last_good`` list recorded at the previous write) to the write set --
without polling them first, exactly as the paper describes; their prepares
validate that they are still current.

This is the only implementation of that path, and it is item-addressed:
what depends on the data item alone is asked of a small overridable
method (``_registry``, ``_history``, ``_epoch_list``, ``_new_op``,
``_poll_request``, ``release_method``, ``_heavy_targets``,
``_write_command``, ``_learn``), and what another protocol decides
differently of two more (``_plan_quorum``, ``_decide``).  The answers
below are the single-item store's, whose one item is ``None``; the keyed
store's :class:`~repro.shard.router.ShardRouter` answers for a
``(shard, key)`` and :mod:`repro.baselines` for the three protocols the
paper is compared with (docs/SHARDING.md: who overrides what).
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Iterable, Mapping, Optional

from repro.core.messages import (
    ApplyWrite,
    Busy,
    MarkStale,
    ReadResult,
    StateResponse,
    WriteResult,
)
from repro.core.replica import ReplicaServer
from repro.core.twophase import gather, run_transaction
from repro.coteries.base import _stable_hash
from repro.coteries.planner import plan_quorum
from repro.sim.rpc import CALL_FAILED, HedgePolicy

#: Observed-mix warm-up: below this many counted operations the
#: workload-aware optimizer targets a neutral 50/50 mix instead of
#: trusting a tiny sample.
_MIX_WARMUP_OPS = 8


class Coordinator:
    """Issues write and read operations from one replica node."""

    #: RPC method with which a polled replica gives up this op's lock.
    release_method = "op-release"

    def __init__(self, server: ReplicaServer,
                 history: Optional["History"] = None):
        self.server = server
        self.history = history
        self._op_ids = itertools.count(1)
        # pre-bound metric objects: per-op recording must stay a handful
        # of attribute bumps (the throughput benchmark gates overhead)
        metrics = self._metrics = self._registry()
        self._op_metrics = {
            kind: (metrics.histogram("op_latency", kind=kind),
                   metrics.counter("op_polls", kind=kind),
                   metrics.counter("op_retries", kind=kind),
                   metrics.counter("planner_detours", kind=kind))
            for kind in ("write", "read")
        }
        self._outcome_counters: dict[tuple[str, str], object] = {}
        self._m_degraded = metrics.counter("degraded_reads",
                                           node=server.name)
        self._m_strategy_samples = {
            kind: metrics.counter("strategy_samples", kind=kind)
            for kind in ("write", "read")
        }
        self._m_read_one = {
            outcome: metrics.counter("strategy_read_one", outcome=outcome)
            for outcome in ("ok", "fallback")
        }
        # observed operation mix, feeding the workload-aware optimizer
        # when strategy_read_fraction is -1 (counted at operation start,
        # so the estimate is ready before the op's own quorum is planned)
        self._mix = {"read": 0, "write": 0}

    @property
    def name(self) -> str:
        """The owning node's name."""
        return self.server.name

    # -- what an item is (the single-item answers) -----------------------------
    def _registry(self):
        """The metrics registry the per-operation series live in."""
        return self.server.metrics

    def _history(self, item) -> Optional["History"]:
        """The history that records operations on *item*, or None."""
        return self.history

    def _epoch_list(self, item) -> tuple:
        """The epoch list this node plans *item*'s quorums over."""
        return self.server.state.epoch_list

    def _new_op(self, kind: str, item) -> tuple[str, int, str]:
        """A fresh attempt's ``(op_id, seq, salt)``: its identifier, and
        the attempt number and salt of its quorum draws."""
        seq = next(self._op_ids)
        return f"{self.name}:{kind}{seq}", seq, self.name

    def _poll_request(self, kind: str, item, op_id: str) -> tuple:
        """The ``(method, args)`` every member of a poll wave is sent."""
        return ("write-request" if kind == "write" else "read-request",
                op_id)

    def _write_command(self, item, node: str, current: bool, updates: dict,
                       version: int, stale_nodes: tuple, known_good: tuple):
        """Participant *node*'s 2PC command: apply the update on a
        *current* replica, mark any other stale with desired version
        *version*."""
        if current:
            return ApplyWrite(dict(updates), version, stale_nodes,
                              known_good)
        return MarkStale(version, known_good)

    def _learn(self, item, states: Mapping[str, StateResponse]) -> None:
        """Hook: the state answers of one poll wave, before the decision."""

    def _decide(self, states: Mapping[str, StateResponse], kind: str):
        """May a *kind* operation proceed on these answers?
        ``(max_version, good, stale)`` or None; see :func:`_decide`."""
        return _decide(self.server.coterie_for, states, kind)

    # -- the operation path ------------------------------------------------------
    def write(self, updates: dict):
        """Generator (node process): perform one partial write.

        A ``no-quorum`` outcome (which includes lock-contention BUSYs) is
        retried with exponential backoff up to ``config.op_retries`` times;
        each attempt re-picks its quorum, so retries also route around
        freshly failed nodes.
        """
        return self._operate("write", None, updates)

    def read(self):
        """Generator (node process): perform one read (with retries, like
        :meth:`write`)."""
        return self._operate("read", None)

    def _operate(self, kind: str, item, updates: Optional[dict] = None):
        """Generator: one top-level operation on *item* -- its history
        record, the retry loop over attempts, and the per-op metrics."""
        env = self.server.env
        history = self._history(item)
        record = None
        if history is not None:
            record = history.start(
                kind, f"{self.name}:{kind[0]}?", self.name, env.now,
                updates=None if updates is None else dict(updates))
        self._mix[kind] += 1
        started = env.now
        result = yield from self._with_retries(
            partial(self._write_once, item, updates) if kind == "write"
            else partial(self._read_once, item))
        if record is not None:
            record.op_id = result.op_id or record.op_id
            if result.case in ("degraded", "read-one"):
                # degraded and read-one-tier reads promise bounded
                # staleness, not freshness; the history checker
                # validates them separately
                record.kind = "read-degraded"
            history.finish(record, env.now, result)
        self._observe_op(kind, started, result)
        return result

    # -- write ----------------------------------------------------------------
    def _write_once(self, item, updates: dict):
        server = self.server
        op_id, seq, salt = self._new_op("w", item)
        request = self._poll_request("write", item, op_id)

        elist = self._epoch_list(item)
        coterie = server.coterie_for(elist)
        strategy = self._strategy(coterie, elist)
        quorum = self._plan_quorum(coterie, "write", salt, seq, strategy)
        responses = yield self._poll(coterie, "write", quorum, request)
        # hedged waves may answer from spare nodes outside the planned
        # quorum; count every contacted node so aborts release them all
        polled = set(quorum) | set(responses)
        seen = dict(responses)

        self._raise_suspicion(responses)
        result = yield from self._try_write(item, responses, updates, op_id,
                                            case="fast")
        # HeavyProcedure: poll every candidate (re-polls are answered
        # from the locks already held by this op); a protocol without
        # one names no candidates.
        targets = (() if result is not None
                   else self._heavy_targets(coterie, "write", item))
        if targets:
            responses = yield self._poll(coterie, "write", targets, request)
            polled |= set(targets) | set(responses)
            seen.update(responses)
            result = yield from self._try_write(item, responses, updates,
                                                op_id, case="heavy")
            if result is not None:
                result.polls = 2
        if result is None:
            yield from self._release(polled, op_id)
            result = WriteResult(False, case="no-quorum", op_id=op_id,
                                 polls=1 + bool(targets),
                                 retry_after=_busy_hint(seen))
        elif server.config.adaptive_timeouts or server.config.hedge_requests:
            # Two stranding shapes on the success path: early-completed
            # waves leave stragglers unanswered, and the heavy procedure
            # can exclude a fast-wave responder (suspected at its
            # per-destination deadline) from the write set even though it
            # granted a lock to this op.  Release every polled node that
            # is not a 2PC participant -- idempotent for nodes that never
            # granted.  Fire-and-forget (sorted: send order must stay
            # deterministic -- every send draws from the latency stream).
            # chaos_bug="stranded-lock" re-introduces the pre-fix shape
            # (no fan-out, locks leak until the lease) as the sanitizer's
            # canary: the quiesce check must flag the resulting
            # lock-lease-expired reclaims on a crash-free run.
            if server.config.chaos_bug != "stranded-lock":
                participants = set(result.good) | set(result.stale)
                for dst in sorted(polled - participants):
                    server.rpc.call(dst, self.release_method, op_id)
        return result

    def _try_write(self, item, responses, updates: dict, op_id: str,
                   case: str):
        """Generator: one decision + commit attempt; None means fall through
        to the heavy procedure (or to the final abort)."""
        server = self.server
        states = _state_responses(responses)
        self._learn(item, states)
        decision = self._decide(states, "write")
        if decision is None:
            return None
        max_version, good, stale = decision

        good_nodes = tuple(sorted(good))
        stale_nodes = tuple(sorted(stale))
        extras = tuple(self._safety_extras(states, max_version,
                                           good_nodes, stale_nodes))
        commands = {
            node: self._write_command(item, node, node not in stale,
                                      updates, max_version + 1, stale_nodes,
                                      good_nodes + extras)
            for node in good_nodes + stale_nodes + extras}
        expected = {node: {"version": max_version, "stale": False}
                    for node in extras}

        committed = yield from run_transaction(server, commands, op_id,
                                               expected=expected)
        if not committed:
            if extras:
                # retry once without the unpolled extras before going heavy
                commands = {n: c for n, c in commands.items()
                            if n not in extras}
                committed = yield from run_transaction(server, commands,
                                                       op_id)
            if not committed:
                return None
        return WriteResult(True, version=max_version + 1, good=good_nodes,
                           stale=stale_nodes, case=case, op_id=op_id)

    def _safety_extras(self, states: Mapping[str, StateResponse],
                       max_version: int, good_nodes: tuple,
                       stale_nodes: tuple) -> list[str]:
        threshold = self.server.config.safety_threshold
        if not threshold or len(good_nodes) >= threshold:
            return []
        recorded = None
        for name in good_nodes:
            last_good = states[name].last_good
            if last_good and last_good[0] == max_version:
                recorded = last_good[1]
                break
        if not recorded:
            return []
        candidates = [name for name in recorded
                      if name not in good_nodes and name not in stale_nodes]
        return candidates[:threshold - len(good_nodes)]

    # -- read ------------------------------------------------------------------
    def _read_once(self, item):
        server = self.server
        config = server.config
        op_id, seq, salt = self._new_op("r", item)
        request = self._poll_request("read", item, op_id)

        elist = self._epoch_list(item)
        coterie = server.coterie_for(elist)
        strategy = self._strategy(coterie, elist)
        if strategy is not None and strategy.read_one_tier:
            result = yield from self._read_one_tier(request, op_id, salt,
                                                    seq, strategy)
            if result is not None:
                return result
            # fall through: the optimized read-quorum distribution is
            # the tier's own fallback (sampled below via the strategy)
        quorum = self._plan_quorum(coterie, "read", salt, seq, strategy)
        if config.degraded_reads and config.op_deadline > 0:
            predicted = max((server.liveness.latency_score(dst)
                             for dst in quorum), default=0.0)
            if predicted > config.op_deadline:
                result = yield from self._degraded_read(coterie, item,
                                                        request, op_id)
                if result is not None:
                    return result
        responses = yield self._poll(coterie, "read", quorum, request)
        seen = dict(responses)
        self._raise_suspicion(responses)
        result = self._try_read(item, responses, op_id, case="fast")
        targets = (() if result is not None
                   else self._heavy_targets(coterie, "read", item))
        if targets:
            responses = yield self._poll(coterie, "read", targets, request)
            seen.update(responses)
            result = self._try_read(item, responses, op_id, case="heavy")
            if result is not None:
                result.polls = 2
        if result is None:
            result = ReadResult(False, case="no-quorum", op_id=op_id,
                                polls=1 + bool(targets),
                                retry_after=_busy_hint(seen))
        return result

    def _degraded_read(self, coterie, item, request: tuple, op_id: str):
        """Generator: the cheap read tier.

        When the latency scores predict the full quorum would blow the
        op deadline, ask the single fastest non-suspect replica (of the
        heavy poll's candidates: the nodes that may hold the item) and
        -- if it answers with a non-stale state -- return its value flagged
        ``case="degraded"``.  Bounded staleness: the value reflects some
        committed prefix of the write history (a non-stale replica has
        applied every write up to its version) but may trail the latest
        quorum-committed write, so the history checker validates these
        reads against their own version, not against freshness.  Any
        failure falls through to the normal quorum path (None).
        """
        server = self.server
        suspects = server.liveness.suspects()
        candidates = [name
                      for name in self._heavy_targets(coterie, "read", item)
                      if name not in suspects]
        if not candidates:
            return None
        target = server.liveness.rank(candidates)[0]
        timeout = server.config.lock_wait + server.rpc.deadline_for(target)
        response = yield server.rpc.call(target, *request, timeout=timeout)
        if not isinstance(response, StateResponse) or response.stale:
            return None
        self._m_degraded.inc()
        return ReadResult(True, value=response.value,
                          version=response.version, case="degraded",
                          op_id=op_id)

    def _try_read(self, item, responses, op_id: str, case: str):
        states = _state_responses(responses)
        self._learn(item, states)
        decision = self._decide(states, "read")
        if decision is None:
            return None
        max_version, good, _stale = decision
        winner = states[sorted(good)[0]]
        return ReadResult(True, value=winner.value, version=max_version,
                          case=case, op_id=op_id)

    # -- helpers ------------------------------------------------------------------
    def _observe_op(self, kind: str, started: float, result) -> None:
        """Record one finished top-level operation (all retries included)."""
        latency, polls, retries, _detours = self._op_metrics[kind]
        latency.observe(self.server.env.now - started)
        polls.inc(result.polls)
        retries.inc(result.attempts - 1)
        outcome = "ok" if result.ok else (result.case or "failed")
        counter = self._outcome_counters.get((kind, outcome))
        if counter is None:
            counter = self._metrics.counter("ops", kind=kind,
                                            outcome=outcome)
            self._outcome_counters[(kind, outcome)] = counter
        counter.inc()

    def _strategy(self, coterie, elist):
        """The optimized quorum strategy for this operation, or None
        when ``config.quorum_strategy`` is off.

        The target read fraction is the configured one, or -- when set
        to observe -- this coordinator's own operation mix (a neutral
        0.5 until enough ops have been counted to trust the estimate).
        The read-one tier is only offered while the epoch spans full
        membership: a shrunk epoch falls back to the optimized read
        quorums, because write-all over the *epoch* no longer covers
        every replica a single-replica read might hit."""
        server = self.server
        config = server.config
        mode = config.quorum_strategy
        if not mode:
            return None
        fraction = config.strategy_read_fraction
        if fraction < 0.0:
            total = self._mix["read"] + self._mix["write"]
            fraction = (self._mix["read"] / total
                        if total >= _MIX_WARMUP_OPS else 0.5)
        full = frozenset(elist) == frozenset(server.all_nodes)
        return server.strategy_for(
            coterie, fraction, allow_read_one=full,
            force_read_one=(mode == "read-dominant" and full))

    def _read_one_tier(self, request: tuple, op_id: str, salt: str,
                       seq: int, strategy):
        """Generator: the read-dominant fast tier (Kumar & Agarwal).

        With the write strategy covering *all* nodes, any single
        current replica serves a read in one round trip.  The answer
        must be non-stale and from this coordinator's epoch; anything
        else (miss, BUSY, staleness, an epoch skew) falls back to the
        optimized read quorum (None).  Tier reads are flagged
        ``case="read-one"`` and validated like degraded reads --
        bounded staleness, not freshness: a write-all commit only
        *marks* the nodes that answered its poll, so a replica that
        missed one wave can serve a slightly older committed prefix
        (see docs/PROTOCOL.md).
        """
        server = self.server
        target = strategy.pick_read_replica(
            avoid=server.liveness.suspects(), salt=salt, attempt=seq)
        if target is None:
            self._m_read_one["fallback"].inc()
            return None
        timeout = server.config.lock_wait + server.rpc.deadline_for(target)
        response = yield server.rpc.call(target, *request, timeout=timeout)
        if (isinstance(response, StateResponse) and not response.stale
                and response.enumber == server.state.epoch_number):
            self._m_read_one["ok"].inc()
            return ReadResult(True, value=response.value,
                              version=response.version, case="read-one",
                              op_id=op_id)
        self._m_read_one["fallback"].inc()
        return None

    def _plan_quorum(self, coterie, kind: str, salt: str, seq: int,
                     strategy=None) -> list:
        """The quorum to poll: the liveness-aware plan, or the blind
        salted draw with the planner disabled.  With nothing suspected
        the plan *is* the blind draw, so healthy runs are unchanged.
        Under adaptive timeouts the plan is additionally *graded*: the
        latency scores rank candidates so slow-but-alive nodes are
        demoted to last resort instead of dragging every quorum.  With
        a *strategy*, the plan is a seeded draw from the optimized
        quorum distribution instead of the canonical pick (suspects
        still filter the support; see ``plan_quorum``)."""
        server = self.server
        planner = server.config.quorum_planner
        if strategy is None and not planner:
            return (coterie.write_quorum(salt=salt, attempt=seq)
                    if kind == "write"
                    else coterie.read_quorum(salt=salt, attempt=seq))
        avoid = server.liveness.suspects() if planner else frozenset()
        if avoid:
            self._op_metrics[kind][3].inc()
        scores = (server.liveness.latency_scores()
                  if server.config.adaptive_timeouts else None)
        if strategy is not None:
            self._m_strategy_samples[kind].inc()
        return plan_quorum(coterie, kind, avoid=avoid,
                           salt=salt, attempt=seq, scores=scores,
                           strategy=strategy)

    def _poll(self, coterie, kind: str, targets, request: tuple):
        """One poll wave sending *request* to *targets*, with the
        gray-failure options applied when configured: adaptive deadlines,
        hedged backup requests to planner-ranked spares, and early
        completion once the responses already decide the operation.
        With both features off this is exactly the fixed-timeout
        ``gather`` (polls may wait up to lock_wait at the replica before
        answering BUSY, so deadlines always add that slack)."""
        server = self.server
        config = server.config
        requests = {dst: request for dst in targets}
        timeout = config.lock_wait + config.rpc_timeout
        if not (config.adaptive_timeouts or config.hedge_requests):
            return gather(server.rpc, requests, timeout=timeout)
        rpc = server.rpc
        deadlines = {dst: config.lock_wait + rpc.deadline_for(dst)
                     for dst in targets}
        hedge = None
        enough = None
        if config.hedge_requests:
            spares = self._hedge_spares(coterie, targets)
            if spares and config.hedge_max > 0:
                # Hedge thresholds deliberately omit the lock_wait slack:
                # a straggler statistically overdue on RTT alone is worth
                # a backup even if it might merely be lock-waiting (the
                # at-most-once cache keeps the duplicate harmless).
                hedge = HedgePolicy(
                    spares=spares,
                    request=request,
                    delays={dst: rpc.hedge_delay_for(dst)
                            for dst in targets},
                    deadlines={dst: config.lock_wait + rpc.deadline_for(dst)
                               for dst in spares},
                    limit=config.hedge_max)
            def enough(results):
                return self._decide(_state_responses(results),
                                    kind) is not None

        return rpc.call_wave(requests, timeout=timeout, deadlines=deadlines,
                             hedge=hedge, enough=enough)

    def _hedge_spares(self, coterie, targets) -> tuple:
        """Backup candidates for a hedged wave: epoch members outside the
        polled set and not currently suspected, ranked fastest-first."""
        server = self.server
        polled = set(targets)
        liveness = server.liveness
        candidates = [name for name in coterie.nodes
                      if name not in polled and not liveness.is_suspect(name)]
        return tuple(liveness.rank(candidates))

    def _heavy_targets(self, coterie, kind: str, item) -> tuple:
        """The HeavyProcedure poll set: all nodes, minus current suspects
        whenever the remainder still contains a quorum of the current
        coterie.  Suspicion can be wrong, so exclusion is never allowed
        to cost availability: if the unsuspected nodes cannot form a
        quorum, everyone is polled (and a wrongly excluded node is
        re-polled after the suspicion decays, at the latest).  These are
        also the nodes a degraded read may ask."""
        server = self.server
        nodes = server.all_nodes
        if not server.config.quorum_planner:
            return nodes
        avoid = server.liveness.suspects()
        if not avoid:
            return nodes
        live = tuple(name for name in nodes if name not in avoid)
        has_quorum = (coterie.is_write_quorum(live) if kind == "write"
                      else coterie.is_read_quorum(live))
        return live if has_quorum else nodes

    def _raise_suspicion(self, responses) -> None:
        """Fire-and-forget suspicion broadcast (optional extension).

        When enabled, any CALL_FAILED seen while polling makes the
        elected initiator run an immediate, debounced epoch check instead
        of waiting for the periodic pulse.
        """
        server = self.server
        if not server.config.suspicion_triggers_check:
            return
        failed = tuple(sorted(dst for dst, response in responses.items()
                              if response is CALL_FAILED))
        if not failed:
            return
        for dst in server.all_nodes:
            if dst not in failed:
                server.rpc.call(dst, "suspect", failed,
                                timeout=server.config.rpc_timeout)

    def _with_retries(self, attempt_factory):
        """Generator: run an operation attempt, retrying no-quorum aborts
        with exponential backoff and deterministic jitter.  The returned
        result carries the total attempt count and poll-wave count
        (``result.attempts`` / ``result.polls``) summed over all
        attempts -- the planner's effect shows up here as fewer retry
        rounds and fewer heavy polls under faults."""
        config = self.server.config
        result = yield from attempt_factory()
        attempts = 1
        polls = result.polls
        for attempt in range(config.op_retries):
            if result.ok or result.case != "no-quorum":
                break
            jitter = 0.5 + (_stable_hash(f"{result.op_id}|{attempt}")
                            % 1000) / 1000.0
            delay = config.retry_backoff * (2 ** attempt) * jitter
            # honor overload back-pressure: a shedding replica's
            # retry_after hint stretches (never shrinks) the backoff,
            # clamped to the same [retry_after_min, retry_after_max]
            # bounds the replica's _shed() applies -- the floor keeps a
            # tiny hint from no-opting, the ceiling keeps a bad hint
            # from stalling the coordinator
            hint = getattr(result, "retry_after", 0.0)
            if hint > 0.0:
                delay = max(delay, config.clamp_retry_after(hint))
            yield self.server.env.timeout(delay)
            result = yield from attempt_factory()
            attempts += 1
            polls += result.polls
        result.attempts = attempts
        result.polls = polls
        return result

    def _release(self, polled: Iterable[str], op_id: str):
        # sorted: `polled` is a set, and message *send order* must not
        # depend on hash order or runs stop replaying across processes
        # (every send draws from the latency/fault RNG streams)
        yield gather(self.server.rpc,
                     {dst: (self.release_method, op_id)
                      for dst in sorted(polled)},
                     timeout=self.server.config.rpc_timeout)


def _state_responses(responses) -> dict[str, StateResponse]:
    """Filter a gather() result down to real state answers."""
    return {name: resp for name, resp in responses.items()
            if isinstance(resp, StateResponse)}


def _busy_hint(responses) -> float:
    """The largest Busy(retry_after) hint in a merged response map."""
    return max((r.retry_after for r in responses.values()
                if isinstance(r, Busy)), default=0.0)


def _decide(coterie_rule, states: Mapping[str, StateResponse], kind: str):
    """The core decision shared by writes, reads, and epoch checking.

    Returns ``(max_version, good, stale)`` over the responders, or None if
    no quorum over the maximum epoch seen, or no sufficiently recent
    non-stale replica answered.
    """
    if not states:
        return None
    newest = max(states.values(), key=lambda r: r.enumber)
    coterie = coterie_rule(newest.elist)
    responders = set(states)
    has_quorum = (coterie.is_write_quorum(responders) if kind == "write"
                  else coterie.is_read_quorum(responders))
    if not has_quorum:
        return None
    non_stale = [r for r in states.values() if not r.stale]
    stale = [r for r in states.values() if r.stale]
    if not non_stale:
        return None
    max_version = max(r.version for r in non_stale)
    max_dversion = max((r.dversion for r in stale), default=-1)
    if max_dversion > max_version:
        return None  # no current replica among the responders
    good = {r.node for r in non_stale if r.version == max_version}
    stale_set = responders - good
    return max_version, good, stale_set
