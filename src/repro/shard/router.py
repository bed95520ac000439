"""Routing coordinator: keyed reads/writes over the shard map.

A :class:`ShardRouter` runs on every node and turns ``write(key, ...)``
/ ``read(key)`` into the Section 4 per-item protocol against the key's
shard replicas.  The epoch *guess* comes from local state only -- the
host's stored per-shard epoch, a small learned cache, or the shard
map's base placement -- so routing a key costs no extra messages.  When
the guess is behind (a failure evicted a replica, or a rebalance moved
the shard), the fast poll's responses carry the newer epoch and the
heavy path re-polls the union of the guess and the map's current
placement, exactly the paper's two-phase read/write structure.

Per-shard operation counters flow through the obs registry
(``shard_ops{shard=..., kind=...}``); hot-shard detection
(:mod:`repro.shard.rebalance`) is driven off those counters.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.core.coordinator import _decide, _state_responses
from repro.core.history import History
from repro.core.messages import ReadResult, WriteResult
from repro.core.twophase import gather, run_transaction
from repro.coteries.base import _stable_hash
from repro.coteries.planner import plan_quorum
from repro.shard.host import ShardHost
from repro.shard.messages import ShApplyWrite, ShMarkStale


class ShardRouter:
    """Per-node coordinator for keyed operations."""

    def __init__(self, host: ShardHost,
                 histories: Optional[dict] = None):
        self.host = host
        self.map = host.map
        # key -> History, created lazily; None disables recording (a
        # million-op benchmark must not retain a million histories)
        self.histories = histories
        self._op_ids = itertools.count(1)
        # shard -> learned epoch list (from poll responses); volatile
        self._epoch_cache: dict[int, tuple[str, ...]] = {}
        # (shard, kind) -> bound counter, so the hot-path cost of the
        # per-shard load metric is one dict lookup
        self._op_counters: dict[tuple[int, str], object] = {}
        host.node.add_crash_hook(self._epoch_cache.clear)

    def _count(self, shard: int, kind: str) -> None:
        counter = self._op_counters.get((shard, kind))
        if counter is None:
            counter = self.host.metrics.counter(
                "shard_ops", shard=f"s{shard:04d}", kind=kind)
            self._op_counters[(shard, kind)] = counter
        counter.inc()

    def _elist_guess(self, shard: int) -> tuple[str, ...]:
        entry = self.host.node.stable["sh_epochs"].get(shard)
        if entry is not None:
            return tuple(entry[0])
        cached = self._epoch_cache.get(shard)
        if cached is not None:
            return cached
        return self.map.replicas(shard)

    # -- public API ------------------------------------------------------------
    def write(self, key: str, updates: dict):
        """Generator (node process): one keyed write."""
        shard = self.map.shard_of(key)
        self._count(shard, "write")
        result = yield from self._with_retries(
            key, "write", lambda: self._write_once(shard, key, updates),
            updates)
        return result

    def read(self, key: str):
        """Generator (node process): one keyed read."""
        shard = self.map.shard_of(key)
        self._count(shard, "read")
        result = yield from self._with_retries(
            key, "read", lambda: self._read_once(shard, key), None)
        return result

    # -- retry scaffolding (same shape as core.coordinator's) ------------------
    def _with_retries(self, key: str, kind: str, factory, updates):
        host = self.host
        record = None
        history = None
        if self.histories is not None:
            history = self.histories.setdefault(key, History())
            record = history.start(kind, f"{host.name}:{kind[0]}?",
                                   host.name, host.env.now, updates=updates)
        config = host.config
        result = yield from factory()
        for attempt in range(config.op_retries):
            if result.ok or result.case != "no-quorum":
                break
            jitter = 0.5 + (_stable_hash(f"{result.op_id}|{attempt}")
                            % 1000) / 1000.0
            yield host.env.timeout(
                config.retry_backoff * (2 ** attempt) * jitter)
            result = yield from factory()
        if record is not None:
            record.op_id = result.op_id or record.op_id
            history.finish(record, host.env.now, result)
        return result

    def _plan_quorum(self, coterie, kind: str, key: str, seq: int) -> list:
        host = self.host
        salt = f"{host.name}:{key}"
        if not host.config.quorum_planner:
            return (coterie.write_quorum(salt=salt, attempt=seq)
                    if kind == "write"
                    else coterie.read_quorum(salt=salt, attempt=seq))
        return plan_quorum(coterie, kind, avoid=host.liveness.suspects(),
                           salt=salt, attempt=seq)

    def _learn(self, shard: int, states: dict) -> None:
        if not states:
            return
        newest = max(states.values(), key=lambda r: r.enumber)
        self._epoch_cache[shard] = tuple(newest.elist)

    # -- write -----------------------------------------------------------------
    def _write_once(self, shard: int, key: str, updates: dict):
        host = self.host
        seq = next(self._op_ids)
        op_id = f"{host.name}:s{shard}/{key}:w{seq}"
        elist = self._elist_guess(shard)
        coterie = host.coterie_for(tuple(elist))
        quorum = self._plan_quorum(coterie, "write", key, seq)
        poll_timeout = host.config.lock_wait + host.config.rpc_timeout
        responses = yield gather(
            host.rpc,
            {dst: ("sh-write-request", (shard, key, op_id))
             for dst in quorum},
            timeout=poll_timeout)
        polled = set(quorum)
        result = yield from self._try_write(shard, key, responses, updates,
                                            op_id, "fast")
        if result is None:
            targets = sorted(set(elist) | set(self.map.replicas(shard)))
            responses = yield gather(
                host.rpc,
                {dst: ("sh-write-request", (shard, key, op_id))
                 for dst in targets},
                timeout=poll_timeout)
            polled |= set(targets)
            result = yield from self._try_write(shard, key, responses,
                                                updates, op_id, "heavy")
        if result is None:
            # sorted: message send order must not depend on set order
            yield gather(host.rpc,
                         {dst: ("sh-op-release", op_id)
                          for dst in sorted(polled)},
                         timeout=host.config.rpc_timeout)
            result = WriteResult(False, case="no-quorum", op_id=op_id)
        return result

    def _try_write(self, shard, key, responses, updates, op_id, case):
        host = self.host
        states = _state_responses(responses)
        self._learn(shard, states)
        decision = _decide(host.coterie_for, states, kind="write")
        if decision is None:
            return None
        max_version, good, stale = decision
        good_nodes, stale_nodes = tuple(sorted(good)), tuple(sorted(stale))
        commands: dict = {}
        for node in good_nodes:
            commands[node] = ShApplyWrite(shard, key, dict(updates),
                                          max_version + 1, stale_nodes)
        for node in stale_nodes:
            commands[node] = ShMarkStale(shard, key, max_version + 1)
        committed = yield from run_transaction(host, commands, op_id)
        if not committed:
            return None
        return WriteResult(True, version=max_version + 1, good=good_nodes,
                           stale=stale_nodes, case=case, op_id=op_id)

    # -- read ------------------------------------------------------------------
    def _read_once(self, shard: int, key: str):
        host = self.host
        seq = next(self._op_ids)
        op_id = f"{host.name}:s{shard}/{key}:r{seq}"
        elist = self._elist_guess(shard)
        coterie = host.coterie_for(tuple(elist))
        quorum = self._plan_quorum(coterie, "read", key, seq)
        poll_timeout = host.config.lock_wait + host.config.rpc_timeout
        responses = yield gather(
            host.rpc,
            {dst: ("sh-read-request", (shard, key, op_id))
             for dst in quorum},
            timeout=poll_timeout)
        result = self._try_read(shard, responses, op_id, "fast")
        if result is None:
            targets = sorted(set(elist) | set(self.map.replicas(shard)))
            responses = yield gather(
                host.rpc,
                {dst: ("sh-read-request", (shard, key, op_id))
                 for dst in targets},
                timeout=poll_timeout)
            result = self._try_read(shard, responses, op_id, "heavy")
        return result if result is not None else \
            ReadResult(False, case="no-quorum", op_id=op_id)

    def _try_read(self, shard, responses, op_id, case):
        states = _state_responses(responses)
        self._learn(shard, states)
        decision = _decide(self.host.coterie_for, states, kind="read")
        if decision is None:
            return None
        max_version, good, _stale = decision
        winner = states[sorted(good)[0]]
        return ReadResult(True, value=winner.value, version=max_version,
                          case=case, op_id=op_id)
