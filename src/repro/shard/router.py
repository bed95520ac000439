"""Routing coordinator: keyed reads/writes over the shard map.

A :class:`ShardRouter` runs on every node and turns ``write(key, ...)``
/ ``read(key)`` into the Section 4 per-item protocol against the key's
shard replicas.  The protocol itself -- plan, poll, decide, heavy
procedure, commit, release, retry -- is
:class:`~repro.core.coordinator.Coordinator`'s; this class only says
what a ``(shard, key)`` item *is*.  The epoch *guess* comes from local
state only -- the host's stored per-shard epoch, a small learned cache,
or the shard map's base placement -- so routing a key costs no extra
messages.  When the guess is behind (a failure evicted a replica, or a
rebalance moved the shard), the fast poll's responses carry the newer
epoch and the heavy path re-polls the union of the guess and the map's
current placement, exactly the paper's two-phase read/write structure.

Per-shard operation counters flow through the obs registry
(``shard_ops{shard=..., kind=...}``); hot-shard detection
(:mod:`repro.shard.rebalance`) is driven off those counters.
"""

from __future__ import annotations

from typing import Optional

from repro.core.coordinator import Coordinator
from repro.core.history import History
from repro.obs.metrics import NULL_REGISTRY
from repro.shard.host import ShardHost
from repro.shard.messages import ShApplyWrite, ShMarkStale


class ShardRouter(Coordinator):
    """Per-node coordinator for keyed operations: the item of every
    inherited method is a ``(shard, key)`` pair."""

    release_method = "sh-op-release"

    def __init__(self, host: ShardHost,
                 histories: Optional[dict] = None):
        super().__init__(host)
        self.map = host.map
        # key -> History, created lazily; None disables recording (a
        # million-op benchmark must not retain a million histories)
        self.histories = histories
        # shard -> learned epoch list (from poll responses); volatile
        self._epoch_cache: dict[int, tuple[str, ...]] = {}
        # (shard, kind) -> bound counter, so the hot-path cost of the
        # per-shard load metric is one dict lookup
        self._op_counters: dict[tuple[int, str], object] = {}
        host.node.add_crash_hook(self._epoch_cache.clear)

    def _item(self, key: str, kind: str) -> tuple[int, str]:
        """The item a key names, counted toward its shard's load."""
        shard = self.map.shard_of(key)
        counter = self._op_counters.get((shard, kind))
        if counter is None:
            counter = self.server.metrics.counter(
                "shard_ops", shard=f"s{shard:04d}", kind=kind)
            self._op_counters[(shard, kind)] = counter
        counter.inc()
        return shard, key

    # -- public API ------------------------------------------------------------
    def write(self, key: str, updates: dict):
        """Generator (node process): one keyed write."""
        return (yield from self._operate("write", self._item(key, "write"),
                                         updates))

    def read(self, key: str):
        """Generator (node process): one keyed read."""
        return (yield from self._operate("read", self._item(key, "read")))

    # -- what a (shard, key) item is -------------------------------------------
    def _registry(self):
        # The per-op series (a raw-sample latency histogram among them)
        # stay off until Histogram is bounded: a million-op run must not
        # retain a million samples.  ``shard_ops`` is the router's metric.
        return NULL_REGISTRY

    def _history(self, item) -> Optional[History]:
        if self.histories is None:
            return None
        return self.histories.setdefault(item[1], History())

    def _epoch_list(self, item) -> tuple[str, ...]:
        shard = item[0]
        entry = self.server.node.stable["sh_epochs"].get(shard)
        if entry is not None:
            return tuple(entry[0])
        cached = self._epoch_cache.get(shard)
        if cached is not None:
            return cached
        return self.map.replicas(shard)

    def _new_op(self, kind: str, item) -> tuple[str, int, str]:
        seq = next(self._op_ids)
        shard, key = item
        return (f"{self.name}:s{shard}/{key}:{kind}{seq}", seq,
                f"{self.name}:{key}")

    def _poll_request(self, kind: str, item, op_id: str) -> tuple:
        return ("sh-write-request" if kind == "write" else "sh-read-request",
                (*item, op_id))

    def _heavy_targets(self, coterie, kind: str, item) -> list:
        """The guessed epoch's members plus the map's current placement
        -- suspects included, unlike the coordinator's.  Measured, not an
        oversight: in the crash-free contended benchmark every suspicion
        was false (a propagation offer that outwaited ``rpc_timeout`` at
        a busy lock, since given ``lock_wait`` too), and excluding those
        nodes cost up to 8 % of simulated p99 and more messages per op;
        ROADMAP item 2(d) re-measures it."""
        return sorted(set(coterie.nodes) | set(self.map.replicas(item[0])))

    def _write_command(self, item, node: str, current: bool, updates: dict,
                       version: int, stale_nodes: tuple, known_good: tuple):
        if current:
            return ShApplyWrite(*item, dict(updates), version, stale_nodes)
        return ShMarkStale(*item, version)

    def _learn(self, item, states) -> None:
        if states:
            newest = max(states.values(), key=lambda r: r.enumber)
            self._epoch_cache[item[0]] = tuple(newest.elist)
