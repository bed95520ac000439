"""Message-passing network with crash-stop nodes and partitions.

The model matches the paper's assumptions (Section 3):

* nodes and links are *fail-stop*: they fail by crashing, never maliciously;
* communication is RPC-style; an undeliverable message surfaces to the
  sender as ``RPC.CallFailed`` (implemented in :mod:`repro.sim.rpc` as a
  timeout -- the network silently drops messages to dead or unreachable
  destinations, exactly like a real datagram network);
* multicast capability is not required: :meth:`Network.send` is point to
  point, and the RPC layer's ``multicast`` is a loop of unicasts.

Partitions are modelled by a :class:`PartitionManager` that groups node
names into connected components; messages crossing component boundaries are
dropped (in both directions, at delivery time).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from repro.sim.engine import Environment
from repro.sim.seeding import derive_rng
from repro.sim.sizing import message_size
from repro.sim.trace import TraceLog

NodeName = str


@dataclass(frozen=True)
class Message:
    """A network message.

    ``kind`` distinguishes requests from responses at the RPC layer;
    ``payload`` is the protocol-level content.
    """

    src: NodeName
    dst: NodeName
    kind: str
    payload: Any
    msg_id: int = 0


class LatencyModel:
    """Message delay distribution.

    The default draws uniformly from ``[min_delay, max_delay]``; a constant
    latency is obtained with ``min_delay == max_delay``.  Randomised latency
    matters for the protocol tests: it interleaves concurrent coordinators
    in adversarial orders.
    """

    def __init__(self, min_delay: float = 0.001, max_delay: float = 0.01,
                 rng: Optional[random.Random] = None):
        if min_delay < 0 or max_delay < min_delay:
            raise ValueError(f"bad latency bounds: [{min_delay}, {max_delay}]")
        self.min_delay = min_delay
        self.max_delay = max_delay
        self.rng = (rng if rng is not None
                    else derive_rng(0, "sim.network.latency"))

    def sample(self, src: NodeName, dst: NodeName) -> float:
        """One message delay draw for the given endpoints."""
        if self.min_delay == self.max_delay:
            return self.min_delay
        return self.rng.uniform(self.min_delay, self.max_delay)


class PartitionManager:
    """Tracks the network's connected components.

    Initially the network is fully connected.  :meth:`partition` installs a
    list of disjoint groups; nodes not mentioned in any group form an
    implicit final group together.  :meth:`heal` restores full connectivity.
    """

    def __init__(self, all_nodes: Iterable[NodeName] = ()):
        self._all_nodes: set[NodeName] = set(all_nodes)
        self._component: dict[NodeName, int] = {}

    def register(self, name: NodeName) -> None:
        """Add a node name to the connectivity universe."""
        self._all_nodes.add(name)

    def partition(self, *groups: Iterable[NodeName]) -> None:
        """Split the network into the given groups (plus one for the rest).

        Installing a partition REPLACES the previous component map rather
        than overlaying it: callers scripting overlapping episodes must
        pass the combined group list at every boundary (see
        ``FailureSchedule.partition_at``).  Directed link cuts
        (:meth:`Network.cut_link`) are independent state and survive both
        ``partition`` and ``heal``.
        """
        seen: set[NodeName] = set()
        component: dict[NodeName, int] = {}
        for idx, group in enumerate(groups):
            for name in group:
                if name in seen:
                    raise ValueError(f"node {name!r} appears in two groups")
                seen.add(name)
                component[name] = idx
        rest = self._all_nodes - seen
        for name in rest:
            component[name] = len(groups)
        self._component = component

    def heal(self) -> None:
        """Restore full network connectivity."""
        self._component = {}

    @property
    def is_partitioned(self) -> bool:
        """True while more than one connected component exists."""
        return bool(self._component) and len(set(self._component.values())) > 1

    def reachable(self, a: NodeName, b: NodeName) -> bool:
        """True iff the two names share a connected component."""
        if not self._component:
            return True
        return self._component.get(a, -1) == self._component.get(b, -1)

    def groups(self) -> list[set[NodeName]]:
        """Current connected components (a single group when healed)."""
        if not self._component:
            return [set(self._all_nodes)]
        by_idx: dict[int, set[NodeName]] = {}
        for name, idx in self._component.items():
            by_idx.setdefault(idx, set()).add(name)
        return [by_idx[i] for i in sorted(by_idx)]


class Network:
    """Delivers messages between registered endpoints.

    An endpoint is registered with a delivery callback and liveness
    predicate; :mod:`repro.sim.node` wires those up for protocol nodes.

    Delivery rules (checked at *delivery* time, after the latency delay):

    * the destination must be registered, up, and reachable from the source;
    * the source must still be up -- a message from a node that crashed
      in-flight is dropped, modelling the fail-stop loss of its send buffers.
      (This is conservative; disable with ``drop_from_crashed=False``.)
    * no *directed* link cut (:meth:`cut_link`) may sever ``src -> dst``;
      unlike partitions, cuts can be asymmetric (requests get through but
      replies vanish), the classic hard case for RPC-timeout failure
      detection.

    Message-level fault injection plugs in through :attr:`faults`: an
    object with a ``deliveries(msg, base_delay) -> list[float]`` method
    returning the delays at which copies of the message should arrive
    (``[]`` drops it, two entries duplicate it, a larger delay reorders it
    past later traffic).  ``None`` (the default) means a faultless
    network.  See :class:`repro.chaos.faults.LinkFaults`.
    """

    def __init__(self, env: Environment,
                 latency: Optional[LatencyModel] = None,
                 trace: Optional[TraceLog] = None,
                 drop_from_crashed: bool = True,
                 faults: Optional[Any] = None):
        self.env = env
        self.latency = latency or LatencyModel()
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        self.partitions = PartitionManager()
        self.drop_from_crashed = drop_from_crashed
        self.faults = faults
        self._cut_links: set[tuple[NodeName, NodeName]] = set()
        self._endpoints: dict[NodeName, Callable[[Message], None]] = {}
        self._is_up: dict[NodeName, Callable[[], bool]] = {}
        self._msg_ids = itertools.count(1)
        self.bytes_sent = 0
        self.messages_sent = 0

    # -- registration --------------------------------------------------------
    def register(self, name: NodeName,
                 deliver: Callable[[Message], None],
                 is_up: Callable[[], bool]) -> None:
        """Register an endpoint (name, delivery callback, liveness)."""
        if name in self._endpoints:
            raise ValueError(f"endpoint {name!r} already registered")
        self._endpoints[name] = deliver
        self._is_up[name] = is_up
        self.partitions.register(name)

    @property
    def node_names(self) -> list[NodeName]:
        """All node names, sorted."""
        return sorted(self._endpoints)

    # -- directed link cuts ----------------------------------------------------
    def cut_link(self, src: NodeName, dst: NodeName,
                 both_ways: bool = False) -> None:
        """Sever the ``src -> dst`` direction (and the reverse with
        ``both_ways``).  Messages crossing a cut are dropped at delivery
        time, like partition drops, so in-flight traffic is affected too."""
        self._cut_links.add((src, dst))
        if both_ways:
            self._cut_links.add((dst, src))

    def restore_link(self, src: NodeName, dst: NodeName,
                     both_ways: bool = False) -> None:
        """Undo :meth:`cut_link`; restoring an uncut link is a no-op."""
        self._cut_links.discard((src, dst))
        if both_ways:
            self._cut_links.discard((dst, src))

    def restore_all_links(self) -> None:
        """Undo every directed link cut."""
        self._cut_links.clear()

    @property
    def cut_links(self) -> frozenset:
        """The currently severed directed ``(src, dst)`` pairs."""
        return frozenset(self._cut_links)

    # -- transmission ----------------------------------------------------------
    def send(self, src: NodeName, dst: NodeName, kind: str, payload: Any) -> int:
        """Send one message; returns its id.  Never blocks; never fails
        synchronously -- loss is only observable through missing replies."""
        msg_id = next(self._msg_ids)
        msg = Message(src, dst, kind, payload, msg_id)
        size = message_size(payload)
        self.bytes_sent += size
        self.messages_sent += 1
        env = self.env
        self.trace.record(env.now, "send", src, dst=dst, msg_kind=kind,
                          msg_id=msg_id, bytes=size)
        delay = self.latency.sample(src, dst)
        if self.faults is None:
            env._schedule(self._deliver, msg, delay)
            return msg_id
        delays = self.faults.deliveries(msg, delay)
        if not delays:
            self._drop(msg, "fault-drop")
        for extra_delay in delays:
            env._schedule(self._deliver, msg, extra_delay)
        return msg_id

    def _deliver(self, msg: Message) -> None:
        src, dst = msg.src, msg.dst
        is_up = self._is_up
        # an endpoint and its liveness predicate are registered together
        deliver = self._endpoints.get(dst)
        if deliver is None or not is_up[dst]():
            self._drop(msg, "dst-down")
            return
        if self.drop_from_crashed and not (src in is_up and is_up[src]()):
            self._drop(msg, "src-down")
            return
        if not self.partitions.reachable(src, dst):
            self._drop(msg, "partitioned")
            return
        if self._cut_links and (src, dst) in self._cut_links:
            self._drop(msg, "link-cut")
            return
        self.trace.record(self.env.now, "deliver", dst, src=src,
                          msg_kind=msg.kind, msg_id=msg.msg_id)
        deliver(msg)

    def _drop(self, msg: Message, reason: str) -> None:
        self.trace.record(self.env.now, "drop", msg.dst, src=msg.src,
                          msg_kind=msg.kind, msg_id=msg.msg_id, reason=reason)
