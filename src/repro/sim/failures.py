"""Failure and repair injection.

Two injectors are provided:

* :class:`FailureInjector` -- the *site model* of availability used in the
  paper's Section 6: every node fails and repairs as independent Poisson
  processes with rates ``lam`` (failure, while up) and ``mu`` (repair,
  while down).  The steady-state probability that a node is up is
  ``p = mu / (lam + mu)``; the paper's Table 1 uses ``p = 0.95`` via
  ``mu/lam = 19``.

* :class:`FailureSchedule` -- a deterministic script of crash/recover/
  partition/heal actions at fixed times, used by the protocol tests to
  construct specific adversarial scenarios.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Optional, Sequence

from repro.sim.engine import Environment
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.seeding import derive_rng


class FailureInjector:
    """Independent Poisson failures and repairs per node (the site model)."""

    def __init__(self, env: Environment, nodes: Sequence[Node],
                 lam: float, mu: float,
                 rng: Optional[random.Random] = None,
                 on_event: Optional[Callable[[str, Node], None]] = None):
        if lam < 0 or mu <= 0:
            raise ValueError(f"bad rates lam={lam} mu={mu}")
        self.env = env
        self.nodes = list(nodes)
        self.lam = lam
        self.mu = mu
        self.rng = (rng if rng is not None
                    else derive_rng(0, "sim.failures.site"))
        self.on_event = on_event
        self._running = False

    @property
    def availability(self) -> float:
        """Steady-state per-node availability ``mu / (lam + mu)``."""
        return self.mu / (self.lam + self.mu)

    def start(self) -> None:
        """Launch one fail/repair process per node."""
        if self._running:
            raise RuntimeError("injector already started")
        self._running = True
        for node in self.nodes:
            self.env.process(self._drive(node), name=f"faults-{node.name}")

    def _drive(self, node: Node):
        while True:
            if node.up:
                if self.lam == 0:
                    return
                yield self.env.timeout(self.rng.expovariate(self.lam))
                node.crash()
                if self.on_event:
                    self.on_event("crash", node)
            else:
                yield self.env.timeout(self.rng.expovariate(self.mu))
                node.recover()
                if self.on_event:
                    self.on_event("recover", node)


class ZoneFailureInjector:
    """Correlated failures: nodes grouped into zones (racks, power
    domains); a zone failure crashes every node in it at once.

    Node-level and zone-level failures compose: a node is up iff its zone
    is up *and* it has not failed individually.  Zone and node processes
    are independent Poisson, like the site model.
    """

    def __init__(self, env: Environment, zones: dict[str, Sequence[Node]],
                 zone_lam: float, zone_mu: float,
                 node_lam: float = 0.0, node_mu: float = 1.0,
                 rng: Optional[random.Random] = None):
        if zone_lam < 0 or zone_mu <= 0:
            raise ValueError(f"bad zone rates {zone_lam}/{zone_mu}")
        if node_lam < 0 or node_mu <= 0:
            raise ValueError(f"bad node rates {node_lam}/{node_mu}")
        seen: set[str] = set()
        for members in zones.values():
            for node in members:
                if node.name in seen:
                    raise ValueError(f"{node.name} in two zones")
                seen.add(node.name)
        self.env = env
        self.zones = {name: list(members)
                      for name, members in zones.items()}
        self.zone_lam = zone_lam
        self.zone_mu = zone_mu
        self.node_lam = node_lam
        self.node_mu = node_mu
        self.rng = (rng if rng is not None
                    else derive_rng(0, "sim.failures.zones"))
        self.zone_up = {name: True for name in zones}
        self._node_ok = {node.name: True
                         for members in zones.values() for node in members}
        self._running = False

    def start(self) -> None:
        """Launch the zone and node fail/repair processes."""
        if self._running:
            raise RuntimeError("injector already started")
        self._running = True
        for zone in self.zones:
            self.env.process(self._drive_zone(zone), name=f"zone-{zone}")
        if self.node_lam > 0:
            for members in self.zones.values():
                for node in members:
                    self.env.process(self._drive_node(node),
                                     name=f"zfaults-{node.name}")

    def _apply(self, node: Node) -> None:
        zone = next(z for z, members in self.zones.items()
                    if node in members)
        should_be_up = self.zone_up[zone] and self._node_ok[node.name]
        if should_be_up and not node.up:
            node.recover()
        elif not should_be_up and node.up:
            node.crash()

    def _drive_zone(self, zone: str):
        while True:
            if self.zone_up[zone]:
                yield self.env.timeout(self.rng.expovariate(self.zone_lam))
                self.zone_up[zone] = False
            else:
                yield self.env.timeout(self.rng.expovariate(self.zone_mu))
                self.zone_up[zone] = True
            for node in self.zones[zone]:
                self._apply(node)

    def _drive_node(self, node: Node):
        while True:
            if self._node_ok[node.name]:
                yield self.env.timeout(self.rng.expovariate(self.node_lam))
                self._node_ok[node.name] = False
            else:
                yield self.env.timeout(self.rng.expovariate(self.node_mu))
                self._node_ok[node.name] = True
            self._apply(node)


class FailureSchedule:
    """A scripted sequence of fault actions.

    Example::

        schedule = FailureSchedule(env, network, nodes)
        schedule.crash_at(1.0, "n3")
        schedule.partition_at(2.0, ["n0", "n1"], ["n2", "n4"])
        schedule.heal_at(3.0)
        schedule.recover_at(4.0, "n3")
        schedule.start()
    """

    def __init__(self, env: Environment, network: Network,
                 nodes: Iterable[Node]):
        self.env = env
        self.network = network
        self.nodes = {node.name: node for node in nodes}
        self._actions: list[tuple[float, Callable[[], None], str]] = []

    def crash_at(self, time: float, name: str) -> "FailureSchedule":
        """Schedule a crash of the named node."""
        self._actions.append((time, self.nodes[name].crash, f"crash {name}"))
        return self

    def recover_at(self, time: float, name: str) -> "FailureSchedule":
        """Schedule a recovery of the named node."""
        self._actions.append((time, self.nodes[name].recover, f"recover {name}"))
        return self

    def partition_at(self, time: float,
                     *groups: Iterable[str]) -> "FailureSchedule":
        """Schedule a network partition into the given groups.

        .. warning::
           Partitions do not *compose*: each call installs a complete
           component map (the listed groups plus one implicit group of
           every unmentioned node), REPLACING whatever partition was in
           effect.  Two overlapping episodes must be scripted as their
           combined group list at each boundary -- e.g. isolate {a} at
           t1 and additionally {b} from t2 until t3 as::

               schedule.partition_at(t1, ["a"])
               schedule.partition_at(t2, ["a"], ["b"])   # NOT just ["b"]
               schedule.partition_at(t3, ["a"])
               schedule.heal_at(t4)

           For *asymmetric* connectivity faults (or independently
           scheduled overlapping episodes) use :meth:`cut_at` /
           :meth:`restore_at`: directed link cuts overlay as a set and
           lift individually.
        """
        groups = tuple(list(g) for g in groups)
        self._actions.append(
            (time, lambda: self.network.partitions.partition(*groups),
             f"partition {groups}"))
        return self

    def heal_at(self, time: float) -> "FailureSchedule":
        """Schedule a partition heal.

        Healing is global: it restores full connectivity regardless of
        how many :meth:`partition_at` episodes preceded it (there is
        only ever one component map; see the :meth:`partition_at`
        warning).  Directed link cuts are separate state and are NOT
        lifted by a heal -- use :meth:`restore_at`.
        """
        self._actions.append((time, self.network.partitions.heal, "heal"))
        return self

    def cut_at(self, time: float, src: str, dst: str,
               both_ways: bool = False) -> "FailureSchedule":
        """Schedule a directed ``src -> dst`` link cut (asymmetric unless
        ``both_ways``).  Cuts compose: each one adds to the set of
        severed links and only :meth:`restore_at` (or
        ``Network.restore_all_links``) lifts it."""
        self._actions.append(
            (time, lambda: self.network.cut_link(src, dst,
                                                 both_ways=both_ways),
             f"cut {src}->{dst}"))
        return self

    def restore_at(self, time: float, src: str, dst: str,
                   both_ways: bool = False) -> "FailureSchedule":
        """Schedule the restoration of one directed link cut."""
        self._actions.append(
            (time, lambda: self.network.restore_link(src, dst,
                                                     both_ways=both_ways),
             f"restore {src}->{dst}"))
        return self

    def at(self, time: float, action: Callable[[], None],
           label: str = "custom") -> "FailureSchedule":
        """Schedule an arbitrary action."""
        self._actions.append((time, action, label))
        return self

    def start(self) -> None:
        """Arm every scheduled action on the simulation clock."""
        for time, action, label in self._actions:
            if time < self.env.now:
                raise ValueError(f"action {label!r} scheduled in the past")
            self.env.schedule(action, delay=time - self.env.now)


def schedule_from_trace(trace, env: Environment, network: Network,
                        nodes: Iterable[Node]) -> FailureSchedule:
    """Reconstruct a deterministic fault schedule from a recorded trace.

    Turns the crash/recover records of one run (e.g. produced by a random
    :class:`FailureInjector`) into a :class:`FailureSchedule` that replays
    the identical fault timeline against a fresh cluster -- the standard
    trick for turning a randomly-found failure into a deterministic
    regression scenario.
    """
    schedule = FailureSchedule(env, network, nodes)
    for record in trace:
        if record.kind == "node-crash":
            schedule.crash_at(record.time, record.node)
        elif record.kind == "node-recover":
            schedule.recover_at(record.time, record.node)
    return schedule
